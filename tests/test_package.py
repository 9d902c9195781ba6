import hdent


def test_public_names_sorted_unique_and_resolvable():
    names = hdent.__all__
    assert names == sorted(set(names))
    for name in names:
        assert hasattr(hdent, name), name
