from pathlib import Path

import hdent

README = Path(__file__).resolve().parents[1] / "README.md"


def test_public_names_sorted_unique_and_resolvable():
    names = hdent.__all__
    assert names == sorted(set(names))
    for name in names:
        assert hasattr(hdent, name), name


def test_readme_quick_start_runs():
    section = README.read_text().split("## Library quick start", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(compile(code, f"{README.name} (Library quick start)", "exec"), namespace)
    assert isinstance(namespace["witness"], hdent.WitnessReport)
    assert isinstance(namespace["errors"], hdent.ResampleSummary)
