import argparse
import re
from pathlib import Path

import hdent
from hdent import cli

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


def test_cli_commands_match_docs():
    parser = cli.build_parser()
    (subparsers,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    commands = set(subparsers.choices)
    section = README.read_text().split("## Command line", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    assert set(re.findall(r"^hdent ([\w-]+)", block, re.M)) == commands
    listing = cli.__doc__.split("Subcommands::\n\n", 1)[1].split("\n\n", 1)[0]
    assert set(re.findall(r"^    ([\w-]+)  ", listing, re.M)) == commands
