"""Every ``plethlab`` example in the README's command-line section runs."""

import re
import shlex
from pathlib import Path

import pytest

from plethlab import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def _examples():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Command line", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    return [
        line.split("#", 1)[0].strip()
        for line in block.splitlines()
        if line.startswith("plethlab ")
    ]


EXAMPLES = _examples()


def test_readme_examples_are_found():
    assert EXAMPLES


@pytest.mark.parametrize("line", EXAMPLES)
def test_readme_example_runs(line, capsys):
    argv = shlex.split(line)
    assert argv[0] == "plethlab"
    assert cli.main(argv[1:]) == cli.EXIT_OK
    assert capsys.readouterr().out
