"""The documented surface exists: every name in ``hawkeslob.__all__``
resolves, and every ``hawkeslob ...`` line of the README's "Command line"
block parses with the CLI's own parser (parsed only, nothing is run)."""

import os
import re
import shlex

import pytest

import hawkeslob
from hawkeslob.cli import build_parser

README = os.path.join(os.path.dirname(__file__), "..", "README.md")


def test_every_exported_name_resolves():
    namespace = {}
    exec("from hawkeslob import *", namespace)
    for name in hawkeslob.__all__:
        assert getattr(hawkeslob, name) is namespace[name]
    assert len(set(hawkeslob.__all__)) == len(hawkeslob.__all__)


def _readme_command_lines():
    with open(README) as fh:
        text = fh.read()
    block = re.search(r"^## Command line\n\n```bash\n(.*?)^```", text,
                      re.M | re.S)
    assert block, "README has no Command line block"
    return [line for line in block.group(1).splitlines()
            if line.startswith("hawkeslob ")]


def test_readme_has_a_line_per_command():
    commands = {shlex.split(line, comments=True)[1]
                for line in _readme_command_lines()}
    assert commands == {"simulate", "train", "eval", "sweep", "dynkin-check"}


@pytest.mark.parametrize("line", _readme_command_lines())
def test_readme_command_line_parses(line):
    argv = shlex.split(line, comments=True)
    build_parser().parse_args(argv[1:])
