"""A refused input ends the ``hawkeslob`` command with one error line.

The console entry (``[project.scripts]`` and ``python -m hawkeslob.cli``)
prints ``hawkeslob: error: <message>`` on stderr and exits 2, with no
traceback; ``cli.main`` itself still raises the ``ValueError``.
"""

import subprocess
import sys
from pathlib import Path

import pytest

from hawkeslob import cli

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"
EMPTY_AXIS = '{"eta": [1, 2], "fee_bps": []}'
MESSAGE = "sweep axis fee_bps: values must be a non-empty list, got []"
NOT_AN_OBJECT = "sweep grid must be a JSON object of axis lists, got "


@pytest.mark.parametrize("grid, message", [
    (EMPTY_AXIS, MESSAGE),
    ("null", NOT_AN_OBJECT + "None"),
    ("5", NOT_AN_OBJECT + "5"),
    ('["eta"]', NOT_AN_OBJECT + "['eta']"),
    ('"eta"', NOT_AN_OBJECT + "'eta'"),
], ids=["empty-axis", "null", "number", "list", "string"])
def test_refused_grid_prints_one_line_and_exits_2(tmp_path, grid, message):
    out_dir = tmp_path / "out"
    result = subprocess.run(
        [sys.executable, "-m", "hawkeslob.cli", "sweep", "--grid", grid,
         "--out-dir", str(out_dir)],
        capture_output=True, text=True)
    assert result.returncode == 2
    assert result.stderr == f"hawkeslob: error: {message}\n"
    assert result.stdout == ""
    assert not out_dir.exists()


def test_grid_file_that_is_not_an_object_is_refused(tmp_path, capsys):
    grid_file = tmp_path / "grid.json"
    grid_file.write_text('["eta"]')
    out_dir = tmp_path / "out"
    assert cli.console_main(["sweep", "--grid-file", str(grid_file),
                             "--out-dir", str(out_dir)]) == 2
    assert capsys.readouterr().err == \
        f"hawkeslob: error: {NOT_AN_OBJECT}['eta']\n"
    assert not out_dir.exists()


@pytest.mark.parametrize("type_index", ["99", "-1"])
def test_dynkin_type_index_out_of_range_is_refused(tmp_path, capsys,
                                                   type_index):
    out_dir = tmp_path / "out"
    assert cli.console_main(["dynkin-check", "--type-index", type_index,
                             "--paths", "2", "--out-dir", str(out_dir)]) == 2
    assert capsys.readouterr() == (
        "", f"hawkeslob: error: type_index must be in [0, 11], got "
            f"{type_index}\n")
    assert not out_dir.exists()


def test_console_entry_reports_and_main_raises(tmp_path, capsys):
    argv = ["sweep", "--grid", EMPTY_AXIS, "--out-dir", str(tmp_path)]
    assert cli.console_main(argv) == 2
    assert capsys.readouterr().err == f"hawkeslob: error: {MESSAGE}\n"
    with pytest.raises(ValueError, match="sweep axis fee_bps"):
        cli.main(argv)


def test_script_entry_is_the_console_entry():
    scripts = PYPROJECT.read_text().split("[project.scripts]\n")[1]
    assert scripts.split("\n\n")[0] == \
        'hawkeslob = "hawkeslob.cli:console_main"'


def test_grid_and_grid_file_are_refused_by_argparse(tmp_path, capsys):
    grid_file = tmp_path / "grid.json"
    grid_file.write_text('{"eta": [1]}')
    out_dir = tmp_path / "out"
    with pytest.raises(SystemExit) as exit_info:
        cli.console_main(["sweep", "--grid", '{"eta": [1]}', "--grid-file",
                          str(grid_file), "--out-dir", str(out_dir)])
    assert exit_info.value.code == 2
    last = capsys.readouterr().err.splitlines()[-1]
    assert last == ("hawkeslob sweep: error: argument --grid-file: not "
                    "allowed with argument --grid")
    assert not out_dir.exists()
