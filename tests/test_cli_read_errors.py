"""An input file the command cannot read ends it with one error line.

A config, ``--grid-file`` or checkpoint path that cannot be opened is
reported as ``hawkeslob: error: cannot read <what> '<path>': <reason>``
with exit status 2, as any refused input is; ``cli.main`` raises it as a
``ValueError``. An output that cannot be written is not an input, and
still raises.
"""

import subprocess
import sys

import pytest

from hawkeslob import cli


def test_missing_config_prints_one_line_and_exits_2(tmp_path):
    missing = tmp_path / "nope.json"
    result = subprocess.run(
        [sys.executable, "-m", "hawkeslob.cli", "eval", "--config",
         str(missing), "--out-dir", str(tmp_path)],
        capture_output=True, text=True)
    assert result.returncode == 2
    assert result.stderr == (f"hawkeslob: error: cannot read config "
                             f"{str(missing)!r}: No such file or directory\n")
    assert result.stdout == ""


@pytest.mark.parametrize("argv, what", [
    (["eval", "--agent", "checkpoint:{path}", "--episodes", "1"],
     "checkpoint"),
    (["sweep", "--grid-file", "{path}"], "grid file"),
    (["train", "--config", "{path}"], "config"),
])
def test_unreadable_inputs_are_refused_by_path(tmp_path, capsys, argv, what):
    missing = str(tmp_path / "nope.json")
    argv = [arg.format(path=missing) for arg in argv] + \
        ["--out-dir", str(tmp_path / "out")]
    message = f"cannot read {what} {missing!r}: No such file or directory"
    assert cli.console_main(argv) == 2
    assert capsys.readouterr().err == f"hawkeslob: error: {message}\n"
    with pytest.raises(ValueError) as info:
        cli.main(argv)
    assert str(info.value) == message


def test_a_directory_is_not_a_config(tmp_path, capsys):
    argv = ["eval", "--config", str(tmp_path), "--out-dir", str(tmp_path)]
    assert cli.console_main(argv) == 2
    assert capsys.readouterr().err.startswith(
        f"hawkeslob: error: cannot read config {str(tmp_path)!r}: ")


def test_output_write_errors_still_raise(tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("")
    with pytest.raises(OSError):
        cli.console_main(["simulate", "--out-dir", str(blocker / "out")])
