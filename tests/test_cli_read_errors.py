"""An input the command cannot read ends it with one error line.

A config, ``--grid-file`` or checkpoint path that cannot be opened is
reported as ``hawkeslob: error: cannot read <what> '<path>': <reason>``
with exit status 2, as any refused input is; ``cli.main`` raises it as a
``ValueError``. One that is not JSON is reported as ``<what> '<path>' is
not valid JSON: <reason>`` with the line and column, and an inline
``--grid`` as ``--grid is not valid JSON: <reason>``. A refused input
leaves no ``--out-dir`` behind. An output that cannot be written is not
an input, and still raises.
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


BAD_JSON = '{"trainer": {1: 2}}'
BAD_JSON_REASON = ("Expecting property name enclosed in double quotes: "
                   "line 1 column 14 (char 13)")


@pytest.mark.parametrize("argv, what", [
    (["eval", "--agent", "checkpoint:{path}", "--episodes", "1"],
     "checkpoint"),
    (["sweep", "--grid-file", "{path}"], "grid file"),
    (["eval", "--config", "{path}"], "config"),
])
def test_malformed_json_is_refused_by_path(tmp_path, capsys, argv, what):
    bad = tmp_path / "bad.json"
    bad.write_text(BAD_JSON)
    argv = [arg.format(path=bad) for arg in argv] + \
        ["--out-dir", str(tmp_path / "out")]
    message = f"{what} {str(bad)!r} is not valid JSON: {BAD_JSON_REASON}"
    assert cli.console_main(argv) == 2
    assert capsys.readouterr().err == f"hawkeslob: error: {message}\n"
    with pytest.raises(ValueError) as info:
        cli.main(argv)
    assert str(info.value) == message


def test_malformed_inline_grid_is_refused_as_grid(tmp_path, capsys):
    argv = ["sweep", "--grid", BAD_JSON, "--out-dir", str(tmp_path / "out")]
    assert cli.console_main(argv) == 2
    assert capsys.readouterr().err == \
        f"hawkeslob: error: --grid is not valid JSON: {BAD_JSON_REASON}\n"


@pytest.mark.parametrize("argv", [
    ["sweep", "--grid", '{"eta": 5}'],
    ["sweep", "--grid", BAD_JSON],
    ["eval", "--agent", "checkpoint:{missing}"],
    ["eval", "--agent", "alpha-wolf"],
], ids=["sweep-bad-axis", "sweep-bad-json", "eval-missing-checkpoint",
        "eval-unknown-agent"])
def test_refused_run_leaves_no_out_dir(tmp_path, capsys, argv):
    out = tmp_path / "out"
    argv = [arg.replace("{missing}", str(tmp_path / "nope.json"))
            for arg in argv]
    assert cli.console_main(argv + ["--out-dir", str(out)]) == 2
    assert capsys.readouterr().err.startswith("hawkeslob: error: ")
    assert not out.exists()
