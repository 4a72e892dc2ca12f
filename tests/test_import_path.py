"""scipy stays off the import path of everything but the Dynkin check."""

import subprocess
import sys


def test_cli_ppo_and_sweep_do_not_import_scipy():
    code = ("import sys, hawkeslob.cli, hawkeslob.ppo, hawkeslob.sweep; "
            "print('scipy' in sys.modules)")
    result = subprocess.run([sys.executable, "-c", code],
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "False"
