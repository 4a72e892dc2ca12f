"""Make ``hawkeslob`` importable from this checkout in test subprocesses.

``pythonpath = ["src"]`` in ``pyproject.toml`` reaches only the pytest
process; tests that start ``python -c ...`` children need ``src`` on
``PYTHONPATH`` too.
"""

import os

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)
