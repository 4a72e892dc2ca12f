"""The numerical backend: plain Python.

The hot kernels in :mod:`hawkeslob._kernels` are ordinary Python
functions on lists of Python scalars, with numpy where a whole array
expression pays (the power-law sum). ``BACKEND`` names this backend in
run records. The ``HAWKESLOB_BACKEND`` environment variable may be unset
or ``numpy``; any other value, ``numba`` included, is refused at import,
so a run that asked for another backend fails instead of silently
running this one.
"""

import os

_requested = os.environ.get("HAWKESLOB_BACKEND", "").strip().lower()
if _requested not in ("", "numpy"):
    raise ValueError(
        f"HAWKESLOB_BACKEND must be unset or 'numpy', got {_requested!r}")

BACKEND = "numpy"
