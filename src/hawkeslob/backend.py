"""Numerical backend selection.

Hot kernels in :mod:`hawkeslob._kernels` are written once in plain
numpy/``math`` style and compiled with numba's ``@njit`` when available.
Selection happens at import time via the ``HAWKESLOB_BACKEND`` environment
variable:

* ``HAWKESLOB_BACKEND=numba`` (default when numba is importable): kernels
  are JIT-compiled with ``cache=True``.
* ``HAWKESLOB_BACKEND=numpy``: kernels run as ordinary Python functions.

When the variable is unset and numba is not importable, the numpy backend
is used and the import prints a one-line notice to stderr (once per
process, as the module is imported once); stdout is untouched.

Both paths execute the same source and the same libm calls, so simulation
output is bit-identical across backends (see ``tests/test_backends.py`` and
``python3 perfbench/run.py --parity``). numba is the optional ``jit``
extra of the package.
"""

import os
import sys

_requested = os.environ.get("HAWKESLOB_BACKEND", "").strip().lower()

if _requested not in ("", "numba", "numpy"):
    raise ValueError(
        f"HAWKESLOB_BACKEND must be 'numba' or 'numpy', got {_requested!r}"
    )

USE_NUMBA = _requested != "numpy"
if USE_NUMBA:
    try:
        from numba import njit as _numba_njit
    except ImportError:
        if _requested == "numba":
            raise
        USE_NUMBA = False
        print("hawkeslob: numba is not importable, so kernels run on the "
              "pure-Python 'numpy' backend (set HAWKESLOB_BACKEND=numpy to "
              "choose it without this notice)", file=sys.stderr)

if USE_NUMBA:
    def njit(*args, **kwargs):
        kwargs.setdefault("cache", True)
        return _numba_njit(*args, **kwargs)
else:
    def njit(*args, **kwargs):
        if args and callable(args[0]):
            return args[0]

        def wrap(func):
            return func

        return wrap

BACKEND = "numba" if USE_NUMBA else "numpy"
