"""Every layer the traced benchmark wraps exists in the package.

``perfbench/tracing.py`` lists in ``LAYERS`` the functions and methods
that ``Tracer.install`` replaces, and looks each one up with
``inspect.getattr_static``. A name deleted from the package makes
``perfbench/run.py --trace 1`` fail at install; this test reads the list
(loading the file, not changing it) and makes the same lookups."""

import importlib
import importlib.util
import inspect
import os

import pytest

TRACING = os.path.join(os.path.dirname(__file__), "..", "perfbench",
                       "tracing.py")


def _layers():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


LAYERS = _layers()


def test_layers_are_read():
    assert LAYERS


@pytest.mark.parametrize("module, qualname", [layer[:2] for layer in LAYERS],
                         ids=[f"{m}.{q}" for m, q, *_ in LAYERS])
def test_layer_resolves(module, qualname):
    mod = importlib.import_module(f"hawkeslob.{module}")
    owner_name, _, attr = qualname.rpartition(".")
    owner = getattr(mod, owner_name) if owner_name else mod
    assert callable(inspect.getattr_static(owner, attr))
