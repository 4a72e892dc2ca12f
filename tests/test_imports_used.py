"""Every imported name is used. A stdlib-``ast`` check over the package and
the tests: a name bound by an import must be read somewhere in its module
or be listed in the module's ``__all__``."""

import ast
import glob
import os

import pytest

ROOT = os.path.join(os.path.dirname(__file__), "..")
FILES = sorted(glob.glob(os.path.join(ROOT, "src", "hawkeslob", "*.py"))
               + glob.glob(os.path.join(ROOT, "tests", "*.py")))


def _imported(tree):
    """(bound name, line) of every import in the module, anywhere."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _used(tree):
    """Names read in the module, or exported by its ``__all__``."""
    used = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return used


@pytest.mark.parametrize("path", FILES,
                         ids=[os.path.relpath(p, ROOT) for p in FILES])
def test_every_import_is_used(path):
    with open(path) as fh:
        tree = ast.parse(fh.read(), filename=path)
    used = _used(tree)
    unused = [f"line {line}: {name}" for name, line in _imported(tree)
              if name not in used]
    assert not unused, f"unused imports in {os.path.relpath(path, ROOT)}: " \
        + ", ".join(unused)
