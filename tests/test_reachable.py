"""Every def in the package is reached from a program path or allowlisted.

A stdlib-``ast`` scan by name, in the style of ``test_imports_used.py``.
The roots are:

- the module-level code of every ``src/hawkeslob/*.py`` and
  ``perfbench/*.py`` file, with decorators, default values and class
  bodies, but not def bodies;
- the console scripts of ``pyproject.toml``;
- every dunder method;
- every def on ``ALLOWLIST``.

Tests are never roots. A def is reached when a reached body names it: as
a ``Name``, as an attribute, or as one part of a string split on ``.``
and ``:`` (perfbench's ``LAYERS`` strings). Docstrings are not
references. The scan resolves names, not objects, so it over-approximates:
any ``.act`` reaches every def named ``act``. What it reports has no
caller by name outside the tests.

An allowlist entry is an entry point that a test needs and the program
does not call; the defs it calls need no entries. Its reason names that
test as ``tests/<file>.py``, optionally with ``::<name>`` parts, or a
perfbench file as ``perfbench/<file>.py``, and what it names must exist.
An entry that the program, or another entry, reaches is refused as stale.
"""

import ast
import glob
import os
import re
import textwrap
import tomllib

import pytest

ROOT = os.path.join(os.path.dirname(__file__), "..")

ALLOWLIST = {
    "qvi.generator":
        "criterion 05, tests/test_acceptance.py"
        "::test_criterion_05_generator_and_dynkin",
    "qvi.sample_reduced_state":
        "criterion 05, tests/test_acceptance.py"
        "::test_criterion_05_generator_and_dynkin",
    "qvi.sample_intensities":
        "criterion 05, tests/test_acceptance.py"
        "::test_criterion_05_generator_and_dynkin",
    "qvi.impulse_branches":
        "the exact branch distribution that tests/test_draws.py checks "
        "sampled apply_impulse transitions against",
    "nn.DenseNet.get_flat":
        "criterion 06, tests/test_acceptance.py"
        "::test_criterion_06_combined_loss_gradcheck",
    "nn.DenseNet.set_flat":
        "criterion 06, tests/test_acceptance.py"
        "::test_criterion_06_combined_loss_gradcheck",
    "params.poisson_flow_params":
        "criteria 08 and 09, tests/test_acceptance.py::smoke_checkpoint",
    "params.powerlaw_tail_intensity_bound":
        "criterion 02, tests/test_acceptance.py"
        "::test_criterion_02_recursion_vs_brute_force",
    "hawkes.HawkesClock.apply_event":
        "criterion 02, tests/test_acceptance.py"
        "::test_criterion_02_recursion_vs_brute_force",
    "hawkes.HawkesClock.sample_next_event":
        "tests/test_thinning_bound.py and tests/test_clock_layout.py",
    "book.BookState.p_mid":
        "the accounting identity, tests/test_env.py"
        "::TestRewards::test_telescoping_deltas",
    "env.Observation.to_vector":
        "seed determinism, tests/test_env.py"
        "::TestReset::test_seed_determinism and tests/test_env.py"
        "::TestDeterminism",
}

_CITED = re.compile(r"\b((?:tests|perfbench)/\w+\.py)((?:::\w+)*)")


def _strip_docstrings(tree):
    for node in ast.walk(tree):
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                              ast.AsyncFunctionDef))
                and ast.get_docstring(node, clean=False) is not None):
            node.body[0] = ast.Pass()
    return tree


def _parse(path):
    with open(path) as fh:
        return _strip_docstrings(ast.parse(fh.read(), filename=path))


def _refs(nodes):
    """Names in ``nodes``: ``Name`` ids, attribute names and the parts of
    string constants split on ``.`` and ``:``."""
    names = set()
    for top in nodes:
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value,
                                                               str):
                names.update(re.split(r"[.:]", node.value))
    return names


def _split(tree, prefix, defs, roots):
    """Sort one module into ``defs`` (every function and method at module
    or class level, keyed ``module.Class.name``) and ``roots`` (the rest,
    including each def's decorators, arguments and return annotation)."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            defs[f"{prefix}.{node.name}"] = node
            roots.extend(node.decorator_list)
            roots.append(node.args)
            roots.extend([node.returns] if node.returns else [])
        elif isinstance(node, ast.ClassDef):
            roots.extend(node.decorator_list + node.bases + node.keywords)
            _split(node, f"{prefix}.{node.name}", defs, roots)
        else:
            roots.append(node)


def _reached(defs, roots):
    """Keys of the defs that the root nodes reach, to a fixpoint."""
    by_name = {}
    for key, node in defs.items():
        by_name.setdefault(node.name, []).append(key)
    reached, seen, todo = set(), set(), list(_refs(roots))
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        for key in by_name.get(name, ()):
            reached.add(key)
            todo.extend(_refs(defs[key].body))
    return reached


def _defined(path, parts):
    """Whether the file at ``path`` defines the nested names ``parts``."""
    body = _parse(path).body
    for part in parts:
        node = next((n for n in body if getattr(n, "name", None) == part),
                    None)
        if node is None:
            return False
        body = getattr(node, "body", [])
    return True


def _bad_reason(root, reason):
    """Why ``reason`` cites no existing test or perfbench file, or None."""
    cited = _CITED.findall(reason)
    if not cited:
        return "names no tests/ or perfbench/ file"
    for rel, parts in cited:
        path = os.path.join(root, rel)
        if not os.path.isfile(path):
            return f"names {rel}, which does not exist"
        if parts and not _defined(path, parts.split("::")[1:]):
            return f"names {rel}{parts}, which does not exist"
    return None


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def problems(root, allowlist):
    """What the guard refuses in the tree at ``root``, one line each."""
    defs, roots = {}, []
    for pattern, prefix in ((("src", "hawkeslob", "*.py"), ""),
                            (("perfbench", "*.py"), "perfbench.")):
        for path in sorted(glob.glob(os.path.join(root, *pattern))):
            module = os.path.splitext(os.path.basename(path))[0]
            _split(_parse(path), prefix + module, defs, roots)
    with open(os.path.join(root, "pyproject.toml"), "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    roots += [ast.Constant(value) for value in scripts.values()]
    roots += [stmt for node in defs.values() if _is_dunder(node.name)
              for stmt in node.body]

    def bodies(keys):
        return [stmt for key in keys if key in defs
                for stmt in defs[key].body]

    out = []
    for key, reason in sorted(allowlist.items()):
        bad = _bad_reason(root, reason)
        if key not in defs:
            out.append(f"allowlisted {key} does not exist")
        elif bad:
            out.append(f"allowlisted {key}: the reason {bad}")
        elif key in _reached(defs, roots + bodies(k for k in allowlist
                                                  if k != key)):
            out.append(f"allowlisted {key} is reached anyway")
    reached = _reached(defs, roots + bodies(allowlist))
    out += [f"{key} is reached from no program path"
            for key, node in sorted(defs.items())
            if not (key in reached or key in allowlist
                    or _is_dunder(node.name) or key.startswith("perfbench."))]
    return out


def test_every_def_is_reached_or_allowlisted():
    found = problems(ROOT, ALLOWLIST)
    assert not found, "\n".join(found)


# The scanner itself, on small trees, so that the guard cannot pass by
# reaching everything.

def _tree(tmp_path, module, perfbench=""):
    """A repo at ``tmp_path`` whose package is the one module ``mod.py``,
    with ``hawkeslob.mod:main`` as its console script and one test."""
    files = {
        "src/hawkeslob/mod.py": module,
        "perfbench/run.py": perfbench,
        "tests/test_mod.py": "def test_orphan():\n    orphan()\n",
        "pyproject.toml":
            '[project.scripts]\nhawkeslob = "hawkeslob.mod:main"\n',
    }
    for rel, text in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(text))
    return str(tmp_path)


ORPHAN = """
    def main():
        \"\"\"Names orphan in its docstring only.\"\"\"
        return helper()

    def helper():
        return 1

    def orphan():
        return orphan_helper()

    def orphan_helper():
        return 2
    """


def test_orphan_is_reported(tmp_path):
    assert problems(_tree(tmp_path, ORPHAN), {}) == [
        "mod.orphan is reached from no program path",
        "mod.orphan_helper is reached from no program path"]


def test_allowlisted_entry_reaches_its_helpers(tmp_path):
    root = _tree(tmp_path, ORPHAN)
    assert problems(root, {"mod.orphan": "tests/test_mod.py"}) == []
    assert problems(root, {"mod.orphan": "tests/test_mod.py::test_orphan",
                           "mod.orphan_helper": "tests/test_mod.py"}) == [
        "allowlisted mod.orphan_helper is reached anyway"]


@pytest.mark.parametrize("module, perfbench", [
    ("def main():\n    return 'mod.Thing.traced'\n"
     "class Thing:\n    def traced(self):\n        pass\n", ""),
    ("def main():\n    pass\ndef traced():\n    pass\n",
     "LAYERS = [('mod', 'traced')]\n"),
    ("@traced\ndef main():\n    pass\ndef traced(fn):\n    return fn\n", ""),
    ("def main(key=traced):\n    pass\ndef traced():\n    pass\n", ""),
    ("def main():\n    pass\nclass Thing:\n    def __eq__(self, other):\n"
     "        return traced()\ndef traced():\n    pass\n", ""),
], ids=["dotted-string", "perfbench-string", "decorator", "default",
        "dunder"])
def test_reached_forms(tmp_path, module, perfbench):
    assert problems(_tree(tmp_path, module, perfbench), {}) == []


@pytest.mark.parametrize("key, reason, refused", [
    ("mod.main", "tests/test_mod.py", "allowlisted mod.main is reached "
     "anyway"),
    ("mod.gone", "tests/test_mod.py", "allowlisted mod.gone does not exist"),
    ("mod.orphan", "criterion 05", "allowlisted mod.orphan: the reason "
     "names no tests/ or perfbench/ file"),
    ("mod.orphan", "tests/test_gone.py", "allowlisted mod.orphan: the "
     "reason names tests/test_gone.py, which does not exist"),
    ("mod.orphan", "tests/test_mod.py::test_gone", "allowlisted mod.orphan: "
     "the reason names tests/test_mod.py::test_gone, which does not exist"),
])
def test_bad_entry_is_refused(tmp_path, key, reason, refused):
    found = problems(_tree(tmp_path, ORPHAN), {key: reason})
    assert refused in found
