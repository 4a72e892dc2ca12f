"""Every def in the package is reached from a program path or allowlisted.

A stdlib-``ast`` scan by name, in the style of ``test_imports_used.py``.
The roots are:

- the module-level code of every ``src/hawkeslob/*.py`` and
  ``perfbench/*.py`` file, with decorators, default values and class
  bodies, but not def bodies;
- the console scripts of ``pyproject.toml``;
- every dunder method;
- every def on ``ALLOWLIST``.

Tests are never roots. A reached body reaches a module-level def when it
names it as a ``Name``, as an attribute or as one part of a string split
on ``.`` and ``:`` (perfbench's ``LAYERS`` strings). A def inside a class
is reached only through an attribute ``x.<name>``, a string part, or a
bare ``Name`` in its own class body: a local variable ``done`` does not
reach a ``done`` property. Docstrings are not references. The scan
resolves names, not objects, so it over-approximates: any ``.act``
reaches every def named ``act``. What it reports has no caller by name
outside the tests.

An attribute cannot tell a method from a data attribute of the same name
(a class-body annotated field, such as a dataclass field, a
``__slots__`` entry or a ``self.<name> =`` target in the package). So a
def that shares its name with one needs a ``SHARED_NAMES`` entry: the
program def that reads it, which must be reached from a program path
and contain ``.<name>``.

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

# Defs named like a data attribute, each with the program def that reads
# it (as ``.<name>``).
SHARED_NAMES = {
    "ppo.PolicyNets.features": "ppo.CheckpointAgent.act",
    "env.Observation.inventory": "metrics.run_episode",
    "env.MarketMakingEnv.t": "env.MarketMakingEnv.step",
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
    """Names in ``nodes``: ``Name`` ids, and attribute names with the
    parts of string constants split on ``.`` and ``:``."""
    names, attrs = set(), set()
    for root in nodes:
        for node in ast.walk(root):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value,
                                                               str):
                attrs.update(re.split(r"[.:]", node.value))
    return names, attrs


def _split(tree, prefix, defs, roots, top):
    """Sort one module into ``defs`` (every function and method at module
    or class level, keyed ``module.Class.name``; ``top`` gets the keys of
    the module-level ones) and ``roots`` (the rest, including each def's
    decorators, arguments and return annotation). Returns the keys of the
    methods that a bare name in their own class body reaches."""
    own, local, seeds = {}, [], []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            own[node.name] = key = f"{prefix}.{node.name}"
            defs[key] = node
            local += node.decorator_list + [node.args]
            local += [node.returns] if node.returns else []
        elif isinstance(node, ast.ClassDef):
            roots.extend(node.decorator_list + node.bases + node.keywords)
            seeds += _split(node, f"{prefix}.{node.name}", defs, roots, top)
        else:
            local.append(node)
    roots.extend(local)
    if isinstance(tree, ast.Module):
        top.update(own.values())
        return seeds
    return seeds + [own[name] for name in _refs(local)[0] if name in own]


def _reached(defs, top, roots, seeds):
    """Keys of the defs that the root nodes and the ``seeds`` keys reach,
    to a fixpoint."""
    by_name, by_attr = {}, {}
    for key, node in defs.items():
        by_attr.setdefault(node.name, []).append(key)
        if key in top:
            by_name.setdefault(node.name, []).append(key)
    reached, todo = set(), list(seeds)

    def visit(nodes):
        names, attrs = _refs(nodes)
        todo.extend(key for name in names for key in by_name.get(name, ()))
        todo.extend(key for attr in attrs for key in by_attr.get(attr, ()))

    visit(roots)
    while todo:
        key = todo.pop()
        if key not in reached:
            reached.add(key)
            visit(defs[key].body)
    return reached


def _data_names(tree):
    """Names of the data attributes that a module defines: class-body
    annotated fields, ``__slots__`` entries and ``self.<name> =``
    targets."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for stmt in node.body:
                if (isinstance(stmt, ast.AnnAssign)
                        and isinstance(stmt.target, ast.Name)):
                    names.add(stmt.target.id)
                elif (isinstance(stmt, ast.Assign)
                      and any(getattr(t, "id", None) == "__slots__"
                              for t in stmt.targets)):
                    names.update(c.value for c in ast.walk(stmt.value)
                                 if isinstance(c, ast.Constant))
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            for target in targets:
                for t in [target, *getattr(target, "elts", ())]:
                    if (isinstance(t, ast.Attribute)
                            and getattr(t.value, "id", None) == "self"):
                        names.add(t.attr)
    return names


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


def _is_program(key, node):
    """Whether the guard checks ``key``: a package def, not a dunder."""
    return not (_is_dunder(node.name) or key.startswith("perfbench."))


def _shared_problems(defs, program, named, shared):
    """What the guard refuses about the methods in ``named``, those named
    like a data attribute."""
    out = [f"{key} shares its name with a data attribute and has no "
           f"SHARED_NAMES entry" for key in sorted(set(named) - set(shared))]
    for key, reader in sorted(shared.items()):
        name = key.rsplit(".", 1)[-1]
        if key not in defs:
            out.append(f"SHARED_NAMES {key} does not exist")
        elif key not in named:
            out.append(f"SHARED_NAMES {key} shares its name with no data "
                       f"attribute")
        elif reader not in defs:
            out.append(f"SHARED_NAMES {key}: the reader {reader} does not "
                       f"exist")
        elif reader not in program:
            out.append(f"SHARED_NAMES {key}: the reader {reader} is reached "
                       f"from no program path")
        elif not any(isinstance(node, ast.Attribute) and node.attr == name
                     for stmt in defs[reader].body
                     for node in ast.walk(stmt)):
            out.append(f"SHARED_NAMES {key}: the reader {reader} does not "
                       f"read .{name}")
    return out


def problems(root, allowlist, shared):
    """What the guard refuses in the tree at ``root``, one line each."""
    defs, roots, top, seeds, data = {}, [], set(), [], set()
    for pattern, prefix in ((("src", "hawkeslob", "*.py"), ""),
                            (("perfbench", "*.py"), "perfbench.")):
        for path in sorted(glob.glob(os.path.join(root, *pattern))):
            module = os.path.splitext(os.path.basename(path))[0]
            tree = _parse(path)
            seeds += _split(tree, prefix + module, defs, roots, top)
            if not prefix:
                data |= _data_names(tree)
    with open(os.path.join(root, "pyproject.toml"), "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    roots += [ast.Constant(value) for value in scripts.values()]
    roots += [stmt for node in defs.values() if _is_dunder(node.name)
              for stmt in node.body]
    listed = [key for key in allowlist if key in defs]

    out = []
    for key, reason in sorted(allowlist.items()):
        bad = _bad_reason(root, reason)
        if key not in defs:
            out.append(f"allowlisted {key} does not exist")
        elif bad:
            out.append(f"allowlisted {key}: the reason {bad}")
        elif key in _reached(defs, top, roots,
                             seeds + [k for k in listed if k != key]):
            out.append(f"allowlisted {key} is reached anyway")
    reached = _reached(defs, top, roots, seeds + listed)
    out += [f"{key} is reached from no program path"
            for key, node in sorted(defs.items())
            if key not in reached and _is_program(key, node)]
    named = [key for key, node in defs.items() if key not in top
             and node.name in data and _is_program(key, node)]
    program = _reached(defs, top, roots, seeds)
    return out + _shared_problems(defs, program, named, shared)


def test_every_def_is_reached_or_allowlisted():
    found = problems(ROOT, ALLOWLIST, SHARED_NAMES)
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
    assert problems(_tree(tmp_path, ORPHAN), {}, {}) == [
        "mod.orphan is reached from no program path",
        "mod.orphan_helper is reached from no program path"]


def test_allowlisted_entry_reaches_its_helpers(tmp_path):
    root = _tree(tmp_path, ORPHAN)
    assert problems(root, {"mod.orphan": "tests/test_mod.py"}, {}) == []
    assert problems(root, {"mod.orphan": "tests/test_mod.py::test_orphan",
                           "mod.orphan_helper": "tests/test_mod.py"},
                    {}) == [
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
    ("def main():\n    pass\nclass Thing:\n    def traced(self):\n"
     "        pass\n    alias = traced\n", ""),
], ids=["dotted-string", "perfbench-string", "decorator", "default",
        "dunder", "own-class-body"])
def test_reached_forms(tmp_path, module, perfbench):
    assert problems(_tree(tmp_path, module, perfbench), {}, {}) == []


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
    found = problems(_tree(tmp_path, ORPHAN), {key: reason}, {})
    assert refused in found


LOCAL_DONE = """
    def main():
        done = Env()
        return done{read}

    class Env:
        @property
        def done(self):
            return True
    """


def test_a_bare_name_does_not_reach_a_method(tmp_path):
    # A local variable named like the property leaves it unreached ...
    assert problems(_tree(tmp_path, LOCAL_DONE.format(read="")), {},
                    {}) == ["mod.Env.done is reached from no program path"]
    # ... and reading it as an attribute reaches it.
    assert problems(_tree(tmp_path, LOCAL_DONE.format(read=".done")), {},
                    {}) == []


def _shared(record):
    """A module whose ``Box.size`` property is named like a data attribute
    of ``Record``, which the class text ``record`` defines."""
    return ("def main():\n    return helper(Box()).size + Record().size\n"
            "def helper(box):\n    return box\n"
            "def orphan(box):\n    return box.size\n"
            + record +
            "class Box:\n    @property\n    def size(self):\n"
            "        return 2\n")


@pytest.mark.parametrize("record", [
    "@dataclass\nclass Record:\n    size: int = 1\n",
    "class Record:\n    __slots__ = ('size',)\n",
    "class Record:\n    def __init__(self):\n        self.size = 1\n",
], ids=["dataclass-field", "slots", "self-assignment"])
def test_method_named_like_a_data_attribute_needs_an_entry(tmp_path,
                                                           record):
    root = _tree(tmp_path, _shared(record))
    assert problems(root, {"mod.orphan": "tests/test_mod.py"}, {}) == [
        "mod.Box.size shares its name with a data attribute and has no "
        "SHARED_NAMES entry"]
    assert problems(root, {"mod.orphan": "tests/test_mod.py"},
                    {"mod.Box.size": "mod.main"}) == []


@pytest.mark.parametrize("key, reader, refused", [
    ("mod.Box.size", "mod.helper", "SHARED_NAMES mod.Box.size: the reader "
     "mod.helper does not read .size"),
    ("mod.Box.size", "mod.orphan", "SHARED_NAMES mod.Box.size: the reader "
     "mod.orphan is reached from no program path"),
    ("mod.Box.size", "mod.gone", "SHARED_NAMES mod.Box.size: the reader "
     "mod.gone does not exist"),
    ("mod.Box.gone", "mod.main", "SHARED_NAMES mod.Box.gone does not "
     "exist"),
    ("mod.helper", "mod.main", "SHARED_NAMES mod.helper shares its name "
     "with no data attribute"),
])
def test_bad_shared_entry_is_refused(tmp_path, key, reader, refused):
    root = _tree(tmp_path, _shared("class Record:\n    size: int\n"))
    assert refused in problems(root, {}, {key: reader})
