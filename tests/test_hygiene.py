"""Static checks on the library source: imports, local names and private helpers.

Neither pyflakes nor ruff ships with the project, so these `ast` scans are
the lint: a name bound by an import must be read somewhere in the module, or
be listed in `__all__`; no import statement sits inside a function body; a
local name that a function assigns is read in it, unless the name starts
with `_`; and every module-level `_private` function or class, and every
`_private` method of a module-level class, is referenced somewhere in the
library outside its own definition, and so is every module-level UPPER_CASE
constant; and no module but `fields` divides with `/`, which gives a float
on two ints.  Six more checks guard the benchmark's traced run: every
method its tracer wraps must exist, every function of the `decompose`,
`homs`, `complexes` and `linalg` layers, and of the `approx`, `gluing`,
`recollement` and `serialize` layers, that it times or counts by name must
resolve, and a `HomSpace`, an `EndAlgebra` and a generation report each
carry every attribute or key its hook reads.
One more runs the CLI's import and the gluing fixtures in a fresh
interpreter, which must never load sympy, and one more checks that every
test README.md names exists.
"""

import ast
import importlib.util
import os
import re
import subprocess
import sys

import pytest

from siltglue.complexes import direct_sum
from siltglue.decompose import EndAlgebra
from siltglue.fields import QQ, PrimeField
from siltglue.fixtures import ka3_algebra, ka3_named_complexes
from siltglue.gluing import check_generation, check_presilting, summand_classes
from siltglue.homs import HomSpace, hom_spaces

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "siltglue")
MODULES = sorted(
    os.path.relpath(os.path.join(d, f), SRC)
    for d, _dirs, files in os.walk(SRC)
    for f in files
    if f.endswith(".py")
)


def library_sources():
    """{module: source text} of every library module."""
    sources = {}
    for module in MODULES:
        with open(os.path.join(SRC, module)) as fh:
            sources[module] = fh.read()
    return sources


def unused_imports(source):
    """Names bound by imports in `source` that the module never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used |= {elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def function_imports(source):
    """(line, function name) of each import statement inside a function body in `source`."""
    found = set()
    for fn in ast.walk(ast.parse(source)):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(fn):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    found.add((node.lineno, fn.name))
    return sorted(found)


def unread_locals(source):
    """(line, function name, name) of each local name a function in `source` assigns and never reads.

    A read anywhere in the function, nested functions included, counts.
    Names starting with `_` and names declared global or nonlocal are
    skipped.
    """
    found = set()
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        stored, read = {}, set()
        for node in ast.walk(fn):
            if isinstance(node, ast.Name):
                if isinstance(node.ctx, ast.Store):
                    stored.setdefault(node.id, node.lineno)
                else:
                    read.add(node.id)
            elif isinstance(node, (ast.Global, ast.Nonlocal)):
                read.update(node.names)
        found.update((line, fn.name, name) for name, line in stored.items() if name not in read and name[0] != "_")
    return sorted(found)


def unreferenced_helpers(sources):
    """(module, line, name) of each `_private` helper never used.

    A helper is a module-level function or class, named as it is, or a
    method of a module-level class, named `Class._method`.  `sources` maps
    module names to source text.  A use is a name read, an attribute or an
    imported name anywhere in `sources` that does not lie inside the
    helper's own definition, so a helper that only calls itself counts as
    unused.
    """
    trees = {module: ast.parse(text) for module, text in sources.items()}
    uses = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.alias):
                name = node.name
            else:
                continue
            uses.setdefault(name, []).append(id(node))
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    found = []
    for module, tree in trees.items():
        helpers = [(node, node.name) for node in tree.body if isinstance(node, defs)]
        helpers += [
            (meth, f"{cls.name}.{meth.name}")
            for cls in tree.body
            if isinstance(cls, ast.ClassDef)
            for meth in cls.body
            if isinstance(meth, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        for node, label in helpers:
            if not node.name.startswith("_") or node.name.startswith("__"):
                continue
            own = {id(n) for n in ast.walk(node)}
            if all(use in own for use in uses.get(node.name, ())):
                found.append((module, node.lineno, label))
    return sorted(found)


def test_scan_finds_an_unused_import():
    assert unused_imports("import os\nfrom a import b, c\nprint(c)\n") == [(1, "os"), (2, "b")]
    assert unused_imports("import os.path\nos.path.join('a')\n") == []


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    with open(os.path.join(SRC, module)) as fh:
        assert unused_imports(fh.read()) == []


def test_scan_finds_a_function_level_import():
    src = "import os\n\ndef f():\n    import sys\n    def g():\n        from a import b\n\nclass C:\n    def m(self):\n        import re\n"
    assert function_imports(src) == [(4, "f"), (6, "f"), (6, "g"), (10, "m")]
    assert function_imports("import os\nfrom a import b\n") == []


@pytest.mark.parametrize("module", MODULES)
def test_no_function_level_imports(module):
    with open(os.path.join(SRC, module)) as fh:
        assert function_imports(fh.read()) == []


def test_scan_finds_an_unread_local():
    src = (
        "def f(xs):\n"
        "    z = 0\n"
        "    for i, x in enumerate(xs):\n"
        "        y = x\n"
        "    _skip = 1\n"
        "    return [w for w in xs]\n"
        "\n"
        "def g():\n"
        "    global n\n"
        "    n = 1\n"
        "    c = 2\n"
        "\n"
        "    def h():\n"
        "        return c\n"
        "    return h\n"
    )
    assert unread_locals(src) == [(2, "f", "z"), (3, "f", "i"), (4, "f", "y")]
    assert unread_locals("x = 1\n") == []


@pytest.mark.parametrize("module", MODULES)
def test_no_unread_locals(module):
    with open(os.path.join(SRC, module)) as fh:
        assert unread_locals(fh.read()) == []


def test_scan_finds_an_unreferenced_helper():
    sources = {
        "a": "def _used():\n    pass\n\ndef _unused():\n    pass\n\ndef _self_only(n):\n    return _self_only(n - 1)\n",
        "b": "from a import _used\n\nclass _Dead:\n    pass\n\ndef public():\n    return a._used\n",
        "c": "class C:\n    def _dead(self):\n        return self._dead()\n\n    def _live(self):\n        pass\n\n    def __init__(self):\n        self._live()\n",
    }
    assert unreferenced_helpers(sources) == [
        ("a", 4, "_unused"),
        ("a", 7, "_self_only"),
        ("b", 3, "_Dead"),
        ("c", 2, "C._dead"),
    ]
    assert unreferenced_helpers({"c": "def _h():\n    pass\n\nx = [_h]\n"}) == []


def test_no_unreferenced_private_helpers():
    assert unreferenced_helpers(library_sources()) == []


def unread_constants(sources):
    """(module, line, name) of each module-level UPPER_CASE constant that no library code reads.

    A constant is a name that an assignment in a module's top level binds
    and that has no lower-case letter.  A read is a name loaded, an
    attribute or an imported name anywhere in `sources`, which maps module
    names to source text, so a budget left behind by a deleted search
    counts as unread.
    """
    trees = {module: ast.parse(text) for module, text in sources.items()}
    reads = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                reads.add(node.id)
            elif isinstance(node, ast.Attribute):
                reads.add(node.attr)
            elif isinstance(node, ast.alias):
                reads.add(node.name)
    found = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
            else:
                continue
            for target in targets:
                name = getattr(target, "id", "")
                if name.isupper() and name not in reads:
                    found.append((module, node.lineno, name))
    return sorted(found)


def test_scan_finds_an_unread_constant():
    sources = {
        "a": "BUDGET = 20\nUSED = 3\nLIMIT: int = 5\nlower = 1\nMixed = 2\n\ndef f():\n    LOCAL = 4\n    return USED\n",
        "b": "from a import LIMIT\nimport a\nTRIES = 7\nTRIES = 8\n\ndef g():\n    return a.other\n",
    }
    assert unread_constants(sources) == [("a", 1, "BUDGET"), ("b", 3, "TRIES"), ("b", 4, "TRIES")]
    assert unread_constants({"c": "STEPS = 4\n\ndef h():\n    return m.STEPS\n"}) == []


def test_no_unread_constants():
    assert unread_constants(library_sources()) == []


def true_divisions(source):
    """Lines of `source` with a true division, `a / b` or `a /= b`.

    On two ints `/` gives a float, and a rational scalar is an int when it is
    integral, so a quotient of scalars goes through `QQ.div`.
    """
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div)
    )


def test_scan_finds_a_true_division():
    src = "def f(a, b):\n    c = a // b\n    d = a / b\n    a /= d\n    return [x / 2 for x in (c, d)]\n"
    assert true_divisions(src) == [3, 4, 5]
    assert true_divisions("x = 7 // 2 % 3\n") == []


@pytest.mark.parametrize("module", [m for m in MODULES if m != "fields.py"])
def test_no_true_division_outside_fields(module):
    with open(os.path.join(SRC, module)) as fh:
        assert true_divisions(fh.read()) == []


def load_tracing():
    """`siltbench/tracing.py`, loaded from its file; nothing is installed."""
    spec = importlib.util.spec_from_file_location("siltbench_tracing", os.path.join(ROOT, "siltbench", "tracing.py"))
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_traced_methods_exist():
    """Every (class, method) that `siltbench/tracing.py` wraps exists.

    `Tracer.install` looks each one up with `getattr`, so a renamed method
    would crash only the traced benchmark run.
    """
    tracing = load_tracing()
    missing = [
        f"{cls.__name__}.{name}" for cls, names in tracing.METHODS for name in names if not callable(getattr(cls, name, None))
    ]
    assert tracing.METHODS and not missing


def test_traced_decompose_names_resolve():
    """Every name of these layers that `siltbench/tracing.py` times or counts names a callable of the library.

    The layers are `decompose`, `homs`, `complexes` and `linalg`.
    `Tracer.install` wraps module functions by walking each module, so a
    renamed function would silently leave its counter at zero.
    """
    tracing = load_tracing()
    names = {n for table in (tracing.GROUPS, tracing.CALLS) for ns in table.values() for n in ns}
    layers = ("decompose", "homs", "complexes", "linalg")
    names = sorted(n for n in names if n.startswith(tuple(f"{layer}." for layer in layers)))

    def resolves(name):
        module, *parts = name.split(".")
        obj = getattr(tracing, module)
        for part in parts:
            obj = getattr(obj, part, None)
        return callable(obj)

    assert {n.split(".")[0] for n in names} == set(layers)
    assert [n for n in names if not resolves(n)] == []


def test_traced_upper_layer_names_resolve():
    """Every name of the `approx`, `gluing`, `recollement` and `serialize` layers that the tracer times or counts resolves.

    The only names allowed to miss are the two precover names that
    `siltbench/tracing.py` still lists from before the precover became the
    envelope over the opposite algebra.
    """
    tracing = load_tracing()
    layers = ("approx", "gluing", "recollement", "serialize")
    names = sorted(
        n
        for table in (tracing.GROUPS, tracing.CALLS)
        for ns in table.values()
        for n in ns
        if n.split(".")[0] in layers
    )

    def resolves(name):
        module, *parts = name.split(".")
        obj = getattr(tracing, module)
        for part in parts:
            obj = getattr(obj, part, None)
        return callable(obj)

    assert {n.split(".")[0] for n in names} == set(layers)
    assert "approx._susp_envelope_stage" in names
    stale = {"approx._cosusp_precover_stage", "approx._is_precover"}
    assert [n for n in names if not resolves(n) and n not in stale] == []


def test_homspace_carries_what_the_tracer_reads(ka3):
    """`Tracer._hook_homspace` runs on a HomSpace built alone and on one a walker built.

    The hook reads the space's X, Y, k, fvars and hvars after each
    `HomSpace.__init__`; a missing attribute would crash only the traced
    benchmark run.  The tracer is loaded and called, never installed.
    """
    tracing = load_tracing()
    X, Y = ka3["I2"], ka3["P"]["3"]
    spaces = [HomSpace(X, Y, 1)] + list(hom_spaces(X, Y).values())
    tracer = tracing.Tracer()
    for hs in spaces:
        tracer._hook_homspace((hs,), None, 0.0, None)
    assert tracer.counters["homs.unknowns"] == sum(hs.fvars.dim + hs.hvars.dim for hs in spaces)
    assert tracer.counters["homs.repeats"] == 1 and len(tracer.hom_keys) == len(spaces) - 1


def test_generation_report_carries_what_the_tracer_reads(ka3):
    """`Tracer._hook_generation` runs on a "generated", a "not generated" and an "undecided" report.

    The hook reads each report's `objects` after `check_generation`; a
    missing key would count nothing, and only in the traced benchmark run.
    The tracer is loaded and called, never installed.
    """
    tracing = load_tracing()
    tracer = tracing.Tracer()
    P = ka3["P"]
    sets = [[P["1"], P["2"], P["3"]], [P["1"], P["2"]], [ka3["I2"], ka3["S2"], P["3"]]]
    reports = [check_generation(ka3["A"], summand_classes(T), check_presilting(T)) for T in sets]
    assert [rep["status"] for rep in reports] == ["generated", "not generated", "undecided"]
    for rep in reports:
        tracer._hook_generation((), rep, 0.0, None)
    assert tracer.counters["gluing.generation_objects"] == sum(rep["objects"] for rep in reports) == 8


def test_end_algebra_carries_what_the_tracer_reads():
    """`Tracer._hook_end` runs on an EndAlgebra over Q and over F_5, whose `radical` the tracer wraps.

    The hook reads the algebra's `dim` after each `EndAlgebra.__init__`; a
    missing attribute would crash only the traced benchmark run.  The
    tracer is loaded and called, never installed.
    """
    tracing = load_tracing()
    tracer = tracing.Tracer()
    ends = []
    for field in (QQ, PrimeField(5)):
        d = ka3_named_complexes(ka3_algebra(field))
        ends.append(EndAlgebra(direct_sum(d["S2"], d["S2"])))
    for end in ends:
        tracer._hook_end((end,), None, 0.0, None)
        assert len(end.radical()) < end.dim
    assert tracer.counters["decompose.end_dim_sum"] == sum(end.dim for end in ends) > 0


NO_SYMPY_SCRIPT = """
import sys
import siltglue.cli
from siltglue.fields import QQ, PrimeField
from siltglue.fixtures import glue_fixtures
from siltglue.gluing import canonical_corner_silting, glue

loaded = ["import"] if "sympy.core" in sys.modules else []
for field in (QQ, PrimeField(5), PrimeField(2), PrimeField(2147483647)):
    for name, rec, T_B in glue_fixtures(field):
        assert glue(rec, [canonical_corner_silting(rec)], T_B).passed, (field, name)
        if "sympy.core" in sys.modules:
            loaded.append((str(field), name))
print(loaded)
"""


def test_cli_and_gluing_fixtures_never_load_sympy():
    """Gluing every fixture, over Q, F_5, F_2 and F_2147483647, leaves sympy unloaded.

    Every complex they decompose splits by its components, so no minimal
    polynomial is factored.  `decompose.sympy` is a lazy module that sits in
    `sys.modules["sympy"]` from the start; `sympy.core` appears only once it
    has been executed.
    """
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    res = subprocess.run(
        [sys.executable, "-c", NO_SYMPY_SCRIPT], capture_output=True, text=True, env=env, timeout=120, check=True
    )
    assert res.stdout.strip() == "[]"


def unknown_readme_tests(readme, tests):
    """The test names in `readme` that no test defines.

    A name is a `tests/<file>.py::<name>` or a backticked `test_*` name;
    `tests` maps the name of each test file to its source text.  The first
    form must name a test function of its file, the second one of any file.
    """
    defined = {
        name: {n.name for n in ast.walk(ast.parse(src)) if isinstance(n, ast.FunctionDef) and n.name.startswith("test")}
        for name, src in tests.items()
    }
    anywhere = set().union(*defined.values())
    missing = [f"tests/{f}::{t}" for f, t in re.findall(r"tests/(\w+\.py)::(\w+)", readme) if t not in defined.get(f, ())]
    return missing + [t for t in re.findall(r"`(test_\w+)`", readme) if t not in anywhere]


def test_scan_finds_an_unknown_readme_test():
    tests = {"test_a.py": "def test_one():\n    pass\n\ndef helper():\n    pass\n", "test_b.py": "def test_two():\n    pass\n"}
    readme = (
        "`tests/test_a.py::test_one` and tests/test_a.py::test_two, tests/test_c.py::test_one,\n"
        "`test_two`, `test_three`, `helper`, `test_a.py`, tests/test_a.py::helper\n"
    )
    assert unknown_readme_tests(readme, tests) == [
        "tests/test_a.py::test_two",
        "tests/test_c.py::test_one",
        "tests/test_a.py::helper",
        "test_three",
    ]


def test_readme_names_only_existing_tests():
    tests = {}
    for name in os.listdir(os.path.join(ROOT, "tests")):
        if name.endswith(".py"):
            with open(os.path.join(ROOT, "tests", name)) as fh:
                tests[name] = fh.read()
    with open(os.path.join(ROOT, "README.md")) as fh:
        readme = fh.read()
    assert re.search(r"`test_\w+`", readme) and unknown_readme_tests(readme, tests) == []
