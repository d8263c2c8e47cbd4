"""Static checks on the library source: every import is used and at module level.

Neither pyflakes nor ruff ships with the project, so these `ast` scans are
the lint: a name bound by an import must be read somewhere in the module, or
be listed in `__all__`, and no import statement sits inside a function body.
"""

import ast
import os

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "siltglue")
MODULES = sorted(
    os.path.relpath(os.path.join(d, f), SRC)
    for d, _dirs, files in os.walk(SRC)
    for f in files
    if f.endswith(".py")
)


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
