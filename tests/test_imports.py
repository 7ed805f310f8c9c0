"""Every name a library module imports is used in that module, and the
exact oracle stays independent of the library.

The package's ``__init__`` is left out of the first check: its imports
are the package's public names.  The one other import kept without a use
is ``solve.functional``, re-exported for callers of ``solve.functional``
(the span recorder of the benchmark patches it there).

``tests/exact_oracle.py`` is a reference for the library, so it imports
nothing from ``flowerflat`` and no library module imports it.
"""
import ast
import pathlib

import pytest

TESTS = pathlib.Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "flowerflat"
RE_EXPORTS = {("solve", "functional")}


def unused_imports(source: str):
    """The names bound by the imports of a module that nothing else in
    it reads, by the module's syntax tree."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported |= {(a.asname or a.name).split(".")[0]
                         for a in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


MODULES = sorted(p.stem for p in SRC.glob("*.py") if p.stem != "__init__")


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    names = unused_imports((SRC / f"{module}.py").read_text())
    assert [n for n in names if (module, n) not in RE_EXPORTS] == []


def test_the_check_sees_a_leftover_import():
    source = ("import bisect\nfrom typing import List, Sequence\n"
              "from .circle import distance, reduce\n"
              "def f(x: List[float]):\n    return reduce(x[0])\n")
    assert unused_imports(source) == ["Sequence", "bisect", "distance"]


def imported_modules(source: str):
    """The modules the imports of a source file name, by its syntax tree:
    dotted names as written, with a leading dot for a relative import."""
    modules = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules |= {a.name for a in node.names}
        elif isinstance(node, ast.ImportFrom):
            modules.add("." * node.level + (node.module or ""))
    return modules


def test_oracle_imports_nothing_from_the_library():
    modules = imported_modules((TESTS / "exact_oracle.py").read_text())
    assert not [m for m in modules
                if m.startswith(".") or m.split(".")[0] == "flowerflat"]


@pytest.mark.parametrize("path", sorted(SRC.parent.rglob("*.py")),
                         ids=lambda p: p.name)
def test_library_does_not_import_the_oracle(path):
    modules = imported_modules(path.read_text())
    assert "exact_oracle" not in {m.lstrip(".").split(".")[0]
                                  for m in modules}


def test_the_check_sees_the_imports():
    source = ("import numpy as np\nimport flowerflat.solve\n"
              "from .dynamics import ExpandingMap\nfrom . import circle\n"
              "from exact_oracle import exact_phi\n")
    assert imported_modules(source) == {
        "numpy", "flowerflat.solve", ".dynamics", ".", "exact_oracle"}
