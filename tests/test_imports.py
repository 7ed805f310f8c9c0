"""Every name a library module imports is used in that module.

The package's ``__init__`` is left out: its imports are the package's
public names.  The one other import kept without a use is
``solve.functional``, re-exported for callers of ``solve.functional``
(the span recorder of the benchmark patches it there).
"""
import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "flowerflat"
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
