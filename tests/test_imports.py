"""Every module of the package reads each name it imports, checked with ``ast`` alone.

The modules import one another without a cycle, and the command line reads
the closed text and the multiplicities through the modules that own them.
The value classes keep the public surface listed here: a member added later is listed on purpose.
"""

import ast
import dataclasses
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

import pytest

from detstrata import IntegerWeight, LaurentPoly, MatrixSpace, Partition, StrataMatrix

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "detstrata"
# __init__ imports to re-export, so its names are read through __all__ instead
MODULES = sorted(path.name for path in PACKAGE.glob("*.py") if path.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names that ``source`` binds by an import and never reads, sorted.

    ``import a.b`` binds ``a``; ``from __future__`` imports bind nothing.  A
    name counts as read wherever it is loaded, annotations included.
    """
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(alias.asname or alias.name for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(bound - read)


def test_the_checker_finds_what_it_should():
    source = (
        "from __future__ import annotations\n"
        "import os.path, json as js\n"
        "from .qpoly import LaurentPoly, gauss_binomial  # noqa: F401\n"
        "from typing import Iterator\n"
        "if True:\n"
        "    from .spaces import MatrixSpace\n"
        "def rows(space: MatrixSpace) -> Iterator[int]:\n"
        "    return os.path.join(LaurentPoly)\n"
    )
    assert unused_imports(source) == ["gauss_binomial", "js"]


def test_the_package_has_modules():
    assert {"derham.py", "obstructions.py", "qpoly.py", "spaces.py"} <= set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_read(module):
    assert unused_imports((PACKAGE / module).read_text()) == [], module


def package_imports(source: str) -> set[str]:
    """The package modules that ``source`` imports from by ``from .x import``, anywhere in it.

    ``ast.walk`` reaches function bodies and ``TYPE_CHECKING`` blocks too.
    """
    return {
        node.module for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
    }


def find_cycle(graph: dict[str, set[str]]) -> list[str]:
    """One cycle of the graph as its nodes with the first repeated last, or [] when it has none."""
    try:
        TopologicalSorter(graph).prepare()
    except CycleError as exc:
        return exc.args[1]
    return []


IMPORTS = {path.stem: package_imports(path.read_text()) for path in PACKAGE.glob("*.py")}


def test_the_import_reader_and_cycle_finder_find_what_they_should():
    source = (
        "from typing import TYPE_CHECKING\n"
        "from .partitions import _size\n"
        "if TYPE_CHECKING:\n"
        "    from .spaces import MatrixSpace\n"
        "def f():\n"
        "    from .qpoly import LaurentPoly\n"
        "    from . import derham\n"
    )
    assert package_imports(source) == {"partitions", "spaces", "qpoly"}
    cycle = find_cycle({"a": {"b"}, "b": {"c"}, "c": {"a"}, "d": {"a"}})
    assert sorted(cycle) == ["a", "a", "b", "c"] and cycle[0] == cycle[-1]
    assert find_cycle({"a": {"b", "c"}, "b": {"c"}, "c": set()}) == []


def test_the_package_import_graph_has_no_cycle():
    assert find_cycle(IMPORTS) == []


def test_each_rule_is_imported_from_its_owner():
    # derham owns the closed-polynomial text, spaces owns multiplicity
    assert IMPORTS["cli"].isdisjoint({"qpoly", "characters"})
    assert "spaces" not in IMPORTS["characters"]


# The names without a leading underscore of each value class, its fields included.
SURFACE = {
    LaurentPoly: {
        "coefficient", "coeffs", "evaluate", "from_terms", "is_zero", "max_exp", "min_exp", "shift",
        "substitute_power", "support", "to_json",
    },
    Partition: {"conjugate", "pad", "parts", "size", "to_json"},
    IntegerWeight: {"entries"},
    StrataMatrix: {"entry", "order", "rows", "to_json"},
    MatrixSpace: {
        "check_stratum", "dim", "family", "general", "m", "n", "num_strata", "params", "record", "reduced",
        "skew", "strata", "stratum_dim", "symmetric",
    },
}


@pytest.mark.parametrize("cls", SURFACE, ids=lambda cls: cls.__name__)
def test_value_classes_keep_their_listed_public_surface(cls):
    public = {name for name in dir(cls) if not name.startswith("_")}
    assert public | {field.name for field in dataclasses.fields(cls)} == SURFACE[cls]
