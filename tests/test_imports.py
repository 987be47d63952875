"""Every module of the package reads each name it imports, checked with ``ast`` alone.

The value classes keep the public surface listed here: a member added later is listed on purpose.
"""

import ast
import dataclasses
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
