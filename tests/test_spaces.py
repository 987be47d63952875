import ast
import os
import re
import sys
from itertools import islice

import pytest

import detstrata
from detstrata import MatrixSpace, spaces


class TestConstruction:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            MatrixSpace.general(2, 3)  # m < n
        with pytest.raises(ValueError):
            MatrixSpace.general(0, 0)
        with pytest.raises(ValueError):
            MatrixSpace.symmetric(0)
        with pytest.raises(ValueError):
            MatrixSpace.skew(1)
        with pytest.raises(ValueError):
            MatrixSpace("hermitian", 3)
        with pytest.raises(ValueError):
            MatrixSpace("symmetric", 3, 2)  # stray m

    @pytest.mark.parametrize("build, args, name", [
        ("symmetric", (2.5,), "n"),
        ("general", (3.0, 2), "m"),
        ("general", (3, 2.0), "n"),
        ("skew", (None,), "n"),
        ("general", ("3", "2"), "n"),
        ("__call__", ("general", 2, "3"), "m"),
    ], ids=repr)
    def test_non_integer_sizes_raise_type_error_naming_the_argument(self, build, args, name):
        with pytest.raises(TypeError, match=rf"^{name} must be an integer, got "):
            getattr(MatrixSpace, build)(*args)

    def test_bool_sizes_are_plain_ints(self):
        space = MatrixSpace.symmetric(True)
        assert space == MatrixSpace.symmetric(1)
        assert type(space.n) is int and str(space) == "symmetric(1)"
        assert MatrixSpace.general(True, True).params() == {"m": 1, "n": 1}

    def test_str(self):
        assert str(MatrixSpace.general(3, 2)) == "general(3,2)"
        assert str(MatrixSpace.symmetric(4)) == "symmetric(4)"
        assert str(MatrixSpace.skew(5)) == "skew(5)"


def test_spaces_up_to_yields_each_space_as_it_is_built(monkeypatch):
    """A huge bound gives its first spaces at once: no space is built before it is asked for."""
    built = []

    def counted(*args):
        assert len(built) < 3, "a fourth space was built before the first three were taken"
        built.append(MatrixSpace(*args))
        return built[-1]

    monkeypatch.setattr(spaces, "MatrixSpace", counted)
    first = list(islice(spaces.spaces_up_to(detstrata.GENERAL, 10**9), 3))
    assert first == built == [MatrixSpace.general(m, 1) for m in (1, 2, 3)]


class TestDerivedQuantities:
    def test_dimension(self):
        assert MatrixSpace.general(4, 3).dim == 12
        assert MatrixSpace.symmetric(4).dim == 10
        assert MatrixSpace.skew(5).dim == 10

    def test_dimension_up_to_12(self):
        for n in range(1, 13):
            for m in range(n, 13):
                assert MatrixSpace.general(m, n).dim == m * n
            assert MatrixSpace.symmetric(n).dim == n * (n + 1) // 2
            if n >= 2:
                assert MatrixSpace.skew(n).dim == n * (n - 1) // 2

    def test_strata_count(self):
        assert MatrixSpace.general(4, 3).num_strata == 4
        assert MatrixSpace.symmetric(4).num_strata == 5
        assert MatrixSpace.skew(4).num_strata == 3
        assert MatrixSpace.skew(5).num_strata == 3

    def test_params(self):
        assert MatrixSpace.general(4, 3).params() == {"m": 4, "n": 3}
        assert MatrixSpace.skew(5).params() == {"n": 5}

    def test_stratum_dims_increase_to_dim(self):
        for sp in [MatrixSpace.general(5, 3), MatrixSpace.symmetric(6), MatrixSpace.skew(7)]:
            dims = [sp.stratum_dim(p) for p in sp.strata]
            assert dims[0] == 0
            assert dims[-1] == sp.dim
            assert dims == sorted(dims)


SPACES_UP_TO_12 = (
    [MatrixSpace.general(m, n) for n in range(1, 13) for m in range(n, 13)]
    + [MatrixSpace.symmetric(n) for n in range(1, 13)]
    + [MatrixSpace.skew(n) for n in range(2, 13)]
)


def test_reduced_spaces_are_the_transverse_slices():
    """The smaller spaces that chi_from_enumeration reads its rows from."""
    for space in SPACES_UP_TO_12:
        top = space.num_strata - 1
        assert space.stratum_dim(top) == space.dim, str(space)
        assert space.reduced(0) == space, str(space)
        for i in range(1, top):
            reduced = space.reduced(i)
            assert reduced.family == space.family, (str(space), i)
            assert space.dim - space.stratum_dim(i) == reduced.dim, (str(space), i)
            assert reduced.num_strata == space.num_strata - i, (str(space), i)


def test_family_knowledge_lives_only_in_the_records():
    """No module but spaces.py compares a family name: the records carry the per-family data."""
    package = os.path.dirname(detstrata.__file__)
    offenders = []
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py") or name == "spaces.py":
            continue
        with open(os.path.join(package, name)) as fh:
            for lineno, line in enumerate(fh, start=1):
                if re.search(r"family\s*[!=]=", line):
                    offenders.append(f"{name}:{lineno}: {line.strip()}")
    assert offenders == []


def test_package_imports_only_the_standard_library():
    """The package is stdlib-only: every absolute import names a standard-library module."""
    package = os.path.dirname(detstrata.__file__)
    foreign = []
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(package, name)) as fh:
            tree = ast.parse(fh.read(), filename=name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            foreign += [
                f"{name}:{node.lineno}: {module}"
                for module in modules
                if module.partition(".")[0] not in sys.stdlib_module_names
            ]
    assert foreign == []
