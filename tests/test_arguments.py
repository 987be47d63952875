"""The free functions of ``detstrata.__all__`` take their integer arguments through ``operator.index``.

A float, a string or None raises a TypeError that names the argument; a bool
reads as 0 or 1.  A weight, partition, space, polynomial or matrix argument
of any other type raises a TypeError that names it, too.
"""

import re

import pytest

from detstrata import (
    IntegerWeight,
    LaurentPoly,
    MatrixSpace,
    Partition,
    StrataMatrix,
    chi_closed,
    chi_from_enumeration,
    enumerate_in_rectangle,
    epsilon_symmetric,
    euler_char_at_origin,
    euler_closed,
    ic_poincare,
    inv_derham_gf_closed,
    inv_derham_gf_enum,
    lambda_extension,
    member_general,
    member_skew,
    member_symmetric,
    micro_indices,
    multiplicity,
    schur_dimension,
    signed_micro,
    solve_euler,
    verify,
    verify_index_identity,
)

W = IntegerWeight((2, 1, 0))

# (function, a valid call's arguments, the position of one integer argument, its name)
CALLS = [
    (enumerate_in_rectangle, (2, 2, 2), 0, "rows"),
    (enumerate_in_rectangle, (2, 2, 2), 1, "cols"),
    (enumerate_in_rectangle, (2, 2, 2), 2, "k"),
    (epsilon_symmetric, (3, 1), 0, "n"),
    (epsilon_symmetric, (3, 1), 1, "p"),
    (member_general, (W, 4, 1), 1, "m"),
    (member_general, (W, 4, 1), 2, "p"),
    (member_symmetric, (W, 1), 1, "p"),
    (member_skew, (W, 1), 1, "p"),
    (lambda_extension, (W, 1, 4), 1, "s"),
    (lambda_extension, (W, 1, 4), 2, "m"),
    (schur_dimension, (Partition((2, 1)), 3), 1, "N"),
]


def outcome(function, args):
    """The value of the call, or the type and message of the ValueError it raises."""
    try:
        return function(*args)
    except ValueError as exc:
        return ValueError, str(exc)


@pytest.mark.parametrize("value", [1.0, 2.5, "1", None, True, False], ids=repr)
@pytest.mark.parametrize("function, args, at, name", CALLS,
                         ids=[f"{call[0].__name__}-{call[3]}" for call in CALLS])
def test_integer_arguments_refuse_non_integers_and_read_bools_as_ints(function, args, at, name, value):
    bad = [*args[:at], value, *args[at + 1:]]
    if isinstance(value, bool):
        assert outcome(function, bad) == outcome(function, [*args[:at], int(value), *args[at + 1:]])
    else:
        with pytest.raises(TypeError, match=f"^{re.escape(f'{name} must be an integer, got {value!r}')}$"):
            function(*bad)


# (function, a valid call's arguments, the position of its weight or partition argument, its name)
TYPED_CALLS = [
    (member_general, (W, 4, 1), 0, "w"),
    (member_symmetric, (W, 1), 0, "w"),
    (member_skew, (W, 1), 0, "w"),
    (lambda_extension, (W, 1, 4), 0, "w"),
    (multiplicity, (MatrixSpace.symmetric(3), 1, W), 2, "w"),
    (schur_dimension, (Partition((2, 1)), 3), 0, "p"),
]
# the entries as a plain tuple or list, no value, a string, and the other one of the two types
OTHER_VALUES = [(2, 1, 0), [2, 1, 0], None, "210", Partition((2, 1)), IntegerWeight((2, 1, 0))]


@pytest.mark.parametrize("function, args, at, name, value", [
    pytest.param(function, args, at, name, value, id=f"{function.__name__}-{name}-{value!r}")
    for function, args, at, name in TYPED_CALLS
    for value in OTHER_VALUES
    if type(value) is not type(args[at])
])
def test_weight_and_partition_arguments_refuse_other_types(function, args, at, name, value):
    kind = type(args[at]).__name__
    with pytest.raises(TypeError, match=f"^{re.escape(f'{name} must be of type {kind}, got {value!r}')}$"):
        function(*args[:at], value, *args[at + 1:])


S = MatrixSpace.symmetric(3)
ONE = StrataMatrix(((1, 0), (0, 1)))
# (function, a valid call's arguments, the position of its space, polynomial or matrix argument, its name)
OBJECT_CALLS = [
    *((function, (S,), 0, "space") for function in (
        chi_closed, chi_from_enumeration, euler_closed, micro_indices, signed_micro, verify,
        verify_index_identity)),
    *((function, (S, 1), 0, "space") for function in (ic_poincare, inv_derham_gf_enum, inv_derham_gf_closed)),
    (multiplicity, (S, 1, W), 0, "space"),
    (euler_char_at_origin, (LaurentPoly.one(), 1), 0, "gf"),
    (solve_euler, (ONE, ONE), 0, "chi"),
    (solve_euler, (ONE, ONE), 1, "signed"),
]


@pytest.mark.parametrize("value", [None, "symmetric(3)"], ids=repr)
@pytest.mark.parametrize("function, args, at, name", OBJECT_CALLS,
                         ids=[f"{call[0].__name__}-{call[3]}" for call in OBJECT_CALLS])
def test_space_polynomial_and_matrix_arguments_refuse_other_types(function, args, at, name, value):
    kind = type(args[at]).__name__
    with pytest.raises(TypeError, match=f"^{re.escape(f'{name} must be of type {kind}, got {value!r}')}$"):
        function(*args[:at], value, *args[at + 1:])
