"""Every public entry of ``detstrata`` takes its integer arguments through ``operator.index``.

That covers the free functions of ``__all__``, the value constructors and
the methods that take an integer.  A float, a string or None raises a
TypeError that names the argument; a bool reads as 0 or 1.  A weight,
partition, space, polynomial or matrix argument of any other type raises a
TypeError that names it, too, and the arithmetic operators refuse a foreign
operand.  ``cli.main`` names an argv that is not a list of strings.  The
last test walks every public callable with drawn arguments.
"""

import inspect
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import detstrata
from detstrata import (
    GENERAL,
    SKEW,
    SYMMETRIC,
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
from detstrata.cli import main

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
    (euler_char_at_origin, (LaurentPoly(0, (1,)), 1), 0, "gf"),
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


# (constructor, arguments with one bad field, the field's name)
CONSTRUCTIONS = [
    (IntegerWeight, (None,), "entries"),
    (IntegerWeight, ((2, "1"),), "entries"),
    (Partition, (2.5,), "parts"),
    (Partition, ((2.0,),), "parts"),
    (Partition, (None,), "parts"),
    (LaurentPoly, (None,), "min_exp"),
    (LaurentPoly, (1.0, (1,)), "min_exp"),
    (LaurentPoly, (0, None), "coeffs"),
    (LaurentPoly, (0, (1.5,)), "coeffs"),
    (LaurentPoly, (0, 3), "coeffs"),
    (StrataMatrix, (None,), "rows"),
    (StrataMatrix, ((None,),), "rows"),
    (StrataMatrix, (((1.5,),),), "rows"),
    (StrataMatrix, (((1, "2"), (0, 1)),), "rows"),
    # text and byte strings iterate as characters or ints, so each is refused before it is read
    (Partition, ("",), "parts"),
    (Partition, (b"\x03\x01",), "parts"),
    (IntegerWeight, ("",), "entries"),
    (IntegerWeight, (b"\x02\x01",), "entries"),
    (LaurentPoly, (0, ""), "coeffs"),
    (LaurentPoly, (0, b"\x01\x02"), "coeffs"),
    (StrataMatrix, ("",), "rows"),
    (StrataMatrix, ([b"\x01"],), "rows"),
    # a memoryview of bytes iterates as ints, so it is refused as well
    (Partition, (memoryview(b"\x03\x01"),), "parts"),
    (IntegerWeight, (memoryview(b"\x02\x01"),), "entries"),
    (LaurentPoly, (0, memoryview(b"\x01\x02")), "coeffs"),
    (StrataMatrix, ([memoryview(b"\x01")],), "rows"),
]


@pytest.mark.parametrize("cls, args, name", CONSTRUCTIONS,
                         # a memoryview's repr holds its address, so its id names the type
                         ids=[re.sub(r"<memory at \w+>", "memoryview", f"{cls.__name__}{args!r}")
                              for cls, args, _ in CONSTRUCTIONS])
def test_constructors_name_the_field_they_refuse(cls, args, name):
    value = args[[*inspect.signature(cls).parameters].index(name)]
    expected = f"{name} must (be an integer|hold only integers), got {re.escape(repr(value))}"
    with pytest.raises(TypeError, match=f"^{expected}$"):
        cls(*args)


POLY = LaurentPoly(0, (1, 2, 1))
MATRIX = StrataMatrix(((1, 2, 0), (0, 1, 1), (0, 0, 1)))
# (a call, the exception it raises, its whole message)
METHOD_CALLS = [
    (lambda: POLY.evaluate(0.5), TypeError, "x must be an integer, got 0.5"),
    (lambda: POLY.evaluate("2"), TypeError, "x must be an integer, got '2'"),
    (lambda: POLY.coefficient(7.5), TypeError, "exponent must be an integer, got 7.5"),
    (lambda: POLY.coefficient(1.0), TypeError, "exponent must be an integer, got 1.0"),
    (lambda: POLY.shift(1.0), TypeError, "k must be an integer, got 1.0"),
    (lambda: POLY.substitute_power(2.0), TypeError, "k must be an integer, got 2.0"),
    (lambda: POLY.substitute_power(None), TypeError, "k must be an integer, got None"),
    (lambda: MATRIX.entry(0.0, 1), TypeError, "i must be an integer, got 0.0"),
    (lambda: MATRIX.entry(0, None), TypeError, "j must be an integer, got None"),
    (lambda: MATRIX.entry(3, 0), ValueError, "cell (3,0) out of range for order 3"),
    (lambda: MATRIX.entry(0, -1), ValueError, "cell (0,-1) out of range for order 3"),
    (lambda: Partition((3, 1)).pad(4.0), TypeError, "length must be an integer, got 4.0"),
    (lambda: POLY + 1, TypeError, "unsupported operand type(s) for +: 'LaurentPoly' and 'int'"),
    (lambda: POLY * None, TypeError, "unsupported operand type(s) for *: 'LaurentPoly' and 'NoneType'"),
    (lambda: MATRIX * None, TypeError, "unsupported operand type(s) for *: 'StrataMatrix' and 'NoneType'"),
    (lambda: MATRIX * POLY, TypeError, "unsupported operand type(s) for *: 'StrataMatrix' and 'LaurentPoly'"),
]


@pytest.mark.parametrize("call, error, message", METHOD_CALLS, ids=[call[2] for call in METHOD_CALLS])
def test_methods_name_a_bad_argument_and_refuse_foreign_operands(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


# argv values that are no list of strings: a non-string item, byte strings, no iterable, one text string
BAD_ARGVS = [
    ["derham", "--family", "general", "--n", "2", "--m", "2", "--p", 1],
    [b"verify", b"--family"],
    5,
    "verify --family symm --max 2",
]


@pytest.mark.parametrize("argv", BAD_ARGVS, ids=repr)
def test_main_names_an_argv_that_is_not_a_list_of_strings(argv):
    with pytest.raises(TypeError, match=f"^{re.escape(f'argv must hold only strings, got {argv!r}')}$"):
        main(argv)


# Valid values for each annotated parameter type; every parameter also draws from DRAWN.
VALID = {
    "MatrixSpace": [S, MatrixSpace.general(3, 2), MatrixSpace.skew(4)],
    "IntegerWeight": [W, IntegerWeight((1, 1, -1))],
    "Partition": [Partition((2, 1)), Partition(())],
    "LaurentPoly": [POLY, LaurentPoly(-1, (1, 1))],
    "StrataMatrix": [ONE, MATRIX],
    "str": [GENERAL, SYMMETRIC, SKEW],
    "tuple[int, ...]": [(2, 1, 0), (1,)],
    "tuple[tuple[int, ...], ...]": [((1, 0), (0, 1))],
}
# small ints only: larger sizes make the enumerations costly
DRAWN = st.one_of(
    st.integers(-2, 6), st.floats(allow_nan=False), st.text(max_size=3), st.none(), st.booleans()
)
TYPES = {name: type(values[0]) for name, values in VALID.items()}


def well_typed(value, annotation: str) -> bool:
    """Whether value has the annotated type: an int (bools included), None where allowed, or an instance."""
    if annotation == "object":
        return True
    if annotation.startswith("int"):
        return isinstance(value, int) or (value is None and annotation == "int | None")
    return isinstance(value, TYPES[annotation])


# Every callable of __all__, and the methods that take an argument, bound to sample values
PUBLIC = [getattr(detstrata, name) for name in detstrata.__all__ if callable(getattr(detstrata, name))] + [
    POLY.evaluate, POLY.coefficient, POLY.shift, POLY.substitute_power, POLY.__add__, POLY.__mul__,
    MATRIX.entry, MATRIX.__mul__, Partition((3, 1)).pad,
]
PUBLIC_IDS = [function.__qualname__ for function in PUBLIC]
# a negative min_exp makes evaluate refuse every x but 1 and -1
PUBLIC.append(LaurentPoly(-2, (1, 0, 3)).evaluate)
PUBLIC_IDS.append("LaurentPoly.evaluate-negative-exponents")


@pytest.mark.parametrize("function", PUBLIC, ids=PUBLIC_IDS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_every_public_entry_answers_as_with_ints_or_names_a_bad_argument(function, data):
    """Each call answers as it does with bools made ints, or raises ValueError or a TypeError naming a bad argument.

    ``Mismatch`` is a plain record that checks nothing, so it only has to stay within those two types.
    """
    params = inspect.signature(function).parameters
    args = {
        name: data.draw(st.one_of(DRAWN, st.sampled_from(VALID.get(param.annotation, [0]))), label=name)
        for name, param in params.items()
    }
    try:
        got = function(**args)
    except ValueError:
        return
    except TypeError as exc:
        bad = [name for name, value in args.items() if not well_typed(value, params[name].annotation)]
        assert bad and re.match(f"({'|'.join(bad)}) must ", str(exc)), (args, str(exc))
        return
    ints = {name: int(value) if isinstance(value, bool) else value for name, value in args.items()}
    assert got == function(**ints)
