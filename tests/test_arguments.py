"""The free functions of ``detstrata.__all__`` take their integer arguments through ``operator.index``.

A float, a string or None raises a TypeError that names the argument; a bool
reads as 0 or 1.
"""

import re

import pytest

from detstrata import (
    IntegerWeight,
    Partition,
    enumerate_in_rectangle,
    epsilon_symmetric,
    lambda_extension,
    member_general,
    member_skew,
    member_symmetric,
    schur_dimension,
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
