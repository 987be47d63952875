"""``tools/code_size.py`` counts code lines and tokens without docstrings, comments or blank lines."""

import importlib.util
from pathlib import Path

SPEC = importlib.util.spec_from_file_location("code_size", Path(__file__).parents[1] / "tools" / "code_size.py")
code_size = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(code_size)

SAMPLE = '''"""Module docstring,
over two lines."""

# a comment line
import os  # a trailing comment


class Box:
    """Class docstring."""

    side = 2


def area(box):
    """Function docstring.

    With a blank line inside it.
    """
    text = """not a docstring"""
    return (box.side
            * box.side)
'''


def test_counts_code_lines_and_tokens_of_a_sample():
    # import os | class Box : | side = 2 | def area ( box ) : | text = "..." | return ( box . side * box . side )
    assert code_size.count(SAMPLE) == (7, 2 + 3 + 3 + 6 + 3 + 10)
