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


def test_compares_two_trees_module_by_module(tmp_path, capsys):
    old, new = tmp_path / "old", tmp_path / "new"
    old.mkdir()
    new.mkdir()
    (old / "box.py").write_text(SAMPLE)
    (old / "gone.py").write_text("x = 1\n")
    (new / "box.py").write_text(SAMPLE + "side = Box.side\n")
    (new / "added.py").write_text("y = 2\nz = 3\n")
    assert code_size.main([str(old), str(new)]) == 0
    rows = {line.split()[0]: line.split()[1:] for line in capsys.readouterr().out.splitlines()[3:]}
    assert rows == {
        "added.py": ["0", "2", "+2", "0", "6", "+6"],
        "box.py": ["7", "8", "+1", "27", "32", "+5"],
        "gone.py": ["1", "0", "-1", "3", "0", "-3"],
        "total": ["8", "10", "+2", "30", "38", "+8"],
    }
