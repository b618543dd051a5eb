import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "loc.py"
_SPEC = importlib.util.spec_from_file_location("loc", _PATH)
loc = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(loc)

_MODULE = '''"""Module docstring,
on two lines."""

# a comment-only line
import math


class Shape:
    """Class docstring."""

    sides = 0   # a trailing comment keeps its line


def area(r):
    """Function docstring,

    over three lines."""
    text = """a multi-line string
that is not a docstring"""
    return math.pi * r * r, text


async def fetch():
    """Async docstring."""
'''


def test_code_lines_skip_docstrings_comments_and_blanks():
    # import, class, sides, def, text (2 lines), return, async def
    assert loc.code_lines(_MODULE) == 8


def test_multi_line_string_that_is_not_a_docstring_counts():
    assert loc.code_lines('x = 1\ny = """a\nb\nc"""\n') == 4
    assert loc.code_lines('"""a\nb"""\n') == 0
    assert loc.code_lines('x = 1\n"""a\nb"""\n') == 3
