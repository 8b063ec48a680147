"""tools/code_lines.py, the code-line count that CHANGES.md and ROADMAP.md
quote for src/idemnorm: a line counts when it holds a token of a statement
that is not a docstring, so blank lines, comments and docstrings do not."""

import importlib.util
import pathlib

TOOL = pathlib.Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"


def _tool():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_code_lines_skips_docstrings_comments_and_blank_lines():
    source = '''"""Module docstring,
over two lines."""

import os  # a trailing comment


# a comment line
def f(x):
    """Docstring."""
    text = """a string that is
    not a statement of its own"""
    return (x +
            1)
'''
    # import, def, the two lines of the assignment, the two of the return
    assert _tool().code_lines(source) == 6


def test_code_lines_totals_the_package(capsys):
    tool = _tool()
    assert tool.main([]) == 0
    lines = capsys.readouterr().out.splitlines()
    counts = [int(line.split()[0]) for line in lines[:-1]]
    assert lines[-1].split() == [str(sum(counts)), "total"]
    assert any(line.endswith(" sweep.py") for line in lines)
