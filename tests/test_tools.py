"""The repository's tools: the mutants' anchors and the code-line count.

No mutant of ``tools/mutants.py`` names this file: the mutation runner
copies src/, tests/ and bench/ but not tools/, so a test that loads the
tools would fail every mutant's baseline there.
"""

import ast
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def load_tool(name):
    spec = importlib.util.spec_from_file_location(
        name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


mutants = load_tool("mutants")
code_lines = load_tool("code_lines")


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m[0])
def test_every_mutant_still_anchors(mutant):
    # Its old string occurs exactly once in its file, and every test it
    # names exists: the file, and a node's test function (before any `[`).
    name, path, old, new, tests = mutant
    source = (ROOT / "src" / "riccilab" / path).read_text(encoding="utf-8")
    assert source.count(old) == 1, name
    assert old != new
    for test in tests:
        file, _, node = test.partition("::")
        assert (ROOT / file).is_file(), test
        if node:
            defined = {n.name for n in ast.walk(ast.parse(
                (ROOT / file).read_text(encoding="utf-8")))
                if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))}
            assert node.split("::")[-1].split("[")[0] in defined, test


SAMPLE = '''"""A module docstring
over two lines."""

import os  # a comment after code

# A comment line.


class Box:
    """A class docstring."""

    size = 1


def f(x):
    """A function docstring,

    over three lines."""
    text = """a string
that is not a docstring
"""
    return (x +
            1)
'''


def test_code_lines_count_code_and_leave_out_docstrings_and_comments():
    # import, class, size, def, the string's three lines, return and its
    # continuation: 9 lines.
    assert code_lines.code_lines(SAMPLE) == 9


def test_code_lines_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SAMPLE, encoding="utf-8")
    (tmp_path / "b.py").write_text('"""Only a docstring."""\nx = 1\n',
                                   encoding="utf-8")
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.split() == ["a.py", "9", "b.py", "1",
                                               "total", "10"]
