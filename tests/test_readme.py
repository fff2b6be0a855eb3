"""The README's examples run and print what the README says they print."""

import ast
import re
import shlex
from pathlib import Path

import pytest

from accumtest import cli

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()
# A trailing comment that starts with a number states the value of the
# expression on its line, e.g. ``print(result.k_hat)  # 4``.
STATED = re.compile(r"\s*#\s*([-+]?\d+(?:\.\d*)?(?:[eE][-+]?\d+)?)(?:\s.*)?")


def fenced_blocks(language):
    return re.findall(rf"^```{language}\n(.*?)^```", README, flags=re.S | re.M)


def run_block(source):
    """Execute ``source`` statement by statement; return the expressions
    whose value a trailing comment states, after checking each value."""
    namespace = {}
    lines = source.splitlines()
    checked = []
    for stmt in ast.parse(source).body:
        comment = lines[stmt.end_lineno - 1][stmt.end_col_offset :]
        stated = STATED.fullmatch(comment)
        if stated is None or not isinstance(stmt, ast.Expr):
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
            continue
        expr = stmt.value
        if isinstance(expr, ast.Call) and getattr(expr.func, "id", None) == "print":
            (expr,) = expr.args
        value = eval(compile(ast.Expression(expr), "README.md", "eval"), namespace)
        assert value == pytest.approx(float(stated.group(1)), abs=1e-9)
        checked.append(ast.unparse(expr))
    return checked


def test_python_examples_give_the_stated_values(capsys):
    blocks = fenced_blocks("python")
    assert len(blocks) == 2
    checked = [expr for block in blocks for expr in run_block(block)]
    assert checked == ["result.k_hat", "unit_integral(spec)"]


def test_power_example_prints_the_stated_lines(capsys):
    (block,) = [b for b in fenced_blocks("sh") if b.startswith("accumtest power")]
    command, *stated = block.splitlines()
    assert cli.main(shlex.split(command)[1:]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert printed == [line.removeprefix("# ") for line in stated]
    assert len(printed) == 2
