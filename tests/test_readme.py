"""The README's library quickstart runs and prints the values its comments state."""

import ast
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quickstart_gives_its_commented_values():
    text = README.read_text()
    block = text.split("## Library quickstart", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    lines = block.splitlines()
    namespace: dict = {}
    shown = []
    for stmt in ast.parse(block).body:
        if isinstance(stmt, ast.Expr):
            # an expression line states its value first in its comment
            value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
            comment = lines[stmt.lineno - 1].partition("#")[2].strip()
            assert comment.startswith(repr(value)), (comment, value)
            shown.append(value)
        else:
            exec(compile(ast.Module([stmt], type_ignores=[]), "README.md", "exec"), namespace)
    assert shown == [1.0, 0.5, (1.0, "bilinear"), (1.0, "bilinear", None), -1.0, -0.5, 0.0]
