"""The README's Quick tour runs and prints the values its comments give.

The tour's code block is executed statement by statement in one
namespace.  Every expression line carries its value as the first word
of its comment; str() of the computed value must equal it, or start
with it where the comment ends the digits with "...".
"""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_tour() -> str:
    text = README.read_text(encoding="utf-8")
    match = re.search(r"^## Quick tour\n+```python\n(.*?)^```", text, re.M | re.S)
    assert match, "README has no Quick tour python block"
    return match.group(1)


def test_quick_tour_values_match_its_comments():
    source = quick_tour()
    lines = source.splitlines()
    namespace = {}
    checked = []
    for node in ast.parse(source).body:
        if not isinstance(node, ast.Expr):
            exec(compile(ast.Module([node], type_ignores=[]), "README.md", "exec"), namespace)
            continue
        line = lines[node.lineno - 1]
        assert "#" in line, f"no value given for {line!r}"
        expected = line.split("#", 1)[1].split(",")[0].strip()
        got = str(eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace))
        if expected.endswith("..."):
            assert got.startswith(expected[:-3]), (line, got)
        else:
            assert got == expected, (line, got)
        checked.append(expected)
    assert checked == [
        "1.0", "1.4142135623730951", "1.5", "15.0", "1.5208677917...",
        "True", "False", "True", "0.8", "1.25",
    ]
