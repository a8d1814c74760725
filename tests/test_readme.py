"""README's "Library tour" block runs as written and gives the values its
comments state, so a renamed or deleted public name cannot stay in it; its
`hwquartic --help` block is what the CLI prints at 80 columns."""

import ast
from pathlib import Path

from hwquartic.harness import main

README = Path(__file__).resolve().parents[1] / "README.md"


def tour_values():
    """Run the tour block statement by statement; the value of each
    top-level expression, keyed by its source text."""
    text = README.read_text(encoding="utf-8").split("## Library tour", 1)[1]
    block = text.split("```python\n", 1)[1].split("```", 1)[0]
    env, values = {}, {}
    for node in ast.parse(block).body:
        if isinstance(node, ast.Expr):
            code = compile(ast.Expression(node.value), str(README), "eval")
            values[ast.unparse(node.value)] = eval(code, env)
        else:
            exec(compile(ast.Module([node], []), str(README), "exec"), env)
    return values


def test_library_tour_values():
    values = tour_values()
    assert values["hq.c6_count_max_a(997)"] == 83 == 997 // 12
    assert values["hq.count_points_ext2(hq.c9_form(17))"] == 392 == 17**2 + 1 + 6 * 17
    assert values["hq.c9_classify(17)"].a_number == 3
    H = values["hq.c6_hw(13, 4)"]
    assert all(H[r, c].is_zero() for r in (1, 2, 3) for c in (1, 2, 3) if r != c)
    assert not H.is_zero()
    assert values["hq.verify_euler(101)"] is True
    assert len(values) == 8


def test_cli_help_block(capsys, monkeypatch):
    prompt = "```\n$ hwquartic --help\n"
    block = README.read_text(encoding="utf-8").split(prompt, 1)[1]
    monkeypatch.setenv("COLUMNS", "80")
    assert main(["--help"]) == 0
    assert capsys.readouterr().out == block.split("```", 1)[0]
