"""The Python examples of README.md run as written, and each line whose
comment starts with ``True`` evaluates true."""

import ast
import io
import re
import tokenize
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)


def claimed_lines(source: str) -> set[int]:
    """The lines whose comment starts with True."""
    return {
        token.start[0]
        for token in tokenize.generate_tokens(io.StringIO(source).readline)
        if token.type == tokenize.COMMENT and token.string[1:].lstrip().startswith("True")
    }


def test_readme_has_python_examples():
    assert len(BLOCKS) >= 4


@pytest.mark.parametrize("block", BLOCKS, ids=[f"block{k}" for k in range(1, len(BLOCKS) + 1)])
def test_example_runs_and_its_true_lines_hold(block):
    claims = claimed_lines(block)
    checked = set()
    namespace: dict = {}
    for node in ast.parse(block).body:
        lines = set(range(node.lineno, node.end_lineno + 1)) & claims
        if lines and isinstance(node, ast.Expr):
            value = eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace)
            assert value, ast.get_source_segment(block, node)
            checked |= lines
        else:
            exec(compile(ast.Module([node], type_ignores=[]), "README.md", "exec"), namespace)
    assert checked == claims, "a True comment sits on a line that is no expression"
