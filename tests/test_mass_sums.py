"""Numeric conventions: masses are added at equal keys in one place,
transport._sums_by_key (README, "Numeric conventions")."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "treeot"


def hand_merges(src: Path) -> list[tuple[str, int]]:
    """(module, line) of every `<mapping>.get(<key>, 0.0) + ...` or `- ...`
    in the modules of `src`, except inside transport._sums_by_key."""
    found = []
    for path in sorted(src.glob("*.py")):
        module = ast.parse(path.read_text())
        allowed = set()
        if path.name == "transport.py":
            for node in ast.walk(module):
                if isinstance(node, ast.FunctionDef) and node.name == "_sums_by_key":
                    allowed.update(map(id, ast.walk(node)))
        for node in ast.walk(module):
            if (
                isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub))
                and isinstance(node.left, ast.Call)
                and isinstance(node.left.func, ast.Attribute) and node.left.func.attr == "get"
                and len(node.left.args) == 2
                and isinstance(node.left.args[1], ast.Constant) and node.left.args[1].value == 0.0
                and id(node) not in allowed
            ):
                found.append((path.name, node.lineno))
    return sorted(found)


def test_masses_are_summed_by_key_only_in_sums_by_key():
    assert hand_merges(SRC) == []
