"""Time convention: a geodesic's time origin and the arcs of its nodes are
read only in metric_tree, which turns them into times and positions
(TreeGeodesic.evaluate, TreeGeodesic.tail); serialization prints the
origin as the anchor time of a complete geodesic."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "treeot"


def time_reads(src: Path) -> list[tuple[str, int, str]]:
    """(module, line, what) of every read of `.t_origin` or of a node's arc
    (`nodes[...][0]`) in the modules of `src` other than metric_tree.py,
    except the `t_origin` in the value of a dict key "anchor_time" in
    serialization.py."""
    found = []
    for path in sorted(src.glob("*.py")):
        if path.name == "metric_tree.py":
            continue
        module = ast.parse(path.read_text())
        allowed = set()
        if path.name == "serialization.py":
            for node in ast.walk(module):
                if isinstance(node, ast.Dict):
                    for key, value in zip(node.keys, node.values):
                        if isinstance(key, ast.Constant) and key.value == "anchor_time":
                            allowed.update(map(id, ast.walk(value)))
        for node in ast.walk(module):
            if isinstance(node, ast.Attribute) and node.attr == "t_origin" and id(node) not in allowed:
                found.append((path.name, node.lineno, "t_origin"))
            if (
                isinstance(node, ast.Subscript)
                and isinstance(node.slice, ast.Constant) and node.slice.value == 0
                and isinstance(node.value, ast.Subscript)
                and isinstance(node.value.value, ast.Attribute) and node.value.value.attr == "nodes"
            ):
                found.append((path.name, node.lineno, "node arc"))
    return sorted(found)


def test_time_origin_and_node_arcs_are_read_only_in_metric_tree():
    assert time_reads(SRC) == []
