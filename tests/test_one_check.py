"""One definition per check: every message a module of src/treeot raises is
written at one site, so each check on a name, an end, a flag or a square
has one definition that every caller goes through (README, metric trees)."""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "treeot"

# The templates raised at more than one site, with their number of sites
# and the reason.
ALLOWED = {
    # one check per index of the vertex names: `_incident` (every method
    # that reads a vertex, even before the rooted copy is built) and `_pre`
    # (the preorder queries)
    "MalformedTree: unknown vertex {}": 2,
    # `distance` and `distance_matrix` each sum their own entries (the
    # scalar path is kept for speed) and check them where they are summed
    "NonFiniteValue: distance from {} to {} overflows the float range": 2,
}


def _message(node: ast.expr) -> str | None:
    """The template of a message: a string, an f-string with every field
    written {}, or a string's .format call; None for any other argument."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.JoinedStr):
        return "".join(v.value if isinstance(v, ast.Constant) else "{}" for v in node.values)
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "format":
        return _message(node.func.value)
    return None


def raise_templates(src: Path) -> Counter:
    """How many `raise Error(message)` sites in the modules of `src` raise
    each template, keyed "Error: template": one text under two errors is two
    checks (a tree with leaves is a LeafyTree to dynamics and
    MalformedForRadon to radon)."""
    found = Counter()
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            exc = node.exc if isinstance(node, ast.Raise) else None
            if not (isinstance(exc, ast.Call) and isinstance(exc.func, ast.Name) and exc.args):
                continue
            template = _message(exc.args[0])
            if template is not None:
                found[f"{exc.func.id}: {template}"] += 1
    return found


def test_every_raised_message_has_one_site():
    repeated = {t: n for t, n in raise_templates(SRC).items() if n > 1}
    assert repeated == ALLOWED
