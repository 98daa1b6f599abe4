"""Numeric conventions: every tolerance in src/treeot is one of three named
constants, each defined once (README, "Numeric conventions")."""

import io
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "treeot"

# (module, name) of the one definition of each tolerance
DEFINITIONS = [("metric_tree.py", "DUST"), ("metric_tree.py", "TOL"), ("transport.py", "DUAL_TOL")]


def small_literals(src: Path) -> list[tuple[str, str | None, int, str]]:
    """(module, name, line, text) of every nonzero number literal below
    1e-6 in the modules of `src`; name is the constant a line `NAME =
    literal` defines, else None.  A unary minus is its own token, so
    -1e-12 counts too."""
    found = []
    for path in sorted(src.glob("*.py")):
        tokens = list(tokenize.generate_tokens(io.StringIO(path.read_text()).readline))
        for k, tok in enumerate(tokens):
            if tok.type != tokenize.NUMBER:
                continue
            try:
                value = float(tok.string)
            except ValueError:  # hex, octal and binary ints, imaginary literals
                continue
            if value == 0.0 or value >= 1e-6:
                continue
            name = None
            if k >= 2 and tokens[k - 1].string == "=" and tokens[k - 2].start == (tok.start[0], 0):
                name = tokens[k - 2].string
            found.append((path.name, name, tok.start[0], tok.string))
    return found


def test_every_small_literal_is_one_of_the_three_definitions():
    found = small_literals(SRC)
    assert sorted((module, name) for module, name, _, _ in found) == DEFINITIONS, found

