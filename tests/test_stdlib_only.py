"""The package imports nothing outside the standard library: numpy and
scipy are test dependencies only (README, "Install and test")."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "treeot"


def imported_modules(src: Path) -> list[tuple[str, int, str]]:
    """(module, line, top-level name) of every absolute import in the
    modules of `src`, at any depth, lazy imports inside functions too."""
    found = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [(path.name, node.lineno, name.split(".")[0]) for name in names]
    return found


def test_no_module_imports_outside_the_standard_library():
    # numpy above all: it costs a CLI process about 150 ms to import.
    found = imported_modules(SRC)
    assert found
    assert [f for f in found if f[2] not in sys.stdlib_module_names | {"treeot"}] == []
