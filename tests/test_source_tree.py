"""`src/` holds only what the program runs: every public module-level
function and class of the package is named by some module of the program
(`src/`, `bench/` or `scripts/`). Code that only tests read lives in
`tests/helpers.py`."""

import ast
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
PACKAGE = REPO / "src" / "tta_align"


def names_used(tree: ast.AST) -> set[str]:
    """Every name a module mentions: a bare name, an attribute, an imported
    name or a string constant (`bench/tracing.py` patches by string). A
    `def` or `class` statement's own name is none of these."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name.rsplit(".", 1)[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            used.add(node.value)
    return used


def test_every_public_definition_is_named_by_the_program():
    used = set()
    for root in ("src", "bench", "scripts"):
        for path in (REPO / root).rglob("*.py"):
            used |= names_used(ast.parse(path.read_text(), filename=str(path)))
    unused = [
        f"{path.stem}.{node.name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.parse(path.read_text()).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and node.name not in used
    ]
    assert not unused, f"public definitions only tests use: {unused}"
