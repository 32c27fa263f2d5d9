"""Every public module-level function and class in src/vlp_sim has a caller
in src/: API that only tests call is deleted or given its caller back."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "vlp_sim"

# public names that stay without a caller in src/, each with its reason
ALLOWED = {
    # the Gaussian beam profile: the beam-overlap scan model on the ROADMAP gives it a caller
    "channel.intensity",
}


def _referenced(node) -> set[str]:
    # names read anywhere under node, bare or as an attribute
    names = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            names.add(n.id)
        elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
            names.add(n.attr)
    return names


def unused_public_names(src: Path = SRC) -> set[str]:
    """module.name of each public top-level def or class that nothing in src
    references outside its own definition."""
    defined, used = set(), set()
    for path in sorted(src.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            names = _referenced(stmt)
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                names.discard(stmt.name)  # recursion or a class naming itself
                if not stmt.name.startswith("_"):
                    defined.add((path.stem, stmt.name))
            used |= names
    return {f"{module}.{name}" for module, name in defined if name not in used}


def test_every_public_definition_has_a_caller_in_src():
    # equality both ways: an allowlist entry that gains a caller must leave the list
    assert unused_public_names() == ALLOWED
