"""Every public module-level function and class in src/vlp_sim has a caller
in src/, and every dataclass field is read there: API that only tests call
is deleted or given its caller back."""

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


def _is_dataclass(cls: ast.ClassDef) -> bool:
    # @dataclass or @dataclass(...), bare or as dataclasses.dataclass
    for dec in cls.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if (target.id if isinstance(target, ast.Name) else getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def _read_names(tree) -> set[str]:
    # attribute loads, getattr(obj, "name"), and names listed as strings in a tuple, list or set
    names = set()
    for n in ast.walk(tree):
        if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
            names.add(n.attr)
        elif isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id == "getattr" and len(n.args) > 1:
            if isinstance(n.args[1], ast.Constant):
                names.add(n.args[1].value)
        elif isinstance(n, (ast.Tuple, ast.List, ast.Set)):
            names |= {e.value for e in n.elts if isinstance(e, ast.Constant) and isinstance(e.value, str)}
    return names


def unread_dataclass_fields(src: Path = SRC) -> set[str]:
    """module.Class.field of each dataclass field that nothing in src reads."""
    fields, read = set(), set()
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        read |= _read_names(tree)
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef) and _is_dataclass(cls):
                fields |= {(path.stem, cls.name, stmt.target.id) for stmt in cls.body
                           if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)}
    return {f"{module}.{cls}.{name}" for module, cls, name in fields if name not in read}


def test_every_dataclass_field_is_read_in_src():
    assert unread_dataclass_fields() == set()


def test_field_detector_sees_an_unread_field(tmp_path):
    (tmp_path / "extra.py").write_text(
        "from dataclasses import dataclass\n\n"
        "@dataclass(frozen=True)\nclass Fix:\n    kept: float\n    listed: float\n    dropped: float\n\n"
        "def use(fix):\n    return fix.kept, [getattr(fix, n) for n in (\"listed\",)]\n"
    )
    assert unread_dataclass_fields(tmp_path) == {"extra.Fix.dropped"}
