"""src/ builds no numpy.random generator: every draw comes from the Philox
row counters (streams), and the pilot's bits are a constant table."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "vlp_sim"

SITES = set()


def _is_np_random(node) -> bool:
    # np.random.<anything> or numpy.random.<anything>
    while isinstance(node, ast.Attribute):
        if node.attr == "random" and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy"):
            return True
        node = node.value
    return False


def _imports_np_random(node) -> bool:
    if isinstance(node, ast.ImportFrom):
        module = node.module or ""
        return module.startswith("numpy.random") or (module == "numpy" and any(a.name == "random" for a in node.names))
    return isinstance(node, ast.Import) and any(a.name.startswith("numpy.random") for a in node.names)


def generator_sites(src: Path = SRC) -> set[str]:
    """module.name of each top-level function or class that calls into
    numpy.random; a direct import of numpy.random counts as a site too."""
    sites = set()
    for path in sorted(src.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            owner = stmt.name if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) else "<module>"
            for node in ast.walk(stmt):
                if isinstance(node, ast.Call) and _is_np_random(node.func) or _imports_np_random(node):
                    sites.add(f"{path.stem}.{owner}")
    return sites


def test_generators_built_only_at_the_known_sites():
    assert generator_sites() == SITES


def test_detector_sees_a_new_site(tmp_path):
    (tmp_path / "extra.py").write_text(
        "import numpy as np\n"
        "from numpy.random import PCG64\n\n"
        "def draw():\n    return np.random.default_rng(0).random()\n"
    )
    assert generator_sites(tmp_path) == {"extra.draw", "extra.<module>"}
