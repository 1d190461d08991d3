"""Every top-level name of src/homsim is reached by the package, a script or the benchmark.

A name counts as used when some module under src/, scripts/ or bench/ (their
tests excluded) loads it, reads it as an attribute or imports it, or when
bench/child.py's ``LAYERS`` names it for tracing.  Its own definition is not
a use, so a helper that only the tests call shows up here.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "homsim"


def defined_names() -> dict:
    """Top-level functions, classes and constants of each package module, dunders exempt."""
    names = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                targets = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = [t.id for t in (node.targets if isinstance(node, ast.Assign) else [node.target])
                           if isinstance(t, ast.Name)]
            else:
                continue
            names.update({t: path.name for t in targets if not t.startswith("__")})
    return names


def used_names() -> set:
    used = set()
    for top in ("src", "scripts", "bench"):
        for path in (ROOT / top).rglob("*.py"):
            if "tests" in path.relative_to(ROOT).parts:
                continue
            tree = ast.parse(path.read_text())
            for node in ast.walk(tree):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
                elif isinstance(node, ast.alias):
                    used.add(node.name)
                elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "LAYERS" for t in node.targets):
                    used.update(part for c in ast.walk(node.value) if isinstance(c, ast.Constant)
                                and isinstance(c.value, str) for part in c.value.split("."))
    return used


def test_every_top_level_name_is_reached_outside_the_tests():
    used = used_names()
    unreached = sorted(f"{module}:{name}" for name, module in defined_names().items() if name not in used)
    assert unreached == []
