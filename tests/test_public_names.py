"""Every public top-level function and class of the package is reached by
the program itself: another module, the CLI or the benchmark names it.  A
name that only unit tests call is code to delete, not an API."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(p for p in (ROOT / "src" / "cylgauge").glob("*.py") if p.name != "__init__.py")
BENCH = sorted((ROOT / "bench").glob("*.py"))


def test_every_public_name_is_reached():
    used, defined = set(), {}
    for path in MODULES + BENCH:
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
        if path in MODULES:
            for node in tree.body:
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                    defined[node.name] = path.stem
    unreached = sorted(f"{module}.{name}" for name, module in defined.items() if name not in used)
    assert not unreached, f"public names no module, CLI command or benchmark reaches: {unreached}"
