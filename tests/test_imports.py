"""Every module of the package uses each name it imports.

No linter ships with the package, so the standard library's ``ast`` finds
imported names that never appear in a module's body.  Names listed in a
module's ``__all__`` count as used: the package re-exports them.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "caldera"

# (module, name) imported without a use, each with the reason it stays
ALLOWED = {
    ("extend", "profile"): "perfbench/tracing.py patches extend.profile",
    ("extend", "norm_values"): "perfbench/tracing.py patches extend.norm_values",
}


def _unused_imports(tree: ast.Module) -> set:
    imported = set()
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant)}
    return imported - used


def test_modules_use_every_name_they_import():
    unused = {
        (path.stem, name)
        for path in sorted(SRC.glob("*.py"))
        for name in _unused_imports(ast.parse(path.read_text()))
    }
    # equality also fails on an allowlist entry that is no longer needed
    assert unused == set(ALLOWED)


def test_the_check_sees_an_unused_import():
    tree = ast.parse("import math\nimport numpy as np\nfrom os import path, sep\nnp.log(sep)\n")
    assert _unused_imports(tree) == {"math", "path"}
