"""Every module of the package uses each name it imports, every top-level
definition is referenced, and every default of a private function is
overridden somewhere in the package.

No linter ships with the package, so the standard library's ``ast`` finds
imported names that never appear in a module's body.  Names listed in a
module's ``__all__`` count as used: the package re-exports them.  A top-level
function or class of the package must be referenced outside its own body,
in the package, its tests or the benchmark, so a dispatch or helper that a
refactor leaves behind fails the suite.

A private function (one whose name starts with a single underscore, at any
depth) is called only from inside the package, so a parameter of it that
has a default must be passed, by keyword or by position, by some call in
``src/`` outside the function's own body; a call that spreads ``*args`` or
``**kwargs`` counts as passing every parameter.  A default that no package call overrides is a switch kept
alive only for tests, which should call the route they mean directly.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "caldera"

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


def _definitions(tree: ast.Module) -> set:
    return {
        node.name
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    }


def _references(tree: ast.Module) -> set:
    """(name, top-level definition it sits in, or None) for every name, attribute,
    imported name and string constant; strings cover ``__all__`` and setattr."""
    refs = set()
    for top in tree.body:
        owner = getattr(top, "name", None)
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                refs.add((node.id, owner))
            elif isinstance(node, ast.Attribute):
                refs.add((node.attr, owner))
            elif isinstance(node, ast.alias):
                refs.add((node.name.split(".")[-1], owner))
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                refs.add((node.value, owner))
    return refs


def _dead_definitions(sources: dict, package: set) -> set:
    """(module, name) of each top-level definition in a ``package`` module
    that no source references outside the definition's own body."""
    trees = {path: ast.parse(text) for path, text in sources.items()}
    refs = {path: _references(tree) for path, tree in trees.items()}
    dead = set()
    for path in package:
        for name in _definitions(trees[path]):
            used = any(
                ref == name and not (other == path and owner == name)
                for other, found in refs.items()
                for ref, owner in found
            )
            if not used:
                dead.add((Path(path).stem, name))
    return dead


def test_every_top_level_definition_is_referenced():
    package = {str(p) for p in SRC.glob("*.py")}
    sources = {
        str(p): p.read_text()
        for folder in (SRC, ROOT / "tests", ROOT / "perfbench")
        for p in sorted(folder.glob("*.py"))
    }
    assert _dead_definitions(sources, package) == set()


def test_the_check_sees_a_dead_definition():
    sources = {
        "pkg.py": "def used():\n    return 1\n\n"
        "def recursive(n):\n    return recursive(n - 1)\n\n"
        "class Dead:\n    pass\n\n"
        "def patched():\n    pass\n",
        "test_pkg.py": "import pkg\nsetattr(pkg, 'patched', None)\npkg.used()\n",
    }
    dead = _dead_definitions(sources, {"pkg.py"})
    assert dead == {("pkg", "recursive"), ("pkg", "Dead")}


def _private_defaults(tree: ast.Module) -> dict:
    """name -> {parameter with a default: its position in a call, or None
    when keyword-only}, for each private function in ``tree``.  Methods other
    than static ones do not count their bound first parameter."""
    found = {}
    for owner in ast.walk(tree):
        for node in ast.iter_child_nodes(owner):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if not node.name.startswith("_") or node.name.startswith("__"):
                continue
            args = node.args
            positional = args.posonlyargs + args.args
            bound = isinstance(owner, ast.ClassDef) and not any(
                isinstance(d, ast.Name) and d.id == "staticmethod" for d in node.decorator_list
            )
            first = len(positional) - len(args.defaults)
            params = {
                a.arg: i - bound for i, a in enumerate(positional) if i >= first
            }
            params.update(
                {a.arg: None for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None}
            )
            if params:
                found[node.name] = params
    return found


def _passed(node: ast.AST, enclosing: tuple = ()) -> set:
    """(function name, parameter name or position) for every call under
    ``node``; a spread argument yields (name, "*").  A call inside the body
    of a function of the same name, a recursion, passes nothing."""
    passed = set()
    if isinstance(node, ast.Call):
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name is not None and name not in enclosing:
            for i, arg in enumerate(node.args):
                passed.add((name, "*" if isinstance(arg, ast.Starred) else i))
            for kw in node.keywords:
                passed.add((name, "*" if kw.arg is None else kw.arg))
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        enclosing += (node.name,)
    for child in ast.iter_child_nodes(node):
        passed |= _passed(child, enclosing)
    return passed


def _unpassed_defaults(sources: dict) -> set:
    """(function, parameter) for each defaulted parameter of a private
    function that no call in ``sources`` passes."""
    trees = [ast.parse(text) for text in sources.values()]
    passed = set().union(*map(_passed, trees))
    return {
        (name, param)
        for tree in trees
        for name, params in _private_defaults(tree).items()
        for param, index in params.items()
        if not {(name, param), (name, index), (name, "*")} & passed
    }


def test_every_private_default_is_passed_by_some_package_call():
    sources = {str(p): p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert _unpassed_defaults(sources) == set()


def test_the_check_sees_a_default_no_call_passes():
    sources = {
        "pkg.py": "def _route(x, solve=False, *, fast=True):\n    return x\n\n"
        "def _spread(x, step=1):\n    return x\n\n"
        "def _recursive(x, depth=0):\n    return _recursive(x, depth + 1)\n\n"
        "class Box:\n    def _make(self, x, scale=1.0):\n        return x\n\n"
        "def public(x, mode=0):\n    return x\n\n"
        "def run(box, extra):\n"
        "    _route(1, fast=False)\n    _spread(1, **extra)\n    box._make(1, 2.0)\n",
    }
    assert _unpassed_defaults(sources) == {("_route", "solve"), ("_recursive", "depth")}
