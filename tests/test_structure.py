"""Every public top-level name in the package is used by the package.

A public name is a module-level function, class or constant whose name
does not start with an underscore. It counts as used when some module under
``src/gradgate`` reads it as a bare name, as ``module.name`` on one of the
package's modules, or imports it with ``from .module import name``. Code
that only tests call is dead weight on the pipeline, so this fails on it.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "gradgate"


def parse_package() -> dict:
    return {path.stem: ast.parse(path.read_text(), filename=str(path))
            for path in sorted(PACKAGE.glob("*.py"))}


def public_definitions(tree: ast.Module) -> list:
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, ast.Assign):
            names += [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.append(node.target.id)
    return [name for name in names if not name.startswith("_")]


def references(trees: dict) -> set:
    found = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                found.add(node.id)
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in trees):
                found.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and (
                    node.level or (node.module or "").split(".")[0] == "gradgate"):
                found.update(alias.name for alias in node.names)
    return found


def test_every_public_name_is_referenced_from_the_package():
    trees = parse_package()
    used = references(trees)
    unused = [f"{module}.{name}" for module, tree in trees.items()
              for name in public_definitions(tree) if name not in used]
    assert unused == []
