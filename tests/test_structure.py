"""Every public top-level name and every public method in the package is
used by the package.

A public name is a module-level function, class or constant whose name
does not start with an underscore. It counts as used when some module under
``src/gradgate`` reads it as a bare name, as ``module.name`` on one of the
package's modules, or imports it with ``from .module import name``. A public
method (properties included) is a function defined in a package class whose
name does not start with an underscore; since a receiver's type is not known
from the source, it counts as used when some module reads an attribute of
that name. Code that only tests call is dead weight on the pipeline, so this
fails on it.
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


def public_methods(tree: ast.Module) -> list:
    return [(node.name, item.name) for node in tree.body if isinstance(node, ast.ClassDef)
            for item in node.body
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not item.name.startswith("_")]


def test_every_public_method_is_referenced_from_the_package():
    trees = parse_package()
    read = {node.attr for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)}
    unused = [f"{module}.{cls}.{name}" for module, tree in trees.items()
              for cls, name in public_methods(tree) if name not in read]
    assert unused == []
