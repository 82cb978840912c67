"""Every module-level import of the package is used in its module, and every private definition somewhere."""

import ast
from collections import Counter
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "csdcirc"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def imported_names(tree: ast.Module) -> dict[str, int]:
    """The names the module's top-level imports bind, with the line of each import."""
    names = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
    return names


def test_every_module_level_import_is_used():
    unused = []
    for path in MODULES:
        tree = ast.parse(path.read_text(), str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}" for name, line in imported_names(tree).items() if name not in used]
    assert len(MODULES) >= 9 and not unused, unused


def private_definitions(body: list[ast.stmt]):
    """(name, node) of each private function, class and assignment at module level, in with blocks too."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        elif isinstance(node, ast.With):
            yield from private_definitions(node.body)
            continue
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node


def references(node: ast.AST) -> Counter:
    """How often each name is read in node: as a name, an attribute or an imported name."""
    found = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            found[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            found[sub.attr] += 1
        elif isinstance(sub, ast.ImportFrom):
            found.update(alias.name for alias in sub.names)
    return found


def test_every_private_definition_is_referenced_in_the_package():
    trees = {path.name: ast.parse(path.read_text(), str(path)) for path in sorted(PACKAGE.glob("*.py"))}
    everywhere = sum((references(tree) for tree in trees.values()), Counter())
    dead = [
        f"{module}:{node.lineno} {name}"
        for module, tree in trees.items()
        for name, node in private_definitions(tree.body)
        if everywhere[name] == references(node)[name]  # read nowhere but in its own definition
    ]
    assert len(trees) >= 10 and not dead, dead
