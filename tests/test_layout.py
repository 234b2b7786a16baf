"""Every public function and class of the package has a caller in the
package, its scripts or its benchmark.  An operator that only tests call
belongs in the tests, so that the tests exercise the code the solver runs."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def references(node: ast.AST) -> set[str]:
    """Names used under ``node``: bare names, attribute names and imported
    names.  Strings do not count."""
    refs = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            refs.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            refs.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            refs.update(alias.name for alias in sub.names)
    return refs


def unreferenced_public_names(root: Path = ROOT) -> list[str]:
    """``module.name`` of each public top-level def or class in the package
    that no module (``__init__`` aside), script or benchmark file references
    outside that definition."""
    package = root / "src" / "nlchns"
    paths = [p for p in sorted(package.glob("*.py")) if p.name != "__init__.py"]
    paths += sorted((root / "scripts").glob("*.py")) + sorted((root / "perfbench").glob("*.py"))
    trees = {p: ast.parse(p.read_text(), str(p)) for p in paths}
    refs = {p: references(t) for p, t in trees.items()}
    unused = []
    for path, tree in trees.items():
        if path.parent != package:
            continue
        elsewhere = set().union(*(r for p, r in refs.items() if p != path))
        own = [references(node) for node in tree.body]
        for i, node in enumerate(tree.body):
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            if node.name in elsewhere or any(node.name in r for j, r in enumerate(own) if j != i):
                continue
            unused.append(f"{path.stem}.{node.name}")
    return unused


def test_every_public_name_has_a_caller_outside_tests():
    assert unreferenced_public_names() == []
