"""Every top-level function and class of the package has a caller outside
its own definition: a public one in the package, its scripts or its
benchmark; a private one in the package itself.  An operator that only tests
call belongs in the tests, so that the tests exercise the code the solver
runs, and a private helper that nothing calls is dead."""

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


def unreferenced_names(root: Path = ROOT, private: bool = False) -> list[str]:
    """``module.name`` of each public (or, with ``private``, private)
    top-level def or class in the package that nothing references outside
    that definition.  A public name may be referenced from any module
    (``__init__`` aside), script or benchmark file; a private one only from
    the package."""
    package = root / "src" / "nlchns"
    paths = [p for p in sorted(package.glob("*.py")) if p.name != "__init__.py"]
    if not private:
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
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("_") != private:
                continue
            if node.name in elsewhere or any(node.name in r for j, r in enumerate(own) if j != i):
                continue
            unused.append(f"{path.stem}.{node.name}")
    return unused


def message_literals(tree: ast.AST) -> set[str]:
    """The string literals under ``tree`` that hold a space, docstrings
    aside: the messages its errors are made of.  An f-string counts with
    each of its fields written as {}."""
    skip = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)) and ast.get_docstring(node) is not None:
            skip.add(node.body[0].value)
        elif isinstance(node, ast.JoinedStr):
            skip.update(node.values)  # its parts
        elif isinstance(node, ast.FormattedValue) and node.format_spec is not None:
            skip.add(node.format_spec)
    literals = set()
    for node in ast.walk(tree):
        if node in skip:
            continue
        if isinstance(node, ast.JoinedStr):
            literals.add("".join(v.value if isinstance(v, ast.Constant) else "{}" for v in node.values))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            literals.add(node.value)
    return {text for text in literals if " " in text.strip()}


def messages_in_two_modules(root: Path = ROOT) -> list[str]:
    """Each message literal of the package that more than one module writes,
    with the modules that write it."""
    where: dict[str, list[str]] = {}
    for path in sorted((root / "src" / "nlchns").glob("*.py")):
        for text in message_literals(ast.parse(path.read_text(), str(path))):
            where.setdefault(text, []).append(path.name)
    return [f"{text!r} in {', '.join(names)}" for text, names in where.items() if len(names) > 1]


def test_every_public_name_has_a_caller_outside_tests():
    assert unreferenced_names() == []


def test_every_private_name_has_a_caller_in_the_package():
    assert unreferenced_names(private=True) == []


def test_transforms_stay_behind_the_spectral_helpers():
    # numpy's private pocketfft gufuncs are named only in spectral, and the
    # solver calls no numpy.fft function: its transforms all go through
    # rfft2_cols and irfft2_cols, or the latter's two passes
    files = sorted((ROOT / "src" / "nlchns").glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))
    files += sorted((ROOT / "perfbench").glob("*.py"))
    naming = [p.name for p in files if "_pocketfft_umath" in p.read_text()]
    assert naming == ["spectral.py"]
    solver = ast.parse((ROOT / "src" / "nlchns" / "solver.py").read_text())
    fft_refs = [sub for sub in ast.walk(solver)
                if (isinstance(sub, ast.Attribute) and sub.attr == "fft")
                or (isinstance(sub, ast.ImportFrom) and "fft" in (sub.module or ""))
                or (isinstance(sub, ast.Import) and any("fft" in a.name for a in sub.names))]
    assert fft_refs == []


def test_threads_stay_in_the_solver():
    # one module starts and joins threads: only solver.py imports a thread
    # module, and the grid size from which it forks is one module constant,
    # assigned once and named nowhere else as a number
    thread_modules = {"threading", "concurrent", "queue", "_thread", "multiprocessing"}
    importing = []
    for path in sorted((ROOT / "src" / "nlchns").glob("*.py")):
        for sub in ast.walk(ast.parse(path.read_text())):
            if isinstance(sub, ast.Import):
                names = [alias.name for alias in sub.names]
            elif isinstance(sub, ast.ImportFrom):
                names = [sub.module or ""]
            else:
                continue
            if any(name.split(".")[0] in thread_modules for name in names):
                importing.append(path.name)
    assert sorted(set(importing)) == ["solver.py"]
    solver = ast.parse((ROOT / "src" / "nlchns" / "solver.py").read_text())
    stores = [sub for sub in ast.walk(solver) if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Store)
              and "FORK" in sub.id]
    assert [s.id for s in stores] == ["_FORK_MIN_N"]
    (assign,) = [node for node in solver.body if isinstance(node, ast.Assign)
                 and any(t is stores[0] for t in node.targets)]
    threshold = assign.value.value
    assert isinstance(threshold, int)
    numbers = [sub for sub in ast.walk(solver) if isinstance(sub, ast.Constant) and sub.value == threshold
               and type(sub.value) is int]
    assert numbers == [assign.value]


def test_private_name_called_only_from_scripts_is_reported(tmp_path):
    package = tmp_path / "src" / "nlchns"
    package.mkdir(parents=True)
    (tmp_path / "scripts").mkdir()
    (package / "mod.py").write_text(
        "def _used():\n    pass\n\n\ndef _left():\n    pass\n\n\n"
        "def _recursive():\n    return _recursive()\n\n\ndef public():\n    return _used()\n"
    )
    (tmp_path / "scripts" / "run.py").write_text("from nlchns.mod import _left, public\n")
    assert unreferenced_names(tmp_path, private=True) == ["mod._left", "mod._recursive"]
    assert unreferenced_names(tmp_path) == []


def test_each_message_is_written_in_one_module():
    # a rule's message lives beside the type it constrains, in the function
    # that the parser and the builders both call
    assert messages_in_two_modules() == []


def test_message_written_twice_is_reported(tmp_path):
    package = tmp_path / "src" / "nlchns"
    package.mkdir(parents=True)
    (package / "a.py").write_text(
        '"""A module docstring."""\n\n\ndef check(n):\n    """Checks n."""\n'
        '    raise ValueError(f"n must be even, got {n}")\n'
    )
    (package / "b.py").write_text(
        '"""A module docstring."""\n\n\ndef check(self):\n'
        '    return [f"n must be even, got {self.n:d}", f"{self.n} points"]\n'
    )
    assert messages_in_two_modules(tmp_path) == ["'n must be even, got {}' in a.py, b.py"]
