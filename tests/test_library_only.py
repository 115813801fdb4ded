"""``src/tomobell`` holds only the library.

Every top-level function, class and constant of the package must be used
by other code of the package (as a name, an attribute or an import),
exported in ``__all__``, or named by ``perfbench/spans.py``, which patches
some names that no library path calls any more. A name that is none of
these is test-only code: it belongs in ``tests/oracles.py``, or nowhere.
"""

import ast
from pathlib import Path

import tomobell

ROOT = Path(__file__).resolve().parents[1]


def _definitions(tree):
    """(name, node) for each top-level function, class and assigned name."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for n in ast.walk(target):
                    if isinstance(n, ast.Name):
                        yield n.id, node


def _names_in(node):
    """Every name, attribute and imported name under ``node``."""
    found = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            found.add(n.id)
        elif isinstance(n, ast.Attribute):
            found.add(n.attr)
        elif isinstance(n, ast.alias):
            found.add(n.name)
    return found


def unused_names(modules, exported, patched_source):
    """``module.name`` of each top-level definition in ``modules`` (module
    name -> source) that no other top-level statement of them uses,
    ``exported`` does not hold and ``patched_source`` names neither as an
    identifier nor as a string."""
    patched_tree = ast.parse(patched_source)
    patched = _names_in(patched_tree) | {
        n.value for n in ast.walk(patched_tree)
        if isinstance(n, ast.Constant) and isinstance(n.value, str)
    }
    trees = {name: ast.parse(source) for name, source in modules.items()}
    statements = [(stmt, _names_in(stmt)) for tree in trees.values() for stmt in tree.body]
    flagged = []
    for module, tree in trees.items():
        for name, node in _definitions(tree):
            if name.startswith("__") or name in exported or name in patched:
                continue
            if not any(name in names for stmt, names in statements if stmt is not node):
                flagged.append(f"{module}.{name}")
    return sorted(flagged)


def test_src_holds_no_test_only_name():
    modules = {path.stem: path.read_text(encoding="utf-8")
               for path in sorted((ROOT / "src" / "tomobell").glob("*.py"))}
    spans = (ROOT / "perfbench" / "spans.py").read_text(encoding="utf-8")
    flagged = unused_names(modules, set(tomobell.__all__), spans)
    assert not flagged, f"test-only names in src/tomobell: {', '.join(flagged)}"


def test_guard_flags_a_name_only_its_own_definition_uses():
    modules = {
        "a": "LIMIT = 3\n\ndef helper(n):\n    return helper(n - 1) if n else LIMIT\n",
        "b": "from .a import LIMIT\n\ndef public():\n    return 1\n\ndef traced():\n    return 2\n",
    }
    spans = 'tracer.patch(b, "traced", "b.traced")\n'
    assert unused_names(modules, {"public"}, spans) == ["a.helper"]
