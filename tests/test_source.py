"""Checks on the source tree of `metlie` itself."""

import ast
from pathlib import Path

SRC = Path(__file__).parent.parent / "src" / "metlie"


def _trees() -> dict:
    return {path.name: ast.parse(path.read_text(encoding="utf-8"), str(path))
            for path in sorted(SRC.glob("*.py"))}


def _referenced_names(tree) -> set:
    """Every name a module reads, binds or imports, and every attribute it
    names; a def or class statement is not a Name node, so a definition
    alone does not count."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name)
    return out


class TestPrivateHelpers:
    def test_every_private_helper_has_a_caller(self):
        """A private module-level function or class is referenced somewhere
        in `src/` besides its own definition; a helper with no caller gets
        deleted.  Tests and benchmarks do not count as callers.  A name used
        only by its own recursion, or only inside its own body, is not
        caught."""
        trees = _trees()
        used = set().union(*map(_referenced_names, trees.values()))
        defined = [(module, node.name) for module, tree in trees.items() for node in tree.body
                   if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                   and node.name.startswith("_") and not node.name.startswith("__")]
        assert defined
        assert [f"{module}:{name}" for module, name in defined if name not in used] == []

    def test_the_check_sees_an_unused_helper(self):
        tree = ast.parse("def _used():\n    pass\n\n\ndef _unused():\n    return _used()\n")
        assert "_used" in _referenced_names(tree)
        assert "_unused" not in _referenced_names(tree)
