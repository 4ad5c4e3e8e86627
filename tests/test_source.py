"""Checks on the source tree of `metlie` itself."""

import ast
import importlib
from pathlib import Path

SRC = Path(__file__).parent.parent / "src" / "metlie"
WORKER = Path(__file__).parent.parent / "perfbench" / "worker.py"


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


class TestPerfbenchPatches:
    def test_every_patched_name_exists(self):
        """The benchmark's traced runs wrap (module, attribute) pairs by
        name; a rename in `src/` that leaves one behind fails here, not
        first in CI's traced runs."""
        lists = {}

        def value(node):
            if isinstance(node, ast.Name):
                return lists[node.id]
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
                return value(node.left) + value(node.right)
            return ast.literal_eval(node)

        for node in ast.parse(WORKER.read_text(encoding="utf-8")).body:
            if (isinstance(node, ast.Assign) and len(node.targets) == 1
                    and getattr(node.targets[0], "id", "").endswith("_PATCHES")):
                lists[node.targets[0].id] = value(node.value)
        assert set(lists) == {"DECIDE_PATCHES", "CONSISTENCY_PATCHES"}
        missing = [f"{module}.{attr}" for patches in lists.values() for module, attr, _ in patches
                   if not hasattr(importlib.import_module(module), attr)]
        assert all(lists.values()) and missing == []

    def test_every_name_run_decide_reads_exists(self):
        """`run_decide` reads its entry points off the metlie modules it
        imports (`expr.parse`, `ring.from_expr`, ...); a rename in `src/`
        fails here, not first in the benchmark's runs."""
        worker = ast.parse(WORKER.read_text(encoding="utf-8"))
        body = next(node for node in worker.body
                    if isinstance(node, ast.FunctionDef) and node.name == "run_decide")
        modules = {alias.asname or alias.name: f"{node.module}.{alias.name}"
                   for node in ast.walk(body) if isinstance(node, ast.ImportFrom)
                   and node.module == "metlie" for alias in node.names}
        read = {(modules[node.value.id], node.attr) for node in ast.walk(body)
                if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules}
        assert {("metlie.expr", "parse"), ("metlie.ring", "from_expr"),
                ("metlie.primitivity", "is_primitive")} <= read
        missing = [f"{module}.{attr}" for module, attr in sorted(read)
                   if not hasattr(importlib.import_module(module), attr)]
        assert missing == []
