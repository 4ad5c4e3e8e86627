"""Checks on the source tree of `metlie` itself."""

import ast
import importlib
import types
from pathlib import Path

import metlie
import metlie.poly
import metlie.primitivity
from metlie.expr import parse

SRC = Path(__file__).parent.parent / "src" / "metlie"
TESTS = Path(__file__).parent
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


def _unread_constants(trees: dict) -> list:
    """"module:NAME" for each module-level UPPER_CASE constant of `trees` (a
    leading underscore allowed) that nothing in them reads: a load of the
    name in its own module, an import of it from that module, or an
    attribute of that name on any object.  The assignment that binds it
    does not count, nor does a read of the same name in another module."""
    reads = set()  # (module, or None for any module; name)
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reads.add((module, node.id))
            elif isinstance(node, ast.Attribute):
                reads.add((None, node.attr))
            elif isinstance(node, ast.ImportFrom) and node.module:
                source = node.module.rpartition(".")[2] + ".py"
                reads.update((source, alias.name) for alias in node.names)
    bound = [(module, target) for module, tree in trees.items() for node in tree.body
             for target in (node.targets if isinstance(node, ast.Assign)
                            else [node.target] if isinstance(node, ast.AnnAssign) else [])]
    return [f"{module}:{target.id}" for module, target in bound
            if isinstance(target, ast.Name) and target.id.lstrip("_").isupper()
            and (module, target.id) not in reads and (None, target.id) not in reads]


class TestModuleConstants:
    def test_every_constant_is_read(self):
        """A module-level UPPER_CASE constant of `src/` (a bound, a default,
        an exit code) is read somewhere in `src/`; one left behind when the
        code that read it moved or went is deleted."""
        assert _unread_constants(_trees()) == []

    def test_the_check_sees_an_unread_constant(self):
        tree = ast.parse("import re\n\nLIMIT = 3\nSTALE = 4\nIMPORTED = 5\nREAD_AS_ATTR = 6\n"
                         "_PATTERN = re.compile('x')\n_UNUSED: int = 7\nlower = 8\n\n\n"
                         "def f(a):\n    return a < LIMIT and _PATTERN.match(str(a))\n")
        other = ast.parse("import os\nfrom pkg.a import IMPORTED\n\n"
                          "LIMIT = 3  # left behind: only a.py reads its own LIMIT\n"
                          "x = os.READ_AS_ATTR + IMPORTED\n")
        assert _unread_constants({"a.py": tree, "b.py": other}) == [
            "a.py:STALE", "a.py:_UNUSED", "b.py:LIMIT"]


def _unreferenced_methods(trees: dict) -> list:
    """"module:Class._name" for each private method (`_name`, not a dunder)
    of a class in `trees` that nothing in them reads.  An attribute read on
    `self` or `cls` counts for the class whose body it is in, one on a class
    name or on a parameter annotated with one for that class, and one on any
    other object for every class.  A method read only through a subclass's
    `self` is not credited."""
    classes = {node.name for tree in trees.values() for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef)}
    reads = set()  # (class name, or None for any class; attribute)
    methods = []

    def visit(node, module, owner, typed):
        if isinstance(node, ast.ClassDef):
            owner = node.name
            methods.extend((module, owner, item.name) for item in node.body
                           if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                           and item.name.startswith("_") and not item.name.startswith("__"))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            typed = {**typed, **{a.arg: a.annotation.id for a in args.args + args.kwonlyargs
                                 if getattr(a.annotation, "id", None) in classes}}
        elif isinstance(node, ast.Attribute):
            name = getattr(node.value, "id", None)
            kind = (owner if name in ("self", "cls") else typed[name] if name in typed
                    else name if name in classes else None)
            reads.add((kind, node.attr))
        for child in ast.iter_child_nodes(node):
            visit(child, module, owner, typed)

    for module, tree in trees.items():
        visit(tree, module, None, {})
    return [f"{module}:{owner}.{name}" for module, owner, name in methods
            if (owner, name) not in reads and (None, name) not in reads]


class TestPrivateMethods:
    def test_every_private_method_has_a_caller(self):
        """A private method of a class in `src/` is read somewhere in `src/`;
        one that only the tests call belongs in the tests."""
        assert _unreferenced_methods(_trees()) == []

    def test_the_check_sees_an_unused_method(self):
        tree = ast.parse(
            "class A:\n    def _used(self):\n        pass\n\n"
            "    def _unused(self):\n        pass\n\n"
            "    def _by_name(self):\n        pass\n\n"
            "    def f(self):\n        return self._used(), A._by_name(self)\n\n\n"
            "class B:\n    def _unused(self):\n        pass\n\n"
            "    def _any(self):\n        pass\n\n"
            "    def _typed(self):\n        pass\n\n"
            "    def g(self):\n        return self._unused()\n\n\n"
            "class C:\n    def _typed(self):\n        pass\n\n\n"
            "def h(x, a: B):\n    return x._any(), a._typed()\n")
        assert _unreferenced_methods({"m.py": tree}) == ["m.py:A._unused", "m.py:C._typed"]


def _test_imports(tree, test_modules: set) -> list:
    """The modules of `test_modules` (by top-level name) a module imports."""
    names = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
             for alias in node.names]
    names += [node.module for node in ast.walk(tree)
              if isinstance(node, ast.ImportFrom) and node.module]
    return [name for name in names if name.partition(".")[0] in test_modules]


class TestNoTestImports:
    def test_src_imports_nothing_from_the_tests(self):
        """No module of `src/metlie/` imports from `tests/` (`helpers`,
        `test_*`): the reference algebra there is the engine's oracle, not
        part of it."""
        test_modules = {path.stem for path in TESTS.glob("*.py")} | {"tests"}
        assert "helpers" in test_modules
        found = [f"{module}:{name}" for module, tree in _trees().items()
                 for name in _test_imports(tree, test_modules)]
        assert found == []

    def test_the_check_sees_a_test_import(self):
        tree = ast.parse("import os\nfrom helpers import RefQPoly\nimport tests.helpers\n"
                         "from test_model import mel\nfrom metlie.poly import Poly\n")
        assert _test_imports(tree, {"helpers", "test_model", "tests"}) == [
            "tests.helpers", "helpers", "test_model"]


def _unread_imports(tree) -> list:
    """The names a module imports and never reads, in import order; a
    `__future__` import binds no name."""
    imported = [alias.asname or alias.name.partition(".")[0]
                for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"
                for alias in node.names]
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [name for name in imported if name not in read]


class TestUnusedImports:
    def test_every_import_is_read(self):
        """Each module of `src/` reads every name it imports; `__init__.py`
        imports to re-export and is not checked."""
        unread = [f"{module}:{name}" for module, tree in _trees().items()
                  if module != "__init__.py" for name in _unread_imports(tree)]
        assert unread == []

    def test_the_check_sees_an_unused_import(self):
        tree = ast.parse("from __future__ import annotations\nimport os.path\n"
                         "import json as js\nfrom math import gcd, lcm\n\n\n"
                         "def f(a: int) -> int:\n    return gcd(a, len(os.sep))\n")
        assert _unread_imports(tree) == ["js", "lcm"]


def _function_imports(tree) -> list:
    """(function, line) of each import inside a function or method body."""
    return [(node.name, inner.lineno) for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            for inner in ast.walk(node) if isinstance(inner, (ast.Import, ast.ImportFrom))]


class TestModuleLevelImports:
    def test_no_import_inside_a_function(self):
        """Every module of `src/` imports at module level; a name looked up
        per call is read off its module (`metlie.poly.ideal_contains_finite`)."""
        inner = [f"{module}:{name}:{line}" for module, tree in _trees().items()
                 for name, line in _function_imports(tree)]
        assert inner == []

    def test_the_check_sees_a_function_import(self):
        tree = ast.parse("import os\n\n\nclass A:\n    def f(self):\n"
                         "        from math import gcd\n        return gcd\n")
        assert _function_imports(tree) == [("f", 6)]


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

    def test_howell_checks_go_through_the_patched_names(self, monkeypatch):
        """The decide workloads wrap `metlie.primitivity.reduce_pqm` and
        `metlie.poly.ideal_contains_finite` after import; a decision must
        call both through those wrappers."""
        calls = []

        def wrapped(owner, attr):
            step = getattr(owner, attr)

            def wrapper(*args):
                calls.append(attr)
                return step(*args)
            monkeypatch.setattr(owner, attr, wrapper)

        wrapped(metlie.primitivity, "reduce_pqm")
        wrapped(metlie.poly, "ideal_contains_finite")
        verdict = metlie.primitivity.is_primitive([parse("x1 + [[x2,x1],x1]", 2)])
        assert verdict.primitive is True
        assert {"reduce_pqm", "ideal_contains_finite"} == set(calls)


class TestPublicNames:
    def test_exported_names(self):
        """The public names of `metlie`, pinned so that a change to the API
        surface shows in the diff; submodules are not counted."""
        exported = sorted(name for name, value in vars(metlie).items()
                          if not name.startswith("_") and not isinstance(value, types.ModuleType))
        assert exported == [
            "BasisTerm", "BudgetError", "FiniteModel", "GroebnerLimitError", "LieParseError",
            "MElement", "Poly", "PrimitivityVerdict", "QuotientParams", "ResourceLimitError",
            "UniformityReport", "det", "from_basis", "ideal_contains_one", "is_primitive",
            "jacobi_matrix", "minors", "parse", "to_basis", "uniformity_check",
            "uniformity_check_abelian",
        ]

    def test_unexported_names_stay_in_their_modules(self):
        """Names the benchmark and the tests read from their modules, not
        from `metlie`."""
        for module, attr in [("metlie.poly", "reduce_pqm"),
                             ("metlie.poly", "ideal_contains_finite"),
                             ("metlie.poly", "divexact"), ("metlie.ring", "from_expr")]:
            assert hasattr(importlib.import_module(module), attr)
            assert not hasattr(metlie, attr)
