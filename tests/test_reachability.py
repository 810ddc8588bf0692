"""Every definition in ``src/cfl`` is reached from ``cli.main`` or a handler.

The walk reads the package's source with ``ast`` and never imports it.  It
starts at ``cli.main``, at each handler named in ``cli.HANDLERS`` and at
the module-level statements of every module other than imports (they run
when the module loads).  A name or attribute ``x`` used in reached code
reaches every top-level definition and every method called ``x``, in any
module; a reached class reaches its class body and its dunder methods,
which Python calls implicitly.  Resolving by name alone over-approximates
what runs, so the walk can miss dead code that shares a name with live
code, but it never reports code that a kind calls.

A top-level definition or method that the walk does not reach fails the
test; there is no allowlist.  Code that only the tests use lives in
``tests/support.py``, and a second test keeps that move one-way: no module
of the package imports numpy, pytest, hypothesis or ``support``.  A third
keeps one defect class: ``graphs.SelfCheckError`` is the only
``RuntimeError`` subclass the package defines.  A fourth keeps one number
rule: the modules that read outside text (``config``, ``cli`` and
``constructions``) never call the builtin ``int`` or ``float`` by name, so
every number they read goes through ``numbers``.  A fifth keeps the walk's
resolution by name sound for top-level definitions: no top-level function
or class name is defined in two modules.
"""

from __future__ import annotations

import ast
import builtins
import os
from typing import Dict, Iterable, List, Set

import cfl

SRC = os.path.dirname(os.path.abspath(cfl.__file__))

TEST_ONLY = {"numpy", "pytest", "hypothesis", "support"}

NUMBER_READERS = ("config", "cli", "constructions")

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _names(nodes: Iterable[ast.AST]) -> Set[str]:
    """Every name and attribute that ``nodes`` use."""
    out: Set[str] = set()
    for root in nodes:
        for node in ast.walk(root):
            if isinstance(node, ast.Name):
                out.add(node.id)
            elif isinstance(node, ast.Attribute):
                out.add(node.attr)
            elif isinstance(node, ast.alias):
                out.add(node.name.rsplit(".", 1)[-1])
    return out


class _Package:
    """The top-level definitions and methods of every module, by qualified
    name (``module.name`` or ``module.Class.method``)."""

    def __init__(self, src: str):
        self.defs: Dict[str, ast.AST] = {}
        self.by_name: Dict[str, List[str]] = {}
        self.module_code: List[ast.stmt] = []
        self.trees: Dict[str, ast.Module] = {}
        for fname in sorted(os.listdir(src)):
            if not fname.endswith(".py"):
                continue
            module = fname[:-3]
            with open(os.path.join(src, fname), encoding="utf-8") as fh:
                tree = ast.parse(fh.read(), fname)
            self.trees[module] = tree
            for node in tree.body:
                if isinstance(node, _FUNCTIONS):
                    self._add(f"{module}.{node.name}", node)
                elif isinstance(node, ast.ClassDef):
                    self._add(f"{module}.{node.name}", node)
                    for sub in node.body:
                        if isinstance(sub, _FUNCTIONS):
                            self._add(f"{module}.{node.name}.{sub.name}", sub)
                elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                    self.module_code.append(node)

    def _add(self, qualname: str, node: ast.AST) -> None:
        self.defs[qualname] = node
        self.by_name.setdefault(qualname.rsplit(".", 1)[-1], []).append(qualname)

    def handlers(self) -> List[str]:
        """``cli.main`` and the functions that ``cli.HANDLERS`` maps to."""
        roots = ["cli.main"]
        for node in self.trees["cli"].body:
            if (isinstance(node, ast.Assign)
                    and any(isinstance(t, ast.Name) and t.id == "HANDLERS"
                            for t in node.targets)):
                roots += [f"cli.{v.id}" for v in node.value.values]
        return roots

    def reach(self, roots: Iterable[str]) -> Set[str]:
        """The definitions reached from ``roots`` and the module-level code."""
        reached: Set[str] = set()
        pending = list(roots)
        used = _names(self.module_code)
        resolved: Set[str] = set()
        while True:
            for name in used - resolved:
                pending += self.by_name.get(name, [])
            resolved |= used
            if not pending:
                return reached
            qual = pending.pop()
            if qual in reached:
                continue
            reached.add(qual)
            node = self.defs[qual]
            if not isinstance(node, ast.ClassDef):
                used |= _names([node])
                continue
            used |= _names(node.bases + node.decorator_list)
            for sub in node.body:
                if not isinstance(sub, _FUNCTIONS):
                    used |= _names([sub])
                elif _is_dunder(sub.name):
                    pending.append(f"{qual}.{sub.name}")


def test_every_definition_is_reached_from_the_command_line():
    package = _Package(SRC)
    unreached = sorted(set(package.defs) - package.reach(package.handlers()))
    assert not unreached, f"no cfl kind reaches {', '.join(unreached)}"


def _imports_of(package: _Package,
                banned: Iterable[str] = TEST_ONLY) -> List[str]:
    """``module: name`` for each import of a ``banned`` (by default
    ``TEST_ONLY``) module anywhere in the package, function-level imports
    included."""
    found = []
    for module, tree in sorted(package.trees.items()):
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            found += [f"{module}: {name}" for name in names
                      if name.split(".")[0] in banned]
    return found


def test_no_module_imports_test_only_code():
    found = _imports_of(_Package(SRC))
    assert not found, f"src/cfl imports test-only code: {', '.join(found)}"


def test_no_module_imports_json_configparser_or_argparse():
    """Configs are read by ``config._simple_sections``, reports written by
    ``reports.dump_report`` and command lines read by ``cli.parse_args``
    alone, whatever they hold."""
    found = _imports_of(_Package(SRC), {"json", "configparser", "argparse"})
    assert not found, f"src/cfl imports {', '.join(found)}"


def _runtime_errors(package: _Package) -> List[str]:
    """``module.Class`` for each class in the package that derives, directly
    or through other classes named as bases, from ``RuntimeError``."""
    classes = [(f"{module}.{node.name}", node)
               for module, tree in sorted(package.trees.items())
               for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]
    # builtin subclasses such as NotImplementedError count too
    derived = {name for name, obj in vars(builtins).items()
               if isinstance(obj, type) and issubclass(obj, RuntimeError)}
    found: List[str] = []
    while True:
        more = [qual for qual, node in classes if qual not in found
                and _names(node.bases) & derived]
        if not more:
            return sorted(found)
        found += more
        derived |= {qual.rsplit(".", 1)[-1] for qual in more}


def test_the_package_defines_one_defect_class():
    found = _runtime_errors(_Package(SRC))
    assert found == ["graphs.SelfCheckError"], (
        f"RuntimeError subclasses in src/cfl: {', '.join(found)}")


def _builtin_number_calls(package: _Package,
                          modules: Iterable[str] = NUMBER_READERS) -> List[str]:
    """``module:line name`` for each call of the builtin ``int`` or
    ``float`` by name in ``modules``."""
    return [f"{module}:{node.lineno} {node.func.id}" for module in modules
            for node in ast.walk(package.trees[module])
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in ("int", "float")]


def test_outside_text_is_read_through_numbers():
    found = _builtin_number_calls(_Package(SRC))
    assert not found, ("read these numbers with numbers.number: "
                       f"{', '.join(found)}")


def _repeated_names(package: _Package) -> List[str]:
    """``name: module, module, ...`` for each top-level function or class
    name that more than one module defines."""
    modules: Dict[str, List[str]] = {}
    for qual in package.defs:
        module, _, name = qual.partition(".")
        if "." not in name:
            modules.setdefault(name, []).append(module)
    return [f"{name}: {', '.join(mods)}"
            for name, mods in sorted(modules.items()) if len(mods) > 1]


def test_no_top_level_name_is_defined_twice():
    found = _repeated_names(_Package(SRC))
    assert not found, f"top-level names defined twice: {'; '.join(found)}"


def _toy(tmp_path, lib: str) -> _Package:
    """A two-module package: a ``cli`` with one handler that calls
    ``Thing().go()`` from ``lib``, and the given ``lib`` source."""
    (tmp_path / "cli.py").write_text(
        "from .lib import Thing\n"
        "def run_x(cfg):\n"
        "    return Thing().go()\n"
        "HANDLERS = {'x': run_x}\n"
        "def main():\n"
        "    return HANDLERS['x'](None)\n")
    (tmp_path / "lib.py").write_text(lib)
    return _Package(str(tmp_path))


def test_the_walk_reports_an_unreached_function(tmp_path):
    # the guard itself: a function no handler calls is found, one that a
    # handler calls through a method of a reached class is not
    package = _toy(tmp_path,
                   "def used():\n"
                   "    return 1\n"
                   "def unused():\n"
                   "    return 2\n"
                   "class Thing:\n"
                   "    def __init__(self):\n"
                   "        self.v = 0\n"
                   "    def go(self):\n"
                   "        return used()\n"
                   "    def idle(self):\n"
                   "        return unused()\n")
    unreached = set(package.defs) - package.reach(package.handlers())
    assert unreached == {"lib.unused", "lib.Thing.idle"}


def test_module_level_code_and_dunder_methods_are_reached(tmp_path):
    # a table built at import runs, and Python calls a reached class's
    # dunder methods without naming them
    package = _toy(tmp_path,
                   "def build():\n"
                   "    return 1\n"
                   "TABLE = {'b': build}\n"
                   "def size():\n"
                   "    return 2\n"
                   "class Thing:\n"
                   "    def __len__(self):\n"
                   "        return size()\n"
                   "    def go(self):\n"
                   "        return 0\n"
                   "class Idle:\n"
                   "    def __len__(self):\n"
                   "        return 3\n")
    unreached = set(package.defs) - package.reach(package.handlers())
    assert unreached == {"lib.Idle", "lib.Idle.__len__"}


def test_the_import_guard_finds_a_test_only_import(tmp_path):
    # an import inside a function counts, as do ``from`` imports of a
    # submodule; the package's own relative imports do not
    package = _toy(tmp_path,
                   "from support import strip_cliques\n"
                   "class Thing:\n"
                   "    def go(self):\n"
                   "        import numpy.linalg\n"
                   "        return 0\n")
    assert _imports_of(package) == ["lib: support", "lib: numpy.linalg"]


def test_the_defect_guard_finds_every_runtime_error_subclass(tmp_path):
    # a subclass of a subclass counts, as does one of a builtin subclass;
    # other exception classes do not
    package = _toy(tmp_path,
                   "class Broken(RuntimeError):\n"
                   "    pass\n"
                   "class Worse(Broken):\n"
                   "    pass\n"
                   "class Todo(NotImplementedError):\n"
                   "    pass\n"
                   "class Refused(ValueError):\n"
                   "    pass\n"
                   "class Thing:\n"
                   "    def go(self):\n"
                   "        return 0\n")
    assert _runtime_errors(package) == ["lib.Broken", "lib.Todo", "lib.Worse"]


def test_the_number_guard_finds_each_builtin_call(tmp_path):
    # a call of int or float by name counts; passing the type to a reader,
    # or a call of some other name, does not
    package = _toy(tmp_path,
                   "def whole(text):\n"
                   "    return int(text)\n"
                   "def real(text):\n"
                   "    return number(text, float)\n"
                   "def ratio(text):\n"
                   "    return float(text.strip()) + round(1.5)\n"
                   "class Thing:\n"
                   "    def go(self):\n"
                   "        return 0\n")
    assert _builtin_number_calls(package, ["cli", "lib"]) == [
        "lib:2 int", "lib:6 float"]


def test_the_name_guard_finds_a_repeated_top_level_name(tmp_path):
    # a function or class that shares its name with another module's
    # top-level definition counts; a method of the same name does not
    package = _toy(tmp_path,
                   "def main():\n"
                   "    return 0\n"
                   "class Thing:\n"
                   "    def run_x(self):\n"
                   "        return 0\n"
                   "    def go(self):\n"
                   "        return main()\n")
    assert _repeated_names(package) == ["main: cli, lib"]
