"""Source hygiene checks on the package, read with ``ast``, and what
importing the command line loads."""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "uqsl2"


def _private_module_names(tree):
    """Names starting with one underscore that a module defines at its top
    level: functions, classes and assignment targets."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = [
                n.id
                for t in getattr(node, "targets", None) or [node.target]
                for n in ast.walk(t)
                if isinstance(n, ast.Name)
            ]
        else:
            continue
        for name in targets:
            if name.startswith("_") and not name.startswith("__"):
                yield name


def test_every_private_module_name_is_read_somewhere():
    # a private module-level name that no code in the package reads (as a
    # name, an attribute or an import) is dead and should be deleted
    trees = {p.name: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name)
    dead = [
        f"{module}:{name}"
        for module, tree in trees.items()
        for name in _private_module_names(tree)
        if name not in read
    ]
    assert dead == []


_MUTATORS = {"append", "update", "setdefault", "pop", "clear", "add", "extend", "insert"}


def _module_names(tree):
    """Every name a module binds at its top level."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
        else:
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Store):
                    names.add(sub.id)
    return names


def _bound_names(func):
    """Every name a function binds anywhere inside it, nested scopes too:
    its parameters, assignment and loop targets, imports and definitions."""
    names = set()
    for node in ast.walk(func):
        if isinstance(node, ast.arg):
            names.add(node.arg)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.alias):
            names.add((node.asname or node.name).split(".")[0])
    return names


def _module_state_writes(source):
    """Where a function of ``source`` writes into module-level state: a
    ``global`` or ``nonlocal`` declaration, a subscript store or delete on a
    module-level name, or a mutating method called on one."""
    tree = ast.parse(source)
    module = _module_names(tree)
    found = []
    outer = [
        f
        for node in tree.body
        for f in ([node] if not isinstance(node, ast.ClassDef) else node.body)
        if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    for func in outer:
        shared = module - _bound_names(func)
        for node in ast.walk(func):
            if isinstance(node, (ast.Global, ast.Nonlocal)):
                found.append((node.lineno, type(node).__name__.lower()))
            elif (
                isinstance(node, ast.Subscript)
                and isinstance(node.ctx, (ast.Store, ast.Del))
                and isinstance(node.value, ast.Name)
                and node.value.id in shared
            ):
                found.append((node.lineno, node.value.id))
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _MUTATORS
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id in shared
            ):
                found.append((node.lineno, node.func.value.id))
    return found


def test_module_state_scan_sees_each_kind_of_write():
    source = """
_TABLE = {}
_SEEN = []
def store(k): _TABLE[k] = 1
def drop(k): del _TABLE[k]
def grow(k): _SEEN.append(k)
def count():
    global _N
def outer():
    x = 0
    def inner():
        nonlocal x
def own(_TABLE):
    _TABLE[0] = 1
    _SEEN2 = []
    _SEEN2.append(1)
class C:
    def method(self, k):
        _TABLE.setdefault(k, 0)
        self.cache = {}
        self.cache[k] = 1
"""
    found = _module_state_writes(source)
    assert [line for line, _ in found] == [4, 5, 6, 8, 12, 19]


def test_no_function_writes_module_level_state():
    # module-level state that code mutates is shared by every caller in the
    # process and grows without bound; memos are bounded lru_caches, and a
    # cache that lives for one task belongs to an object the caller makes
    found = {
        p.name: _module_state_writes(p.read_text())
        for p in sorted(SRC.glob("*.py"))
    }
    assert {name: f for name, f in found.items() if f} == {}


def test_only_coeff_and_render_read_the_stored_den():
    # a coefficient is num / (den (q - q^-1)^d), so den alone is not its
    # denominator; other modules ask ``as_poly()``, and printing reads the
    # display form ``canonical()``
    readers = {
        p.name
        for p in SRC.glob("*.py")
        for node in ast.walk(ast.parse(p.read_text()))
        if isinstance(node, ast.Attribute) and node.attr == "den"
    }
    assert readers <= {"coeff.py", "render.py"}


def test_only_coeff_reads_the_term_of_a_one_term_coefficient():
    # ``single`` = (c, eq, eu) is coeff's own layout; el_mul multiplies
    # through ``coeff.mul_shifted`` instead of reading it
    readers = {
        p.name
        for p in SRC.glob("*.py")
        for node in ast.walk(ast.parse(p.read_text()))
        if isinstance(node, ast.Attribute) and node.attr == "single"
    }
    assert readers == {"coeff.py"}


_STORED_FORM = {"num", "den", "d", "single"}


def test_only_coeff_stores_the_fields_of_a_coefficient():
    # ``single`` is derived from (num, den, d) by coeff._rf; a store to any
    # of them elsewhere could leave it describing another value
    writers = set()
    for p in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(p.read_text())):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.ctx, (ast.Store, ast.Del))
                and node.attr in _STORED_FORM
            ) or (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in ("setattr", "delattr")
                and any(
                    isinstance(a, ast.Constant) and a.value in _STORED_FORM for a in node.args
                )
            ):
                writers.add(p.name)
    # coeff's own stores show that the scan sees them
    assert writers == {"coeff.py"}


def test_no_default_is_the_strict_mode():
    # full mode computes in U_q(sl2-hat), so Strict is chosen only by name:
    # no parameter and no dataclass field defaults to it
    found = []
    for p in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(p.read_text())):
            if isinstance(node, ast.arguments):
                defaults = [*node.defaults, *node.kw_defaults]
            elif isinstance(node, ast.AnnAssign):
                defaults = [node.value]
            else:
                continue
            found += [
                f"{p.name}:{d.lineno}"
                for d in defaults
                if d is not None and ast.unparse(d) == "RelationMode.STRICT"
            ]
    assert found == []


def _package_imports(tree):
    """The modules of the package that a module imports, at its top level
    or inside a function; ``from . import name`` runs ``__init__``."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            found.add(node.module.split(".")[0] if node.module else "__init__")
    return found


def test_render_imports_no_module_above_elements():
    # printing and reading elements needs the ring and the elements only;
    # importing expr, even for one helper, pulls in rewrite, family and
    # currents as well
    graph = {p.stem: _package_imports(ast.parse(p.read_text())) for p in SRC.glob("*.py")}
    # the scan sees imports: expr reads the engine and the family
    assert {"rewrite", "family"} <= graph["expr"]
    reached, todo = set(), ["render"]
    while todo:
        for module in graph[todo.pop()] - reached:
            reached.add(module)
            todo.append(module)
    assert reached <= {"coeff", "elements"}


def test_importing_the_cli_loads_no_multiprocessing():
    # a sweep imports it when it starts a pool; loaded at import it would
    # cost every command, and every benchmark set-up, tens of milliseconds.
    # -S: a site .pth file may import anything
    code = "import sys, uqsl2.cli; print([m for m in sys.modules if m.startswith('multiprocessing')])"
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert proc.stdout == "[]\n"
