"""Source hygiene checks on the package, read with ``ast``, and what
importing the command line loads."""

import ast
import contextlib
import io
import os
import subprocess
import sys
from pathlib import Path

from uqsl2 import cli

from helpers import clear_caches

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "uqsl2"


def _defined_names(tree):
    """What a module defines at its top level: its functions, classes and
    assignment targets, and each class's methods as ``Class.method``."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.append(node.name)
            if isinstance(node, ast.ClassDef):
                found += [
                    f"{node.name}.{f.name}"
                    for f in node.body
                    if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
                ]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            found += [
                n.id
                for t in getattr(node, "targets", None) or [node.target]
                for n in ast.walk(t)
                if isinstance(n, ast.Name)
            ]
    return found


def _unread_names(sources):
    """``module:name`` for each name other than a dunder that
    ``_defined_names`` finds in the sources, a dict of module name to
    text, and that none of them reads: as a name, an attribute or an
    import.  A method counts as read when any attribute of its name is."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name)
    return [
        f"{module}:{name}"
        for module, tree in trees.items()
        for name in _defined_names(tree)
        for leaf in [name.rpartition(".")[2]]
        if leaf not in read and not (leaf.startswith("__") and leaf.endswith("__"))
    ]


def test_every_module_name_is_read_somewhere():
    # the package holds only what its commands run: a module-level name or
    # a method that no code in the package reads (as a name, an attribute
    # or an import) is dead, or serves only tests and belongs in
    # tests/helpers.py; the exceptions are the functions that perfbench
    # imports (see _NOT_CALLED_HERE).  The probe shows that the scan sees
    # each kind
    probe = {
        "a.py": """\
import os
from .b import used
def unread_function(): pass
class UnreadClass:
    def unread_method(self): pass
    def __repr__(self): return ""
class Read:
    def read_method(self): return os.sep
UNREAD_VALUE, _unread_private = 1, 2
""",
        "b.py": """\
def used(): return Read().read_method()
""",
    }
    assert _unread_names(probe) == [
        "a.py:unread_function",
        "a.py:UnreadClass",
        "a.py:UnreadClass.unread_method",
        "a.py:UNREAD_VALUE",
        "a.py:_unread_private",
    ]
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert _unread_names(sources) == [
        name.replace(".", ".py:", 1)
        for name, reason in _NOT_CALLED_HERE.items()
        if reason == _IMPORTED_BY_PERFBENCH
    ]


def _defined_functions(tree, prefix):
    """(qualified name, first line) of every function and method that
    ``tree`` defines, nested ones too.  The first line of a decorated
    function is its first decorator's, as in its code object."""
    found = []
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            line = node.decorator_list[0].lineno if node.decorator_list else node.lineno
            found.append((prefix + node.name, line))
            found += _defined_functions(node, f"{prefix}{node.name}.")
        elif isinstance(node, ast.ClassDef):
            found += _defined_functions(node, f"{prefix}{node.name}.")
        else:
            found += _defined_functions(node, prefix)
    return found


def _called_code(run):
    """(file, first line, name) of every Python function that ``run()``
    calls in this process."""
    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(previous)
    return {(os.path.realpath(c.co_filename), c.co_firstlineno, c.co_name) for c in seen}


def test_the_call_scan_sees_decorated_methods_and_nested_functions():
    source = """\
import functools
def uncalled(): pass
@functools.lru_cache
def decorated(): pass
class C:
    @staticmethod
    def method():
        def inner(): pass
        inner()
    def __len__(self): return 0
    def __repr__(self): return ""
"""
    tree = ast.parse(source)
    assert _defined_functions(tree, "m.") == [
        ("m.uncalled", 2), ("m.decorated", 3), ("m.C.method", 6), ("m.C.method.inner", 8),
        ("m.C.__len__", 10), ("m.C.__repr__", 11),
    ]
    namespace = {}
    exec(compile(tree, "probe.py", "exec"), namespace)
    C = namespace["C"]
    # len() calls __len__ through its type slot, as an operator calls its dunder
    called = _called_code(lambda: (namespace["decorated"](), C.method(), len(C())))
    probe = os.path.realpath("probe.py")
    assert sorted((line, name) for path, line, name in called if path == probe) == [
        (3, "decorated"), (6, "method"), (8, "inner"), (10, "__len__")
    ]


# every element command runs in every format, on operands that take each
# rule of the engine (an R2 central term, an R3 run, an R4 inside a word and
# at its end, R6), a division, a negative power and a sum over two powers
# of q - q^-1
_ELEMENT_RUNS = (
    [
        "nf",
        "a[1]*a[-1] + a[2]*x+[0]*x-[1] + x-[1]*x+[0]*a[2] + x+[1]*x+[-1]"
        " + x+[0]/(3*u)*K^-2 + 1/(q - q^-1) + (q - q^-1)^-2",
    ],
    ["mul", "x+[0]", "x-[1]*K"],
    ["comm", "x+[0]", "-x-[0]"],
    ["dcomm", "E(+,0,0,0)", "E(+,0,0,-2)", "--p", "1"],
    ["psi", "2"],
    ["phi", "-2"],
    ["E", "-", "1", "0", "2"],
    ["c", "+", "1", "0"],
    ["omega", "a[1]*x+[2]*(q - q^-1)^-2*K"],
)

# argparse's usage errors, the sweep flags' and the expression reader's
_USAGE_ERRORS = (
    ["bogus"],
    ["verify", "--claims", "bogus"],
    ["verify", "--claims", ","],
    ["verify", "--n-max", "-1"],
    ["verify", "--m-range", "1:0"],
    ["verify", "--p-range", "x"],
    ["verify", "--claims", "ep", "--n-max", "0", "--k-max", "0"],
    ["nf", "x+[0"],
    ["nf", "1/(q + 1)"],
    ["nf", "x+[0]/x+[1]"],
    ["nf", "1/0"],
    ["nf", "zeta"],
    ["nf", "f(1)"],
    ["nf", "a[0]"],
)

_IMPORTED_BY_PERFBENCH = "perfbench/workloads.py imports it from the package"
_IN_A_WORKER = "only a forked sweep worker runs it; tests/test_cli.py covers it"
_REPR = "pytest prints it in an assertion message; no command prints a repr"

# the functions and methods, dunders included, that no command calls in its
# own process, each with its reason
_NOT_CALLED_HERE = {
    "cli._work": _IN_A_WORKER,
    "cli._send": _IN_A_WORKER,
    "cli._error_frame": _IN_A_WORKER,
    "family.expand_general_commutator": _IMPORTED_BY_PERFBENCH,
    "family.expand_specialized_commutator": _IMPORTED_BY_PERFBENCH,
    "coeff.RatFunc.__repr__": _REPR,
    "elements.Element.__repr__": _REPR,
    "elements.Element.__bool__": "without it every element, zero included, is true,"
    " so an assert on an element would pass on zero",
    "elements.Element.__mul__": "perfbench/test_bench_checks.py multiplies elements with *",
}


def _run_every_command(monkeypatch):
    def run(argv):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            cli.main(argv)

    for argv in _ELEMENT_RUNS:
        for fmt in ("text", "latex", "json"):
            run([*argv, "--format", fmt])
    # the sweep on this machine's CPUs, in this process, and forked
    for cpus in (cli._cpus, lambda: 1, lambda: 2):
        monkeypatch.setattr(cli, "_cpus", cpus)
        for mode in ("strict", "full"):
            for fmt in ("text", "json"):
                run(["verify", "--n-max", "2", "--k-max", "2", "--m-range=-1:0"]
                    + ["--p-range=0:1", "--mode", mode, "--format", fmt])
    for argv in _USAGE_ERRORS:
        run(argv)


def test_every_function_runs_under_a_command(monkeypatch):
    # the package holds only what its commands run: every function and
    # method of src/uqsl2, dunders included, is called by some command, run
    # here under a profiler with every memo empty
    clear_caches()
    called = _called_code(lambda: _run_every_command(monkeypatch))
    missing = []
    for p in sorted(SRC.glob("*.py")):
        path = os.path.realpath(p)
        for name, line in _defined_functions(ast.parse(p.read_text()), f"{p.stem}."):
            leaf = name.rpartition(".")[2]
            if (path, line, leaf) not in called:
                missing.append(name)
    assert [name for name in missing if name not in _NOT_CALLED_HERE] == []
    # and every exemption is still needed
    assert sorted(missing) == sorted(_NOT_CALLED_HERE)


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


def _open_calls(source):
    """The lines of ``source`` that call the builtin ``open``."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "open"
    ]


def test_open_scan_sees_a_call_of_open():
    source = """
with open(path) as fh:
    pass
os.open(os.devnull, os.O_WRONLY)
reader = open
"""
    assert _open_calls(source) == [2]


def test_no_module_opens_a_file():
    # the engine's input is argv: no command reads a file (os.open of
    # devnull, which discards stdout after a closed pipe, is not a call of
    # the builtin)
    found = {p.name: _open_calls(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    assert {name: lines for name, lines in found.items() if lines} == {}


def _imports_re(source):
    """The lines of ``source`` that import the ``re`` module, a module of
    its package or a name from one."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Import)
        and any(a.name.split(".")[0] == "re" for a in node.names)
        or isinstance(node, ast.ImportFrom)
        and node.level == 0
        and node.module.split(".")[0] == "re"
    ]


def test_re_scan_sees_each_import_of_re():
    source = """
import re
import os, re as regex
from re import compile
from . import re
from .re import x
import rex
pattern = "import re"
"""
    assert _imports_re(source) == [2, 3, 4]


def test_only_expr_imports_re():
    # expr is the one reader of text: no other module matches patterns
    found = {p.name: _imports_re(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    assert {name: lines for name, lines in found.items() if lines and name != "expr.py"} == {}


def _unused_imports(source):
    """The names that ``source`` binds by ``import`` or ``from ... import``
    and never reads, with the line of their import.  A read is an
    ``ast.Name`` load anywhere in the module, which is also the root of an
    attribute chain; ``from __future__`` binds nothing."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names = [a.asname or a.name for a in node.names]
        else:
            continue
        for name in names:
            bound.setdefault(name, node.lineno)
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return sorted((line, name) for name, line in bound.items() if name not in read)


def test_unused_import_scan_sees_a_name_never_read():
    source = """
from __future__ import annotations
import os, sys as system
import os.path
from json import dumps, loads as load
from . import helper
def f():
    from .x import inner
    return os.sep, load, "dumps helper inner"
"""
    assert _unused_imports(source) == [(3, "system"), (5, "dumps"), (6, "helper"), (8, "inner")]


def test_no_module_imports_a_name_it_never_reads():
    # an import that nothing reads is dead code, and a name imported for
    # nothing has to be edited whenever it is renamed or deleted
    found = {
        str(p.relative_to(ROOT)): _unused_imports(p.read_text())
        for folder in (SRC, ROOT / "tests")
        for p in sorted(folder.glob("*.py"))
    }
    assert {name: f for name, f in found.items() if f} == {}


def test_the_package_module_holds_only_its_version():
    # every name is imported from its module; the package re-exports none
    tree = ast.parse((SRC / "__init__.py").read_text())
    assert ast.get_docstring(tree)
    assert [type(node).__name__ for node in tree.body] == ["Expr", "Assign"]
    assert [ast.unparse(t) for t in tree.body[1].targets] == ["__version__"]
    modules = {p.stem for p in SRC.glob("*.py")} - {"__init__"}
    imported = {
        (str(p.relative_to(ROOT)), a.name)
        for folder in (SRC, ROOT / "tests", ROOT / "perfbench")
        for p in folder.glob("*.py")
        for node in ast.walk(ast.parse(p.read_text()))
        if isinstance(node, ast.ImportFrom)
        and (node.level, node.module) in ((0, "uqsl2"), (1, None))
        for a in node.names
    }
    # the scan sees both spellings: cli's relative import and the tests'
    assert {("src/uqsl2/cli.py", "__version__"), ("tests/test_cli.py", "cli")} <= imported
    assert {(path, name) for path, name in imported if name not in modules | {"__version__"}} == set()


def test_only_coeff_and_render_read_the_stored_den():
    # a coefficient is num / (den (q - q^-1)^d), so den alone is not its
    # denominator; printing reads the display form ``canonical()``
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


_DICT_WRITERS = {"pop", "popitem", "update", "clear", "setdefault"}
_SHARED_DICTS = {"terms", "num"}


def _terms_writes(source):
    """Lines that change the ``terms`` dict of an element or the ``num``
    dict of a coefficient in place: a store or delete of ``X.terms[...]``,
    ``X.terms |= ...``, or a call of a dict method that writes on
    ``X.terms``, and the same on ``X.num``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del)):
            target = node.value
        elif isinstance(node, ast.AugAssign):
            target = node.target
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            target = node.func.value if node.func.attr in _DICT_WRITERS else None
        else:
            continue
        if isinstance(target, ast.Attribute) and target.attr in _SHARED_DICTS:
            found.append(node.lineno)
    return sorted(found)


def test_terms_writes_sees_each_kind_of_write():
    source = """\
e.terms[m] = c
del e.terms[m]
e.terms[m] += c
e.terms |= other
e.terms.pop(m)
e.terms.popitem()
e.terms.update(other)
e.terms.clear()
e.terms.setdefault(m, c)
c.num[e] = n
del c.num[e]
c.num[e] -= n
c.num |= other
c.num.pop(e)
c.num.popitem()
c.num.update(other)
c.num.clear()
c.num.setdefault(e, n)
t = dict(e.terms)
t[m] = c
e.terms.get(m)
t = dict(c.num)
t[e] = n
c.num.get(e)
"""
    assert _terms_writes(source) == list(range(1, 19))


def test_nothing_mutates_the_terms_of_an_element_or_polynomial():
    # family members and one-term coefficients are memoized values that
    # every caller shares, and so is the numerator P_ONE: a write to one's
    # terms or num would change it for all
    found = {p.name: _terms_writes(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    assert {name: f for name, f in found.items() if f} == {}


def _regime_raises(source):
    """The function around each ``raise RegimeError``, in source order."""
    found = []
    for func in ast.walk(ast.parse(source)):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(func):
                exc = getattr(node, "exc", None) if isinstance(node, ast.Raise) else None
                if isinstance(exc, ast.Call):
                    exc = exc.func
                if isinstance(exc, ast.Name) and exc.id == "RegimeError":
                    found.append(func.name)
    return found


def test_regime_raises_sees_both_spellings():
    source = """\
def check(t):
    if t < 0:
        raise RegimeError(f"got {t}")
    raise RegimeError
def other():
    raise ValueError("not a regime")
"""
    assert _regime_raises(source) == ["check", "check"]


def test_regime_error_is_raised_only_by_verify_claim():
    # each claim's regime is a predicate in its row of verify.CLAIMS, which
    # verify_claim checks and sweep_params filters by; a guard anywhere else
    # would be a second statement of a regime
    found = [
        (p.name, name) for p in sorted(SRC.glob("*.py")) for name in _regime_raises(p.read_text())
    ]
    assert found == [("verify.py", "verify_claim")]


def _strict_defaults(source):
    """The lines of ``source`` where a default is ``RelationMode.STRICT``:
    a parameter's, an annotated field's, or any element of a ``defaults=``
    keyword, as ``namedtuple`` takes its fields' defaults."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.arguments):
            defaults = [*node.defaults, *node.kw_defaults]
        elif isinstance(node, ast.AnnAssign):
            defaults = [node.value]
        elif isinstance(node, ast.keyword) and node.arg == "defaults":
            defaults = getattr(node.value, "elts", [node.value])
        else:
            continue
        found += [
            d.lineno for d in defaults if d is not None and ast.unparse(d) == "RelationMode.STRICT"
        ]
    return found


def test_no_default_is_the_strict_mode():
    # full mode computes in U_q(sl2-hat), so Strict is chosen only by name:
    # no parameter and no record field (a namedtuple's ``defaults=``)
    # defaults to it.  The probe shows that the scan sees each kind
    probe = """\
def f(mode=RelationMode.STRICT, *, other=RelationMode.STRICT): pass
class D:
    mode: RelationMode = RelationMode.STRICT
C = namedtuple("C", ("mode",), defaults=(RelationMode.STRICT,))
C = namedtuple("C", ("n", "mode"), defaults=[0, RelationMode.STRICT])
C = namedtuple("C", ("mode",), defaults=(RelationMode.FULL,))
"""
    assert _strict_defaults(probe) == [1, 1, 3, 4, 5]
    found = {p.name: _strict_defaults(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    assert {name: lines for name, lines in found.items() if lines} == {}


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
    # the scan sees imports: expr reads the engine and the family, and
    # reads text without the printer
    assert {"rewrite", "family"} <= graph["expr"]
    assert "render" not in graph["expr"]
    reached, todo = set(), ["render"]
    while todo:
        for module in graph[todo.pop()] - reached:
            reached.add(module)
            todo.append(module)
    assert reached <= {"coeff", "elements"}


# modules that no command runs: a sweep forks its workers without
# multiprocessing, only tests evaluate a coefficient with fractions (which
# imports decimal and numbers), and the ring takes ints, not any
# numbers.Rational; records are collections.namedtuple types, not
# dataclasses (which import inspect) or typing.NamedTuple
_NOT_AT_IMPORT = (
    "multiprocessing", "dataclasses", "inspect", "typing", "fractions", "decimal", "numbers"
)


def test_importing_the_cli_loads_no_module_that_no_command_runs():
    # each would cost every command, and every benchmark set-up, from one to
    # tens of milliseconds.  -S: a site .pth file may import anything
    code = (
        "import sys, uqsl2.cli; "
        f"print(sorted(m for m in sys.modules if m.split('.')[0] in {_NOT_AT_IMPORT!r}))"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert proc.stdout == "[]\n"


# what a sweep with workers leaves unloaded: it forks them and reads their
# pipes itself, with no executor, thread or subprocess machinery, and so
# with no logging either
_NOT_IN_A_SWEEP = ("multiprocessing", "concurrent", "logging", "threading", "subprocess")


def test_a_sweep_with_workers_loads_no_executor():
    # each would cost the sweep's process, and every worker forked from it,
    # memory.  The forks are counted here, in the process that makes them
    code = f"""\
import os, sys
from uqsl2 import cli
cli._cpus = lambda: 2
fork, forks = os.fork, []
os.fork = lambda: forks.append(1) or fork()
config = cli._verify_config(cli.build_parser().parse_args(["verify", "--mode", "strict"]))
counts = cli.run_verify_suite(config, [].append)
print(len(forks), counts["reports"], sorted(m for m in sys.modules if m.split(".")[0] in {_NOT_IN_A_SWEEP!r}))
"""
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert proc.stdout == "2 1100 []\n"
