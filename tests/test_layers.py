"""The modules of the package form a stack: each one imports only the
modules below it, so a lower layer never depends on an upper one.  At
the bottom, core holds what every layer shares and imports no package
module; the upper layers take it from core, not from bitseq.  The
package's __init__ sits above the stack and re-exports all of it.  Every
package import sits at module level, where the order is visible, but in
the one declared loader, the package's __getattr__, which loads a layer
of its _EXPORTS table on first use; cli reads an upper layer off the
package.  A call of importlib.import_module or __import__ counts as a
package import, so a dynamic import cannot hide in a function either.
No module writes its own globals after import but core's first-use
helper and the two PEP 562 __getattr__.  Every cache has a literal bound
and is made by core's one memo policy, on a function listed with the
measurement that keeps its memo, every private helper is used, no float
is written, made or divided out, no module switches the interpreter's
limit on integer text, none but Record.__init_subclass__ names exec,
eval or compile, no nested function refers to itself and no
module-level function calls itself, but for the few whose depth is
bounded.  Start-up (`import uns, uns.cli`) loads core, the two lower
layers and the CLI, and no other module the package does not use: no
upper layer, no argparse or json, no dataclasses, and so no inspect, and
no fractions, and so no decimal or numbers, which core loads on the
first rational made."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

import uns
from uns import cli

LAYERS = ("core", "bitseq", "streams", "hyperops", "ordinals", "cardinals", "cli")
MODULES = sorted(p for p in Path(uns.__file__).parent.glob("*.py") if p.stem != "__init__")
# the one function of a module that may import a package module, and the
# layers it may load: those its module's table names
LOADERS = {"__init__": "__getattr__"}


def _package_imports(tree):
    """The package modules a syntax tree imports, at any nesting level; a
    dynamic import (import_module, __import__) of anything but a literal
    name yields "<dynamic>"."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                top, _, rest = alias.name.partition(".")
                if top == "uns" and rest:
                    yield rest.partition(".")[0]
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                module = node.module or ""
            else:
                top, _, module = (node.module or "").partition(".")
                if top != "uns":
                    continue
            if module:
                yield module.partition(".")[0]
            else:  # from . import a, b
                yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.Call) and _name(node.func) in ("import_module", "__import__"):
            name = node.args[0] if node.args else None
            if not (isinstance(name, ast.Constant) and isinstance(name.value, str)):
                yield "<dynamic>"
            elif name.value.startswith(("uns.", ".")):
                yield name.value.lstrip(".").removeprefix("uns.").partition(".")[0]


def _outside(tree, loader):
    """The module's statements but the declared loader's definition."""
    return [s for s in tree.body if not (isinstance(s, ast.FunctionDef | ast.ClassDef) and s.name == loader)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_modules_import_only_lower_layers(path):
    assert path.stem in LAYERS, f"{path.name} has no place in the layer order"
    below = LAYERS[: LAYERS.index(path.stem)]
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {m for stmt in _outside(tree, LOADERS.get(path.stem)) for m in _package_imports(stmt)}
    assert imported <= set(below), f"{path.stem} imports upper layers {imported - set(below)}"


def _imports_in_functions(tree, loader=None):
    """Each package import inside a function body, as function: module,
    but for those of the declared loader."""
    for stmt in _outside(tree, loader):
        for fn in ast.walk(stmt):
            if isinstance(fn, ast.FunctionDef | ast.AsyncFunctionDef):
                yield from (f"{fn.name}: {module}" for module in _package_imports(fn))


@pytest.mark.parametrize("path", [*MODULES, Path(uns.__file__)], ids=lambda p: p.stem)
def test_no_package_import_inside_a_function(path):
    """None but in the module's declared loader, which
    test_each_loader_loads_only_its_tables_layers bounds."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    lazy = sorted(set(_imports_in_functions(tree, LOADERS.get(path.stem))))
    assert not lazy, f"{path.stem} imports inside a function body: {lazy}"


def test_each_loader_loads_only_its_tables_layers():
    for module, loader in LOADERS.items():
        path = Path(uns.__file__).with_name(f"{module}.py")
        tree = ast.parse(path.read_text(encoding="utf-8"))
        fn = next(s for s in tree.body if isinstance(s, ast.FunctionDef) and s.name == loader)
        assert set(_package_imports(fn)) == {"<dynamic>"}, module  # the name comes from the table
    below = set(LAYERS[: LAYERS.index("cli")])
    assert set(uns._EXPORTS) == below
    # cli holds core and the lower layers it imports, and a stand-in for each upper layer
    assert {name for name in vars(cli) if name in LAYERS} == below


def _layer_imports(stem):
    return set(_package_imports(ast.parse(Path(uns.__file__).with_name(f"{stem}.py").read_text(encoding="utf-8"))))


def test_core_imports_no_package_module_and_the_upper_layers_nothing_from_bitseq():
    assert _layer_imports("core") == set()
    for stem in ("hyperops", "ordinals", "cardinals"):
        assert "bitseq" not in _layer_imports(stem), stem


@pytest.mark.parametrize(
    "source, loader, found",
    [
        ("from . import bitseq\ndef f():\n    import json", None, []),
        ("def f():\n    from . import ordinals", None, ["f: ordinals"]),
        ("def f():\n    def g():\n        import uns.cardinals", None, ["f: cardinals", "g: cardinals"]),
        ("import importlib\ndef f(name):\n    return importlib.import_module(name)", None, ["f: <dynamic>"]),
        ("def f():\n    return __import__('uns.hyperops')", None, ["f: hyperops"]),
        ("def f():\n    return import_module('.streams', 'uns')", None, ["f: streams"]),
        ("def run(layer):\n    return import_module(layer)", "run", []),
        ("def run():\n    pass\ndef f(layer):\n    return import_module(layer)", "run", ["f: <dynamic>"]),
    ],
)
def test_the_import_check_finds_static_and_dynamic_imports_in_functions(source, loader, found):
    assert sorted(_imports_in_functions(ast.parse(source), loader)) == found


@pytest.mark.parametrize(
    "source, imported",
    [
        ("from importlib import import_module\nc = import_module('uns.cardinals')", {"cardinals"}),
        ("import importlib\nm = importlib.import_module('.ordinals', __package__)", {"ordinals"}),
        ("import importlib\nm = importlib.import_module(NAME)", {"<dynamic>"}),
        ("import importlib\nm = importlib.import_module('json')", set()),
    ],
)
def test_the_layer_check_counts_module_level_dynamic_imports(source, imported):
    assert set(_package_imports(ast.parse(source))) == imported


# the one function or class of a module that may write the module's own
# globals after import: core's stand-in, which binds what it builds in its
# own place, and the two PEP 562 __getattr__, as `from uns.bitseq import
# Fraction` must give the class itself and not a stand-in
GLOBAL_WRITERS = {"core": "_FirstUse", "__init__": "__getattr__", "bitseq": "__getattr__"}
_MUTATORS = {"update", "setdefault", "pop", "popitem", "clear", "__setitem__", "__delitem__"}


def _global_writes(tree, writer=None):
    """Lines of a module, outside its declared writer, that can write its
    globals after import: globals()[...] stored or deleted, a mutating
    method of globals(), and globals() given another name, as the value
    of an assignment or as a call's argument, but as a _FirstUse's
    namespace, where only the stand-in's own name is bound."""
    parents = {}
    for stmt in _outside(tree, writer):
        for node in ast.walk(stmt):
            parents.update((kid, node) for kid in ast.iter_child_nodes(node))
    for node, up in parents.items():
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "globals"):
            continue
        if isinstance(up, ast.keyword):
            up = parents[up]
        if isinstance(up, ast.Subscript) and isinstance(up.ctx, ast.Store | ast.Del):
            yield f"line {node.lineno}: writes globals()[...]"
        elif isinstance(up, ast.Attribute) and up.attr in _MUTATORS:
            yield f"line {node.lineno}: calls globals().{up.attr}"
        elif isinstance(up, ast.Assign | ast.AnnAssign | ast.AugAssign | ast.NamedExpr) and up.value is node:
            yield f"line {node.lineno}: names globals()"
        elif isinstance(up, ast.Call) and node is not up.func and _name(up.func) != "_FirstUse":
            yield f"line {node.lineno}: passes globals() to {_name(up.func)}"


@pytest.mark.parametrize("path", [*MODULES, Path(uns.__file__)], ids=lambda p: p.stem)
def test_no_module_writes_its_own_globals_after_import(path):
    problems = list(_global_writes(ast.parse(path.read_text(encoding="utf-8")), GLOBAL_WRITERS.get(path.stem)))
    assert not problems, f"{path.stem}: {problems}"


@pytest.mark.parametrize(
    "source, writer, clean",
    [
        ("_BOUND = globals()\ndef run(layer):\n    _BOUND[layer] = 1", None, False),
        ("def run(layer):\n    globals()[layer] = 1", None, False),
        ("def f():\n    globals().update(x=1)", None, False),
        ("def f():\n    del globals()['x']", None, False),
        ("def f(d):\n    d['x'] = 1\nf(globals())", None, False),
        ("d = dict(m=globals())", None, False),
        ("x = _FirstUse(globals(), 'x', int)", None, True),
        ("x = core._FirstUse(globals(), 'x', getattr, pkg, 'x')", None, True),
        ("names = sorted({*globals()})\nvalue = globals().get('x')", None, True),
        ("def __getattr__(name):\n    globals()[name] = 1", "__getattr__", True),
        ("def __getattr__(name):\n    globals()[name] = 1", None, False),
        ("class _FirstUse:\n    def bind(self):\n        globals()['x'] = 1", "_FirstUse", True),
    ],
)
def test_the_global_write_check_finds_writes_and_aliases(source, writer, clean):
    assert (not list(_global_writes(ast.parse(source), writer))) == clean


def _unbounded_caches(tree):
    """Lines where a functools cache has no literal integer bound: a bare
    or argument-free lru_cache, maxsize=None or a computed size, and any
    use of functools.cache."""
    bounded = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and _name(node.func) == "lru_cache":
            size = node.args[0] if node.args else next((k.value for k in node.keywords if k.arg == "maxsize"), None)
            if isinstance(size, ast.Constant) and type(size.value) is int:
                bounded.add(id(node.func))
    for node in ast.walk(tree):
        if isinstance(node, ast.alias) and node.name == "cache":
            yield "imports functools.cache"
        elif _name(node) == "cache" or (_name(node) == "lru_cache" and id(node) not in bounded):
            yield f"line {node.lineno}: {_name(node)} without a literal integer maxsize"


def _name(node):
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_cache_is_bounded(path):
    problems = list(_unbounded_caches(ast.parse(path.read_text(encoding="utf-8"))))
    assert not problems, f"{path.stem}: {problems}"


@pytest.mark.parametrize(
    "source, bounded",
    [
        ("from functools import lru_cache\n@lru_cache(maxsize=1024)\ndef f(): pass", True),
        ("import functools\nmemo = functools.lru_cache(64, typed=True)", True),
        ("from functools import lru_cache\n@lru_cache(maxsize=None)\ndef f(): pass", False),
        ("from functools import lru_cache\n@lru_cache\ndef f(): pass", False),
        ("from functools import lru_cache\n@lru_cache()\ndef f(): pass", False),
        ("from functools import lru_cache\nN = 8\n@lru_cache(maxsize=N)\ndef f(): pass", False),
        ("from functools import cache\n@cache\ndef f(): pass", False),
        ("import functools\n@functools.cache\ndef f(): pass", False),
    ],
)
def test_the_cache_check_tells_bounded_from_unbounded(source, bounded):
    assert (not list(_unbounded_caches(ast.parse(source)))) == bounded


def _cache_makers(tree):
    """Lines that name functools' lru_cache or cache, imported or read off
    the module: only core, which owns the one memo policy, may."""
    for node in ast.walk(tree):
        if isinstance(node, ast.alias) and node.name in ("lru_cache", "cache"):
            yield f"line {node.lineno}: imports {node.name}"
        elif isinstance(node, ast.Attribute) and node.attr in ("lru_cache", "cache"):
            yield f"line {node.lineno}: names {node.attr}"


@pytest.mark.parametrize("path", [p for p in [*MODULES, Path(uns.__file__)] if p.stem != "core"], ids=lambda p: p.stem)
def test_only_core_makes_a_memo(path):
    problems = list(_cache_makers(ast.parse(path.read_text(encoding="utf-8"))))
    assert not problems, f"{path.stem}: {problems}"


@pytest.mark.parametrize(
    "source, clean",
    [
        ("from .core import _memo\n@_memo\ndef f(): pass", True),
        ("from . import core\n@core._memo\ndef f(): pass", True),
        ("from functools import total_ordering", True),
        ("from functools import lru_cache\n@lru_cache(maxsize=8)\ndef f(): pass", False),
        ("from functools import cache as keep", False),
        ("import functools\n@functools.lru_cache(maxsize=1)\ndef f(): pass", False),
        ("import functools as ft\nmemo = ft.cache", False),
    ],
)
def test_the_memo_check_finds_every_functools_cache(source, clean):
    assert (not list(_cache_makers(ast.parse(source)))) == clean


# Every memo of the package, and the measurement that keeps it.  A memo
# holds its arguments and results alive and costs a lookup on every call,
# so a function is memoized only where its traffic repeats.  Shares are of
# calls served on the seed-3401 op lists; A/B reads are thread CPU without
# the memo over with it, in-process, on seed 3601.  ord_add, ord_mul and
# ord_cmp run uncached: on interned terms a call costs less than its
# lookup (symbolic read 0.94-0.96 without their memos), and 128 calls each
# on 2^20-bit naturals kept 68.5 MB.
MEMOS = {
    "ordinals.ord_pow": "95% of cli_mix's powers are repeats; without it cli_mix read 1.086",
    "cardinals._entry": "the rewriter's step memo, 95% of cli_mix's lookups served; without it cli_mix read 1.219, symbolic 1.101",
    "streams.as_stream": "equal descriptors share one stream and its prefix (51% of cli_mix's calls); the benchmark counts its hits",
    "cli._shared_parser": "run's argparse fallback builds its parser once, not per call (about 2 ms a build)",
}


def _memos(tree, module):
    """The functions a module memoizes, as module.name, and each use of
    _memo other than as a function's decorator."""
    decorators = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef | ast.AsyncFunctionDef):
            for d in node.decorator_list:
                if _name(d) == "_memo":
                    decorators.add(id(d))
                    yield f"{module}.{node.name}"
    for node in ast.walk(tree):
        if _name(node) == "_memo" and isinstance(node.ctx, ast.Load) and id(node) not in decorators:
            yield f"{module} line {node.lineno}: _memo used other than as a decorator"


def test_each_memo_is_one_its_traffic_pays_for():
    found = {m for path in MODULES for m in _memos(ast.parse(path.read_text(encoding="utf-8")), path.stem)}
    assert found == set(MEMOS), f"new memos {found - set(MEMOS)}, gone {set(MEMOS) - found}"


@pytest.mark.parametrize(
    "source, found",
    [
        ("from .core import _memo\n@_memo\ndef f(): pass", {"m.f"}),
        ("from . import core\n@core._memo\ndef f(): pass\ndef g(): pass", {"m.f"}),
        ("from .core import _memo\ndef f(): pass\nf = _memo(f)", {"m line 3: _memo used other than as a decorator"}),
        ("import functools\n@functools.lru_cache(8)\ndef f(): pass", set()),
    ],
)
def test_the_memo_list_finds_each_memoized_function(source, found):
    assert set(_memos(ast.parse(source), "m")) == found


# The unchecked path: _cnf interns the terms that the arithmetic and the
# parser build, in normal form by construction, without Ordinal._check,
# and _unchecked is its builder.  Only the modules whose operations build
# those terms may name either, and no public constructor, which takes its
# fields from a caller, may reach them: it checks what it is given.
UNCHECKED = {"_cnf", "_unchecked"}
UNCHECKED_USERS = {"ordinals", "cardinals"}
# the public constructors besides each class's __new__, by module
CONSTRUCTORS = {"ordinals": {"omega_power"}, "cardinals": {"aleph"}}


def _unchecked_uses(tree, module):
    """Lines of a module outside UNCHECKED_USERS that name the unchecked
    path: in an import, a call, a read or a string."""
    if module in UNCHECKED_USERS:
        return
    for node in ast.walk(tree):
        name = node.name if isinstance(node, ast.alias) else _name(node)
        if isinstance(node, ast.Constant):
            name = node.value
        if isinstance(name, str) and name.rpartition(".")[2] in UNCHECKED:
            yield f"{module} line {node.lineno}: names {name}"


def _constructors_reaching_unchecked(trees, public):
    """The constructors that reach the unchecked path: each class's
    __new__ and each function named in public, followed through every
    private module-level function they name.  A public function they
    call is not followed: it builds only what its own arguments, which
    it checks, give in normal form."""
    functions = {s.name: s for tree in trees for s in tree.body if isinstance(s, _FUNCTIONS)}
    constructors = [(name, functions[name]) for name in sorted(public)]
    for tree in trees:
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef):
                constructors += ((f"{cls.name}.__new__", f) for f in cls.body if isinstance(f, _FUNCTIONS) and f.name == "__new__")
    for label, fn in constructors:
        seen, stack = {fn.name}, [fn]
        while stack:
            names = {_name(node) for node in ast.walk(stack.pop())}
            if names & UNCHECKED:
                yield label
                break
            for name in names - seen:
                if name in functions and name.startswith("_"):
                    seen.add(name)
                    stack.append(functions[name])


@pytest.mark.parametrize("path", [*MODULES, Path(uns.__file__)], ids=lambda p: p.stem)
def test_only_ordinals_and_cardinals_name_the_unchecked_path(path):
    problems = list(_unchecked_uses(ast.parse(path.read_text(encoding="utf-8")), path.stem))
    assert not problems, problems


def test_no_public_constructor_reaches_the_unchecked_path():
    paths = [Path(uns.__file__).with_name(f"{module}.py") for module in sorted(UNCHECKED_USERS)]
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in paths]
    public = set().union(*CONSTRUCTORS.values())
    assert public <= {s.name for tree in trees for s in tree.body if isinstance(s, _FUNCTIONS)}
    assert list(_constructors_reaching_unchecked(trees, public)) == []


@pytest.mark.parametrize(
    "source, module, clean",
    [
        ("from .ordinals import _cnf\nx = _cnf(())", "streams", False),
        ("from . import ordinals\nx = ordinals._unchecked(())", "cli", False),
        ("import uns.ordinals\nf = getattr(uns.ordinals, '_cnf')", "__init__", False),
        ("from .ordinals import _cnf\nx = _cnf(())", "cardinals", True),
        ("from .ordinals import Ordinal, _intern\nx = _intern(Ordinal, ((),))", "streams", True),
    ],
)
def test_the_unchecked_path_check_finds_a_use_from_another_module(source, module, clean):
    assert (not list(_unchecked_uses(ast.parse(source), module))) == clean


@pytest.mark.parametrize(
    "source, public, reaching",
    [
        ("def _via(t):\n    return _cnf(t)\nclass C:\n    def __new__(cls, t):\n        return _via(t)", set(), ["C.__new__"]),
        ("def _a(t):\n    return _b(t)\ndef _b(t):\n    return _unchecked(t)\ndef make(t):\n    return _a(t)", {"make"}, ["make"]),
        ("def from_int(n):\n    return _cnf(n)\ndef make(n):\n    return from_int(n)", {"make"}, []),
        ("class C:\n    def __new__(cls, t):\n        return _intern(cls, (t,))\n    def _add(self, t):\n        return _cnf(t)", set(), []),
    ],
)
def test_the_constructor_check_follows_private_helpers(source, public, reaching):
    assert list(_constructors_reaching_unchecked([ast.parse(source)], public)) == reaching


def _dead_helpers(trees):
    """Module-level private functions and classes of the given modules
    that nothing in them refers to; a helper's references to itself, from
    its own body, do not count."""
    defined, used = set(), set()
    for tree in trees:
        for stmt in tree.body:
            helper = isinstance(stmt, ast.FunctionDef | ast.AsyncFunctionDef | ast.ClassDef)
            own = stmt.name if helper else None
            if own and own.startswith("_") and not own.endswith("__"):
                defined.add(own)
            used.update(n for n in map(_name, ast.walk(stmt)) if n and n != own)
    return sorted(defined - used)


def test_no_dead_helpers():
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in MODULES]
    trees.append(ast.parse(Path(uns.__file__).read_text(encoding="utf-8")))
    assert _dead_helpers(trees) == []


@pytest.mark.parametrize(
    "sources, dead",
    [
        (["def _f(): pass"], ["_f"]),
        (["def _f(): pass\nx = _f()"], []),
        (["def _f(n):\n    return _f(n - 1)"], ["_f"]),
        (["class _C: pass\nclass D(_C): pass"], []),
        (["class _C:\n    def m(self): return _C()"], ["_C"]),
        (["def _f(): pass", "from a import _f\n_f()"], []),
        (["def _f(): pass", "import a\na._f()"], []),
        (["def _f(): pass", "from a import _f"], ["_f"]),
        (["def __getattr__(name): pass\nclass D:\n    def _m(self): pass"], []),
        (["async def _f(): pass\ndef _g(): pass\n_h = _g"], ["_f"]),
    ],
)
def test_the_dead_helper_check_finds_unreferenced_helpers(sources, dead):
    assert _dead_helpers([ast.parse(s) for s in sources]) == dead


_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _self_referencing_closures(tree):
    """Lines of functions, nested in another, that refer to their own name.
    Such a closure holds the cell that holds it, so every call of the
    function around it leaves a reference cycle, and with it the call's
    frames and locals, for the cyclic collector to find."""
    nested = {
        node
        for outer in ast.walk(tree)
        if isinstance(outer, _FUNCTIONS)
        for stmt in outer.body
        for node in ast.walk(stmt)
        if isinstance(node, _FUNCTIONS)
    }
    for fn in sorted(nested, key=lambda fn: fn.lineno):
        if any(isinstance(n, ast.Name) and n.id == fn.name for n in ast.walk(fn)):
            yield f"line {fn.lineno}: {fn.name} refers to itself"


def _recursive_functions(tree, allowed=()):
    """Lines of module-level functions that refer to their own name, but
    for those named in allowed.  One that calls itself once per level of
    a value would spend an interpreter frame per level, and fail past the
    recursion limit on a value the library builds or the parser admits."""
    for fn in tree.body:
        if isinstance(fn, _FUNCTIONS) and fn.name not in allowed:
            if any(isinstance(n, ast.Name) and n.id == fn.name for n in ast.walk(fn)):
                yield f"line {fn.lineno}: {fn.name} refers to itself"


# the module-level functions that call themselves, each with the bound on its depth
RECURSION_ALLOWED = {
    "core": {"_int_str": "one level: a rational prints as its two integers"},
    "streams": {"_chudnovsky_split": "halves the range of terms, so its depth is the log of the precision"},
}


@pytest.mark.parametrize("path", [*MODULES, Path(uns.__file__)], ids=lambda p: p.stem)
def test_no_closure_refers_to_itself(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    problems = list(_self_referencing_closures(tree))
    problems += _recursive_functions(tree, RECURSION_ALLOWED.get(path.stem, {}))
    assert not problems, f"{path.stem}: {problems}"


def test_each_allowed_recursion_is_there():
    for module, allowed in RECURSION_ALLOWED.items():
        tree = ast.parse((Path(uns.__file__).parent / f"{module}.py").read_text(encoding="utf-8"))
        assert sorted(allowed) == sorted(p.split()[2] for p in _recursive_functions(tree)), module


@pytest.mark.parametrize(
    "source, clean",
    [
        ("def f(n):\n    return f(n - 1) if n else 0", True),
        ("def f():\n    def g(n):\n        return n\n    return g(g(1))", True),
        ("class C:\n    def m(self):\n        return self.m()", True),
        ("def f():\n    def g(n):\n        return g(n - 1)\n    return g(3)", False),
        ("def f():\n    async def g():\n        await g()\n    return g", False),
        ("def f():\n    def g():\n        def h():\n            return h\n        return h\n    return g", False),
    ],
)
def test_the_closure_check_finds_nested_functions_naming_themselves(source, clean):
    assert (not list(_self_referencing_closures(ast.parse(source)))) == clean


@pytest.mark.parametrize(
    "source, allowed, clean",
    [
        ("def f(n):\n    return f(n - 1) if n else 0", (), False),
        ("def f(n):\n    return f(n - 1) if n else 0", ("f",), True),
        ("async def f():\n    await f()", (), False),
        ("def f(xs):\n    return list(map(f, xs))", (), False),
        ("def f(n):\n    return g(n)\ndef g(n):\n    return n", (), True),
        ("def f():\n    def g(n):\n        return n\n    return g", (), True),
        ("class C:\n    def m(self):\n        return self.m()", (), True),
        ("def f():\n    pass\nf = f", (), True),
    ],
)
def test_the_recursion_check_finds_module_functions_naming_themselves(source, allowed, clean):
    assert (not list(_recursive_functions(ast.parse(source), allowed))) == clean


def _float_uses(tree):
    """Lines with a float or complex literal, a float() call or a true
    division, the ways a float enters integer and Fraction code."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and type(node.value) in (float, complex):
            yield f"line {node.lineno}: literal {node.value!r}"
        elif isinstance(node, ast.Call) and _name(node.func) == "float":
            yield f"line {node.lineno}: float() call"
        elif isinstance(node, ast.BinOp | ast.AugAssign) and isinstance(node.op, ast.Div):
            yield f"line {node.lineno}: / operator"


@pytest.mark.parametrize("path", [*MODULES, Path(uns.__file__)], ids=lambda p: p.stem)
def test_no_floats_in_the_library(path):
    problems = list(_float_uses(ast.parse(path.read_text(encoding="utf-8"))))
    assert not problems, f"{path.stem}: {problems}"


@pytest.mark.parametrize(
    "source, clean",
    [
        ("n = (prec + 72) // 47\nx = 3 * 4 - 1 >> 2", True),
        ("s = 'pi/4'  # 1.5 in a comment", True),
        ("from fractions import Fraction\nh = Fraction(1, 2)", True),
        ("n = prec / 3.32", False),
        ("n = 1e6", False),
        ("z = 2j", False),
        ("x = float(text)", False),
        ("import builtins\nx = builtins.float(text)", False),
        ("n = 6\nn /= 2", False),
    ],
)
def test_the_float_check_finds_literals_calls_and_division(source, clean):
    assert (not list(_float_uses(ast.parse(source)))) == clean


def _digit_limit_switches(tree):
    """Lines that call or import sys.set_int_max_str_digits, a setting of
    the whole interpreter that a library call has no business changing."""
    for node in ast.walk(tree):
        if isinstance(node, ast.alias) and node.name == "set_int_max_str_digits":
            yield f"line {node.lineno}: imports set_int_max_str_digits"
        elif isinstance(node, ast.Call) and _name(node.func) == "set_int_max_str_digits":
            yield f"line {node.lineno}: calls set_int_max_str_digits"


@pytest.mark.parametrize("path", [*MODULES, Path(uns.__file__)], ids=lambda p: p.stem)
def test_no_module_switches_the_interpreters_digit_limit(path):
    problems = list(_digit_limit_switches(ast.parse(path.read_text(encoding="utf-8"))))
    assert not problems, f"{path.stem}: {problems}"


@pytest.mark.parametrize(
    "source, clean",
    [
        ("import sys\nlimit = sys.get_int_max_str_digits()", True),
        ("from .core import _int_str\ntext = _int_str(n)", True),
        ("import sys\nsys.set_int_max_str_digits(0)", False),
        ("import sys as s\ns.set_int_max_str_digits(limit)", False),
        ("from sys import set_int_max_str_digits as lift\nlift(0)", False),
    ],
)
def test_the_digit_limit_check_finds_calls_and_imports(source, clean):
    assert (not list(_digit_limit_switches(ast.parse(source)))) == clean


def _imported_modules(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            yield node.module


@pytest.mark.parametrize("path", [*MODULES, Path(uns.__file__)], ids=lambda p: p.stem)
def test_no_module_imports_dataclasses(path):
    imported = {name.partition(".")[0] for name in _imported_modules(ast.parse(path.read_text(encoding="utf-8")))}
    assert "dataclasses" not in imported


_BUILDERS = ("exec", "eval", "compile")
# a record class's == and hash compiled from its fields, as core once made them
_COMPILED_COMPARISON = '''
def _comparison(cls) -> dict:
    mine = "".join(f"self.{n}, " for n in cls.__slots__)
    theirs = mine.replace("self.", "other.")
    source = (
        "def __eq__(self, other):\\n"
        "    if other.__class__ is self.__class__:\\n"
        f"        return ({mine}) == ({theirs})\\n"
        "    return NotImplemented\\n"
        "def __hash__(self):\\n"
        f"    return hash(({mine}))\\n"
    )
    ns = {}
    exec(source, ns)
    return ns
'''


def _code_builders(tree):
    """Lines that name the builtins exec, eval or compile, called or not,
    outside Record.__init_subclass__, which compiles each record class's
    __init__: a method of another object, as re.compile, is not one."""
    allowed = set()
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef) and cls.name == "Record":
            for f in cls.body:
                if isinstance(f, ast.FunctionDef) and f.name == "__init_subclass__":
                    allowed.update(map(id, ast.walk(f)))
    for node in ast.walk(tree):
        if id(node) in allowed:
            continue
        if isinstance(node, ast.Name) and node.id in _BUILDERS:
            yield f"line {node.lineno}: names {node.id}"
        elif isinstance(node, ast.alias) and node.name in _BUILDERS:
            yield f"line {node.lineno}: imports {node.name}"
        elif (isinstance(node, ast.Attribute) and node.attr in _BUILDERS and isinstance(node.value, ast.Name)
              and node.value.id in ("builtins", "__builtins__")):
            yield f"line {node.lineno}: names {node.value.id}.{node.attr}"


@pytest.mark.parametrize("path", [*MODULES, Path(uns.__file__)], ids=lambda p: p.stem)
def test_only_a_record_class_compiles_code(path):
    problems = list(_code_builders(ast.parse(path.read_text(encoding="utf-8"))))
    assert not problems, f"{path.stem}: {problems}"


@pytest.mark.parametrize(
    "source, clean",
    [
        ("class Record:\n    def __init_subclass__(cls):\n        exec('x = 1', {})", True),
        ("import re\nPATTERN = re.compile('a+')", True),
        (_COMPILED_COMPARISON, False),
        ("class Record:\n    def __eq__(self, other):\n        return eval('1')", False),
        ("class Other:\n    def __init_subclass__(cls):\n        exec('x = 1', {})", False),
        ("run = exec", False),
        ("import builtins\ncode = builtins.compile('1', '', 'eval')", False),
        ("from builtins import eval as ev", False),
    ],
)
def test_the_code_builder_check_finds_calls_names_and_imports(source, clean):
    assert (not list(_code_builders(ast.parse(source)))) == clean


def test_start_up_loads_neither_dataclasses_nor_inspect():
    """Nor any other module start-up does not use: of the package only
    core, the two lower layers and the CLI, neither argparse nor json, and
    none of fractions, decimal and numbers."""
    src = str(Path(uns.__file__).parent.parent)
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import uns, uns.cli; "
        "print(*sorted(m for m in sys.modules if m.startswith('uns.') or m in "
        "('uns', 'dataclasses', 'inspect', 'argparse', 'json', 'fractions', 'decimal', 'numbers')))"
    )
    done = subprocess.run([sys.executable, "-s", "-c", code], capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["uns", "uns.bitseq", "uns.cli", "uns.core", "uns.streams"]
