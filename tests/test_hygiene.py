"""Source hygiene that no installed linter checks: every name a module of
the package or the tests imports is used in it, every module-level
private function or class is referenced beyond its own definition (a
package one in the package, a test one in the package or the tests),
every module-level private constant is read by its module or taken from
it, every public method of a package class is read as an attribute in
the package or the benchmark (a wrapper only tests call is flagged),
every field of a package dataclass or named tuple is read there or in
the tests; one function alone builds an ``Interval`` without the
checks of its ``__new__``; and every source parses with the grammar of
the oldest Python the package supports."""

import ast
import importlib
from collections import Counter
from pathlib import Path

import pytest

import kkmfix

_PACKAGE = sorted(Path(kkmfix.__file__).parent.glob("*.py"))
_SOURCES = [p for p in _PACKAGE if p.name != "__init__.py"]
_ROOT = Path(__file__).resolve().parent.parent
_TESTS = sorted((_ROOT / "tests").glob("*.py"))
_BENCH = sorted((_ROOT / "perfbench").glob("*.py"))
# where a method counts as used: the package and the benchmark
_USERS = _PACKAGE + _BENCH
# where a record field may be read: those and the tests
_READERS = _USERS + _TESTS


def _require_bench():
    """The checks that count the benchmark's reads, or parse its sources,
    say so when they are missing rather than judge without them."""
    if not _BENCH:
        pytest.fail(f"benchmark sources missing: no {_ROOT / 'perfbench'}/*.py")


def test_missing_bench_is_named(monkeypatch):
    monkeypatch.setitem(globals(), "_BENCH", [])
    with pytest.raises(pytest.fail.Exception, match=r"perfbench/\*\.py"):
        _require_bench()


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            yield node.returns
            for a in args.posonlyargs + args.args + args.kwonlyargs:
                yield a.annotation
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _names(tree) -> set[str]:
    return {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = _names(tree)
    # quoted annotations such as -> "Interval"
    for note in _annotations(tree):
        for n in ast.walk(note) if note is not None else ():
            if isinstance(n, ast.Constant) and isinstance(n.value, str):
                used |= _names(ast.parse(n.value, mode="eval"))
    return sorted(
        f"{name} (line {line})" for name, line in imported.items() if name not in used
    )


_SAMPLE = '''\
import os, re
from x import a, b as c, Noted
from y import d
def f(z: "Noted") -> None:
    """re"""
    print(a, d.e)
'''


def test_unused_import_finder():
    assert _unused_imports(_SAMPLE) == ["c (line 2)", "os (line 1)", "re (line 1)"]


@pytest.mark.parametrize("path", _SOURCES + _TESTS, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


def _references(tree) -> Counter:
    """How often each name is read, taken as an attribute or imported in
    tree."""
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif isinstance(node, ast.alias):
            out[node.name] += 1
    return out


def _orphans(sources: dict[str, str]) -> list[str]:
    """Module-level private functions and classes (a leading underscore,
    not a dunder) that no module of ``sources`` references outside their
    own definition."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    total = sum((_references(t) for t in trees.values()), Counter())
    out = []
    for name, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                private = node.name.startswith("_") and not node.name.endswith("__")
                if private and total[node.name] == _references(node)[node.name]:
                    out.append(f"{name}: {node.name}")
    return sorted(out)


_ORPHAN_SAMPLE = {
    "a.py": """\
def _used(): return 1
def _recursive(n): return _recursive(n - 1)
class _Orphan: pass
def _imported(): pass
def __getattr__(name): pass
def public(): return _used() + b._attr()
""",
    "b.py": """\
from a import _imported
def _attr(): pass
""",
}


def test_orphan_finder():
    assert _orphans(_ORPHAN_SAMPLE) == ["a.py: _Orphan", "a.py: _recursive"]


def _texts(paths) -> dict[str, str]:
    return {p.name: p.read_text(encoding="utf-8") for p in paths}


def test_no_orphan_private_helpers():
    # a package helper must be used in the package, a test helper anywhere
    assert _orphans(_texts(_PACKAGE)) == []
    assert _orphans(_texts(_PACKAGE + _TESTS)) == []


def _bound_names(node):
    """The private names (a leading underscore, not a dunder) a
    module-level assignment binds."""
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    else:
        return []
    names = [
        n.id
        for target in targets
        for n in ast.walk(target)
        if isinstance(n, ast.Name)
    ]
    return [n for n in names if n.startswith("_") and not n.endswith("__")]


def _constant_orphans(sources: dict[str, str]) -> list[str]:
    """Module-level private names bound by assignment that their own
    module never reads and that no module imports from it or reads as an
    attribute.  Reads are counted per module, since two modules may each
    hold a constant of one name."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    attributes, imported = set(), set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                attributes.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and node.module:
                module = node.module.rsplit(".", 1)[-1] + ".py"
                imported.update((module, alias.name) for alias in node.names)
    out = []
    for name, tree in trees.items():
        read = {
            n.id
            for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }
        for node in tree.body:
            for const in _bound_names(node):
                used = const in read or const in attributes
                if not used and (name, const) not in imported:
                    out.append(f"{name}: {const}")
    return sorted(out)


_CONSTANT_SAMPLE = {
    "a.py": """\
_READ, _UNREAD = 1, 2
_SHADOWED = 3
_IMPORTED: int = 4
_ATTR = 5
__version__ = "1"
def f(): return _READ
""",
    "b.py": """\
import a
from a import _IMPORTED
_SHADOWED = 6
def g(): return _SHADOWED + a._ATTR
""",
}


def test_constant_orphan_finder():
    assert _constant_orphans(_CONSTANT_SAMPLE) == ["a.py: _SHADOWED", "a.py: _UNREAD"]


def test_no_orphan_private_constants():
    assert _constant_orphans(_texts(_PACKAGE)) == []
    assert _constant_orphans(_texts(_PACKAGE + _TESTS)) == []


def _unused_methods(source: str, namespace: dict, attributes: set[str]) -> list[str]:
    """Public methods of the module-level classes in ``source`` that no
    reader takes as an attribute (``attributes``), bar overrides of a
    base-class method; ``namespace`` maps the class names to the classes."""
    out = []
    for node in ast.parse(source).body:
        if not isinstance(node, ast.ClassDef):
            continue
        bases = namespace[node.name].__mro__[1:]
        for item in node.body:
            if (
                isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                and not item.name.startswith("_")
                and item.name not in attributes
                and not any(hasattr(base, item.name) for base in bases)
            ):
                out.append(f"{node.name}.{item.name}")
    return sorted(out)


_METHOD_SAMPLE = """\
class Base:
    def read(self): pass
    def unread(self): pass
    def _private(self): pass
class Child(Base):
    def unread(self): pass
    @property
    def flag(self): pass
class Text(str):
    def upper(self): pass
"""


def test_unused_method_finder():
    namespace = {}
    exec(_METHOD_SAMPLE, namespace)
    assert _unused_methods(_METHOD_SAMPLE, namespace, {"read"}) == [
        "Base.unread",
        "Child.flag",
    ]


def test_no_unused_public_methods():
    _require_bench()
    attributes = {
        node.attr
        for path in _USERS
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute)
    }
    out = []
    for path in _SOURCES:
        source = path.read_text(encoding="utf-8")
        if any(isinstance(n, ast.ClassDef) for n in ast.parse(source).body):
            module = importlib.import_module(f"kkmfix.{path.stem}")
            found = _unused_methods(source, vars(module), attributes)
            out.extend(f"{path.name}: {name}" for name in found)
    assert out == []


def _record_fields(source: str) -> list[tuple[str, str]]:
    """(class, field) for each annotated field of the module-level
    dataclasses and named tuples in ``source``."""
    out = []
    for node in ast.parse(source).body:
        if not isinstance(node, ast.ClassDef):
            continue
        decorators = {
            ast.unparse(d.func if isinstance(d, ast.Call) else d)
            for d in node.decorator_list
        }
        bases = {ast.unparse(b) for b in node.bases}
        if "dataclass" in decorators or "NamedTuple" in bases:
            out.extend(
                (node.name, item.target.id)
                for item in node.body
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
            )
    return out


def _unread_fields(source: str, loaded: set[str]) -> list[str]:
    """Record fields in ``source`` that no reader loads as an attribute
    (``loaded``); a field only ever written or passed is flagged."""
    return sorted(
        f"{cls}.{field}" for cls, field in _record_fields(source) if field not in loaded
    )


_FIELD_SAMPLE = """\
from dataclasses import dataclass
from typing import NamedTuple
@dataclass(frozen=True)
class Record:
    read: int
    written: int
    unread: str = ""
    def method(self): return self.read
@dataclass
class Bare:
    kept: int
class Pair(NamedTuple):
    left: int
    right: int
class Plain:
    note: int
def build(r): r.written = 1; return Pair(1, 2).left
"""


def _loaded_attributes(sources) -> set[str]:
    return {
        node.attr
        for source in sources
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def test_unread_field_finder():
    loaded = _loaded_attributes([_FIELD_SAMPLE, "x.kept"])
    assert _unread_fields(_FIELD_SAMPLE, loaded) == [
        "Pair.right",
        "Record.unread",
        "Record.written",
    ]


def test_no_unread_record_fields():
    _require_bench()
    loaded = _loaded_attributes(p.read_text(encoding="utf-8") for p in _READERS)
    out = []
    for path in _SOURCES:
        found = _unread_fields(path.read_text(encoding="utf-8"), loaded)
        out.extend(f"{path.name}: {name}" for name in found)
    assert out == []


def _unchecked_builds(sources: dict[str, str], cls: str) -> list[str]:
    """'module: function' for each call ``tuple.__new__(cls, ...)`` in
    ``sources``, which builds a ``cls`` without the checks of its own
    ``__new__``; ``<module>`` for a call outside any function."""
    out = []

    def visit(node, name, where):
        for child in ast.iter_child_nodes(node):
            if (
                isinstance(child, ast.Call)
                and ast.unparse(child.func) == "tuple.__new__"
                and child.args
                and ast.unparse(child.args[0]) == cls
            ):
                out.append(f"{name}: {where}")
            inner = where
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = child.name
            visit(child, name, inner)

    for name, text in sources.items():
        visit(ast.parse(text), name, "<module>")
    return sorted(out)


_BUILD_SAMPLE = {
    "a.py": """\
class Interval(tuple):
    def __new__(cls, lo): return tuple.__new__(cls, (lo,))
def _cut(lo):
    def inner(): return tuple.__new__(Interval, (lo,))
    return tuple.__new__(Interval, (lo,)), inner
def other(): return tuple.__new__(Other, ())
""",
    "b.py": "x = tuple.__new__(Interval, ())\n",
}


def test_unchecked_build_finder():
    assert _unchecked_builds(_BUILD_SAMPLE, "Interval") == [
        "a.py: _cut",
        "a.py: inner",
        "b.py: <module>",
    ]


def test_one_unchecked_interval_build():
    # _narrow makes the checks itself before it builds the cut part
    assert _unchecked_builds(_texts(_PACKAGE), "Interval") == ["intervals.py: _narrow"]


def _grammar_errors(sources: dict[str, str]) -> list[str]:
    """The sources that do not parse with the grammar of Python 3.10.
    ``feature_version`` is best effort: it rejects some newer forms, such
    as ``except*``, but not every one."""
    out = []
    for name, text in sources.items():
        try:
            ast.parse(text, feature_version=(3, 10))
        except SyntaxError as err:
            out.append(f"{name}: {err.msg}")
    return out


def test_grammar_error_finder():
    newer = "try:\n    pass\nexcept* ValueError:\n    pass\n"
    sources = {"a.py": "match x:\n    case 1:\n        pass\n", "b.py": newer}
    # the message differs between Python versions
    assert [e.split(":")[0] for e in _grammar_errors(sources)] == ["b.py"]


def test_sources_parse_as_python_3_10():
    """Every module of the package, the tests and the benchmark parses
    with the grammar of Python 3.10, the oldest ``requires-python``
    allows.  This checks the grammar only, not the standard-library APIs
    a module calls, so it does not stand in for a run on 3.10."""
    _require_bench()
    sources = {
        f"{p.parent.name}/{p.name}": p.read_text(encoding="utf-8")
        for p in _PACKAGE + _TESTS + _BENCH
    }
    assert _grammar_errors(sources) == []
