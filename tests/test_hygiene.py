"""Source hygiene that no installed linter checks: every name a module
imports is used in it, and every module-level private function or class
is referenced somewhere in the package beyond its own definition."""

import ast
from collections import Counter
from pathlib import Path

import pytest

import kkmfix

_PACKAGE = sorted(Path(kkmfix.__file__).parent.glob("*.py"))
_SOURCES = [p for p in _PACKAGE if p.name != "__init__.py"]


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
    # names re-exported through __all__
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted(
        f"{name} (line {line})" for name, line in imported.items() if name not in used
    )


_SAMPLE = '''\
import os, re
from x import a, b as c, Kept, Noted
from y import d
__all__ = ["Kept"]
def f(z: "Noted") -> None:
    """re"""
    print(a, d.e)
'''


def test_unused_import_finder():
    assert _unused_imports(_SAMPLE) == ["c (line 2)", "os (line 1)", "re (line 1)"]


@pytest.mark.parametrize("path", _SOURCES, ids=lambda p: p.name)
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


def test_no_orphan_private_helpers():
    sources = {p.name: p.read_text(encoding="utf-8") for p in _PACKAGE}
    assert _orphans(sources) == []
