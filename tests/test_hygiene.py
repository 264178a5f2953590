"""Source hygiene that no installed linter checks: every name a module
imports is used in it."""

import ast
from pathlib import Path

import pytest

import kkmfix

_SOURCES = sorted(
    p for p in Path(kkmfix.__file__).parent.glob("*.py") if p.name != "__init__.py"
)


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
