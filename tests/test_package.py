"""The package root resolves each public name on first use (PEP 562), and
its ``__all__`` is the one export list: no submodule defines its own."""

import importlib

import pytest

import kkmfix


def test_every_public_name_is_its_module_object():
    assert kkmfix.__all__ == [*kkmfix._HOME, "__version__"]
    for name, module in kkmfix._HOME.items():
        home = importlib.import_module(f"kkmfix.{module}")
        assert name in vars(home), name
        assert getattr(kkmfix, name) is vars(home)[name], name
        assert "__all__" not in vars(home), module


def test_star_and_from_imports_resolve():
    space = {}
    exec("from kkmfix import *", space)
    assert {n for n in space if n != "__builtins__"} == set(kkmfix.__all__)
    from kkmfix import TheoremId, run_theorem

    assert run_theorem is kkmfix.verdict.run_theorem
    assert TheoremId is kkmfix.verdict.TheoremId


def test_dir_lists_the_public_names():
    assert set(kkmfix.__all__) <= set(dir(kkmfix))


def test_unknown_name_is_named():
    with pytest.raises(AttributeError, match="no_such_name"):
        kkmfix.no_such_name
    with pytest.raises(ImportError, match="no_such_name"):
        exec("from kkmfix import no_such_name", {})
