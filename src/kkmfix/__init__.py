"""kkmfix: exact verification toolkit for piecewise-affine interval self-maps.

The public names load on first use (PEP 562): ``import kkmfix`` imports no
submodule, and ``kkmfix.run_theorem`` imports ``kkmfix.verdict`` and what it
needs, then keeps the name here.
"""

import importlib

__version__ = "0.1.0"

# public name -> the submodule that defines it
_HOME = {
    name: module
    for module, names in {
        "scalars": (
            "KERNEL",
            "SQRT2",
            "ClassTag",
            "QuadExt",
            "as_scalar",
            "class_of",
            "dist",
            "format_scalar",
            "parse_scalar",
        ),
        "intervals": ("ClassSet", "Interval"),
        "mapping": ("AffineExpr", "MappingSpec", "Piece", "PointOverride", "Violation"),
        "mapdef": ("ParseError", "parse", "serialize"),
        "conditions": (
            "BKind",
            "ConditionVerdict",
            "Status",
            "SubsetWitness",
            "b_value",
            "check_b3_strong",
            "check_b_subset",
            "check_c3",
            "check_onto",
            "decide_b",
            "decide_c1",
            "decide_c2",
        ),
        "kkm": (
            "EmChainReport",
            "GForm",
            "GKind",
            "default_gap_delta",
            "em_chain",
            "g_set",
            "intersection_witness",
            "sublevel",
            "verify_kkm",
        ),
        "verdict": (
            "CorpusEntry",
            "TheoremId",
            "TheoremVerdict",
            "corpus_entry",
            "run_corpus",
            "run_theorem",
        ),
        "randmaps": ("FAMILIES", "random_spec", "random_specs"),
        "plotting": ("emit_plot", "plot_window"),
        "cli": ("Report", "main", "run_command"),
    }.items()
    for name in names
}

__all__ = [*_HOME, "__version__"]


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
