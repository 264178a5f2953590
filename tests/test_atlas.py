"""Maps beyond the corpus that fill cells of the necessity atlas and the
theorem matrix, each with its five-theorem table, and the whole atlas and
matrix over them and the corpus.

An atlas cell (theorem, hypothesis) is filled by a map on which that
hypothesis alone is Falsified and Fix is empty, so the hypothesis cannot
be dropped.  A matrix cell (A, B) is filled by a map on which every
hypothesis of A holds and one of B fails, so A does not imply B.  These
maps are not corpus entries, whose count the acceptance criteria and the
benchmark pin at 14.  A cell no map fills names the lemma that keeps it
empty on the line; the lemmas are stated in the docstrings of
``decide_b``, ``decide_c1``, ``decide_c2`` and ``run_theorem``."""

import pytest

from kkmfix import Status, TheoremId, parse, run_theorem

T1, COR3, T3, COR4, T5 = TheoremId

# name -> (map text, the Falsified hypotheses per theorem, Fix, the cells)
_MAPS = {
    # continuous and onto; no corpus entry fills its T3 and Cor4 cells
    "three-piece": (
        "label three pieces, onto, displacement form without anchor form\n"
        "domain [0, 10]\n"
        "piece [0, 5/3] all: 2 x\n"
        "piece (5/3, 25/3) all: 1/2 x + 5/2\n"
        "piece [25/3, 10] all: 2 x - 10\n",
        {T1: {"kkm_anchor"}, COR3: {"kkm_anchor"}, T3: set(), COR4: set(), T5: set()},
        "{0, 5, 10}",
        {("matrix", a, b) for a in (T3, COR4, T5) for b in (T1, COR3)},
    ),
    # its mirror image in the matrix, from an exhaustive grammar on [0, 4]
    "grammar": (
        "label two pieces, onto, anchor form without displacement form\n"
        "domain [0, 4]\n"
        "piece [0, 1] all: -2 x + 2\n"
        "piece (1, 4] all: 2/3 x + 4/3\n",
        {
            T1: set(),
            COR3: set(),
            T3: {"kkm_displacement"},
            COR4: {"kkm_displacement"},
            T5: set(),
        },
        "{2/3, 4}",
        {("matrix", a, b) for a in (T1, COR3, T5) for b in (T3, COR4)},
    ),
    "onto-only": (
        "label a step down that misses 1/2\n"
        "domain [0, 1]\n"
        "piece [0, 1/2) all: 1\n"
        "piece [1/2, 1] all: 0\n",
        {
            T1: {"onto"},
            COR3: {"onto"},
            T3: {"onto", "kkm_displacement"},
            COR4: {"onto", "kkm_displacement"},
            T5: {"onto"},
        },
        "{}",
        {("atlas", T1, "onto"), ("atlas", COR3, "onto"), ("atlas", T5, "onto")},
    ),
    "shift": (
        "label x + 1 on the line\n"
        "domain (-inf, inf)\n"
        "piece (-inf, inf) all: x + 1\n",
        {
            T1: {"compact_anchor_set"},
            COR3: {"domain"},
            T3: {"compact_displacement_set"},
            COR4: {"domain"},
            T5: {"domain"},
        },
        "{}",
        {
            ("atlas", T1, "compact_anchor_set"),
            ("atlas", COR3, "domain"),
            ("atlas", T3, "compact_displacement_set"),
            ("atlas", COR4, "domain"),
            ("atlas", T5, "domain"),
        },
    ),
}


_C2 = "C2, with decide_c2 Proven on a closed C only when C is compact"
_C3 = "C3: a one-signed onto f leaves no compact witness set"
_C1_ON_COMPACT = "decide_c1 is Proven on every compact C"
_C2_ON_CLOSED = "decide_c2 is Proven on a closed C iff C is compact"
# cell -> the maps that fill it, or the lemma that keeps it empty
_TABLE = {
    ("atlas", T1, "domain"): _C3,
    ("atlas", T1, "onto"): {"entry 3", "onto-only"},
    ("atlas", T1, "kkm_anchor"): {"entry 4", "entry 13", "entry 14"},
    ("atlas", T1, "compact_anchor_set"): {"entry 5", "shift"},
    ("atlas", COR3, "domain"): {"entry 5", "shift"},
    ("atlas", COR3, "onto"): {"onto-only"},
    ("atlas", COR3, "kkm_anchor"): {"entry 4", "entry 13", "entry 14"},
    ("atlas", T3, "domain"): _C3,
    ("atlas", T3, "onto"): _C2,
    ("atlas", T3, "kkm_displacement"): {"entry 4", "entry 13", "entry 14"},
    ("atlas", T3, "compact_displacement_set"): {"entry 5", "shift"},
    ("atlas", COR4, "domain"): {"entry 5", "shift"},
    ("atlas", COR4, "onto"): _C2,
    ("atlas", COR4, "kkm_displacement"): {"entry 4", "entry 13", "entry 14"},
    ("atlas", T5, "domain"): {"entry 5", "shift"},
    ("atlas", T5, "onto"): {"entry 12", "onto-only"},
    ("atlas", T5, "kkm_residual"): {"entry 14"},
    ("atlas", T5, "residual_lsc"): {"entry 4", "entry 13"},
    ("matrix", T1, COR3): {"entry 1", "entry 2"},
    ("matrix", T1, T3): {"entry 1", "entry 2", "grammar"},
    ("matrix", T1, COR4): {"entry 1", "entry 2", "grammar"},
    ("matrix", T1, T5): {"entry 1", "entry 2", "entry 8"},
    ("matrix", COR3, T1): _C1_ON_COMPACT,
    ("matrix", COR3, T3): {"grammar"},
    ("matrix", COR3, COR4): {"grammar"},
    ("matrix", COR3, T5): {"entry 8"},
    ("matrix", T3, T1): {"three-piece"},
    ("matrix", T3, COR3): {"three-piece"},
    ("matrix", T3, COR4): _C2_ON_CLOSED,
    ("matrix", T3, T5): {"entry 8"},
    ("matrix", COR4, T1): {"three-piece"},
    ("matrix", COR4, COR3): {"three-piece"},
    ("matrix", COR4, T3): _C2_ON_CLOSED,
    ("matrix", COR4, T5): {"entry 8"},
    ("matrix", T5, T1): {"entry 9", "entry 10", "entry 11", "three-piece"},
    ("matrix", T5, COR3): {"entry 9", "entry 10", "entry 11", "three-piece"},
    ("matrix", T5, T3): {"entry 9", "entry 10", "entry 11", "grammar"},
    ("matrix", T5, COR4): {"entry 9", "entry 10", "entry 11", "grammar"},
}


def _failed(spec) -> dict:
    """The Falsified hypotheses of each theorem on spec."""
    out = {}
    for theorem in TheoremId:
        verdict = run_theorem(spec, theorem)
        assert verdict.consistent
        out[theorem] = {
            key
            for key, v in verdict.conditions.items()
            if v.status is Status.FALSIFIED
        }
    return out


def _cells(failed: dict, fix_empty: bool) -> set:
    out = set()
    for theorem, hypotheses in failed.items():
        if fix_empty and len(hypotheses) == 1:
            out.add(("atlas", theorem, *hypotheses))
        if not hypotheses:
            out.update(("matrix", theorem, other) for other in failed if failed[other])
    return out


@pytest.mark.parametrize("name", _MAPS)
def test_map_fills_its_atlas_and_matrix_cells(name):
    text, table, fix, cells = _MAPS[name]
    spec = parse(text)
    failed = _failed(spec)
    assert failed == table
    assert str(spec.fixed_point_set()) == fix
    assert _cells(failed, spec.fixed_point_set().is_empty) == cells


def test_atlas_and_matrix_over_the_corpus_and_the_maps(corpus):
    """All 18 atlas cells and 20 matrix cells: each filled cell by exactly
    its maps, each empty cell by none."""
    maps = {f"entry {n}": entry.spec for n, entry in corpus.items()}
    maps.update((name, parse(text)) for name, (text, *_) in _MAPS.items())
    hypotheses = {t: tuple(run_theorem(maps["shift"], t).conditions) for t in TheoremId}
    cells = {("atlas", t, h) for t, keys in hypotheses.items() for h in keys}
    cells |= {("matrix", a, b) for a in TheoremId for b in TheoremId if a is not b}
    assert len(cells) == 38 and set(_TABLE) == cells
    got = {cell: set() for cell in cells}
    for name, spec in maps.items():
        for cell in _cells(_failed(spec), spec.fixed_point_set().is_empty):
            got[cell].add(name)
    want = {cell: set() if isinstance(v, str) else v for cell, v in _TABLE.items()}
    assert got == want
