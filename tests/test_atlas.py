"""Maps beyond the corpus that fill cells of the necessity atlas and the
theorem matrix, each with its five-theorem table.

An atlas cell (theorem, hypothesis) is filled by a map on which that
hypothesis alone is Falsified and Fix is empty, so the hypothesis cannot
be dropped.  A matrix cell (A, B) is filled by a map on which every
hypothesis of A holds and one of B fails, so A does not imply B.  These
maps are not corpus entries, whose count the acceptance criteria and the
benchmark pin at 14."""

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
    failed = {}
    for theorem in TheoremId:
        verdict = run_theorem(spec, theorem)
        assert verdict.consistent
        failed[theorem] = {
            key
            for key, v in verdict.conditions.items()
            if v.status is Status.FALSIFIED
        }
    assert failed == table
    assert str(spec.fixed_point_set()) == fix
    assert _cells(failed, spec.fixed_point_set().is_empty) == cells
