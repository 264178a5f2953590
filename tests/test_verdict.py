"""Theorem verdict assembly and the built-in example corpus."""

import hashlib
import json
from pathlib import Path

import pytest

from kkmfix.cli import _theorem_payload, run_command
from kkmfix.conditions import (
    BKind,
    ConditionVerdict,
    Status,
    b_value,
    check_b_subset,
)
from kkmfix.kkm import (
    GKind,
    em_chain,
    g_set,
    intersection_witness,
    sublevel,
    verify_kkm,
)
from kkmfix.mapdef import parse, serialize
from kkmfix.plotting import emit_plot
from kkmfix.randmaps import random_specs
from kkmfix.scalars import SQRT2, QuadExt
from kkmfix.verdict import (
    TheoremId,
    corpus_entry,
    run_corpus,
    run_theorem,
)

from conftest import EDGE_MAPS, HULL_KINDS

_GOLDEN = Path(__file__).parent / "data" / "golden"
_RANDOM_VERDICTS = _GOLDEN / "random_verdicts.txt"
_SET_OUTPUTS = _GOLDEN / "set_outputs.txt"


def test_theorem_ids():
    assert [t.value for t in TheoremId] == ["t1", "cor3", "t3", "cor4", "t5"]
    with pytest.raises(ValueError):
        run_theorem(corpus_entry(1).spec, "t9")


def test_run_theorem_all_favorable(corpus):
    verdict = run_theorem(corpus[1].spec, TheoremId.T1)
    assert all(
        c.status is not Status.FALSIFIED for c in verdict.conditions.values()
    )
    assert set(verdict.conditions) == {
        "domain",
        "onto",
        "kkm_anchor",
        "compact_anchor_set",
    }
    assert verdict.fixed_points == (QuadExt(6),)
    assert verdict.consistent


def test_run_theorem_falsified_hypothesis(corpus):
    verdict = run_theorem(corpus[4].spec, TheoremId.T1)
    assert verdict.conditions["kkm_anchor"].status is Status.FALSIFIED
    assert verdict.fixed_points == ()
    assert verdict.consistent  # a failed hypothesis explains the empty set

    verdict = run_theorem(corpus[5].spec, TheoremId.T1)
    assert verdict.conditions["compact_anchor_set"].status is Status.FALSIFIED

    verdict = run_theorem(corpus[13].spec, TheoremId.T5)
    assert verdict.conditions["residual_lsc"].status is Status.FALSIFIED


def test_t5_domain_needs_compactness(corpus):
    verdict = run_theorem(corpus[5].spec, TheoremId.T5)  # domain is all of R
    assert verdict.conditions["domain"].status is Status.FALSIFIED
    assert verdict.consistent


def test_t5_notes_conclusion_closedness(corpus):
    verdict = run_theorem(corpus[9].spec, TheoremId.T5)
    assert "closed" in verdict.notes
    assert verdict.conditions["kkm_residual"].status is Status.PROVEN
    # every hull form is decided, so no note reports an unproven search
    decided = run_theorem(corpus[4].spec, TheoremId.T1)
    assert decided.conditions["kkm_anchor"].status is Status.FALSIFIED
    assert "searched" not in decided.notes and "seed" not in decided.notes


def test_favorable_bundle_without_fixed_points_is_flagged(corpus, monkeypatch):
    """Were the anchor form, which entry 4 breaks, Proven, T1 would be
    favorable on a map with no fixed point: the runner and ``check``'s
    text both report the contradiction."""
    import kkmfix.verdict

    proven = ConditionVerdict(Status.PROVEN, None, "assumed")
    monkeypatch.setattr(kkmfix.verdict, "decide_b", lambda kind, spec: proven)
    note = "CONTRADICTION: every hypothesis favorable, no fixed point"
    verdict = run_theorem(corpus[4].spec, TheoremId.T1)
    assert verdict.consistent is False
    assert verdict.notes == note
    corpus04 = Path(kkmfix.verdict.__file__).parent / "data" / "corpus04.map"
    text = run_command(["check", "--map", str(corpus04), "--theorem", "t1"]).rendered
    assert text.splitlines()[-2:] == ["consistent: NO", f"notes: {note}"]


def test_corpus_entries_expose_expectations(corpus):
    assert corpus[1].theorem is TheoremId.T1
    assert corpus[6].theorem is TheoremId.COR4
    assert corpus[9].theorem is TheoremId.T5
    assert corpus[3].expected["onto"] is False
    assert corpus[12].deviations  # completes the self-map at 10
    assert corpus[1].deviations  # family representative note
    assert corpus[9].expected_fixed_points == (QuadExt(5),)
    with pytest.raises(IndexError):
        corpus_entry(0)
    with pytest.raises(IndexError):
        corpus_entry(15)


def test_run_corpus_all_match():
    results = run_corpus()
    assert len(results) == 14
    assert all(matched for _, _, matched in results)
    for entry, verdict, _ in results:
        assert verdict.consistent
        assert verdict.fixed_points == entry.expected_fixed_points


def test_run_corpus_decides_every_hull_condition():
    falsified = set()
    for entry, verdict, _ in run_corpus():
        for key, cond in verdict.conditions.items():
            assert cond.status is not Status.NOT_FALSIFIED, (entry.index, key)
            if key in HULL_KINDS and cond.status is Status.FALSIFIED:
                falsified.add(entry.index)
                w = cond.witness
                assert b_value(HULL_KINDS[key], entry.spec, w.points, w.u) < 0
    # entries 4 (anchor form) and 14 (residual form) break the inequality
    assert falsified == {4, 14}


def test_tampered_corpus_entry_mismatches():
    entry = corpus_entry(9)
    text = serialize(entry.spec).replace("5\n", "6\n", 1)
    tampered = parse(text)
    assert tampered.evaluate(4) == 6
    verdict = run_theorem(tampered, TheoremId.T5)
    assert verdict.fixed_points == (QuadExt(6),)  # the new plateau is fixed
    from kkmfix.verdict import _matches

    assert not _matches(entry, verdict)


def test_run_corpus_subset_indices():
    results = run_corpus(indices=[9])
    assert len(results) == 1 and results[0][0].index == 9


def _specs_beyond_the_corpus():
    """(name, spec) for random_specs(200, seed=5) and the edge maps."""
    specs = [(f"random5-{i:03d}", s) for i, s in enumerate(random_specs(200, seed=5))]
    return specs + [(f"edge-{name}", parse(text)) for name, text in EDGE_MAPS.items()]


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _verdict_digests():
    """(spec name, theorem, digest) per line of random_verdicts.txt: the
    first 16 hex digits of the sha256 of the ``check --json`` payload,
    ``{"label": ..., "verdict": ...}`` as ``json.dumps(..., indent=2)``
    writes it, for each theorem on each of random_specs(200, seed=5) and
    the edge maps."""
    for name, spec in _specs_beyond_the_corpus():
        for theorem in TheoremId:
            verdict = _theorem_payload(run_theorem(spec, theorem))
            payload = {"label": spec.label, "verdict": verdict}
            yield name, theorem.value, _digest(json.dumps(payload, indent=2))


_FIXED_POINTS = (QuadExt(5), QuadExt(7) / 3, 1 + SQRT2 / 2)
_G_KINDS = {
    "anchor": GKind.anchor(),
    "displacement": GKind.displacement(),
    "gap": GKind.gap(1),
}


def _set_outputs(spec):
    """(output name, thunk) per set-building output on one spec, at the
    finite ends of its domain and those of 5, 7/3 and 1 + sqrt2/2 in it."""
    dom = spec.domain
    ends = [e for e in (dom.lo, dom.hi) if e is not None and dom.contains(e)]
    pts = sorted(set(ends) | {p for p in _FIXED_POINTS if dom.contains(p)})
    out = [
        (f"b_subset.{kind}", lambda k=kind: check_b_subset(k, spec, pts))
        for kind in BKind
    ]
    for form, kind in _G_KINDS.items():
        out.append((f"g_set.{form}", lambda k=kind: [g_set(k, spec, x) for x in pts]))
    for output, form in (("c1", "anchor"), ("c2", "displacement")):
        out.append(
            (
                output,
                lambda k=_G_KINDS[form]: [
                    (g, g.is_bounded and g.is_closed)
                    for g in [g_set(k, spec, x) for x in pts]
                ],
            )
        )
    out += [
        ("sublevel", lambda: sublevel(spec, QuadExt(1) / 2)),
        ("em_chain", lambda: em_chain(spec, 4)),
    ]
    for form, kind in _G_KINDS.items():
        out.append((f"verify_kkm.{form}", lambda k=kind: verify_kkm(k, spec, pts)))
        out.append(
            (f"intersection.{form}", lambda k=kind: intersection_witness(k, spec, pts))
        )
    out += [
        ("image", spec.image),
        ("validate", spec.validate),
        ("plot_csv", lambda: emit_plot(spec, "csv", 21)),
    ]
    return out


def _set_digests():
    """(spec name, output, digest) per line of set_outputs.txt: the first
    16 hex digits of the sha256 of each output's repr, on
    random_specs(200, seed=5) and the edge maps."""
    for name, spec in _specs_beyond_the_corpus():
        for output, thunk in _set_outputs(spec):
            yield name, output, _digest(repr(thunk()))


def _check_golden(path, rows, what):
    golden = [
        line.split()
        for line in path.read_text(encoding="utf-8").splitlines()
        if not line.startswith("#")
    ]
    got = [list(row) for row in rows]
    assert len(got) == len(golden)
    for row, want in zip(got, golden):
        assert row == want, f"{row[0]} {what} {row[1]} changed"
    return got


def test_compact_set_deciders_tie_the_theorems():
    """Two lemmas.  On a closed C, decide_c2 is Proven exactly when C is
    compact, so T3 and Cor4 have the same hypotheses.  decide_c1 is Proven
    on every compact C, so Cor3 favourable makes T1 favourable."""
    specs = [corpus_entry(n).spec for n in range(1, 15)]
    specs += [*random_specs(300, 0), *(parse(t) for t in EDGE_MAPS.values())]
    favourable = dict.fromkeys(TheoremId, 0)
    for spec in specs:
        verdicts = {t: run_theorem(spec, t) for t in TheoremId}
        ok = {
            t: all(c.status is not Status.FALSIFIED for c in v.conditions.values())
            for t, v in verdicts.items()
        }
        for t in TheoremId:
            favourable[t] += ok[t]
        assert ok[TheoremId.T3] == ok[TheoremId.COR4]
        assert ok[TheoremId.T1] or not ok[TheoremId.COR3]
        t3 = verdicts[TheoremId.T3].conditions
        compact = spec.domain.is_bounded and spec.domain.is_closed
        keys = ("domain", "compact_displacement_set")
        assert all(t3[k].status is Status.PROVEN for k in keys) == compact
    assert all(favourable.values()), favourable


def test_verdicts_beyond_the_corpus_match_golden():
    """Refresh the file, with ``python tests/test_verdict.py`` and src
    and tests on the path, only for an intended output change."""
    got = _check_golden(_RANDOM_VERDICTS, _verdict_digests(), "under")
    assert len(got) == (200 + len(EDGE_MAPS)) * len(TheoremId)


def test_set_outputs_beyond_the_corpus_match_golden():
    """The witness sets, hull checks, sublevels, coverage, image,
    validation and csv plot of each spec, pinned as ``set_outputs.txt``;
    refreshed as ``random_verdicts.txt`` is."""
    got = _check_golden(_SET_OUTPUTS, _set_digests(), "output")
    assert len(got) == (200 + len(EDGE_MAPS)) * 19


if __name__ == "__main__":
    for path, rows, header in (
        (_RANDOM_VERDICTS, _verdict_digests, "theorem sha256(check --json payload)"),
        (_SET_OUTPUTS, _set_digests, "output sha256(repr of the output)"),
    ):
        path.write_text(
            f"# spec {header}[:16]; see test_verdict.py\n"
            + "".join(" ".join(row) + "\n" for row in rows()),
            encoding="utf-8",
        )
