"""Acceptance gate: one test per release criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
print; without -s pytest still shows each criterion as a test result.
"""

import functools
import random
import time
from fractions import Fraction

from kkmfix import (
    BKind,
    ClassSet,
    GForm,
    GKind,
    Interval,
    QuadExt,
    SQRT2,
    Status,
    TheoremId,
    check_b_subset,
    check_c1,
    check_c3,
    decide_b,
    dist,
    em_chain,
    intersection_witness,
    parse,
    random_specs,
    run_corpus,
    run_theorem,
    serialize,
    sublevel,
    verify_kkm,
)
from kkmfix.verdict import corpus_entry

from conftest import rand_point_in, rand_quad
from test_kkm import check_chain_by_definition

_G1 = GKind(GForm.ANCHOR, None)


def _criterion(number, description):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\nACCEPTANCE {number}: FAIL - {description}")
                raise
            print(f"\nACCEPTANCE {number}: PASS - {description}")

        return run

    return wrap


@_criterion(1, "corpus: all 14 verdicts and exact fixed sets match in < 10s")
def test_criterion_1_corpus():
    start = time.perf_counter()
    results = run_corpus()
    elapsed = time.perf_counter() - start
    assert len(results) == 14
    for entry, verdict, matched in results:
        assert matched, f"corpus entry {entry.index} mismatched"
        assert verdict.fixed_points == entry.expected_fixed_points
    assert elapsed < 10.0, f"corpus took {elapsed:.2f}s"


@_criterion(2, "anchor sets: exact intervals, compact exactly when bounded")
def test_criterion_2_anchor_sets(corpus):
    result, compact = check_c1(corpus[2].spec, 6)
    assert result == ClassSet.from_interval(Interval.closed(0, 7))
    assert compact

    ex5 = corpus[5].spec
    rng = random.Random(2)
    for _ in range(20):
        x = Fraction(rng.randint(-400, 400), rng.choice((1, 2, 4, 8)))
        result, compact = check_c1(ex5, x)
        ray = Interval(x - Fraction(1, 2), None, True, False)
        assert result == ClassSet.from_interval(ray)
        assert not compact

    ex1 = corpus[1].spec
    for _ in range(10):
        x = QuadExt(6) + Fraction(rng.randint(1, 160), 8)
        result, compact = check_c1(ex1, x)
        top = (x + ex1.evaluate(x)) / 2
        assert result == ClassSet.from_interval(Interval.closed(0, top))
        assert compact


@_criterion(3, "subset falsifiers: exact two-point witnesses with margins")
def test_criterion_3_falsifiers(corpus):
    verdict = decide_b(BKind.ANCHOR, corpus[4].spec)
    assert verdict.status is Status.FALSIFIED
    w = verdict.witness
    assert len(w.points) == 2
    assert w.points[0] == 0 and 5 < w.points[1] < 10

    ex14 = corpus[14].spec
    verdict = check_b_subset(BKind.RESIDUAL, ex14, (3, 7))
    assert verdict.status is Status.FALSIFIED
    assert verdict.witness.u == 5
    margin = ex14.residual(QuadExt(5)) - max(
        dist(ex14.evaluate(p), QuadExt(5)) for p in verdict.witness.points
    )
    assert margin == 2


@_criterion(4, "semicontinuity: exact failure witness and sublevel sets")
def test_criterion_4_semicontinuity(corpus):
    ex13 = corpus[13].spec
    verdict = check_c3(ex13)
    assert verdict.status is Status.FALSIFIED
    assert verdict.witness.contains(0)
    assert ex13.residual(QuadExt(0)) == 10

    level, closed = sublevel(ex13, Fraction(1, 2))
    expected = ClassSet.from_interval(
        Interval(QuadExt(0), QuadExt(Fraction(5, 2)), False, True)
    ).union(
        ClassSet.from_interval(
            Interval(QuadExt(Fraction(15, 2)), QuadExt(10), True, False)
        )
    )
    assert level == expected
    assert not closed
    # brute-force oracle on a 10^4 grid
    for k in range(10001):
        x = QuadExt(Fraction(k, 1000))
        assert level.contains(x) == (ex13.residual(x) <= Fraction(1, 2))


@_criterion(5, "witness covers: 500 seeded subsets hold, gap form fails exactly")
def test_criterion_5_witness_covers(corpus):
    rng = random.Random(5)
    for n in (1, 2, 5, 6, 7):
        spec = corpus[n].spec
        for _ in range(500):
            pts = sorted(
                {rand_point_in(rng, spec.domain) for _ in range(rng.randint(1, 5))}
            )
            holds, uncovered = verify_kkm(_G1, spec, pts)
            assert holds, f"entry {n} uncovered {uncovered} for {pts}"

    holds, uncovered = verify_kkm(GKind(GForm.GAP, 2), corpus[14].spec, (3, 7))
    assert not holds
    assert 4 < uncovered < 6


@_criterion(6, "no inconsistent verdict over corpus plus 1000 generated maps")
def test_criterion_6_consistency():
    for _, verdict, _ in run_corpus():
        assert verdict.consistent
    for spec in random_specs(1000, seed=0):
        for theorem in TheoremId:
            verdict = run_theorem(spec, theorem)
            assert verdict.consistent, f"{theorem.value} on {spec.label}"
            for key, cond in verdict.conditions.items():
                assert cond.status is not Status.NOT_FALSIFIED, (
                    f"{theorem.value} {key} on {spec.label}"
                )


@_criterion(7, "nested level chains and witness shrinkage reach the fixed set")
def test_criterion_7_chains(corpus):
    for n in (9, 10, 11):
        report = em_chain(corpus[n].spec, 100)
        check_chain_by_definition(corpus[n].spec, report)
        assert all(nonempty for _, _, nonempty, _ in report.levels)
        assert report.tail_intersection == ClassSet.from_interval(Interval.point(5))

    rng = random.Random(7)
    ex2 = corpus[2].spec
    sample = [rand_point_in(rng, ex2.domain)]
    previous = intersection_witness(_G1, ex2, sample)
    for _ in range(10):
        sample.append(rand_point_in(rng, ex2.domain))
        current = intersection_witness(_G1, ex2, sample)
        assert current.difference(previous).is_empty
        previous = current
    assert previous.contains(5)

    from kkmfix import check_b3_strong

    ex9 = corpus[9].spec
    checked = 0
    for _ in range(500):
        pts = sorted({rand_point_in(rng, ex9.domain) for _ in range(rng.randint(2, 4))})
        if len(pts) < 2:
            continue
        raw = [Fraction(rng.randint(1, 8)) for _ in pts]
        weights = [w / sum(raw) for w in raw]
        lhs, rhs, holds = check_b3_strong(ex9, pts, weights)
        if holds:
            u = sum((p * w for p, w in zip(pts, weights)), QuadExt(0))
            assert max(dist(ex9.evaluate(p), u) for p in pts) >= ex9.residual(u)
            checked += 1
    assert checked > 0


@_criterion(8, "exact arithmetic axioms and mapping-file round trips")
def test_criterion_8_exactness():
    rng = random.Random(8)
    for _ in range(10_000):
        a, b, c = rand_quad(rng), rand_quad(rng), rand_quad(rng)
        assert a + b == b + a and a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert a + (-a) == 0 and a - b == a + (-b)
        if b != 0:
            assert b * (a / b) == a
        if a < b:
            assert a + c < b + c
            if c > 0:
                assert a * c < b * c
        assert dist(a, b) == dist(b, a) >= 0
        assert (dist(a, b) == 0) == (a == b)
        assert dist(a, c) <= dist(a, b) + dist(b, c)
        assert (a + SQRT2 * 0) == a

    for n in range(1, 15):
        spec = corpus_entry(n).spec
        assert parse(serialize(spec)) == spec
    for spec in random_specs(100, seed=8):
        assert parse(serialize(spec)) == spec
