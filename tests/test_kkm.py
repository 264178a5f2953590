"""Witness-set machinery: per-point sets, finite covers of hulls, sample
intersections, and the shrinking sublevel chain."""

import random
import re
from fractions import Fraction

import pytest

from kkmfix.intervals import ClassSet, Interval
from kkmfix.mapdef import parse
from kkmfix.kkm import (
    GForm,
    GKind,
    default_gap_delta,
    em_chain,
    g_set,
    intersection_witness,
    verify_kkm,
)
from kkmfix.randmaps import random_specs
from kkmfix.scalars import SQRT2, QuadExt, dist

from conftest import EDGE_MAPS, rand_point_in

G1 = GKind(GForm.ANCHOR)
G2 = GKind(GForm.DISPLACEMENT)


def test_gkind_validation():
    with pytest.raises(ValueError):
        GKind(GForm.GAP)  # gap needs a positive delta
    with pytest.raises(ValueError):
        GKind(GForm.GAP, QuadExt(0))
    assert GKind(GForm.GAP, 2).delta == 2


def test_g_set_pins(corpus):
    ex2 = corpus[2].spec
    assert g_set(G1, ex2, 6) == ClassSet.from_interval(Interval.closed(0, 7))
    ex9 = corpus[9].spec
    gap = g_set(GKind(GForm.GAP, 2), ex9, 3)  # f(3) = 1: remove (0, 2)
    assert gap == ClassSet.from_interval(Interval.closed(0, 10)).difference(
        ClassSet.from_interval(Interval(0, 2, False, False))
    )


def test_g_set_contains_its_point_for_g1(corpus):
    rng = random.Random(83)
    for n in (1, 2, 6, 9):
        spec = corpus[n].spec
        for _ in range(40):
            x = rand_point_in(rng, spec.domain)
            assert g_set(G1, spec, x).contains(x) or spec.evaluate(x) != x
            # anchor set always contains every far-enough point; at minimum
            # it contains the midpoint boundary, and x itself when f(x) = x
            if spec.evaluate(x) == x:
                assert g_set(G1, spec, x).contains(x)


def test_g_set_matches_its_definition(corpus):
    """G(x) = {y in C : |f(x) - y| >= g(y)} pointwise, with g(y) = |x - y|
    (anchor), |f(x) - x| (displacement) or delta/2 (gap)."""
    rng = random.Random(101)
    gap = GKind(GForm.GAP, Fraction(3, 2))
    ys = [QuadExt(Fraction(k, 4)) for k in range(-12, 53)]
    ys += [y + SQRT2 / 16 for y in ys]
    specs = [entry.spec for entry in corpus.values()] + list(random_specs(20, 13))
    for spec in specs:
        xs = [rand_point_in(rng, spec.domain) for _ in range(3)]
        xs += [x + SQRT2 / 64 for x in xs if spec.domain.contains(x + SQRT2 / 64)]
        for x in xs:
            fx = spec.evaluate(x)
            gauges = (
                (G1, lambda y: dist(x, y)),
                (G2, lambda y: dist(fx, x)),
                (gap, lambda y: gap.delta / 2),
            )
            for kind, g in gauges:
                got = g_set(kind, spec, x)
                for y in ys:
                    want = spec.domain.contains(y) and dist(fx, y) >= g(y)
                    assert got.contains(y) == want, (spec.label, kind, x, y)


def test_verify_kkm_holds_on_seeded_subsets(corpus):
    rng = random.Random(89)
    for n in (1, 2, 6):
        spec = corpus[n].spec
        kind = G1 if n in (1, 2) else G2
        for _ in range(50):
            pts = sorted(
                {rand_point_in(rng, spec.domain) for _ in range(rng.randint(1, 5))}
            )
            holds, uncovered = verify_kkm(kind, spec, pts)
            assert holds and uncovered is None


def test_verify_kkm_failure_pin(corpus):
    holds, uncovered = verify_kkm(GKind(GForm.GAP, 2), corpus[14].spec, (3, 7))
    assert not holds
    assert uncovered is not None and 4 < uncovered < 6
    assert corpus[14].spec.residual(uncovered) > 1  # residual exceeds delta/2


def test_verify_kkm_rejects_empty_subset(corpus):
    with pytest.raises(ValueError):
        verify_kkm(G1, corpus[1].spec, ())


def test_intersection_witness_rejects_empty_sample(corpus):
    with pytest.raises(ValueError, match=r"^empty sample$"):
        intersection_witness(G1, corpus[1].spec, [])


def test_intersection_witness_shrinks(corpus):
    rng = random.Random(97)
    spec = corpus[2].spec
    sample = [rand_point_in(rng, spec.domain)]
    previous = intersection_witness(G1, spec, sample)
    for _ in range(9):
        sample.append(rand_point_in(rng, spec.domain))
        current = intersection_witness(G1, spec, sample)
        assert current.difference(previous).is_empty
        previous = current
    assert previous.contains(5)  # the pivot fixed point survives


def test_default_gap_delta(corpus):
    assert default_gap_delta(corpus[9].spec) is None  # displacement inf is 0
    assert default_gap_delta(corpus[14].spec) == 4
    assert default_gap_delta(corpus[12].spec) == 2
    assert default_gap_delta(corpus[5].spec) == 2


def check_chain_by_definition(spec, report):
    """em_chain reports ``nested`` and its tail by lemma; check both from
    their definitions: no level gains a point on the one before it, and
    the last level cut down to Fix(f) is Fix(f)."""
    assert report.nested
    levels = [level for _, level, _, _ in report.levels]
    for previous, level in zip(levels, levels[1:]):
        assert level.difference(previous).is_empty
    fixed = spec.fixed_point_set()
    assert levels[-1].intersect(fixed) == fixed == report.tail_intersection


def test_em_chain_lemmas_hold_by_definition(corpus):
    specs = [e.spec for e in corpus.values()]
    specs += [*random_specs(60, 3), *(parse(t) for t in EDGE_MAPS.values())]
    for spec in specs:
        check_chain_by_definition(spec, em_chain(spec, 6))


def test_em_chain_pins(corpus):
    report = em_chain(corpus[9].spec, 10)
    assert len(report.levels) == 10
    check_chain_by_definition(corpus[9].spec, report)
    for m, level, nonempty, closed in report.levels:
        assert nonempty and closed
    assert report.tail_intersection == ClassSet.from_interval(Interval.point(5))
    with pytest.raises(ValueError):
        em_chain(corpus[9].spec, 0)


def test_em_chain_rejects_a_count_that_is_not_an_int(corpus):
    for m_max in (2.5, 3.0, "3", True, Fraction(3)):
        with pytest.raises(ValueError, match=f"got {re.escape(repr(m_max))}$"):
            em_chain(corpus[9].spec, m_max)


def test_em_chain_detects_fixed_point_equality(corpus):
    # constant maps hit their fixed point exactly; tail set collapses fast
    report = em_chain(corpus[11].spec, 100)
    check_chain_by_definition(corpus[11].spec, report)
    assert report.tail_intersection == ClassSet.from_interval(Interval.point(5))
