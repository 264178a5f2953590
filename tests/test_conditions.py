"""Hypothesis checkers: combination conditions over finite subsets,
compactness conditions, lower-semicontinuity, and sublevel sets."""

import itertools
import random
from fractions import Fraction

import pytest

from kkmfix.conditions import (
    BKind,
    Status,
    SubsetWitness,
    b_value,
    check_b3_strong,
    check_b_subset,
    check_c3,
    check_onto,
    decide_b,
    decide_c1,
    decide_c2,
)
from kkmfix.intervals import (
    ClassSet,
    Interval,
    _intersect_iv,
    _narrow,
    _solve_affine,
    pick_in,
)
from kkmfix.kkm import GKind, check_c1, check_c2, sublevel, verify_kkm
from kkmfix.mapdef import parse, serialize
from kkmfix.mapping import AffineExpr, MappingSpec, Piece, PointOverride
from kkmfix.randmaps import random_specs
from kkmfix.scalars import SQRT2, ClassTag, QuadExt, dist, format_scalar
from kkmfix.verdict import TheoremId, corpus_entry, run_theorem

from conftest import rand_point_in
from pair_oracle import falsify_b
from test_intervals import _query_end, _query_interval


def _hull_points(rng, pts, count):
    lo, hi = min(pts), max(pts)
    span = hi - lo
    return [lo + span * Fraction(rng.randint(0, 512), 512) for _ in range(count)]


def test_b_value_pins(corpus):
    ex4 = corpus[4].spec
    # anchor form at the swapped endpoints: both images approach u = 6
    points = (QuadExt(0), QuadExt(Fraction(15, 2)))
    assert b_value(BKind.ANCHOR, ex4, points, QuadExt(6)) < 0
    ex1 = corpus[1].spec
    assert b_value(BKind.ANCHOR, ex1, (QuadExt(0), QuadExt(8)), QuadExt(4)) >= 0
    ex9 = corpus[9].spec
    assert b_value(BKind.RESIDUAL, ex9, (QuadExt(4), QuadExt(6)), QuadExt(5)) == 0


def test_check_b_subset_falsified_pin(corpus):
    ex14 = corpus[14].spec
    verdict = check_b_subset(BKind.RESIDUAL, ex14, (3, 7))
    assert verdict.status is Status.FALSIFIED
    assert verdict.witness.u == 5
    margin = ex14.residual(verdict.witness.u) - max(
        dist(ex14.evaluate(p), verdict.witness.u) for p in verdict.witness.points
    )
    assert margin == 2

    # the exact decider finds a two-point violation on its own
    verdict = decide_b(BKind.RESIDUAL, ex14)
    assert verdict.status is Status.FALSIFIED
    w = verdict.witness
    assert len(w.points) == 2
    assert all(weight > 0 for weight in w.weights)
    assert sum(w.weights, QuadExt(0)) == 1
    assert w.u == sum(
        (p * weight for p, weight in zip(w.points, w.weights)), QuadExt(0)
    )
    assert b_value(BKind.RESIDUAL, ex14, w.points, w.u) < 0


def test_check_b_subset_proven_implies_nonnegative_b_value(corpus):
    rng = random.Random(71)
    for n, kind in ((1, BKind.ANCHOR), (2, BKind.ANCHOR), (6, BKind.DISPLACEMENT)):
        spec = corpus[n].spec
        for _ in range(5):
            pts = sorted(
                {rand_point_in(rng, spec.domain) for _ in range(rng.randint(2, 4))}
            )
            if len(pts) < 2:
                continue
            verdict = check_b_subset(kind, spec, pts)
            if verdict.status is Status.PROVEN:
                for u in _hull_points(rng, pts, 200):
                    assert b_value(kind, spec, tuple(pts), u) >= 0
            else:
                w = verdict.witness
                assert b_value(kind, spec, w.points, w.u) < 0


def _subset(rng, spec):
    """One to four domain points: rational, q + k*sqrt2 for a small integer
    k, or q + sqrt2/2^n."""
    pts = []
    for _ in range(rng.randint(1, 4)):
        x = rand_point_in(rng, spec.domain)
        shifted = x + rng.choice((-2, -1, 1, 2)) * SQRT2
        if rng.random() < 0.3 and spec.domain.contains(shifted):
            x = shifted
        pts.append(x)
    return pts


def _subset_cases(count, seed):
    rng = random.Random(seed)
    specs = [corpus_entry(n).spec for n in range(1, 15)]
    specs += random_specs(count, seed=seed)
    for spec in specs:
        for _ in range(4):
            yield spec, _subset(rng, spec)


def test_check_b_subset_matches_verify_kkm():
    # the inequality fails at u exactly when no witness set covers u
    forms = (
        (BKind.ANCHOR, GKind.anchor()),
        (BKind.DISPLACEMENT, GKind.displacement()),
    )
    statuses = set()
    for spec, pts in _subset_cases(40, seed=17):
        for kind, gkind in forms:
            verdict = check_b_subset(kind, spec, pts)
            covered, uncovered = verify_kkm(gkind, spec, pts)
            statuses.add(verdict.status)
            assert (verdict.status is Status.PROVEN) == covered, (spec.label, kind, pts)
            if not covered:
                assert b_value(kind, spec, pts, uncovered) < 0
                assert b_value(kind, spec, pts, verdict.witness.u) < 0
    assert statuses == {Status.PROVEN, Status.FALSIFIED}


def test_check_b_subset_residual_against_b_value():
    rng = random.Random(23)
    statuses = set()
    for spec, pts in _subset_cases(30, seed=19):
        verdict = check_b_subset(BKind.RESIDUAL, spec, pts)
        statuses.add(verdict.status)
        lo, hi = min(pts), max(pts)
        if verdict.status is Status.PROVEN:
            for u in _hull_points(rng, pts, 40):
                assert b_value(BKind.RESIDUAL, spec, pts, u) >= 0
                nudged = u + SQRT2 / 64
                if nudged <= hi:
                    assert b_value(BKind.RESIDUAL, spec, pts, nudged) >= 0
        else:
            u = verdict.witness.u
            assert lo <= u <= hi
            value = b_value(BKind.RESIDUAL, spec, pts, u)
            assert value < 0
            assert verdict.detail.startswith(f"violated by {format_scalar(-value)} ")
    assert statuses == {Status.PROVEN, Status.FALSIFIED}


def _check_witness(kind, spec, verdict):
    """A Falsified hull verdict carries a weighted two-point witness that
    violates the inequality by the margin its detail names."""
    w = verdict.witness
    assert len(w.points) == 2 and w.points[0] < w.u < w.points[1]
    assert all(weight > 0 for weight in w.weights)
    assert sum(w.weights, QuadExt(0)) == 1
    assert w.u == sum(
        (p * weight for p, weight in zip(w.points, w.weights)), QuadExt(0)
    )
    value = b_value(kind, spec, w.points, w.u)
    assert value < 0
    assert verdict.detail.startswith(f"violated by {format_scalar(-value)} ")
    if kind is not BKind.RESIDUAL:
        # a negative anchor or displacement term needs f(x) > x below u
        # and f(x) < x above it
        low, high = w.points
        assert spec.evaluate(low) > low and spec.evaluate(high) < high


def test_falsify_b_pin_endpoint_swap(corpus):
    # the test-only pair oracle still finds the corpus violation
    witness, checked = falsify_b(BKind.ANCHOR, corpus[4].spec)
    assert witness is not None
    assert len(witness.points) == 2
    assert witness.points[0] == 0 and 5 < witness.points[1] < 10
    assert witness.weights is not None
    assert sum(witness.weights, QuadExt(0)) == 1
    assert all(weight > 0 for weight in witness.weights)
    assert witness.u == sum(
        (p * weight for p, weight in zip(witness.points, witness.weights)),
        QuadExt(0),
    )
    assert checked > 0

    # the exact decider finds one too: 0 and 7 around u = 6
    verdict = decide_b(BKind.ANCHOR, corpus[4].spec)
    assert verdict.status is Status.FALSIFIED
    assert verdict.witness.points == (0, 7) and verdict.witness.u == 6
    _check_witness(BKind.ANCHOR, corpus[4].spec, verdict)


def test_falsify_b_never_proves(corpus):
    witness, checked = falsify_b(
        BKind.RESIDUAL, corpus[9].spec, max_pairs=60, random_points=16
    )
    assert witness is None
    assert checked <= 60

    # the search is the reference oracle for the exact decider: every
    # Falsified witness re-checks, and where the decider proves, the
    # search finds no violation either
    statuses = {kind: set() for kind in BKind}
    for spec in random_specs(30, seed=3):
        for kind in BKind:
            verdict = decide_b(kind, spec)
            statuses[kind].add(verdict.status)
            if verdict.status is Status.FALSIFIED:
                _check_witness(kind, spec, verdict)
            else:
                assert verdict.status is Status.PROVEN
                found, _ = falsify_b(kind, spec, max_pairs=200, random_points=40)
                assert found is None, (kind, spec.label)
    # the generated families violate the anchor and displacement forms
    # throughout, so the hand maps below give those forms Proven cases
    assert statuses[BKind.RESIDUAL] == {Status.PROVEN, Status.FALSIFIED}


# maps the generated families do not reach: an unbounded two-class map, a
# ray with an override, and a half-open domain split at an irrational point;
# and two where cells of one branch repeat across classes and must not be
# merged with cells that only look alike: rational and irrational branches
# of one slope on overlapping pieces beside an all: piece, and an override
# inside an all: piece, which splits its rational cells only; and a map
# below the identity up to 2*sqrt2, class-split there, and above it after,
# so the anchor and displacement forms hold with an irrational pivot
_HAND_MAPS = {
    "two-class line": (
        """domain (-inf, inf)
piece (-inf, inf) rational: -x
piece (-inf, inf) irrational: x + 1
""",
        (Status.FALSIFIED, Status.FALSIFIED, Status.FALSIFIED),
    ),
    "ray": (
        """domain [0, inf)
piece [0, 3] all: 1/2 x + 2
piece (3, inf) all: x + 1/2
override 1 -> 0
""",
        (Status.PROVEN, Status.FALSIFIED, Status.FALSIFIED),
    ),
    "sqrt2 split": (
        """domain (0, 10]
piece (0, 1 + 3*sqrt2) all: 1/2 x + 3
piece [1 + 3*sqrt2, 10] all: 3/4 x + 5/2
""",
        (Status.PROVEN, Status.PROVEN, Status.PROVEN),
    ),
    "class split beside all": (
        """domain [0, 10]
piece [0, 4) rational: 1/2 x + 2
piece [0, 4] irrational: 1/2 x + 5/2
piece [4, 10] all: 1/2 x + 3
""",
        (Status.FALSIFIED, Status.PROVEN, Status.FALSIFIED),
    ),
    "override inside all": (
        """domain [0, 10]
piece [0, 10] all: 1/2 x + 3
override 4 -> 5
""",
        (Status.FALSIFIED, Status.PROVEN, Status.PROVEN),
    ),
    "sqrt2 pivot": (
        """domain [0, 4]
piece [0, 2*sqrt2] rational: 1/2 x
piece [0, 2*sqrt2] irrational: 1/4 x
piece (2*sqrt2, 4] all: 1/4 x + 3
""",
        (Status.PROVEN, Status.PROVEN, Status.FALSIFIED),
    ),
}


@pytest.mark.parametrize("name", sorted(_HAND_MAPS))
def test_decide_b_hand_maps(name):
    text, expected = _HAND_MAPS[name]
    spec = parse(text)
    for kind, status in zip(BKind, expected):
        verdict = decide_b(kind, spec)
        assert verdict.status is status, (name, kind)
        if status is Status.FALSIFIED:
            _check_witness(kind, spec, verdict)
        else:
            found, _ = falsify_b(kind, spec, max_pairs=200, random_points=40)
            assert found is None, (name, kind)


def test_decide_b_two_class_line_pin():
    # the search misses this violation; the decider places it at u = -1/2,
    # with an irrational point below u on the x + 1 branch
    spec = parse(_HAND_MAPS["two-class line"][0])
    verdict = decide_b(BKind.ANCHOR, spec)
    assert verdict.witness.u == Fraction(-1, 2)
    low, high = verdict.witness.points
    assert not low.is_rational and spec.evaluate(low) == low + 1
    assert high.is_rational


def test_decide_b_pins(corpus):
    # entries 2 and 5-8 have an empty sign window; 1 and 3 are projected
    for n in (1, 2, 3, 5):
        assert decide_b(BKind.ANCHOR, corpus[n].spec).status is Status.PROVEN
    for n in (6, 7, 8):
        verdict = decide_b(BKind.DISPLACEMENT, corpus[n].spec)
        assert verdict.status is Status.PROVEN
    for n in (9, 10, 11, 12, 13):
        assert decide_b(BKind.RESIDUAL, corpus[n].spec).status is Status.PROVEN
    verdict = decide_b(BKind.RESIDUAL, corpus[14].spec)
    assert verdict.status is Status.FALSIFIED
    _check_witness(BKind.RESIDUAL, corpus[14].spec, verdict)


def _samples(*ends) -> list[QuadExt]:
    """The finite ends given, their sqrt2/64 nudges and the midpoints
    between neighbours: a point of each stretch the ends cut."""
    nudge = SQRT2 / 64
    marks = [t for t in ends if t is not None] or [QuadExt(0)]
    pts = sorted({m + s for m in marks for s in (0, nudge, -nudge)})
    return pts + [(a + b) / 2 for a, b in zip(pts, pts[1:])]


def _check_cut(iv, got, samples, keep):
    """got is iv cut to the points where keep holds: None when no sampled
    point survives, iv itself when none is cut, else the kept points."""
    inside = [t for t in samples if iv.contains(t)]
    if not any(keep(t) for t in inside):
        assert got is None, (iv, got)
        return
    assert got is not None, iv
    if all(keep(t) for t in inside):
        assert got is iv, (iv, got)
    for t in samples:
        assert got.contains(t) == (iv.contains(t) and keep(t)), (iv, got, t)


def test_narrow_and_solve_affine_match_their_definition():
    rng = random.Random(14)
    rels = {
        "<": lambda v: v < 0,
        "<=": lambda v: v <= 0,
        ">": lambda v: v > 0,
        ">=": lambda v: v >= 0,
    }
    for _ in range(300):
        iv = _query_interval(rng)
        ends = [t for t in (iv.lo, iv.hi) if t is not None]
        root = rng.choice(ends) if ends and rng.random() < 0.4 else _query_end(rng)
        samples = _samples(iv.lo, iv.hi, root)
        for below in (True, False):
            for strict in (True, False):
                def keep(t):
                    # t < root, t <= root, t > root or t >= root
                    d = root - t if below else t - root
                    return d > 0 or (not strict and d == 0)

                # a cut skips Interval's checks, so it must pass them
                cut = _narrow(iv, root, below, strict)
                if cut is not None and cut is not iv:
                    assert cut.__class__ is Interval and cut == Interval(*cut)
                _check_cut(iv, cut, samples, keep)
        slope = QuadExt(0) if rng.random() < 0.2 else _query_end(rng)
        intercept = _query_end(rng)
        root = -intercept / slope if slope else None
        samples = _samples(iv.lo, iv.hi, root)
        for rel, holds in rels.items():
            got = _solve_affine(slope, intercept, rel, iv)
            _check_cut(iv, got, samples, lambda t: holds(slope * t + intercept))
        _check_intersect(iv, _query_interval(rng))
    # intervals that touch at an end, or share both, with every mix of
    # open and closed ends, both ways round, and a disjoint pair
    for flags in itertools.product((True, False), repeat=4):
        a = Interval(0, 1, *flags[:2])
        for b in (Interval(1, 2, *flags[2:]), Interval(0, 1, *flags[2:])):
            _check_intersect(a, b)
            _check_intersect(b, a)
    assert _intersect_iv(Interval.closed(0, 1), Interval.closed(2, 3)) is None


def _check_intersect(a: Interval, b: Interval):
    """_intersect_iv(a, b) holds the sampled points of both: a itself when
    b holds a, None when they are disjoint."""
    got = _intersect_iv(a, b)
    assert got is None or got.__class__ is Interval, got
    _check_cut(a, got, _samples(a.lo, a.hi, b.lo, b.hi), b.contains)


def test_check_b3_strong_pins(corpus):
    lhs, rhs, holds = check_b3_strong(
        corpus[14].spec, (3, 7), (Fraction(1, 2), Fraction(1, 2))
    )
    assert (lhs, rhs, holds) == (2, 0, False)
    lhs, rhs, holds = check_b3_strong(
        corpus[9].spec, (4, 6), (Fraction(1, 2), Fraction(1, 2))
    )
    assert (lhs, rhs, holds) == (0, 0, True)
    with pytest.raises(ValueError):
        check_b3_strong(corpus[9].spec, (4, 6), (Fraction(1, 2), Fraction(1, 4)))


def test_strong_b3_implies_b3_on_random_draws(corpus):
    rng = random.Random(73)
    for n in (9, 10, 11, 14):
        spec = corpus[n].spec
        for _ in range(50):
            size = rng.randint(2, 4)
            pts = sorted({rand_point_in(rng, spec.domain) for _ in range(size)})
            if len(pts) < 2:
                continue
            raw = [Fraction(rng.randint(1, 8)) for _ in pts]
            total = sum(raw)
            weights = [w / total for w in raw]
            lhs, rhs, holds = check_b3_strong(spec, pts, weights)
            if holds:
                u = sum((p * w for p, w in zip(pts, weights)), QuadExt(0))
                assert max(dist(spec.evaluate(p), u) for p in pts) >= spec.residual(u)


def test_check_c1_pins(corpus):
    ex2 = corpus[2].spec
    result, compact = check_c1(ex2, 6)
    assert result == ClassSet.from_interval(Interval.closed(0, 7))
    assert compact
    ex5 = corpus[5].spec
    result, compact = check_c1(ex5, 3)
    assert result == ClassSet.from_interval(Interval(Fraction(5, 2), None, True, False))
    assert not compact
    result, compact = check_c1(corpus[9].spec, 5)  # fixed point: whole domain
    assert result == ClassSet.from_interval(corpus[9].spec.domain)
    assert compact


def test_decide_c1_pins(corpus):
    assert decide_c1(corpus[1].spec).status is Status.PROVEN
    assert decide_c1(corpus[9].spec).status is Status.PROVEN
    assert decide_c1(corpus[5].spec).status is Status.FALSIFIED


def test_check_c2_and_decide_pins(corpus):
    ex9 = corpus[9].spec
    result, compact = check_c2(ex9, 5)
    assert result == ClassSet.from_interval(ex9.domain) and compact
    assert decide_c2(ex9).status is Status.PROVEN
    assert decide_c2(corpus[5].spec).status is Status.FALSIFIED


def test_check_c3_pins(corpus):
    verdict = check_c3(corpus[13].spec)
    assert verdict.status is Status.FALSIFIED
    assert verdict.witness.contains(0)
    assert corpus[13].spec.residual(0) == 10
    assert check_c3(corpus[9].spec).status is Status.PROVEN
    assert check_c3(corpus[11].spec).status is Status.PROVEN
    # a one-point domain has nothing to approach from
    one_point = parse("domain [2, 2]\npiece [2, 2] all: 2\n")
    assert check_c3(one_point).status is Status.PROVEN


def test_check_c3_class_split_pin():
    # the irrational branch sits 1/2 above the rational one on [0, 4), so
    # its displacement is the larger there; at 4 the all: branch jumps up
    # from the rational limit 4; on (4, 10] one branch serves both classes
    spec = parse(_HAND_MAPS["class split beside all"][0])
    verdict = check_c3(spec)
    assert verdict.status is Status.FALSIFIED
    assert verdict.witness == ClassSet(
        (Interval.point(4),), (Interval(0, 4, False, False),)
    )
    for k in range(0, 41):
        for x in (QuadExt(Fraction(k, 4)), QuadExt(Fraction(k, 4), Fraction(1, 64))):
            if spec.domain.contains(x):
                fails = x == 4 or (0 < x < 4 and not x.is_rational)
                assert verdict.witness.contains(x) == fails, x


@pytest.mark.parametrize(
    "text, failures",
    [
        (
            _HAND_MAPS["two-class line"][0],
            "rat(-inf, -1/2) U irr(-1/2, 1/2) U rat(1/2, inf)",
        ),
        (
            """domain [0, inf)
piece [0, inf) rational: 1/2 x
piece [0, inf) irrational: 1/3 x + 1
""",
            "irr(0, 6/7) U rat(6/7, 6) U irr(6, inf)",
        ),
        (
            """domain [0, 4]
piece [0, 4] all: 1/2 x + 1
override sqrt2 -> 3
""",
            "{sqrt2}",
        ),
        (
            """domain [0, 4]
piece [0, sqrt2) rational: x
piece [0, sqrt2] irrational: 1/2 x
piece [sqrt2, 4] rational: 1/2 x
piece (sqrt2, 4] irrational: x
""",
            "irr(0, sqrt2] U rat(sqrt2, 4]",
        ),
        (
            """domain (0, 1)
piece (0, 1/2] rational: -x + 1
piece (0, 1/2] irrational: 1/2
piece (1/2, 1) all: 1/4
override 1/2 -> 3/4
""",
            "rat(0, 1/2]",
        ),
    ],
)
def test_check_c3_unbounded_class_split_pins(text, failures):
    # the class whose displacement is the larger fails, out to infinity;
    # an override above its piece fails at its point; at an irrational or
    # overridden cell end the failure takes in the end itself
    verdict = check_c3(parse(text))
    assert verdict.status is Status.FALSIFIED
    assert str(verdict.witness) == failures
    assert verdict.detail == f"lower semicontinuity fails on {failures}"


def _structural_points(spec):
    """Piece ends, override points, domain ends and displacement roots
    that lie in C: between two of them each class follows one branch and
    the displacement keeps its sign."""
    pts = {o.at for o in spec.overrides}
    pts.update(e for e in (spec.domain.lo, spec.domain.hi) if e is not None)
    for piece in spec.pieces:
        pts.update(e for e in (piece.over.lo, piece.over.hi) if e is not None)
        expr = piece.expr
        if expr.slope != 1:
            pts.add(expr.intercept / (1 - expr.slope))
    return {p for p in pts if spec.domain.contains(p)}


def _one_sided_limits(spec, p, n):
    """Each one-sided limit of |f(x) - x| at p along each class, found by
    extrapolating the displacement linearly from two points of that class
    within 2/n of p on that side, where it is affine."""
    out = []
    for side in (1, -1):
        same = [p + side * Fraction(k, n) for k in (1, 2)]
        if p.is_rational:
            other = [p + side * Fraction(k, n) * SQRT2 / 2 for k in (1, 2)]
        else:
            # rationals in (p, p + 2/n), or in (p - 2/n, p)
            base = (p * n).floor() + (side > 0)
            other = [QuadExt(Fraction(base + side * k, n)) for k in (0, 1)]
        for x1, x2 in (same, other):
            if spec.domain.contains(x1) and spec.domain.contains(x2):
                g1, g2 = spec.residual(x1), spec.residual(x2)
                out.append(g1 + (p - x1) * (g2 - g1) / (x2 - x1))
    return out


def _lsc_oracle_specs(corpus):
    from test_mapping import _HAND_MAPS as mapping_hand_maps

    yield from (entry.spec for entry in corpus.values())
    yield from (parse(text) for text, _ in _HAND_MAPS.values())
    yield from (parse(text) for text in mapping_hand_maps)
    yield from random_specs(300, seed=3)


def test_check_c3_matches_one_sided_limits(corpus):
    # by definition: p fails exactly when some one-sided limit of the
    # displacement, along either class, is below its value at p
    rng = random.Random(89)
    checked = 0
    for spec in _lsc_oracle_specs(corpus):
        witness = check_c3(spec).witness
        structural = _structural_points(spec)
        draws = [rand_point_in(rng, spec.domain) for _ in range(6)]
        seeded = {x + t for x in draws for t in (Fraction(1, 97), SQRT2 / 97)}
        for p in structural | {x for x in seeded if spec.domain.contains(x)}:
            # 2/n within a quarter of the way to the nearest other point
            gap = min((abs(q - p) for q in structural if q != p), default=1)
            n = 16
            while gap <= Fraction(8, n):
                n *= 2
            limits = _one_sided_limits(spec, p, n)
            fails = bool(limits) and min(limits) < spec.residual(p)
            assert (witness is not None and witness.contains(p)) == fails, (
                spec.label,
                format_scalar(p),
            )
            checked += 1
    assert checked > 5000


def test_sublevel_pin_and_grid_oracle(corpus):
    ex13 = corpus[13].spec
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
    for k in range(0, 101):
        x = QuadExt(Fraction(k, 10))
        assert level.contains(x) == (ex13.residual(x) <= Fraction(1, 2))


def test_sublevel_monotone_and_closedness(corpus):
    rng = random.Random(79)
    for n in (9, 11, 13, 14):
        spec = corpus[n].spec
        c3 = check_c3(spec)
        betas = sorted(
            Fraction(rng.randint(1, 60), rng.randint(1, 12)) for _ in range(50)
        )
        previous = None
        for beta in betas:
            level, closed = sublevel(spec, beta)
            if c3.status is Status.PROVEN:
                assert closed
            if previous is not None:
                assert previous.difference(level).is_empty  # smaller beta inside
            previous = level


def test_sublevel_requires_positive_beta(corpus):
    with pytest.raises(ValueError):
        sublevel(corpus[9].spec, 0)
    with pytest.raises(ValueError):
        sublevel(corpus[9].spec, Fraction(-1, 2))


def test_check_onto_pins(corpus):
    assert check_onto(corpus[2].spec).status is Status.PROVEN
    assert check_onto(corpus[4].spec).status is Status.PROVEN
    v3 = check_onto(corpus[3].spec)
    assert v3.status is Status.FALSIFIED
    assert not corpus[3].spec.image().contains(v3.witness)
    assert check_onto(corpus[12].spec).status is Status.FALSIFIED
    # every rational is hit, so the missed point is irrational
    spec = parse(
        "domain [0, 1]\npiece [0, 1] rational: x\npiece [0, 1] irrational: 1/2\n"
    )
    verdict = check_onto(spec)
    assert verdict.witness == Fraction(1, 2) + SQRT2 / 4
    assert verdict.detail == "1/2 + 1/4*sqrt2 has no preimage"


def test_subset_witness_validation():
    with pytest.raises(ValueError):
        SubsetWitness(points=(QuadExt(0),), weights=(Fraction(2),), u=QuadExt(0))
    witness = SubsetWitness(
        points=(QuadExt(0), QuadExt(2)),
        weights=(Fraction(1, 2), Fraction(1, 2)),
        u=QuadExt(1),
    )
    assert witness.u == 1


@pytest.mark.parametrize(
    "text, c1, c2",
    [
        (
            "domain (0, 10]\npiece (0, 10] all: 1/2 x\n",
            "Proven: f(10) < 10 caps a closed bounded final segment of C",
            "Proven: x* = 10 empties the part at the open end",
        ),
        (
            "domain [0, 10)\npiece [0, 10) all: 1/2 x + 5\n",
            "Proven: f(0) > 0 caps a closed bounded initial segment of C",
            "Proven: x* = 0 empties the part at the open end",
        ),
        (
            "domain (0, 10)\npiece (0, 10) all: 1/2 x + 5/2\n",
            "Falsified: no x* gives a compact set: every candidate set keeps an "
            "unbounded or non-closed side of C",
            "Falsified: every x* keeps a nonempty part ending at an open end of C",
        ),
        (
            "domain (0, 10]\npiece (0, 10] all: 1/2 x + 5\n",
            "Falsified: no x* gives a compact set: every candidate set keeps an "
            "unbounded or non-closed side of C",
            "Falsified: every x* keeps a nonempty part ending at an open end of C",
        ),
    ],
)
def test_compact_set_deciders_on_bounded_non_closed_domains(text, c1, c2):
    # the closed-upper-end route of decide_c1 and both half-open routes of
    # decide_c2, taken and missed; T1 needs C closed and gets it on none
    spec = parse(text)
    assert (str(decide_c1(spec)), str(decide_c2(spec))) == (c1, c2)
    domain = run_theorem(spec, TheoremId.T1).conditions["domain"]
    assert str(domain) == "Falsified: C is not closed"


# closed, two half-open, open, four rays and the line
_SHAPES = [
    Interval(0, 10, True, True),
    Interval(0, 10, True, False),
    Interval(0, 10, False, True),
    Interval(0, 10, False, False),
    Interval(0, None, True, False),
    Interval(0, None, False, False),
    Interval(None, 10, False, True),
    Interval(None, 10, False, False),
    Interval(None, None, False, False),
]


def _shape_spec(rng, dom):
    """A valid self-map of ``dom``: a chain of cells broken at quarters in
    (0, 10), some split by class, each branch sending its cell into dom
    (some as the identity), and up to two overrides."""
    lo = QuadExt(-2) if dom.lo is None else dom.lo
    hi = QuadExt(12) if dom.hi is None else dom.hi
    pool = [lo + (hi - lo) * Fraction(k, 40) for k in range(41)]
    pool = [v.a for v in pool if dom.contains(v)]
    cuts = sorted({Fraction(rng.randint(1, 39), 4) for _ in range(rng.randint(0, 2))})
    first, last = (None if e is None else e.a for e in (dom.lo, dom.hi))
    ends = [first, *cuts, last]
    # closed[i]: ends[i] belongs to the cell above it, not the one below
    closed = [dom.lo_closed, *(rng.random() < 0.5 for _ in cuts), not dom.hi_closed]

    def branch(a, b):
        if rng.random() < 0.15:  # the identity, a cell of fixed points
            return AffineExpr(1, 0)
        if a is not None and b is not None:
            ya, yb = rng.choice(pool), rng.choice(pool)
            slope = (yb - ya) / (b - a)
            return AffineExpr(slope, ya - slope * a)
        if a is None and b is None:  # dom is the line
            return AffineExpr(rng.choice((-1, 0, 2)), rng.randint(-3, 3))
        # a ray: a slope may carry its image only where dom is unbounded
        up, end = (dom.hi is None, a) if b is None else (dom.lo is None, b)
        down = dom.lo is None if b is None else dom.hi is None
        slope = rng.choice([0] + [1, 2] * up + [-1, Fraction(-1, 2)] * down)
        return AffineExpr(slope, rng.choice(pool) - slope * end)

    pieces = []
    for i in range(len(ends) - 1):
        iv = Interval(ends[i], ends[i + 1], closed[i], not closed[i + 1])
        if rng.random() < 0.3:
            pieces += [Piece(iv, branch(*ends[i : i + 2]), tag) for tag in ClassTag]
        else:
            pieces.append(Piece(iv, branch(*ends[i : i + 2])))
    count = rng.randint(0, 2)
    sources = {rng.choice(pool) + rng.choice((0, SQRT2 / 8)) for _ in range(count)}
    overrides = [
        PointOverride(x, rng.choice(pool)) for x in sorted(sources) if dom.contains(x)
    ]
    spec = MappingSpec(dom, pieces, overrides)
    assert spec.validate() == [], serialize(spec)
    return spec


def test_compact_set_deciders_by_definition():
    """A Proven x* makes the check_c1 (check_c2) set compact; after a
    Falsified verdict no grid x*, at k/16 or k/16 + sqrt2/64, does.  The
    check_c2 re-check is the only one of decide_c2's clearing lemma, so
    its Proven route must be reached on both bounded half-open shapes."""
    rng = random.Random(61)
    grid = [Fraction(k, 16) for k in range(-32, 193)]
    grid += [g + SQRT2 / 64 for g in grid]
    cleared = []
    for dom in _SHAPES:
        xs = [x for x in grid if dom.contains(x)]
        for _ in range(5):
            spec = _shape_spec(rng, dom)
            for decide, check in ((decide_c1, check_c1), (decide_c2, check_c2)):
                verdict = decide(spec)
                if verdict.status is Status.PROVEN:
                    assert dom.contains(verdict.witness)
                    assert check(spec, verdict.witness)[1], serialize(spec)
                    if decide is decide_c2 and dom.is_bounded and not dom.is_closed:
                        cleared.append(dom)
                else:
                    assert verdict.status is Status.FALSIFIED
                    assert not any(check(spec, x)[1] for x in xs), serialize(spec)
    assert Interval(0, 10, True, False) in cleared
    assert Interval(0, 10, False, True) in cleared


def _first_where(spec, affine, rel):
    """The first class point, in value_pieces() order, where a x + b <rel> 0
    with (a, b) = affine(c, d) on a piece f(x) = c x + d; solved on each
    piece by ``_solve_affine``, without the sign table."""
    for tag, iv, c, d in spec.value_pieces():
        region = _solve_affine(*affine(c, d), rel, iv)
        x = None if region is None else pick_in(tag, region)
        if x is not None:
            return x
    return None


def _displacement(c, d):
    # f(x) - x on a piece f(x) = c x + d
    return c - 1, d


def test_decide_c1_witness_is_the_first_displaced_point():
    """Off a compact C, a Proven decide_c1 witness is the first class point,
    in value_pieces() order, with f(x) > x (closed lower end), or else with
    f(x) < x (closed upper end)."""
    rng = random.Random(29)
    routes = []
    for dom in _SHAPES[1:]:
        for _ in range(30):
            spec = _shape_spec(rng, dom)
            verdict = decide_c1(spec)
            if verdict.status is not Status.PROVEN:
                continue
            climbs = dom.lo is not None and dom.lo_closed
            want = _first_where(spec, _displacement, ">") if climbs else None
            if want is None:
                climbs = False
                want = _first_where(spec, _displacement, "<")
            x = verdict.witness
            assert x == want, serialize(spec)
            fx = spec.evaluate(x)
            assert fx > x if climbs else fx < x, serialize(spec)
            routes.append(climbs)
    assert routes.count(True) >= 20 and routes.count(False) >= 20


def test_decide_c2_witness_is_the_first_clearing_point():
    """On a bounded C with one open end, decide_c2 is Proven exactly when
    some class point has 2 f(x) - x <= lo (lo open) or >= hi (hi open), and
    its witness is the first one in value_pieces() order."""
    rng = random.Random(30)
    routes = []
    for dom in _SHAPES[1:3]:
        lo_open = not dom.lo_closed
        end, rel = (dom.lo, "<=") if lo_open else (dom.hi, ">=")
        for _ in range(60):
            spec = _shape_spec(rng, dom)
            verdict = decide_c2(spec)
            want = _first_where(spec, lambda c, d: (2 * c - 1, 2 * d - end), rel)
            if want is None:
                assert verdict.status is Status.FALSIFIED, serialize(spec)
                continue
            assert verdict.status is Status.PROVEN, serialize(spec)
            x = verdict.witness
            assert x == want, serialize(spec)
            cleared = 2 * spec.evaluate(x) - x
            assert cleared <= end if lo_open else cleared >= end, serialize(spec)
            routes.append(lo_open)
    assert routes.count(True) >= 20 and routes.count(False) >= 20


def test_out_of_domain_point_is_named():
    # the first point outside C, in the order each function reads them;
    # u = 13 lies outside C as well, but no function names it
    spec = corpus_entry(9).spec
    for kind in BKind:
        with pytest.raises(ValueError, match=r"^12 outside domain$"):
            b_value(kind, spec, (4, 12, 15), 5)
        with pytest.raises(ValueError, match=r"^12 outside domain$"):
            b_value(kind, spec, (12, 14), 13)
        with pytest.raises(ValueError, match=r"^-1 outside domain$"):
            check_b_subset(kind, spec, (15, 4, -1))
    with pytest.raises(ValueError, match=r"^12 outside domain$"):
        check_b3_strong(spec, (12, 14), (Fraction(1, 2), Fraction(1, 2)))
    with pytest.raises(ValueError, match=r"^5 outside the hull$"):
        b_value(BKind.ANCHOR, spec, (6, 8), 5)


def test_unknown_hull_form_is_named():
    # the value "anchor" is not the form BKind.ANCHOR
    spec = corpus_entry(1).spec
    message = r"^unknown hull form: 'anchor'$"
    with pytest.raises(ValueError, match=message):
        b_value("anchor", spec, (0, 8), 4)
    with pytest.raises(ValueError, match=message):
        check_b_subset("anchor", spec, (0, 8))
    with pytest.raises(ValueError, match=message):
        decide_b("anchor", spec)
    with pytest.raises(TypeError, match=r"^GForm required, got 'anchor'$"):
        GKind("anchor")


def test_empty_subset_and_missing_weights_are_named():
    spec = corpus_entry(9).spec
    for kind in BKind:
        with pytest.raises(ValueError, match=r"^empty subset$"):
            b_value(kind, spec, (), 5)
        with pytest.raises(ValueError, match=r"^empty subset$"):
            check_b_subset(kind, spec, ())
    with pytest.raises(ValueError, match=r"^one weight per point required$"):
        check_b3_strong(spec, (4, 6), (1,))
