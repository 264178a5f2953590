"""Interval and class-split set algebra: exact membership, Boolean ops,
closure, and compactness."""

import pickle
import random
import re
from fractions import Fraction

import pytest

from kkmfix.intervals import (
    ClassSet,
    Interval,
    class_pick,
    pick_in,
    tagged,
)
from kkmfix.scalars import SQRT2, ClassTag, QuadExt, class_of

from conftest import rand_quad


def _rand_interval(rng) -> Interval:
    a, b = sorted((rand_quad(rng, span=12), rand_quad(rng, span=12)))
    if a == b:
        return Interval.point(a)
    return Interval(a, b, rng.random() < 0.5, rng.random() < 0.5)


def _rand_set(rng) -> ClassSet:
    out = ClassSet()
    for _ in range(rng.randint(1, 3)):
        iv = _rand_interval(rng)
        pick = rng.random()
        if pick < 0.4:
            piece = ClassSet.from_interval(iv)
        elif pick < 0.7:
            piece = ClassSet((iv,), ())
        else:
            piece = ClassSet((), (iv,))
        out = out.union(piece) if rng.random() < 0.7 else out.difference(piece)
    return out


def _probes(rng, count=24):
    return [rand_quad(rng, span=14) for _ in range(count)]


def test_interval_membership_pins():
    iv = Interval(QuadExt(0), QuadExt(10), True, False)
    assert iv.contains(0) and iv.contains(QuadExt(5, 1)) and not iv.contains(10)
    ray = Interval(3, None, True, False)
    assert ray.contains(10 ** 9) and not ray.contains(2)
    assert Interval.all().contains(SQRT2)
    assert str(Interval(QuadExt(0), None, False, False)) == "(0, inf)"


def test_interval_map_affine():
    iv = Interval(QuadExt(1), QuadExt(3), True, False)
    up = iv.map_affine(Fraction(2), Fraction(1))
    assert (up.lo, up.hi, up.lo_closed, up.hi_closed) == (3, 7, True, False)
    down = iv.map_affine(Fraction(-1), Fraction(0))
    assert (down.lo, down.hi, down.lo_closed, down.hi_closed) == (-3, -1, False, True)


def test_boolean_ops_agree_with_membership():
    rng = random.Random(41)
    for _ in range(300):
        a, b = _rand_set(rng), _rand_set(rng)
        union, inter, diff = a.union(b), a.intersect(b), a.difference(b)
        for x in _probes(rng):
            ina, inb = a.contains(x), b.contains(x)
            assert union.contains(x) == (ina or inb)
            assert inter.contains(x) == (ina and inb)
            assert diff.contains(x) == (ina and not inb)


def test_partition_identity():
    rng = random.Random(43)
    for _ in range(300):
        a, b = _rand_set(rng), _rand_set(rng)
        assert a.difference(b).union(a.intersect(b)) == a


def test_class_slices_are_disjoint():
    rng = random.Random(47)
    for _ in range(300):
        s = _rand_set(rng)
        for iv in s.rat:
            assert not ClassSet((iv,), ()).is_empty
        x = s.pick()
        if x is not None:
            assert s.contains(x)
            ivs = s.rat if class_of(x) is ClassTag.RATIONAL else s.irr
            assert any(iv.contains(x) for iv in ivs)


def test_closure_and_compactness():
    rng = random.Random(53)
    for _ in range(200):
        s = _rand_set(rng)
        closed = s.closure()
        assert closed.closure() == closed
        assert s.difference(closed).is_empty  # s subset of closure
        assert closed.is_closed
        if s.is_compact:
            assert s.is_closed and s.is_bounded
    assert ClassSet.from_interval(Interval.closed(0, 1)).is_compact
    assert not ClassSet.from_interval(Interval(0, 1, False, False)).is_compact
    assert not ClassSet.from_interval(Interval(0, None, True, False)).is_compact
    assert not ClassSet((Interval.closed(0, 1),), ()).is_closed


def test_rationals_need_irrational_closure():
    rats = ClassSet((Interval.closed(0, 2),), ())
    closed = rats.closure()
    assert closed.contains(SQRT2) and not rats.contains(SQRT2)


def test_finite_points_and_points():
    pts = tuple(Interval.point(x) for x in (QuadExt(1), QuadExt(0, 1), QuadExt(3)))
    s = ClassSet(pts, pts)
    assert s.finite_points() == (QuadExt(0, 1), QuadExt(1), QuadExt(3)) or set(
        s.finite_points()
    ) == {QuadExt(1), QuadExt(0, 1), QuadExt(3)}
    assert ClassSet.from_interval(Interval(0, 1, False, False)).finite_points() is None
    assert ClassSet().finite_points() == ()
    assert ClassSet().pick() is None


def test_pick_prefers_closed_finite_lo():
    s = ClassSet.from_interval(Interval.closed(2, 5))
    assert s.pick() == 2
    t = ClassSet.from_interval(Interval(QuadExt(2), QuadExt(5), False, True))
    assert t.pick() == 5


def test_interval_rejects_each_malformed_form():
    for args, message in (
        ((None, 1, True, False), "interval closed at -inf"),
        ((0, None, False, True), "interval closed at +inf"),
        ((2, 1), "backwards interval"),
        ((1, 1, True, False), "empty interval"),
        ((QuadExt(0, 1), QuadExt(0, 1), False, True), "empty interval"),
    ):
        with pytest.raises(ValueError, match=re.escape(message)):
            Interval(*args)
    # the end flags are bools, not merely truthy values
    for args, message in (
        ((0, 1, "x", ""), "bool flags required, got 'x', ''"),
        ((0, 1, 1, 0), "bool flags required, got 1, 0"),
        ((None, 1, None, False), "bool flags required, got None, False"),
    ):
        with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
            Interval(*args)
    # the named tuple's own constructors and unpickling check too
    backwards = tuple.__new__(Interval, (QuadExt(1), QuadExt(0), True, True))
    routes = [
        lambda: Interval._make((1, 0, True, True)),
        lambda: Interval.closed(0, 1)._replace(lo=5),
    ]
    routes += [
        lambda p=p: pickle.loads(pickle.dumps(backwards, protocol=p))
        for p in range(pickle.HIGHEST_PROTOCOL + 1)
    ]
    for route in routes:
        with pytest.raises(ValueError, match="backwards interval"):
            route()


def test_interval_is_an_immutable_value():
    iv = Interval(1, Fraction(3, 2), True, False)
    assert iv.lo.__class__ is QuadExt and iv.hi.__class__ is QuadExt
    assert (iv.lo, iv.hi) == (QuadExt(1), QuadExt(Fraction(3, 2)))
    assert repr(iv) == (
        "Interval(lo=QuadExt(1, 0), hi=QuadExt(3/2, 0), "
        "lo_closed=True, hi_closed=False)"
    )
    for name in ("lo", "hi", "lo_closed", "hi_closed", "other"):
        with pytest.raises(AttributeError):
            setattr(iv, name, None)
    same = Interval(QuadExt(1), QuadExt(3, 0) / 2, True, False)
    assert iv == same and hash(iv) == hash(same)
    assert iv != Interval(1, Fraction(3, 2)) and iv != (iv.lo, iv.hi)
    assert tuple(iv) == (iv.lo, iv.hi, iv.lo_closed, iv.hi_closed)
    table = {iv: "a", Interval.point(SQRT2): "b"}
    assert table[same] == "a" and table[Interval.closed(SQRT2, SQRT2)] == "b"
    assert Interval(1, Fraction(3, 2)) not in table
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(iv, protocol=protocol))
        assert back == iv and back.__class__ is Interval
    assert iv._replace(hi_closed=True) == Interval(1, Fraction(3, 2))


def _query_end(rng) -> QuadExt:
    # a rational, or q + k*sqrt2/2^n
    q = Fraction(rng.randint(-16, 16), rng.choice((1, 2, 3, 4)))
    if rng.random() < 0.4:
        return QuadExt(q, Fraction(rng.choice((-3, -1, 1, 2)), 2 ** rng.randint(0, 4)))
    return QuadExt(q)


def _query_interval(rng) -> Interval:
    if rng.random() < 0.2:
        return Interval.point(_query_end(rng))
    a = None if rng.random() < 0.2 else _query_end(rng)
    b = None if rng.random() < 0.2 else _query_end(rng)
    if a is not None and b is not None:
        if a == b:
            return Interval.point(a)
        a, b = min(a, b), max(a, b)
    return Interval(
        a, b, a is not None and rng.random() < 0.5, b is not None and rng.random() < 0.5
    )


def _slicewise(tag, ivs) -> ClassSet:
    # the tag-class points of ivs, each slice given to ClassSet directly
    if tag is ClassTag.RATIONAL:
        return ClassSet(ivs, ())
    if tag is ClassTag.IRRATIONAL:
        return ClassSet((), ivs)
    return ClassSet(ivs, ivs)


def test_direct_queries_match_the_built_set():
    rng = random.Random(59)
    tags = (ClassTag.RATIONAL, ClassTag.IRRATIONAL, None)
    for _ in range(1500):
        iv = _query_interval(rng)
        ivs = [iv] + [_query_interval(rng) for _ in range(rng.randint(0, 2))]
        for tag in tags:
            built = _slicewise(tag, ivs)
            assert tagged((tag, x) for x in ivs) == built
            got = class_pick(tag, ivs)
            assert got == built.pick() and (got is None) == built.is_empty
            assert (class_pick(tag, ivs[1:]) is None) == (
                _slicewise(tag, ivs[1:]).is_empty
            )
            want = _slicewise(tag, [iv]).pick()
            got = pick_in(tag, iv)
            assert (got is None) == (want is None)
            if want is not None:
                assert got == want and got.__class__ is QuadExt
        # mixed tags: the union of the per-pair sets
        pairs = [(rng.choice(tags), x) for x in ivs]
        want = ClassSet()
        for tag, x in pairs:
            want = want.union(_slicewise(tag, [x]))
        assert tagged(pairs) == want
        whole = ClassSet.from_interval(iv)
        assert iv.is_closed == whole.is_closed
        assert iv.is_bounded == whole.is_bounded
        assert (iv.is_bounded and iv.is_closed) == whole.is_compact
