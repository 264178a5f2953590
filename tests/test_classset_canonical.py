"""Property tests for the ClassSet canonical form: building a set from
concatenated interval lists equals the fold of unions, and structural
equality is set equality, read off membership at probe points."""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from kkmfix.intervals import ClassSet, Interval  # noqa: E402
from kkmfix.scalars import (  # noqa: E402
    ClassTag,
    QuadExt,
    class_of,
    irrational_between,
    simplest_rational_between,
)

# a coarse grid, so that ends coincide and intervals touch often
_scalars = st.builds(
    lambda q, k: QuadExt(Fraction(q, 4), Fraction(k, 8)),
    st.integers(-12, 12),
    st.sampled_from((0, 0, 0, -1, 1, 2)),
)
_ends = st.one_of(st.none(), _scalars, _scalars, _scalars)


@st.composite
def _intervals(draw):
    a, b = draw(_ends), draw(_ends)
    if a is not None and b is not None and b < a:
        a, b = b, a
    if a is not None and b is not None and a == b:
        return Interval.point(a)
    lo_closed = a is not None and draw(st.booleans())
    hi_closed = b is not None and draw(st.booleans())
    return Interval(a, b, lo_closed, hi_closed)


_lists = st.lists(_intervals(), max_size=4)


def _raw_member(ivs, x) -> bool:
    return any(iv.contains(x) for iv in ivs)


def _probes(*sets) -> list[QuadExt]:
    """Every end of the sets, a rational and an irrational point in each
    gap between consecutive ends, and points beyond the outer ends.  Each
    class slice is constant on every gap, so agreement on these points is
    agreement everywhere."""
    ends = sorted(
        {
            end
            for s in sets
            for iv in s.rat + s.irr
            for end in (iv.lo, iv.hi)
            if end is not None
        }
    )
    if not ends:
        return [QuadExt(0), irrational_between(0, 1)]
    gaps = zip([ends[0] - 1, *ends], [*ends, ends[-1] + 1])
    out = list(ends)
    for a, b in gaps:
        out += [QuadExt(simplest_rational_between(a, b)), irrational_between(a, b)]
    return out


def _same_members(a: ClassSet, b: ClassSet) -> bool:
    return all(a.contains(x) == b.contains(x) for x in _probes(a, b))


def _line_union(ivs) -> list[Interval]:
    # the union on the real line, as sorted runs that neither overlap nor touch
    runs: list[Interval] = []
    def lo_key(iv):
        return (iv.lo is not None, iv.lo or 0, not iv.lo_closed)

    for iv in sorted(ivs, key=lo_key):
        cur = runs[-1] if runs else None
        if cur is None or not (
            cur.hi is None
            or iv.lo is None
            or iv.lo < cur.hi
            or (iv.lo == cur.hi and (cur.hi_closed or iv.lo_closed))
        ):
            runs.append(iv)
        elif cur.hi is not None and (
            iv.hi is None or iv.hi > cur.hi or (iv.hi == cur.hi and iv.hi_closed)
        ):
            runs[-1] = Interval(cur.lo, iv.hi, cur.lo_closed, iv.hi_closed)
    return runs


def _two_pass_slice(ivs, tag) -> tuple[Interval, ...]:
    """A canonical slice by the two-pass rule: union on the line, snap each
    run to the class (a point of the other class dropped, a closed end of
    it opened), then join runs that meet at a point of the other class."""
    snapped = []
    for iv in _line_union(ivs):
        if iv.is_degenerate:
            if class_of(iv.lo) is tag:
                snapped.append(iv)
            continue
        lo_closed = iv.lo_closed and class_of(iv.lo) is tag
        hi_closed = iv.hi_closed and class_of(iv.hi) is tag
        snapped.append(Interval(iv.lo, iv.hi, lo_closed, hi_closed))
    out: list[Interval] = []
    for iv in snapped:
        if out and out[-1].hi == iv.lo and class_of(iv.lo) is not tag:
            out[-1] = Interval(out[-1].lo, iv.hi, out[-1].lo_closed, iv.hi_closed)
        else:
            out.append(iv)
    return tuple(out)


_settings = hypothesis.settings(max_examples=300, deadline=None)


@_settings
@hypothesis.given(_lists, _lists, _lists, _lists)
def test_one_construction_equals_the_fold_of_unions(A, B, C, D):
    built = ClassSet(A + B, C + D)
    assert built == ClassSet(A, C).union(ClassSet(B, D))
    folded = ClassSet()
    for iv in A + B:
        folded = folded.union(ClassSet((iv,), ()))
    for iv in C + D:
        folded = folded.union(ClassSet((), (iv,)))
    assert built == folded
    for x in _probes(built, ClassSet(A + B + C + D, A + B + C + D)):
        members = A + B if x.is_rational else C + D
        assert built.contains(x) == _raw_member(members, x)


def _split(ivs, t) -> list[Interval]:
    """The same points, with every interval that has t inside cut there."""
    out = []
    for iv in ivs:
        if iv.is_degenerate or not iv.contains(t) or t in (iv.lo, iv.hi):
            out.append(iv)
            continue
        out += [Interval(iv.lo, t, iv.lo_closed, False), Interval(t, iv.hi, True, iv.hi_closed)]
    return out


def _flip_lo(iv: Interval) -> Interval:
    if iv.lo is None or iv.is_degenerate:
        return iv
    return Interval(iv.lo, iv.hi, not iv.lo_closed, iv.hi_closed)


@_settings
@hypothesis.given(_lists, _lists, _lists, _lists, _scalars)
def test_structural_equality_is_set_equality(A, B, C, D, t):
    x, y = ClassSet(A, B), ClassSet(C, D)
    assert tuple(x) == (
        _two_pass_slice(A, ClassTag.RATIONAL),
        _two_pass_slice(B, ClassTag.IRRATIONAL),
    )
    assert (x == y) == _same_members(x, y)
    # the same set written another way has the same form
    assert ClassSet(_split(A, t), _split(B, t)) == x
    assert ClassSet(A + list(x.rat), list(reversed(B)) + list(x.irr)) == x
    assert x.difference(y).union(x.intersect(y)) == x
    # and the forms differ wherever the members do
    point = ClassSet.from_interval(Interval.point(t))
    moved = ClassSet(A, _split(B, t)).difference(point)
    assert (moved == x) == (not x.contains(t))
    # reopening lower ends changes the set only at ends of the right class
    flipped = ClassSet([_flip_lo(iv) for iv in A], B)
    assert (flipped == x) == _same_members(flipped, x)
