"""The hull inequalities and the anchor and displacement witness sets each
compare two distances, so they are the same under any metric
d(x, y) = phi(|x - y|) with phi continuous, strictly increasing and
subadditive, phi(0) = 0.  These tests recompute both by that definition
under two such phi, exact in Q(sqrt2) and given by no norm, and compare
with ``b_value`` and ``g_set``."""

from __future__ import annotations

import random

import pytest

from kkmfix.conditions import BKind, b_value
from kkmfix.intervals import Interval
from kkmfix.kkm import GKind, g_set
from kkmfix.mapdef import parse
from kkmfix.randmaps import random_specs
from kkmfix.scalars import dist
from kkmfix.verdict import corpus_entry

from conftest import rand_point_in


def _bounded(t):
    return t / (1 + t)


def _bent(t):
    # t up to 1, then (t + 1)/2: concave, so subadditive
    return min(t, (t + 1) / 2)


_PHIS = {"t/(1+t)": _bounded, "min(t,(t+1)/2)": _bent}


def _metric(name: str):
    phi = _PHIS[name]
    return lambda a, b: phi(dist(a, b))


@pytest.fixture(scope="module")
def specs():
    return [corpus_entry(n).spec for n in range(1, 15)] + list(random_specs(100, 0))


def _hull_holds(kind: BKind, d, spec, pts, u) -> bool:
    """Some x_j has d(f(x_j), u) >= its gauge: d(x_j, u), d(f(x_j), x_j)
    or d(f(u), u)."""
    for x in pts:
        fx = spec.evaluate(x)
        if kind is BKind.ANCHOR:
            gauge = d(x, u)
        elif kind is BKind.DISPLACEMENT:
            gauge = d(fx, x)
        else:
            gauge = d(spec.evaluate(u), u)
        if d(fx, u) >= gauge:
            return True
    return False


@pytest.mark.parametrize("name", _PHIS)
def test_hull_inequalities_do_not_depend_on_the_metric(specs, name):
    d = _metric(name)
    rng = random.Random(f"hull {name}")
    for spec in specs:
        for kind in BKind:
            for _ in range(3):
                pts = [rand_point_in(rng, spec.domain) for _ in range(rng.randint(1, 3))]
                lo, hi = min(pts), max(pts)
                # the hull points where a term can tie: each x_j, the
                # midpoints (x_j + f(x_j))/2 and the images and mirrors
                # f(x_j), 2f(x_j) - x_j, and one sampled point
                ties = [z for x in pts for z in (x, spec.evaluate(x))]
                ties += [(x + spec.evaluate(x)) / 2 for x in pts]
                ties += [2 * spec.evaluate(x) - x for x in pts]
                us = [u for u in ties if lo <= u <= hi]
                us.append(rand_point_in(rng, Interval.closed(lo, hi)))
                for u in us:
                    expected = b_value(kind, spec, pts, u) >= 0
                    assert _hull_holds(kind, d, spec, pts, u) == expected, (
                        kind, spec.label, pts, u,
                    )


@pytest.mark.parametrize("name", _PHIS)
def test_witness_sets_do_not_depend_on_the_metric(specs, name):
    d = _metric(name)
    rng = random.Random(f"witness {name}")
    for spec in specs:
        for anchor in (True, False):
            kind = GKind.anchor() if anchor else GKind.displacement()
            for _ in range(3):
                x = rand_point_in(rng, spec.domain)
                fx = spec.evaluate(x)
                gx = g_set(kind, spec, x)
                # the finite ends of G(x), where the two distances tie,
                # and two sampled points
                ys = [
                    end
                    for iv in gx.rat + gx.irr
                    for end in (iv.lo, iv.hi)
                    if end is not None and spec.domain.contains(end)
                ]
                ys += [rand_point_in(rng, spec.domain) for _ in range(2)]
                for y in ys:
                    gauge = d(x, y) if anchor else d(fx, x)
                    assert (d(fx, y) >= gauge) == gx.contains(y), (
                        kind, spec.label, x, y,
                    )


def test_the_gap_form_depends_on_the_metric():
    # with f = 5 and delta = 2, G(0) holds y = 0 since |5 - 0| >= 1, but
    # t/(1+t) < 1 for every t: under that metric no y is delta/2 away
    spec = parse("domain [0, 10]\npiece [0, 10] all: 5\n")
    assert g_set(GKind.gap(2), spec, 0).contains(0)
    assert not _metric("t/(1+t)")(5, 0) >= 1
