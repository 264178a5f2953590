"""The pair-search falsifier, kept as a differential oracle for ``decide_b``.

It builds a candidate pool (piece ends, overrides, domain ends, their
images, midpoints, sqrt2 offsets and random rationals drawn with seed 0)
and decides pairs of it exactly with ``check_b_subset``.  Any violating subset
contains a violating pair, so pairs suffice; the search can find a
violation but never prove the inequality.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from kkmfix import SQRT2, QuadExt, Status, SubsetWitness, as_scalar, check_b_subset


def _window(dom):
    if dom.lo is not None:
        wl = dom.lo
        wr = dom.hi if dom.hi is not None else wl + 20
    elif dom.hi is not None:
        wr = dom.hi
        wl = wr - 20
    else:
        wl, wr = QuadExt(-10), QuadExt(10)
    return wl, wr


def candidate_pool(spec, random_points: int) -> list[QuadExt]:
    dom = spec.domain
    pool: list[QuadExt] = []
    seen: set[QuadExt] = set()

    def add(x) -> None:
        x = as_scalar(x)
        if dom.contains(x) and x not in seen:
            seen.add(x)
            pool.append(x)

    for piece in spec.pieces:
        for end in (piece.over.lo, piece.over.hi):
            if end is not None:
                add(end)
    for o in spec.overrides:
        add(o.at)
    for end in (dom.lo, dom.hi):
        if end is not None:
            add(end)
    structural = list(pool)
    for p in structural:
        add(spec.evaluate(p))
    for a, b in zip(structural, structural[1:]):
        add((a + b) / 2)
    off = SQRT2 / 10
    for p in structural:
        add(p + off)
        add(p - off)

    rng = random.Random(0)
    wl, wr = _window(dom)
    for _ in range(random_points):
        den = rng.randint(1, 64)
        lo_n = (wl * den).__floor__() + 1
        hi_n = (wr * den).__floor__()
        if lo_n > hi_n:
            continue
        add(Fraction(rng.randint(lo_n, hi_n), den))
    return pool


def falsify_b(kind, spec, max_pairs=2000, random_points=200):
    """(witness, pairs checked): a weighted two-point SubsetWitness of the
    first violating pair within ``max_pairs``, or None."""
    checked = 0
    pool = candidate_pool(spec, random_points)
    for x1, x2 in itertools.islice(itertools.combinations(pool, 2), max_pairs):
        checked += 1
        verdict = check_b_subset(kind, spec, (x1, x2))
        if verdict.status is Status.FALSIFIED:
            u = verdict.witness.u
            a, b = sorted((x1, x2))
            w_b = (u - a) / (b - a)
            return SubsetWitness((a, b), (1 - w_b, w_b), u), checked
    return None, checked
