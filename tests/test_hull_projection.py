"""The hull projection of ``decide_b`` against the x-space projection it
replaced, kept in ``projection_oracle``."""

from __future__ import annotations

from kkmfix.conditions import BKind, _near_u, _u_pieces, _window, _x_pieces
from kkmfix.intervals import ClassSet, _intersect_iv
from kkmfix.mapdef import parse
from kkmfix.randmaps import random_specs
from kkmfix.verdict import corpus_entry

import projection_oracle as oracle
from conftest import EDGE_MAPS


def _oracle_specs():
    yield from (corpus_entry(n).spec for n in range(1, 15))
    yield from random_specs(1000, 0)
    yield from random_specs(300, 5)
    yield from (parse(text) for text in EDGE_MAPS.values())


def _as_set(ivs) -> ClassSet:
    return ClassSet(ivs, ivs)


def test_projection_matches_the_x_space_oracle():
    """On every u piece ``decide_b`` projects, L and R are the oracle's."""
    projected = 0
    for spec in _oracle_specs():
        signs = spec._signs
        for kind in BKind:
            lefts, rights = _x_pieces(kind, signs)
            window = _window(lefts, rights)
            if window is None:
                continue
            old_lefts, old_rights = oracle.x_pieces(kind, signs)
            seen = set()
            for _, iv, k, m in _u_pieces(kind, spec, signs):
                key = (iv.lo, iv.hi, k, m)
                within = _intersect_iv(iv.closure(), window)
                if key in seen or within is None:
                    continue
                seen.add(key)
                ball = None if k is None else ((1 - k, -m, True), (1 + k, m, True))
                sides = ((True, lefts, old_lefts), (False, rights, old_rights))
                for below, new, old in sides:
                    got = _as_set(_near_u(kind, new, ball, below, within))
                    want = _as_set(oracle.near_u(kind, old, k, m, below, within))
                    assert got == want, (spec.label, kind, key, below)
                projected += 1
    assert projected > 1000
