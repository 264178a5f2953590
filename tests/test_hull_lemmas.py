"""The lemmas that let the sign table of f(x) - x settle all but one row
of the anchor and displacement hull terms, checked on rationals alone."""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

_rationals = st.fractions(max_denominator=50).filter(lambda q: abs(q) < 10**6)
_gaps = st.fractions(min_value=Fraction(1, 50), max_value=100, max_denominator=50)


@hypothesis.settings(max_examples=400, deadline=None, derandomize=True)
@hypothesis.given(_rationals, _gaps, _gaps)
@hypothesis.example(Fraction(0), Fraction(2), Fraction(1))  # x + f(x) = 2u
@hypothesis.example(Fraction(0), Fraction(1), Fraction(2))  # u = 2 f(x) - x
def test_sign_table_leaves_one_row_per_term(x, lift, reach):
    """With f(x) > x and x < u: |f(x) - u| < u - x iff x + f(x) < 2u, and
    |f(x) - u| < f(x) - x iff u < 2 f(x) - x; with f(x) < x and x > u,
    the mirrors."""
    fx, u = x + lift, x + reach
    assert (abs(fx - u) < u - x) == (x + fx < 2 * u)
    assert (abs(fx - u) < fx - x) == (u < 2 * fx - x)
    fx, u = x - lift, x - reach
    assert (abs(fx - u) < x - u) == (x + fx > 2 * u)
    assert (abs(fx - u) < x - fx) == (u > 2 * fx - x)
