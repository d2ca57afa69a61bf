"""Property test of the root oracle against sympy, the reference it replaced."""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
sympy = pytest.importorskip("sympy")
from hypothesis import given, settings, strategies as st

from conftest import sympy_root_split
from dworkgm.weyl import _rational_root_split

factor = st.tuples(
    st.lists(st.integers(-9, 9), min_size=1, max_size=5),  # low coefficients
    st.integers(1, 6).flatmap(lambda a: st.sampled_from([a, -a])),  # leading
    st.integers(1, 3),  # multiplicity
)


def times(f, g):
    out = [Fraction(0)] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return out


@settings(derandomize=True, deadline=None, max_examples=60)
@given(st.lists(factor, min_size=1, max_size=4))
def test_split_rebuilds_the_input_and_matches_sympy(factors):
    poly = [Fraction(1)]
    for low, lead, mult in factors:
        for _ in range(mult):
            poly = times(poly, [Fraction(c) for c in low] + [Fraction(lead)])
    monic = [c / poly[-1] for c in poly]
    rational, leftovers = _rational_root_split(monic)

    rebuilt = [Fraction(1)]
    for r, m in rational:
        for _ in range(m):
            rebuilt = times(rebuilt, [-r, Fraction(1)])
    for f in leftovers:
        rebuilt = times(rebuilt, list(f))
    assert rebuilt == monic

    assert (rational, leftovers) == sympy_root_split(monic)
    s = sympy.Symbol("s")
    for f in leftovers:
        assert len(f) > 2
        assert sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                           for c in reversed(f)], s).is_irreducible
