"""Property test of the root oracle against sympy, the reference it replaced."""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
sympy = pytest.importorskip("sympy")
from hypothesis import given, settings, strategies as st

from conftest import sympy_root_split
from dworkgm._factor import _factor_integer
from dworkgm.weyl import _rational_root_split

factor = st.tuples(
    st.lists(st.integers(-9, 9), min_size=1, max_size=5),  # low coefficients
    st.integers(1, 6).flatmap(lambda a: st.sampled_from([a, -a])),  # leading
    st.integers(1, 3),  # multiplicity
)
# simple linear factors whose roots differ by multiples of 105 = 3 * 5 * 7,
# so they collide modulo 3, 5 and 7, with up to two factors as above
colliding = st.builds(
    lambda r, ks, rest: [([-(r + 105 * k)], 1, 1) for k in ks] + rest,
    st.integers(-9, 9),
    st.lists(st.integers(-3, 3), min_size=2, max_size=4, unique=True),
    st.lists(factor, max_size=2),
)


def times(f, g):
    out = [Fraction(0)] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return out


@settings(derandomize=True, deadline=None, max_examples=60)
@given(st.one_of(st.lists(factor, min_size=1, max_size=4), colliding))
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
        rebuilt = times(rebuilt, [Fraction(c, f[-1]) for c in f])
    assert rebuilt == monic

    assert (rational, leftovers) == sympy_root_split(monic)
    s = sympy.Symbol("s")
    for f in leftovers:
        assert len(f) > 2
        assert sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                           for c in reversed(f)], s).is_irreducible


# (a, b, n) for b*t^n + a: -a/b a p-th power for a p | n, or in -4*Q^4 with
# 4 | n (Capelli's reducible cases), or anything
small = st.integers(1, 6)
sign = st.sampled_from([1, -1])
binomials = st.one_of(
    st.builds(lambda s, x, z, p, k: (s * x ** p, z ** p, p * k),
              sign, small, small, st.integers(2, 5), st.integers(1, 3)),
    st.builds(lambda x, z, k: (4 * x ** 4, z ** 4, 4 * k), small, small, st.integers(1, 3)),
    st.tuples(st.integers(-300, 300).filter(bool), st.integers(1, 300), st.integers(2, 16)),
)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(binomials, sign)
def test_binomials_match_sympy(binomial, sign_b):
    a, b, n = binomial
    coeffs = [a] + [0] * (n - 1) + [sign_b * b]
    roots, factors = _factor_integer(coeffs)
    t = sympy.Symbol("t")
    expected_roots, expected_factors = {}, []
    for g, mult in sympy.Poly(list(reversed(coeffs)), t).factor_list()[1]:
        gc = [int(c) for c in reversed(g.all_coeffs())]
        if gc[-1] < 0:
            gc = [-c for c in gc]
        if len(gc) == 2:
            expected_roots[Fraction(-gc[0], gc[1])] = mult
        else:
            expected_factors.append((gc, mult))
    expected_factors.sort(key=lambda fm: (len(fm[0]), fm[1], fm[0][::-1]))
    assert (dict(roots), factors) == (expected_roots, expected_factors)
