"""Property test of the indicial layer against a Fraction reference.

``RefIndicial`` keeps the monic ``Fraction`` coefficients of the polynomial,
and ``ref_has_roots_exactly``, ``ref_rational_root_split`` and
``ref_fraction_sqrt`` are the product comparison and the root oracle that
the integer form replaced.  ``IndicialPolynomial`` built from the same
polynomial at any nonzero scale must agree with them on ``coeffs``, ``str``,
``==``, ``hash``, ``roots()`` and ``has_roots_exactly``, the last on
rational values, on integer numerators over one denominator and on rational
values over a scale, and again on roots with numerators beyond 2^64.
"""

import functools
import math
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st

from conftest import ref_format_poly
from dworkgm._factor import _factor_integer
from dworkgm.weyl import IndicialPolynomial


class RefIndicial:
    def __init__(self, coeffs, place):
        self.coeffs = tuple(Fraction(c) for c in coeffs)  # ascending, monic
        self.place = place

    def __eq__(self, other):
        return (self.coeffs, self.place) == (other.coeffs, other.place)

    def __str__(self):
        return ref_format_poly(self.coeffs, "s")

    def roots(self):
        rational, leftovers = ref_rational_root_split(list(self.coeffs))
        return rational, tuple(ref_format_poly(f, "s") for f in leftovers)


def ref_has_roots_exactly(coeffs, values):
    vs = [Fraction(v) for v in values]
    if len(vs) != len(coeffs) - 1:
        return False
    scale = functools.reduce(math.lcm, (v.denominator for v in vs), 1)
    prod = [1]
    for v in vs:
        root = v.numerator * (scale // v.denominator)
        nxt = [0] * (len(prod) + 1)
        for i, c in enumerate(prod):
            nxt[i + 1] += c * scale
            nxt[i] -= c * root
        prod = nxt
    top = scale ** len(vs)
    return all(p * c.denominator == top * c.numerator for p, c in zip(prod, coeffs))


def ref_fraction_sqrt(x):
    if x < 0:
        return None
    pn, pd = math.isqrt(x.numerator), math.isqrt(x.denominator)
    if pn * pn == x.numerator and pd * pd == x.denominator:
        return Fraction(pn, pd)
    return None


def ref_rational_root_split(coeffs):
    coeffs = [Fraction(c) for c in coeffs]
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    roots = {}
    v = 0
    while not coeffs[v]:
        v += 1
    if v:
        roots[Fraction(0)] = v
        coeffs = coeffs[v:]
    leftovers = []
    deg = len(coeffs) - 1
    if deg == 1:
        r = -coeffs[0] / coeffs[1]
        roots[r] = roots.get(r, 0) + 1
    elif deg == 2:
        c0, c1, c2 = coeffs
        sq = ref_fraction_sqrt(c1 * c1 - 4 * c2 * c0)
        if sq is None:
            leftovers.append((c0 / c2, c1 / c2, Fraction(1)))
        else:
            for r in ((-c1 + sq) / (2 * c2), (-c1 - sq) / (2 * c2)):
                roots[r] = roots.get(r, 0) + 1
    elif deg > 2:
        scale = math.lcm(*[c.denominator for c in coeffs])
        found, factors = _factor_integer([int(c * scale) for c in coeffs])
        roots.update(found)
        for f, m in factors:
            leftovers.extend([tuple(Fraction(c, f[-1]) for c in f)] * m)
    return tuple(sorted(roots.items())), leftovers


# -- strategies ----------------------------------------------------------------

DENOMINATORS = [1, 2, 3, 4, 6, 7, 9, 11, 25]
fractions = st.builds(Fraction, st.integers(-12, 12), st.sampled_from(DENOMINATORS))
nonzero = fractions.filter(bool)
places = st.sampled_from(["zero", "infinity"])


def times_linear(poly, root):
    """poly * (s - root), ascending."""
    return ([-root * poly[0]]
            + [poly[i - 1] - root * poly[i] for i in range(1, len(poly))]
            + [poly[-1]])


@st.composite
def polynomials(draw):
    """(monic coefficients, its rational roots or None when they are not
    all known): a product of linear factors and at most one quadratic, or
    random coefficients."""
    if draw(st.booleans()):
        roots = draw(st.lists(fractions, max_size=5))
        poly = [Fraction(1)]
        for r in roots:
            poly = times_linear(poly, r)
        if len(roots) <= 3 and draw(st.booleans()):
            c0, c1 = draw(fractions), draw(fractions)
            quad = [c0, c1, Fraction(1)]
            out = [Fraction(0)] * (len(poly) + 2)
            for i, a in enumerate(poly):
                for j, b in enumerate(quad):
                    out[i + j] += a * b
            return out, None
        return poly, roots
    low = draw(st.lists(fractions, max_size=5))
    lead = draw(nonzero)
    return [c / lead for c in low] + [Fraction(1)], None


def misses(roots):
    """Multisets close to the given one that are not it."""
    out = [roots[:-1], roots + [Fraction(1, 2)]]
    for i in range(len(roots)):
        for step in (Fraction(1), Fraction(1, 7), Fraction(-1, 25)):
            near = list(roots)
            near[i] += step
            out.append(near)
    return out


def over_one_denominator(values, extra):
    """The values as integer numerators over a common denominator that is
    ``extra`` times the least one."""
    den = functools.reduce(math.lcm, (v.denominator for v in values), 1) * extra
    return [int(v * den) for v in values], den


def check_roots(ind, ref, values, extra):
    expected = ref_has_roots_exactly(ref.coeffs, values)
    assert ind.has_roots_exactly(values) == expected
    assert ind.has_roots_exactly(reversed(values)) == expected
    assert ind.has_roots_exactly(*over_one_denominator(values, extra)) == expected
    assert ind.has_roots_exactly([v * extra for v in values], extra) == expected
    return expected


# -- properties ----------------------------------------------------------------

@settings(max_examples=300, deadline=None, derandomize=True)
@given(polynomials(), nonzero, places, st.integers(1, 6))
def test_indicial_polynomial_matches_fraction_reference(poly, scale, place, extra):
    monic, roots = poly
    ind = IndicialPolynomial(tuple(c * scale for c in monic), place)
    ref = RefIndicial(monic, place)
    assert ind.coeffs == ref.coeffs
    assert all(type(c) is Fraction for c in ind.coeffs)
    assert ind.degree == len(monic) - 1
    assert str(ind) == str(ref)
    assert ind.roots() == ref.roots()
    # the same polynomial at the monic scale, and given as integers
    for same in (IndicialPolynomial(monic, place),
                 IndicialPolynomial(tuple(int(c * math.lcm(*(x.denominator for x in monic)))
                                          for c in monic), place)):
        assert same == ind and hash(same) == hash(ind)
    other = "zero" if place == "infinity" else "infinity"
    assert IndicialPolynomial(monic, other) != ind
    rational = [r for r, m in ref.roots()[0] for _ in range(m)]
    if roots is not None:
        assert check_roots(ind, ref, roots, extra)
    for values in [rational] + misses(rational if roots is None else roots):
        check_roots(ind, ref, values, extra)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(polynomials(), polynomials(), nonzero, nonzero, places, places)
def test_equality_and_hash_match_fraction_reference(a, b, sa, sb, pa, pb):
    ind_a = IndicialPolynomial([c * sa for c in a[0]], pa)
    ind_b = IndicialPolynomial([c * sb for c in b[0]], pb)
    equal = RefIndicial(a[0], pa) == RefIndicial(b[0], pb)
    assert (ind_a == ind_b) == equal
    if equal:
        assert hash(ind_a) == hash(ind_b)


# Roots that the draws above never reach: numerators beyond 2^64, one root
# alone, and integer numerators over a scale next to the rational values.
huge_roots = st.builds(Fraction,
                       st.one_of(st.integers(2 ** 64, 2 ** 90),
                                 st.integers(-2 ** 90, -2 ** 64), st.integers(-9, 9)),
                       st.sampled_from(DENOMINATORS))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(huge_roots, min_size=1, max_size=5), nonzero, st.integers(1, 6))
@example([Fraction(2 ** 70 + 1, 3)], Fraction(1), 1)
@example([Fraction(-2 ** 65, 7), Fraction(-2 ** 65, 7)], Fraction(-5, 2), 4)
def test_has_roots_exactly_on_large_roots_matches_reference(roots, scale, extra):
    monic = [Fraction(1)]
    for r in roots:
        monic = times_linear(monic, r)
    ind = IndicialPolynomial([c * scale for c in monic], "zero")
    ref = RefIndicial(monic, "zero")
    assert check_roots(ind, ref, roots, extra)
    for values in misses(roots) + [roots[:1], [roots[0] + 2 ** 64]]:
        check_roots(ind, ref, values, extra)
