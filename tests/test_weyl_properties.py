"""Property test of the Weyl core against a Fraction reference.

``RefLaurentPoly`` and ``RefWeylOp`` keep one ``Fraction`` per coefficient of
t^m d^k; with ``ref_fourier``, ``ref_mobius_infinity``,
``ref_indicial_polynomial`` and ``ref_euler_product`` they are the
implementation that the integer numerators over one denominator replaced.
Every public operation of ``WeylOp`` must agree with them on localized
operators whose coefficients have unrelated denominators, and every result
must be in canonical form.  The readings at infinity, taken from the rows,
must agree with the readings at zero after ``mobius_infinity``.  The
integer kernels ``_leibniz``, ``_times_euler``, ``_rising_sum`` and
``_clear_denominators`` are also checked directly, on inputs that operators
never feed them, and the transforms on dense weight classes with big
coefficients, with the kernels they must not share patched to raise.
"""

import functools
import math
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st

from conftest import ref_format_terms
from dworkgm import weyl
from dworkgm.dwork import ft_pair, invariant_hyp
from dworkgm.hypergeom import hyp_operator
from dworkgm.weyl import (IndicialPolynomial, LaurentPoly, WeylOp,
                          euler_product, fourier, fuchs_regular,
                          indicial_polynomial, mobius_infinity, parse_op)


class RefLaurentPoly:
    def __init__(self, coeffs=None):
        self._c = {int(e): Fraction(v) for e, v in (coeffs or {}).items() if v}

    def items(self):
        return iter(sorted(self._c.items()))

    @property
    def is_zero(self):
        return not self._c

    def order(self):
        return min(self._c)

    def __add__(self, other):
        c = dict(self._c)
        for e, v in other._c.items():
            c[e] = c.get(e, 0) + v
        return RefLaurentPoly(c)

    def __neg__(self):
        return RefLaurentPoly({e: -v for e, v in self._c.items()})

    def __mul__(self, scalar):
        return RefLaurentPoly({e: v * scalar for e, v in self._c.items()})

    def __eq__(self, other):
        return self._c == other._c

    def __hash__(self):
        return hash(frozenset(self._c.items()))


class RefWeylOp:
    def __init__(self, coeffs=()):
        p = list(coeffs)
        while p and p[-1].is_zero:
            p.pop()
        self._p = tuple(p)

    def monomials(self):
        for k, p in enumerate(self._p):
            for m, c in p.items():
                yield k, m, c

    def __add__(self, other):
        a, b = self._p, other._p
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for k, q in enumerate(b):
            out[k] = out[k] + q
        return RefWeylOp(out)

    def __neg__(self):
        return RefWeylOp([-p for p in self._p])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return RefWeylOp([p * other for p in self._p])
        scale1, monos1 = ref_numerators(self)
        scale2, monos2 = ref_numerators(other)
        acc = {}
        for k1, m1, n1 in monos1:
            for k2, m2, n2 in monos2:
                ref_leibniz(acc, n1 * n2, k1, m2, m1, k2)
        return ref_from_numerators(acc, scale1 * scale2)

    def __eq__(self, other):
        return self._p == other._p

    def __hash__(self):
        return hash(self._p)

    def __str__(self):
        return ref_format_terms(
            (c, [("t", m), ("d", k)])
            for k in range(len(self._p) - 1, -1, -1)
            for m, c in sorted(self._p[k]._c.items(), reverse=True))


def ref_numerators(op):
    scale = functools.reduce(
        math.lcm, (c.denominator for p in op._p for c in p._c.values()), 1)
    return scale, [(k, m, c.numerator * (scale // c.denominator))
                   for k, p in enumerate(op._p) for m, c in p._c.items()]


def ref_from_numerators(acc, scale):
    return RefWeylOp([RefLaurentPoly({m: Fraction(n, scale)
                                      for m, n in acc.get(k, {}).items()})
                      for k in range(max(acc, default=-1) + 1)])


def ref_leibniz(acc, n, a, b, t_shift, d_shift):
    for j in range(a + 1 if b < 0 else min(a, b) + 1):
        target = acc.setdefault(a - j + d_shift, {})
        m = b - j + t_shift
        target[m] = target.get(m, 0) + n
        n = n * (a - j) * (b - j) // (j + 1)


def ref_times_euler(r, a, b):
    return ([b * r[0]]
            + [a * r[j - 1] + (a * j + b) * r[j] for j in range(1, len(r))]
            + [a * r[-1]])


def ref_rising_sum(part, c):
    top = max(part)
    r = [part[top]]
    for i in range(top - 1, -1, -1):
        r = ref_times_euler(r, 1, c + i)
        r[0] += part.get(i, 0)
    return r


def ref_euler_product(constants):
    cs = [Fraction(c) for c in constants]
    scale = functools.reduce(math.lcm, (c.denominator for c in cs), 1)
    r = [1]
    for c in cs:
        r = ref_times_euler(r, scale, -c.numerator * (scale // c.denominator))
    return ref_from_numerators({j: {j: n} for j, n in enumerate(r)},
                               scale ** len(cs))


def ref_fourier(op, direction="forward"):
    scale, monos = ref_numerators(op)
    acc = {}
    for k, m, n in monos:
        if (k if direction == "forward" else m) % 2:
            n = -n
        ref_leibniz(acc, n, m, k, 0, 0)
    return ref_from_numerators(acc, scale)


def ref_mobius_infinity(op):
    scale, monos = ref_numerators(op)
    parts = {}
    for k, m, n in monos:
        parts.setdefault(m - k, {})[k] = -n if k % 2 else n
    acc = {}
    for w, part in parts.items():
        top = max(part)
        r = [part[top]]
        for k in range(top - 1, -1, -1):
            r = ref_times_euler(r, 1, k)
            r[0] += part.get(k, 0)
        for i, c in enumerate(r):
            acc.setdefault(i, {})[i - w] = c
    return ref_from_numerators(acc, scale)


def ref_min_weight_part(op):
    _, monos = ref_numerators(op)
    weight = min(m - k for k, m, _ in monos)
    part = {k: n for k, m, n in monos if m - k == weight}
    top = max(part)
    q = [part[top]]
    for k in range(top - 1, -1, -1):
        q = ([part.get(k, 0) - k * q[0]]
             + [q[i - 1] - k * q[i] for i in range(1, len(q))] + [q[-1]])
    return q


def ref_indicial_polynomial(op, place):
    if place == "infinity":
        q = ref_min_weight_part(ref_mobius_infinity(op))
        q = [c if i % 2 == 0 else -c for i, c in enumerate(q)]
    else:
        q = ref_min_weight_part(op)
    return tuple(Fraction(c, q[-1]) for c in q)


# -- strategies ----------------------------------------------------------------

MAX_ORDER, MAX_T = 4, 4
# pairwise unrelated denominators next to shared prime powers
DENOMINATORS = [1, 2, 3, 4, 5, 7, 8, 9, 11, 12, 13, 25, 27, 49, 64]
fractions = st.builds(Fraction, st.integers(-30, 30), st.sampled_from(DENOMINATORS))
term_lists = st.lists(st.tuples(st.integers(0, MAX_ORDER),
                                st.integers(-MAX_T, MAX_T), fractions), max_size=6)
scalars = st.one_of(st.integers(-6, 6), fractions)


def build(terms):
    """The operator sum c * t^m * d^k, built as ``bench/workloads.py`` and
    ``cli._random_op`` build theirs, next to its reference."""
    coeffs = [LaurentPoly() for _ in range(MAX_ORDER + 1)]
    refs = [RefLaurentPoly() for _ in range(MAX_ORDER + 1)]
    for k, m, c in terms:
        coeffs[k] = coeffs[k] + LaurentPoly.term(c, m)
        refs[k] = refs[k] + RefLaurentPoly({m: c})
    return WeylOp(coeffs), RefWeylOp(refs)


def assert_canonical(op):
    """Nonzero coefficients and a nonzero top coefficient; for the integer
    form, also numerators over a minimal L and no trailing empty row."""
    assert all(c for _, _, c in op.monomials())
    assert op.is_zero or not op.coeff(op.order()).is_zero
    rows = getattr(op, "_rows", None)
    if rows is not None:
        nums = [n for row in rows for n in row.values()]
        assert op._den > 0 and 0 not in nums
        assert functools.reduce(math.gcd, nums, op._den) == 1
        assert not rows or rows[-1]


def assert_same(op, ref):
    assert_canonical(op)
    monos = list(op.monomials())
    assert monos == list(ref.monomials())
    assert all(type(c) is Fraction for _, _, c in monos)
    assert len(op.coeffs()) == len(ref._p)
    for k, (p, q) in enumerate(zip(op.coeffs(), ref._p)):
        assert list(p.items()) == list(q.items())
        assert op.coeff(k) == p
    assert op.coeff(len(ref._p)).is_zero
    assert str(op) == str(ref)
    assert parse_op(str(op)) == op


@settings(max_examples=250, deadline=None, derandomize=True)
@given(term_lists, term_lists, scalars)
def test_arithmetic_matches_reference(ta, tb, s):
    (a, ra), (b, rb) = build(ta), build(tb)
    assert_same(a, ra)
    assert (a == b) == (ra == rb)
    assert_same(a + b, ra + rb)
    assert_same(a - b, ra - rb)
    assert_same(-a, -ra)
    assert_same(a * b, ra * rb)
    assert_same(b * a, rb * ra)
    assert_same(a * s, ra * s)
    assert_same(s * a, ra * s)
    # equal operators reached along different paths hash alike
    for same in ((a + b) - b, a * b - b * a + b * a - a * b + a, -(-a)):
        assert same == a and hash(same) == hash(a)
    if s:
        back = a * s * (1 / Fraction(s))
        assert back == a and hash(back) == hash(a)


@settings(max_examples=250, deadline=None, derandomize=True)
@given(term_lists, st.lists(fractions, max_size=5))
def test_transforms_match_reference(ta, constants):
    a, ra = build(ta)
    assert_same(mobius_infinity(a), ref_mobius_infinity(ra))
    # t^MAX_T clears every negative t-power, as the Fourier map needs
    shift = WeylOp.t(MAX_T)
    pa, rpa = shift * a, RefWeylOp([RefLaurentPoly({MAX_T: 1})]) * ra
    for direction in ("forward", "inverse"):
        assert_same(fourier(pa, direction), ref_fourier(rpa, direction))
    if not a.is_zero:
        for place in ("zero", "infinity"):
            ind = indicial_polynomial(a, place)
            assert ind.coeffs == ref_indicial_polynomial(ra, place)
            assert all(type(c) is Fraction for c in ind.coeffs)
    assert_same(euler_product(constants), ref_euler_product(constants))


# -- the point at infinity read from the rows -------------------------------------

# their hyp operators and FT pairs reach order 143 and numerators of 1859 bits
LARGE_WEIGHTS = [(96, 23), (140, 3), (7, 11, 13, 17, 19, 23, 29), (1,) * 60]


def assert_infinity_reads_mobius(op):
    """Both places read from the rows agree with the other place read after
    the coordinate change u = 1/t, s -> -s for the indicial polynomial."""
    mob = mobius_infinity(op)
    assert fuchs_regular(op, "infinity") == fuchs_regular(mob, "zero")
    assert fuchs_regular(op, "zero") == fuchs_regular(mob, "infinity")
    q = indicial_polynomial(mob, "zero").nums
    flipped = [c if i % 2 == 0 else -c for i, c in enumerate(q)]
    assert indicial_polynomial(op, "infinity") == IndicialPolynomial(flipped, "infinity")


@settings(max_examples=250, deadline=None, derandomize=True)
@given(term_lists)
def test_readings_at_infinity_match_mobius(ta):
    a, _ = build(ta)
    if not a.is_zero:
        assert_infinity_reads_mobius(a)


@pytest.mark.parametrize("w", LARGE_WEIGHTS, ids=["96,23", "140,3", "7..29", "1^60"])
def test_large_readings_at_infinity_match_mobius(w):
    pair = ft_pair(w)
    flags = set()
    for op in (hyp_operator(invariant_hyp(w)), pair.p, pair.q):
        assert_infinity_reads_mobius(op)
        flags.add(fuchs_regular(op, "infinity"))
    assert flags == {True, False}  # P = gamma*prod(D - c) - t^d is irregular there


# -- the integer kernels against their references ----------------------------------

# Inputs that the operator-level draws above never reach: coefficients beyond
# 2^64, a single entry, constants below zero and at or above the multiplier,
# nonzero shifts, and an accumulator that already holds the target rows.
huge = st.one_of(st.integers(2 ** 64, 2 ** 90), st.integers(-2 ** 90, -2 ** 64))
kernel_ints = st.one_of(st.integers(-9, 9), huge)
accumulators = st.dictionaries(
    st.integers(0, 14), st.dictionaries(st.integers(-14, 14), kernel_ints, max_size=5),
    max_size=6)


def layout(acc):
    """acc with its rows and keys in insertion order."""
    return [(k, list(row.items())) for k, row in acc.items()]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(kernel_ints, min_size=1, max_size=7), st.integers(-12, 12),
       st.integers(-12, 12))
@example([1], 1, -1)
@example([2 ** 70], 3, 3)
@example([5, -2 ** 65, 7], 2, 9)
@example([0, 0], 0, -4)
def test_times_euler_matches_reference(r, a, b):
    kept = list(r)
    assert weyl._times_euler(r, a, b) == ref_times_euler(kept, a, b)
    assert r == kept


@settings(max_examples=300, deadline=None, derandomize=True)
@given(accumulators, kernel_ints.filter(bool), st.integers(0, 7), st.integers(-7, 9),
       st.integers(-6, 6), st.integers(0, 6))
@example({}, 2 ** 65 + 1, 3, -2, 0, 0)
@example({}, -7, 2, 5, 1, 1)
@example({3: {2: 1}, 2: {1: -4}, 1: {0: 2}}, 4, 3, 3, 0, 0)
def test_leibniz_matches_reference(acc, n, a, b, t_shift, d_shift):
    ref = {k: dict(row) for k, row in acc.items()}
    acc = {k: dict(row) for k, row in acc.items()}
    weyl._leibniz(acc, n, a, b, t_shift, d_shift)
    ref_leibniz(ref, n, a, b, t_shift, d_shift)
    assert layout(acc) == layout(ref)


def ref_clear_denominators(values, den):
    fs = [Fraction(v) for v in values]
    lcm = functools.reduce(math.lcm, (f.denominator for f in fs), 1)
    return [int(f * lcm) for f in fs], den * lcm


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(st.one_of(kernel_ints, st.booleans(), fractions,
                          st.builds(Fraction, huge, st.sampled_from(DENOMINATORS))),
                max_size=6),
       st.integers(1, 30))
@example([], 1)
@example([], 7)
@example([True, False, 3], 2)
def test_clear_denominators_matches_reference(values, den):
    nums, scale = weyl._clear_denominators(values, den)
    assert (nums, scale) == ref_clear_denominators(values, den)
    assert all(type(n) is int for n in nums)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.dictionaries(st.integers(0, 40), kernel_ints, min_size=1, max_size=41),
       st.integers(-8, 48))
@example({0: 5}, 0)
@example({40: 2 ** 70}, 1)
@example({3: 1, 0: -2 ** 65}, -3)
def test_rising_sum_matches_reference(part, c):
    kept = dict(part)
    assert weyl._rising_sum(part, c) == ref_rising_sum(kept, c)
    assert part == kept


# -- the transforms on dense weight classes ----------------------------------------

# One t-weight class t^(j+c) d^j, filled for j <= 40 from the least j with
# polynomial coefficients: the shape of P and Q, whose classes are dense.
dense_classes = st.tuples(st.integers(-6, 6),
                          st.lists(kernel_ints, min_size=1, max_size=35),
                          st.sampled_from(DENOMINATORS))


def build_class(c, nums, den):
    """sum n/den * t^(j+c) d^j over j from max(0, -c) on, one n per j, next
    to its reference."""
    terms = list(enumerate(nums, max(0, -c)))
    coeffs = [LaurentPoly() for _ in range(terms[0][0])]
    refs = [RefLaurentPoly() for _ in range(terms[0][0])]
    for j, n in terms:
        coeffs.append(LaurentPoly.term(Fraction(n, den), j + c))
        refs.append(RefLaurentPoly({j + c: Fraction(n, den)}))
    return WeylOp(coeffs), RefWeylOp(refs)


def as_ref(op):
    return RefWeylOp([RefLaurentPoly(dict(p.items())) for p in op.coeffs()])


def transforms(op):
    return [fourier(op, "forward"), fourier(op, "inverse"), mobius_infinity(op)]


def ref_transforms(ref):
    return [ref_fourier(ref, "forward"), ref_fourier(ref, "inverse"),
            ref_mobius_infinity(ref)]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(dense_classes)
@example((0, [2 ** 64 + 1] * 35, 1))
@example((-6, [-2 ** 80, 3, 0, 2 ** 65], 49))
@example((6, [7] * 35, 64))
def test_transforms_match_reference_on_dense_classes(cls):
    op, ref = build_class(*cls)
    for out, expected in zip(transforms(op), ref_transforms(ref)):
        assert_same(out, expected)


@pytest.mark.parametrize("w", LARGE_WEIGHTS, ids=["96,23", "140,3", "7..29", "1^60"])
def test_transforms_match_reference_on_large_pairs(w):
    pair = ft_pair(w)
    for op in (pair.p, pair.q):
        for out, expected in zip(transforms(op), ref_transforms(as_ref(op))):
            assert_same(out, expected)


def refuse(*args):
    raise AssertionError("a kernel that this path must not share")


def test_transforms_share_no_kernel_with_products(monkeypatch):
    ops = [op for w in LARGE_WEIGHTS for op in (ft_pair(w).p, ft_pair(w).q)]
    ops += [build_class(c, [2 ** 65 + j for j in range(30)], 9)[0] for c in range(-6, 7)]
    with monkeypatch.context() as m:
        m.setattr(weyl, "_times_euler", refuse)
        m.setattr(weyl, "_leibniz", refuse)
        outs = [transforms(op) for op in ops]
    for op, out in zip(ops, outs):
        assert [as_ref(x) for x in out] == ref_transforms(as_ref(op))


def test_products_share_no_kernel_with_transforms(monkeypatch):
    a, ra = build([(3, 2, Fraction(2 ** 65, 7)), (1, -3, Fraction(-5, 9)),
                   (4, 4, Fraction(1, 2)), (0, 1, 3)])
    constants = [Fraction(1, 3), -2, Fraction(5, 7), 2 ** 65]
    with monkeypatch.context() as m:
        m.setattr(weyl, "_rising_sum", refuse)
        product, square = euler_product(constants), a * a
    assert_same(product, ref_euler_product(constants))
    assert_same(square, ra * ra)
