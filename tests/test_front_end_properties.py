"""Property tests of the Weyl front end against the forms it replaced.

``ref_value`` is the ``Fraction`` Horner loop that ``IndicialPolynomial``
evaluated with before it ran in integers; ``RefParser`` raises every power
with ``**``, as ``_Parser.factor`` did before it built a bare ``t^n`` or
``d^n`` as its monomial.  The current forms must give equal values, of type
``Fraction``, and equal operators.
"""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from dworkgm.weyl import (IndicialPolynomial, LaurentPoly, ParseError, WeylOp,
                          _Parser, euler_op, parse_op)


def ref_value(ind, x):
    acc = Fraction(0)
    for n in reversed(ind.nums):
        acc = acc * x + n
    return acc / ind.nums[-1]


class RefParser(_Parser):
    def factor(self):
        bare_t = (self.peek() or ())[:2] == ("sym", "t")
        base = self.atom()[0]
        tok = self.peek()
        if tok is None or tok[0] != "^":
            return base
        self.next()
        neg = False
        tok = self.peek()
        if tok is not None and tok[0] == "-":
            self.next()
            neg = True
        num = self.expect("num")
        n = int(num[1])
        if neg:
            if not bare_t:
                raise ParseError("negative exponents are allowed only on t", num[2])
            return WeylOp.t(-n)
        return base ** n


def ref_parse(text):
    return RefParser(text).parse()


# -- indicial evaluation ---------------------------------------------------------

DENOMINATORS = [1, 2, 3, 4, 5, 6, 7, 9, 12, 25]
fractions = st.builds(Fraction, st.integers(-40, 40), st.sampled_from(DENOMINATORS))
points = st.one_of(st.integers(-50, 50), fractions)


@st.composite
def indicial_polynomials(draw):
    """Degree 0-6: a product of 0-3 rational linear factors and a random
    integer polynomial, so that rational roots are common."""
    nums = draw(st.lists(st.integers(-20, 20), min_size=1, max_size=4))
    nums[-1] = nums[-1] or 1
    for r in draw(st.lists(fractions, max_size=3)):
        p, q = r.numerator, r.denominator  # times q*s - p
        nums = ([-p * nums[0]] + [q * nums[i - 1] - p * nums[i]
                                  for i in range(1, len(nums))] + [q * nums[-1]])
    return IndicialPolynomial(nums, draw(st.sampled_from(["zero", "infinity"])))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(indicial_polynomials(), st.lists(points, min_size=1, max_size=4))
def test_indicial_value_matches_fraction_horner(ind, xs):
    assert 0 <= ind.degree <= 6
    roots = [r for r, _ in ind.roots()[0]]
    for x in xs + roots:
        value = ind(x)
        assert type(value) is Fraction
        assert value == ref_value(ind, x)
    assert all(ind(r) == 0 for r in roots)


@pytest.mark.parametrize("x", [0.5, 1.0, "1", "1/2"])
def test_indicial_value_refuses_floats_and_strings(x):
    # the Fraction loop returned the float 1.0 for ind(0.5)
    with pytest.raises(TypeError):
        IndicialPolynomial((-1, 0, 4), "zero")(x)


# -- parser ------------------------------------------------------------------------

@pytest.mark.parametrize("n", range(8))
def test_parsed_powers_match_repeated_products(n):
    t, d = WeylOp.t(), WeylOp.d()
    cases = {
        f"t^{n}": t ** n,
        f"d^{n}": d ** n,
        f"t^-{n}": WeylOp.t(-n),
        f"(t)^{n}": t ** n,
        f"D^{n}": euler_op() ** n,
        f"2^{n}*t": WeylOp.constant(2) ** n * t,
        f"d^{n}*t^{n}": d ** n * t ** n,
        f"(t + d)^{n}": (t + d) ** n,
    }
    for text, expected in cases.items():
        assert parse_op(text) == expected == ref_parse(text), text


@pytest.mark.parametrize("text", ["d^-1", "d^-0", "D^-2", "(t)^-1", "2^-1", "(d)^-3"])
def test_negative_exponent_off_bare_t_is_a_parse_error(text):
    for parse in (parse_op, ref_parse):
        with pytest.raises(ParseError, match="negative exponents"):
            parse(text)


# the shape of ``check --weights`` and the operators workload
MAX_ORDER, MAX_T_EXP, MAX_TERMS, MAX_DEN = 6, 6, 3, 9
workload_terms = st.lists(
    st.tuples(st.integers(0, MAX_ORDER), st.integers(-MAX_T_EXP, MAX_T_EXP),
              st.builds(Fraction, st.integers(-9, 9), st.integers(1, MAX_DEN))),
    min_size=1, max_size=MAX_TERMS)

factors = st.one_of(
    st.integers(-MAX_T_EXP, MAX_T_EXP).map(lambda a: f"t^{a}"),
    st.integers(0, MAX_ORDER).map(lambda b: f"d^{b}"),
    st.integers(0, 3).map(lambda c: f"D^{c}"),
    st.integers(0, 3).map(lambda n: f"(t)^{n}"),
    st.integers(0, 2).map(lambda n: f"(t^-1 + 2*d)^{n}"),
    st.sampled_from(["t", "d", "D", "3", "2/5", "7/4"]),
)
words = st.lists(factors, min_size=1, max_size=5).map("*".join)
sums = st.lists(st.tuples(st.sampled_from([" + ", " - "]), words),
                min_size=1, max_size=4).map(lambda ws: "".join(s + w for s, w in ws))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(workload_terms)
def test_round_trip_of_workload_shaped_operators(terms):
    coeffs = [LaurentPoly() for _ in range(MAX_ORDER + 1)]
    for k, m, c in terms:
        coeffs[k] = coeffs[k] + LaurentPoly.term(c, m)
    op = WeylOp(coeffs)
    text = str(op)
    assert parse_op(text) == op == ref_parse(text)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(sums)
def test_products_of_powers_match_reference(text):
    assert parse_op(text) == ref_parse(text), text
