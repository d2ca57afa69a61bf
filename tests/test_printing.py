"""Printing: every exact rational becomes text in ``weyl._ratio``.

The printers take integer numerators over one denominator.  Their reference
prints from Fractions instead: each coefficient a reduced ``Fraction``,
printed by ``str``.  Hypothesis draws operators,
multisets, factor lists, indicial polynomials and ``MultiPoly``s, and each
printer must write the same text as its reference.  Two more groups of
tests pin what the integer printers add: no ``Fraction`` is built to print
an operator or a multiset, and numbers past Python's limit on int-to-text
conversion (4300 digits by default, Python 3.10.7+) print in full without
lifting it.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from conftest import monic, ref_format_poly, ref_format_terms
from dworkgm import dwork, weyl
from dworkgm.hypergeom import ExpMultiset, FactorList, make_hyp
from dworkgm.syzygy import MultiPoly
from dworkgm.weyl import IndicialPolynomial, LaurentPoly, WeylOp

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True)


# ---------------------------------------------------------------------------
# The Fraction-based reference printers (``ref_format_terms`` and
# ``ref_format_poly`` are in conftest.py, shared with the reference objects
# of other test modules)
# ---------------------------------------------------------------------------

def ref_op_str(op):
    return ref_format_terms((c, [("t", m), ("d", k)])
                            for k, m, c in reversed(list(op.monomials())))


def ref_class(x):
    r = Fraction(x) % 1
    return r if r else Fraction(1)


def ref_multiset_str(reps):
    return "[" + ", ".join(str(c) for c in sorted(map(ref_class, reps))) + "]"


def ref_factor_list_str(counts):
    classes = Counter()
    for x, m in counts.items():
        classes[ref_class(x)] += m
    parts = [(f"K({c})" if c != 1 else "O", m)
             for c, m in sorted(classes.items()) if m]
    if not parts:
        return "0"
    return " + ".join(s if m == 1 else f"{s}^{m}" for s, m in parts)


def ref_multipoly_str(terms):
    """Terms keyed by exponent tuples, printed in descending grlex order."""
    keys = sorted((e for e, c in terms.items() if c),
                  key=lambda e: (sum(e), e), reverse=True)
    return ref_format_terms(
        (terms[e], [(f"x{i + 1}", k) for i, k in enumerate(e)]) for e in keys)


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

numerators = st.one_of(st.sampled_from([1, -1]), st.integers(-40, 40),
                       st.integers(-10**30, 10**30))
denominators = st.one_of(st.just(1), st.integers(1, 12), st.integers(1, 10**20))
rationals = st.builds(Fraction, numerators, denominators)


@st.composite
def operators(draw):
    """Sums of monomials c * t^m * d^k with m < 0 allowed, some of them
    cancelling a term drawn before."""
    terms = draw(st.lists(st.tuples(st.integers(0, 4), st.integers(-4, 4), rationals),
                          max_size=8))
    cancel = draw(st.lists(st.integers(0, 7), max_size=3))
    terms += [(k, m, -c) for i in cancel if i < len(terms) for k, m, c in [terms[i]]]
    op = WeylOp.zero()
    for k, m, c in terms:
        op = op + WeylOp.constant(c) * WeylOp.t(m) * WeylOp.d(k)
    return op


residue_lists = st.tuples(st.lists(st.integers(-50, 50), max_size=12),
                          st.integers(1, 60))


# ---------------------------------------------------------------------------
# The printers match their references
# ---------------------------------------------------------------------------

@SETTINGS
@given(operators())
def test_operator_prints_as_its_reference(op):
    assert str(op) == ref_op_str(op)
    assert repr(op) == f"<WeylOp {ref_op_str(op)}>"


def test_operator_print_edge_cases():
    D = WeylOp.t() * WeylOp.d()
    cases = {
        WeylOp.zero(): "0",
        WeylOp.one(): "1",
        WeylOp.constant(-1): "-1",
        WeylOp.constant(Fraction(-6, 4)): "-3/2",
        WeylOp.t(-3) * Fraction(-1, 2): "-1/2*t^-3",
        WeylOp.d(2) - WeylOp.t(-1): "d^2 - t^-1",
        D * D + D * Fraction(2, 3) - WeylOp.one(): "t^2*d^2 + 5/3*t*d - 1",
    }
    for op, text in cases.items():
        assert str(op) == text == ref_op_str(op)


@SETTINGS
@given(st.dictionaries(st.integers(-5, 5), rationals, max_size=6))
def test_laurent_poly_repr_prints_in_the_grammar(coeffs):
    text = ref_format_terms((c, [("t", e)]) for e, c in sorted(coeffs.items(), reverse=True))
    assert repr(LaurentPoly(coeffs)) == f"<LaurentPoly {text}>"


@SETTINGS
@given(residue_lists)
def test_multiset_prints_as_its_reference(drawn):
    nums, den = drawn
    ms = ExpMultiset(nums, den)
    reps = [Fraction(x, den) for x in nums]
    assert str(ms) == ref_multiset_str(reps)
    assert ms.factors.canonical_texts() == [str(c) for c in sorted(map(ref_class, reps))]
    assert repr(ms) == f"ExpMultiset({[str(r) for r in sorted(reps)]})"


@SETTINGS
@given(st.dictionaries(rationals, st.integers(0, 3), max_size=8))
def test_factor_list_prints_as_its_reference(counts):
    fl = FactorList(counts)
    assert str(fl) == ref_factor_list_str(counts)
    assert repr(fl) == f"FactorList({ref_factor_list_str(counts)})"


@SETTINGS
@given(rationals.filter(bool), residue_lists, residue_lists)
def test_hyp_display_prints_as_its_reference(gamma, alpha, beta):
    a, b = ExpMultiset(*alpha), ExpMultiset(*beta)
    ra = [Fraction(x, alpha[1]) for x in alpha[0]]
    rb = [Fraction(x, beta[1]) for x in beta[0]]
    assert make_hyp(gamma, a, b).display() == (
        f"Hyp(gamma={gamma}; alpha={ref_multiset_str(ra)}; beta={ref_multiset_str(rb)})")


@SETTINGS
@given(st.lists(rationals, min_size=1, max_size=7).filter(any),
       st.sampled_from(["zero", "infinity"]))
def test_indicial_polynomial_prints_as_its_reference(coeffs, place):
    while not coeffs[-1]:
        coeffs.pop()
    ind = IndicialPolynomial(tuple(coeffs), place)
    assert str(ind) == ref_format_poly([c / coeffs[-1] for c in coeffs], "s")


@SETTINGS
@given(st.lists(st.integers(-12, 12), min_size=3, max_size=6).filter(lambda f: f[-1]))
def test_leftover_factors_print_as_their_reference(coeffs):
    ind = IndicialPolynomial(tuple(coeffs), "zero")
    _, leftovers = weyl._rational_root_split(list(ind.nums))
    assert ind.roots()[1] == tuple(ref_format_poly(monic(f), "s") for f in leftovers)
    op = sum((WeylOp.t(m) * c for m, c in enumerate(coeffs) if c), WeylOp.zero()) * WeylOp.d()
    _, leftovers = weyl._rational_root_split(coeffs)
    assert weyl.finite_singular_points(op)[1] == tuple(
        ref_format_poly(monic(f), "t") for f in leftovers)


@SETTINGS
@given(st.integers(1, 3).flatmap(lambda n: st.dictionaries(
    st.tuples(*[st.integers(0, 3)] * n), st.one_of(st.integers(-5, 5), rationals),
    max_size=6)))
def test_multipoly_prints_as_its_reference(terms):
    nvars = len(next(iter(terms), (0,)))
    p = MultiPoly(nvars, terms)
    assert str(p) == ref_multipoly_str(terms)
    assert repr(p) == f"<MultiPoly {ref_multipoly_str(terms)}>"


@pytest.mark.parametrize("w", [(2, 1), (3, 2, 1), (1, 1, 1), (6, 4)])
def test_singular_fibers_print_as_their_reference(w):
    fibers = dwork.singular_fibers(w)
    coeffs = [Fraction(-1)] + [Fraction(0)] * (fibers.degree - 1) + [fibers.gamma]
    assert fibers.poly_str == ref_format_poly(coeffs, "t")


# ---------------------------------------------------------------------------
# No Fraction is built to print
# ---------------------------------------------------------------------------

def test_printing_an_operator_or_a_multiset_builds_no_fraction(monkeypatch):
    ft = dwork.ft_pair((5, 3, 2))
    ms = ExpMultiset([Fraction(1, 3), Fraction(5, 6), Fraction(7, 4), 2])
    built = []
    new = Fraction.__new__

    def spy(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(spy))
    texts = [str(ft.p), str(ft.q), str(ms)]
    monkeypatch.undo()
    assert built == []
    assert texts[2] == "[1/3, 3/4, 5/6, 1]"
    assert texts[0] == ref_op_str(ft.p) and texts[1] == ref_op_str(ft.q)


# ---------------------------------------------------------------------------
# Past the limit on int-to-text conversion
# ---------------------------------------------------------------------------

@pytest.fixture
def default_digit_limit():
    """Python's default limit of 4300 digits, for the test only; yields a
    function that runs its argument with the limit lifted."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python has no limit on int-to-text conversion")
    before = sys.get_int_max_str_digits()

    def lifted(f):
        sys.set_int_max_str_digits(0)
        try:
            return f()
        finally:
            sys.set_int_max_str_digits(4300)

    sys.set_int_max_str_digits(4300)
    try:
        yield lifted
    finally:
        sys.set_int_max_str_digits(before)


def test_singular_fibers_print_past_the_limit(default_digit_limit):
    fibers = dwork.singular_fibers((1600, 1))
    g = fibers.gamma
    expected = default_digit_limit(lambda: f"{g}*t^1601 - 1")
    assert len(expected) > 2 * 4300
    assert fibers.poly_str == expected


def test_operator_prints_past_the_limit(default_digit_limit):
    c = Fraction(10**5000 + 7, 3)
    op = WeylOp.constant(c)
    expected = default_digit_limit(lambda: str(c))
    assert str(op) == expected
    assert expected == "1" + "0" * 4999 + "7/3"
    assert str(op * WeylOp.t(-2) * -1) == "-" + expected + "*t^-2"


def test_coefficient_parses_back_past_the_limit(default_digit_limit):
    op = WeylOp.constant(Fraction(10**5000 + 7, 3)) * WeylOp.d()
    text = str(op)
    assert text == "1" + "0" * 4999 + "7/3*d"
    assert weyl.parse_op(text) == op
    threes = "3" * 4400
    den = default_digit_limit(lambda: int(threes))
    assert weyl.parse_op("1/" + threes + "*d") == WeylOp.constant(Fraction(1, den)) * WeylOp.d()
    # digits of any script, in a run split in two as in a short one
    assert weyl.parse_op("\u0661\u0662/\u0663*d") == weyl.parse_op("4*d")
    arabic = text.translate({0x30 + i: 0x0660 + i for i in range(10)})
    assert weyl.parse_op(arabic) == op


def test_t_exponent_parses_back_past_the_limit(default_digit_limit):
    op = WeylOp.t(10**5000) - WeylOp.t(-(10**5000) - 1) * WeylOp.d()
    text = str(op)
    assert text == "-t^-1" + "0" * 4999 + "1*d + t^1" + "0" * 5000
    assert weyl.parse_op(text) == op
    # a power above the limit is refused by name, its exponent printed in full
    with pytest.raises(weyl.ParseError, match="exponent 1{5000} is above the limit 4096"):
        weyl.parse_op("d^" + "1" * 5000)


def test_hyp_display_prints_past_the_limit(default_digit_limit):
    gamma = dwork.singular_fibers((1600, 1)).gamma
    h = make_hyp(gamma, [Fraction(1, 2)], [Fraction(1, 3)])
    expected = default_digit_limit(
        lambda: f"Hyp(gamma={gamma}; alpha=[1/2]; beta=[1/3])")
    assert h.display() == expected


def test_digits_split_at_every_size(default_digit_limit):
    for n in [10**4300 - 1, 10**4300, 10**4301 + 1, 7**20000, -(10**9000) - 12,
              10**12000 * 3 + 10**6000]:
        expected = default_digit_limit(lambda: str(n))
        assert weyl._digits(n) == expected
        assert weyl._ratio(n * 4, 6) == default_digit_limit(lambda: str(Fraction(2 * n, 3)))


def test_report_json_past_the_limit(default_digit_limit):
    # at d = 1601 gamma has more than 4300 digits in its denominator
    gb = dwork.g_block((1600, 1))
    doc = json.dumps(gb.as_json())
    assert default_digit_limit(lambda: str(gb.finite_singularity)) in doc
