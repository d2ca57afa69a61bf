import functools
import math
import random
import time
from fractions import Fraction

import pytest

from conftest import random_hyp_data
from dworkgm.hypergeom import ExpMultiset, hyp_operator
from dworkgm.weyl import (IndicialPolynomial, LaurentPoly, ParseError, WeylOp,
                          euler_factorization, euler_op, euler_product, fourier,
                          fuchs_regular, indicial_polynomial, mobius_infinity,
                          parse_op, singular_support, _euler_difference,
                          _rational_root_split)


def rand_op(rng, localized=False, terms=4):
    coeffs = []
    for _ in range(rng.randint(0, terms)):
        k = rng.randint(0, 6)
        m = rng.randint(-6 if localized else 0, 6)
        c = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        while len(coeffs) <= k:
            coeffs.append(LaurentPoly())
        coeffs[k] = coeffs[k] + LaurentPoly.term(c, m)
    return WeylOp(coeffs)


def substitute(op, t_image, d_image):
    """sum c * t_image^m * d_image^k over the monomials c*t^m*d^k of op, built
    one monomial at a time from WeylOp multiplication and addition only."""
    out = WeylOp.zero()
    for k, m, c in op.monomials():
        out = out + WeylOp.constant(c) * t_image ** m * d_image ** k
    return out


def oracle_operators(seed):
    """Seeded sparse operators with unrelated denominators, then dense
    hypergeometric operators with parameter denominators up to 12."""
    rng = random.Random(seed)
    ops = [rand_op(rng, localized=True) for _ in range(150)]
    ops += [hyp_operator(h) for h in random_hyp_data(30, seed=seed, max_den=12)]
    return ops


# -- parser ------------------------------------------------------------------

def test_parse_euler_minus_half():
    op = parse_op("D - 1/2")
    assert op.coeff(1) == LaurentPoly.term(1, 1)
    assert op.coeff(0) == LaurentPoly.term(Fraction(-1, 2))


def test_parse_commutator_desugars():
    assert parse_op("d*t") == parse_op("t*d + 1")
    assert parse_op("t^-1 * D") == parse_op("d")


def test_parse_print_round_trip():
    samples = ["D - 1/2", "t^2*d^2 + t*d", "-1/2*t^-3 + d^4", "0",
               "3*t^5*d^2 - 7/4*d + 2", "t^-1"]
    for text in samples:
        op = parse_op(text)
        assert parse_op(str(op)) == op
    rng = random.Random(5)
    for _ in range(200):
        op = rand_op(rng, localized=True)
        assert parse_op(str(op)) == op


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as err:
        parse_op("t + * d")
    assert err.value.position == 4
    with pytest.raises(ParseError, match="rational literal"):
        parse_op("t/2")
    with pytest.raises(ParseError, match="rational literal"):
        parse_op("(1+1)/2")
    with pytest.raises(ParseError, match="only on t"):
        parse_op("d^-1")
    with pytest.raises(ParseError, match="only on t"):
        parse_op("(t)^-1")
    with pytest.raises(ParseError, match="denominator"):
        parse_op("1/0")
    with pytest.raises(ParseError):
        parse_op("t +")


def test_parse_reads_only_decimal_digits():
    # '²' is a digit to str.isdigit but not a decimal one, so int() refused it
    with pytest.raises(ParseError, match="unexpected character '²'") as err:
        parse_op("t^²")
    assert err.value.position == 2
    assert str(parse_op("t*٣")) == "3*t"  # ARABIC-INDIC DIGIT THREE
    # a '/' after a rational literal is refused by term, one at the start by atom
    with pytest.raises(ParseError, match="rational literal") as err:
        parse_op("1/2/3")
    assert err.value.position == 3
    with pytest.raises(ParseError, match="rational literal") as err:
        parse_op("/2")
    assert err.value.position == 0


def nested(levels: int, inner: str = "t") -> str:
    return "(" * levels + inner + ")" * levels


def test_parse_nesting_is_limited_to_100_levels():
    def at_depth(frames: int, text: str):
        return at_depth(frames - 1, text) if frames else parse_op(text)

    # 100 levels parse, also with 200 frames already on the stack, and the
    # depth is counted per nest, not per parenthesis in the input
    assert at_depth(200, nested(100)) == WeylOp.t()
    assert parse_op(nested(100) + "*" + nested(100, "d")) == parse_op("t*d")
    for text, position in ((nested(101), 100), (nested(250), 100),
                           ("t + " + nested(101, "d"), 104)):
        with pytest.raises(ParseError, match="deeper than 100 levels") as err:
            parse_op(text)
        assert err.value.position == position
        assert text[position] == "("


def test_parse_powers_are_limited_to_4096():
    # the limit itself parses: d^4096 has 4097 rows, (t)^4096 is 4096 products
    assert parse_op("d^4096") == WeylOp.d(4096)
    assert parse_op("(t)^4096") == WeylOp.t(4096)
    # a bare t builds one monomial, whatever its exponent
    assert parse_op("t^1000000000") == WeylOp.t(10 ** 9)
    assert parse_op("t^-4097") == WeylOp.t(-4097)
    for text in ("d^4097", "D^4097", "(t)^4097", "t + 2*d^1000000000"):
        with pytest.raises(ParseError, match="above the limit 4096") as err:
            parse_op(text)
        assert err.value.position == text.index("^") + 1


def test_parse_powers_keep_their_work_bound():
    # refused from the base's shape before any product: the first four took
    # seconds to hours by repeated products, (d + t)^91 is just past the bound
    for text in ("(d+t)^4096", "D^4096", "(1+t)^4096", "(2*d)^4096", "(d + t)^91"):
        start = time.process_time()
        with pytest.raises(ParseError, match="above the work limit 1000000") as err:
            parse_op(text)
        assert time.process_time() - start < 0.1
        assert err.value.position == text.index("^") + 1
    # a monomial base costs one Leibniz step per product
    assert parse_op("(t)^4096") == WeylOp.t(4096)
    assert parse_op("(d + t)^90") == (WeylOp.d() + WeylOp.t()) ** 90


def _ref_unweighted_power_work(base, n):
    """The work bound of ``weyl._power_work`` without coefficient sizes:
    Leibniz steps and rows only, each step counted once."""
    cells = [(m, k) for k, row in enumerate(base._rows) for m in row]
    r = len(base._rows) - 1
    weights = {m - k for m, k in cells}
    low = min(weights)
    step = functools.reduce(math.gcd, [w - low for w in weights], 0)
    spread = (max(weights) - low) // step if step else 0
    b = max(m for m, _ in cells)
    if min(m for m, _ in cells) < 0:
        b = r * n
    work, sums = 0, 1
    for j in range(n):
        if j:
            sums = sums * (j + len(weights) - 1) // j
        work += ((j + 1) * r + 1 + min(sums, j * spread + 1) * (j * r + 1)
                 * len(cells) * (min(j * r, b) + 1))
    return work


def test_parse_powers_weigh_coefficient_size():
    from dworkgm.weyl import _power_work
    # (c/7*D)^800 with a 97-bit c was within the unweighted bound and took
    # seconds, every Leibniz step multiplying integers of thousands of bits
    for text in ("(123456789012345678901234567890/7*D)^800", "(2*D)^815",
                 "(1000*D)^400", "(2*d + t)^90"):
        start = time.process_time()
        with pytest.raises(ParseError, match="above the work limit 1000000") as err:
            parse_op(text)
        assert time.process_time() - start < 0.05
        assert err.value.position == text.index("^") + 1
    # bases whose steps stay within one 64-bit word keep the unweighted bound
    for text, n in (("D", 815), ("d + t", 90), ("t^2*d", 706), ("d^3 + t^3", 49),
                    ("1 + t", 999), ("D", 4096), ("d + t", 4096)):
        base = parse_op(text)
        assert _power_work(base, n) == _ref_unweighted_power_work(base, n)
    op = parse_op("D^815")
    assert op.order() == 815 and op == parse_op(str(op))


def test_parse_precedence_and_power():
    assert parse_op("2^3") == WeylOp.constant(8)
    assert parse_op("t^2*d + 1") == parse_op("(t^2)*(d) + 1")
    assert parse_op("-D") == -euler_op()


def test_parse_sign_makes_no_product(monkeypatch):
    calls = []
    mul = WeylOp.__mul__

    def counted(self, other):
        calls.append(other)
        return mul(self, other)

    monkeypatch.setattr(WeylOp, "__mul__", counted)
    half = WeylOp.constant(Fraction(1, 2))
    assert parse_op("t + d - 1/2") == WeylOp.t() + WeylOp.d() - half
    assert parse_op("-t") == -WeylOp.t()
    assert parse_op("+t") == WeylOp.t()
    assert calls == []


# -- ring arithmetic -----------------------------------------------------------

def test_commutation_relation():
    t, d = WeylOp.t(), WeylOp.d()
    assert d * t - t * d == WeylOp.one()


def test_euler_squared():
    # expand by hand with the commutation rule: D*D = t^2 d^2 + t d
    assert euler_op() * euler_op() == parse_op("t^2*d^2 + t*d")


def test_euler_operators_commute():
    a, b = Fraction(2, 3), Fraction(-5, 7)
    left = (euler_op() - WeylOp.constant(a)) * (euler_op() - WeylOp.constant(b))
    right = (euler_op() - WeylOp.constant(b)) * (euler_op() - WeylOp.constant(a))
    assert left == right


def test_ring_laws_on_random_operators():
    rng = random.Random(42)
    for _ in range(1000):
        a, b, c = (rand_op(rng, localized=True, terms=3) for _ in range(3))
        assert (a + b) * c == a * c + b * c
        assert (a * b) * c == a * (b * c)


def test_d_power_times_t_power_matches_leibniz_closed_form():
    # d^a t^b = sum_j C(a,j) * b(b-1)...(b-j+1) * t^(b-j) d^(a-j), built
    # from the constructors alone, with no operator multiplication
    for a in range(7):
        for b in range(-4, 7):
            coeffs = [LaurentPoly() for _ in range(a + 1)]
            for j in range(a + 1):
                falling = math.prod(b - i for i in range(j))
                coeffs[a - j] = LaurentPoly.term(math.comb(a, j) * falling, b - j)
            assert WeylOp.d(a) * WeylOp.t(b) == WeylOp(coeffs)


def test_euler_factorization_small():
    assert euler_factorization(1) == euler_op()
    assert euler_factorization(2) == parse_op("t^2*d^2")


def test_euler_factorization_matches_power():
    for d in range(1, 13):
        assert euler_factorization(d) == WeylOp.t(d) * WeylOp.d(d)


def test_euler_product_matches_repeated_multiplication():
    rng = random.Random(11)
    for _ in range(50):
        constants = [Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                     for _ in range(rng.randint(0, 6))]
        by_product = WeylOp.one()
        for c in constants:
            by_product = by_product * (euler_op() - WeylOp.constant(c))
        assert euler_product(constants) == by_product


def test_euler_difference_with_sign_minus_one_is_the_negation():
    rng = random.Random(32)

    def product():
        den = rng.randint(1, 12)
        return [rng.randint(-30, 30) for _ in range(rng.randint(0, 7))], den

    for _ in range(200):
        c = Fraction(rng.choice([-1, 1]) * rng.randint(1, 10 ** rng.randint(1, 12)),
                     rng.randint(1, 10 ** rng.randint(0, 6)))
        a, b = product(), product()
        m, k = rng.randint(-4, 8), rng.randint(0, 6)
        op = _euler_difference(c, a, b, m, k)
        negated = _euler_difference(c, a, b, m, k, sign=-1)
        assert negated == -op and hash(negated) == hash(-op) and str(negated) == str(-op)
        assert _euler_difference(c, a, b, m, k, sign=1) == op


def test_equal_laurent_polynomials_hash_equal():
    a = LaurentPoly({-2: Fraction(3, 4), 5: 1})
    b = LaurentPoly.term(1, 5) + LaurentPoly.term(Fraction(6, 8), -2)
    assert a == b and a is not b and hash(a) == hash(b)
    assert len({a, b, LaurentPoly.term(1, 5), LaurentPoly()}) == 3


def test_equality_with_a_foreign_type_is_not_implemented():
    # neither a LaurentPoly nor a WeylOp equals a number, even a constant one
    three = LaurentPoly.term(3)
    assert three.__eq__(3) is NotImplemented and three != 3
    assert three.__eq__(Fraction(3)) is NotImplemented
    assert LaurentPoly().__eq__(0) is NotImplemented and LaurentPoly() != 0
    op = WeylOp.constant(3)
    assert op.__eq__(3) is NotImplemented and op != 3
    assert op.__eq__(three) is NotImplemented and op != three


# -- Fourier substitution -------------------------------------------------------

def test_fourier_generators():
    assert fourier(parse_op("t")) == parse_op("d")
    assert fourier(parse_op("d")) == parse_op("-t")
    # d*(-t) = -t*d - 1
    assert fourier(euler_op()) == parse_op("-D - 1")


def test_fourier_is_ring_map():
    rng = random.Random(7)
    for _ in range(200):
        a, b = rand_op(rng), rand_op(rng)
        assert fourier(a * b) == fourier(a) * fourier(b)
        assert fourier(a + b) == fourier(a) + fourier(b)


def test_fourier_inverse_round_trip():
    rng = random.Random(8)
    for _ in range(200):
        a = rand_op(rng)
        assert fourier(fourier(a, "forward"), "inverse") == a
        assert fourier(fourier(a, "inverse"), "forward") == a


def test_fourier_matches_monomial_substitution():
    t, d = WeylOp.t(), WeylOp.d()
    for op in oracle_operators(11):
        op = WeylOp.t(6) * op  # polynomial coefficients
        # c*t^m*d^k -> c*d^m*(-t)^k forward, c*(-d)^m*t^k inverse
        assert fourier(op) == substitute(op, d, t * -1)
        assert fourier(op, "inverse") == substitute(op, d * -1, t)


def test_fourier_rejects_laurent():
    with pytest.raises(ValueError, match="t\\^-1"):
        fourier(parse_op("t^-1"))


# -- point at infinity ----------------------------------------------------------

def test_mobius_examples():
    alpha = Fraction(3, 4)
    assert mobius_infinity(euler_op() - WeylOp.constant(alpha)) == \
        parse_op("-D - 3/4")
    assert mobius_infinity(parse_op("t")) == parse_op("t^-1")


def test_mobius_matches_monomial_substitution():
    # c*t^m*d^k -> c*t^(-m)*(-t^2*d)^k
    for op in oracle_operators(12):
        image = WeylOp.zero()
        for k, m, c in op.monomials():
            image = image + (WeylOp.constant(c) * WeylOp.t(-m)
                             * (WeylOp.t(2) * WeylOp.d() * -1) ** k)
        assert mobius_infinity(op) == image


def test_mobius_involution():
    rng = random.Random(9)
    for _ in range(300):
        a = rand_op(rng, localized=True)
        assert mobius_infinity(mobius_infinity(a)) == a


def test_mobius_is_ring_map():
    rng = random.Random(10)
    for _ in range(100):
        a, b = rand_op(rng, localized=True, terms=3), rand_op(rng, localized=True, terms=3)
        assert mobius_infinity(a * b) == mobius_infinity(a) * mobius_infinity(b)


def test_mobius_moves_hypergeometric_singularity():
    # gamma*(D - a) - t*(D - b) has its finite singularity at gamma;
    # in the coordinate at infinity it sits at 1/gamma.
    gamma = Fraction(1, 4)
    op = parse_op("1/4*(D - 1/2) - t*(D - 1/3)")
    moved = mobius_infinity(op)
    assert singular_support(moved).finite_rational == (1 / gamma,)


# -- indicial polynomials ---------------------------------------------------------

def test_indicial_kummer_both_places():
    op = parse_op("D - 1/2")
    for place in ("zero", "infinity"):
        ind = indicial_polynomial(op, place)
        assert ind.coeffs == (Fraction(-1, 2), Fraction(1))
        assert dict(ind.roots()[0]) == {Fraction(1, 2): 1}


def test_indicial_of_pure_derivation():
    ind = indicial_polynomial(parse_op("d"), "zero")
    assert dict(ind.roots()[0]) == {Fraction(0): 1}


def test_indicial_worked_hypergeometric():
    # gamma = 1/432, alpha = (0, 0), beta = (1/6, 5/6)
    op = parse_op("1/432*D*D - t*(D - 1/6)*(D - 5/6)")
    at_zero = indicial_polynomial(op, "zero")
    assert at_zero.coeffs == (Fraction(0), Fraction(0), Fraction(1))  # s^2
    assert dict(at_zero.roots()[0]) == {Fraction(0): 2}
    at_inf = indicial_polynomial(op, "infinity")
    assert dict(at_inf.roots()[0]) == {Fraction(1, 6): 1, Fraction(5, 6): 1}


def test_indicial_rejects_zero_operator():
    with pytest.raises(ValueError):
        indicial_polynomial(WeylOp.zero(), "zero")


def test_has_roots_exactly_is_product_comparison():
    ind = indicial_polynomial(parse_op("(D - 2)*(D - 1/3)"), "zero")
    assert ind.has_roots_exactly([2, Fraction(1, 3)])
    assert not ind.has_roots_exactly([2, Fraction(2, 3)])
    assert not ind.has_roots_exactly([2])


def test_has_roots_exactly_edge_cases():
    one = IndicialPolynomial((Fraction(1),), "zero")
    linear = IndicialPolynomial((Fraction(-1, 2), Fraction(1)), "zero")
    assert one.has_roots_exactly([])
    assert not linear.has_roots_exactly([])
    assert not one.has_roots_exactly([Fraction(1, 2)])
    # multiset length differs from the degree
    assert linear.has_roots_exactly([Fraction(1, 2)])
    assert not linear.has_roots_exactly([Fraction(1, 2)] * 2)
    # s^2 + s - 1/2 shares its two low coefficients with s - 1/2
    quadratic = IndicialPolynomial((Fraction(-1, 2), Fraction(1), Fraction(1)),
                                   "zero")
    assert not quadratic.has_roots_exactly([Fraction(1, 2)])
    # coprime denominators: (s - 1/7)(s - 1/11)(s - 1/13)
    roots = [Fraction(1, 7), Fraction(1, 11), Fraction(1, 13)]
    coeffs = (Fraction(-1, 1001), Fraction(31, 1001), Fraction(-311, 1001),
              Fraction(1))
    cubic = IndicialPolynomial(coeffs, "zero")
    assert cubic.has_roots_exactly(roots)
    assert cubic.has_roots_exactly(reversed(roots))  # any iterable, any order
    assert indicial_polynomial(
        parse_op("(D - 1/7)*(D - 1/11)*(D - 1/13)"), "zero") == cubic
    # a near miss: one coefficient off by 1/1001
    for i in range(3):
        near = list(coeffs)
        near[i] += Fraction(1, 1001)
        assert not IndicialPolynomial(tuple(near), "zero").has_roots_exactly(roots)
    assert not cubic.has_roots_exactly([Fraction(1, 7), Fraction(1, 11),
                                        Fraction(2, 13)])


def test_indicial_roots_with_irrational_part():
    # (D^2 - 2)(D - 1/2): rational root 1/2, irreducible factor s^2 - 2
    ind = indicial_polynomial(parse_op("(D*D - 2)*(D - 1/2)"), "zero")
    rational, leftovers = ind.roots()
    assert rational == ((Fraction(1, 2), 1),)
    assert leftovers == ("s^2 - 2",)


# -- singular support ---------------------------------------------------------------

def test_kummer_has_no_finite_singularity():
    ss = singular_support(parse_op("D - 2/3"))
    assert ss.finite_rational == ()
    assert ss.regular_at_zero and ss.regular_at_infinity


def test_confluent_shape_is_irregular_at_infinity():
    # gamma*(D - a) - t, type (1, 0)
    ss = singular_support(parse_op("3*(D - 1/2) - t"))
    assert ss.regular_at_zero
    assert not ss.regular_at_infinity


def test_fuchs_regular_hand_cases():
    # d - 1: weight 0 in degree 0 beats weight -1 in degree 1 at infinity
    assert fuchs_regular(parse_op("d - 1"), "zero")
    assert not fuchs_regular(parse_op("d - 1"), "infinity")
    # t^2*d + 1: weight 0 in degree 0 undercuts weight 1 in degree 1 at zero
    assert not fuchs_regular(parse_op("t^2*d + 1"), "zero")
    assert fuchs_regular(parse_op("t^2*d + 1"), "infinity")
    with pytest.raises(ValueError, match="unknown place"):
        fuchs_regular(parse_op("D - 1/2"), "middle")
    with pytest.raises(ValueError, match="unknown place"):
        indicial_polynomial(parse_op("D - 1/2"), "middle")
    with pytest.raises(ValueError):
        fuchs_regular(WeylOp.zero(), "zero")


def test_singular_support_irrational_points_stay_factored():
    # leading coefficient t^2 - 2: no rational root, factor reported
    ss = singular_support(parse_op("(t^2 - 2)*d + 1"))
    assert ss.finite_rational == ()
    assert ss.other_factors == ("t^2 - 2",)


def test_singular_support_rejects_zero():
    with pytest.raises(ValueError):
        singular_support(WeylOp.zero())


def test_printer_is_deterministic():
    op = parse_op("1/3*t^2*d^2 - t*d + 5 - t^-2")
    assert str(op) == str(parse_op(str(op)))
    assert str(WeylOp.zero()) == "0"


# -- exactness and the integer form ------------------------------------------------

@pytest.mark.parametrize("build", [
    lambda: WeylOp.constant(0.1),
    lambda: LaurentPoly({0: 0.1}),
    lambda: LaurentPoly.term(0.5, 2),
    lambda: euler_product([Fraction(1, 3), 0.1]),
    lambda: WeylOp.one() * 0.5,
    lambda: 0.5 * WeylOp.one(),
    lambda: WeylOp.one() + 0.5,
    lambda: IndicialPolynomial((0.5, 1), "zero").roots(),
    lambda: WeylOp.one() - 0.5,
])
def test_floats_are_refused_by_the_weyl_core(build):
    # WeylOp.constant(0.1) would otherwise hold 3602879701896397/2^55
    with pytest.raises(TypeError):
        build()


@pytest.mark.parametrize("build", [
    lambda: WeylOp.t(1.5),
    lambda: WeylOp.t(Fraction(3, 2)),
    lambda: LaurentPoly({1.5: 1}),
    lambda: LaurentPoly({"2": 1}),
    lambda: WeylOp.d(1.5),
])
def test_non_integer_exponents_are_refused(build):
    # int() truncated: WeylOp.t(1.5) was t and LaurentPoly({"2": 1}) was t^2
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        build()


def test_d_power_rows_are_distinct():
    # _from_numerators edits rows in place, so no two rows may be one dict
    rows = WeylOp.d(3)._rows
    assert len({id(row) for row in rows}) == len(rows) == 4
    assert WeylOp.d(3) == WeylOp.d() ** 3


def test_integer_coefficients_give_fraction_roots():
    # (1, 2) is 2s + 1: the root is -1/2, never -0.5
    rational, leftovers = IndicialPolynomial((1, 2), "zero").roots()
    assert rational == ((Fraction(-1, 2), 1),) and leftovers == ()
    assert type(rational[0][0]) is Fraction
    # 2s^2 - 3s + 1 = (2s - 1)(s - 1)
    rational, _ = IndicialPolynomial((1, -3, 2), "zero").roots()
    assert rational == ((Fraction(1, 2), 1), (Fraction(1), 1))
    assert all(type(r) is Fraction for r, _ in rational)
    # 2s^2 + 1 has no rational root: its monic leftover is s^2 + 1/2
    assert IndicialPolynomial((1, 0, 2), "zero").roots() == ((), ("s^2 + 1/2",))


def test_euler_product_integer_form():
    nums, den = [3, -2, 0, 12, 7], 6
    by_fractions = euler_product([Fraction(n, den) for n in nums])
    assert euler_product(nums, den) == by_fractions
    assert hash(euler_product(nums, den)) == hash(by_fractions)
    # a denominator that is not minimal gives the same operator
    assert euler_product([2 * n for n in nums], 2 * den) == by_fractions
    assert euler_product([], 5) == WeylOp.one()


def test_indicial_polynomial_is_monic_by_construction():
    # (1, 2) is 2s + 1, the same polynomial as s + 1/2
    p = IndicialPolynomial((1, 2), "zero")
    assert str(p) == "s + 1/2"
    assert p.coeffs == (Fraction(1, 2), Fraction(1))
    assert p == IndicialPolynomial((Fraction(1, 2), 1), "zero")
    assert hash(p) == hash(IndicialPolynomial((Fraction(-3, 2), -3), "zero"))
    assert p.has_roots_exactly([Fraction(-1, 2)]) and p.has_roots_exactly([-1], 2)
    assert p.roots() == (((Fraction(-1, 2), 1),), ())
    # trailing zeros are dropped: s - 1/2 has degree 1
    q = IndicialPolynomial((Fraction(-1, 2), 1, 0), "zero")
    assert q.degree == 1 and q.has_roots_exactly([Fraction(1, 2)])
    assert q == indicial_polynomial(parse_op("D - 1/2"), "zero")
    for coeffs, place in [((), "zero"), ((0, 0), "infinity"), ((1,), "one")]:
        with pytest.raises(ValueError):
            IndicialPolynomial(coeffs, place)
    with pytest.raises(ValueError):
        indicial_polynomial(parse_op("D"), "one")


def test_a_scale_below_one_is_refused():
    # with den = 0 every product would vanish and any claim would pass
    ind = IndicialPolynomial((Fraction(-1, 2), 1), "zero")
    for build in (lambda: ind.has_roots_exactly([1], 0),
                  lambda: euler_product([1], 0),
                  lambda: ExpMultiset([1], -2)):
        with pytest.raises(ValueError):
            build()


@pytest.mark.parametrize("build, message", [
    (lambda: WeylOp.d(-1), "d admits no negative powers"),
    (lambda: WeylOp.zero().order(), "order of the zero operator"),
    (lambda: parse_op("d + t") ** -1, "operators admit no negative powers"),
    (lambda: euler_factorization(0), "d must be a positive integer"),
    (lambda: fourier(parse_op("d"), "sideways"), "unknown direction 'sideways'"),
    (lambda: _rational_root_split([0, 0]), "zero polynomial has no root data"),
], ids=["d_power", "zero_order", "power", "euler_factorization", "fourier",
        "root_split"])
def test_out_of_domain_arguments_are_refused(build, message):
    with pytest.raises(ValueError, match=message):
        build()
