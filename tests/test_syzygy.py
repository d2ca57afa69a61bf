import math
import random
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product

import pytest

from conftest import package_env
from dworkgm import syzygy
from dworkgm.syzygy import (DEGREE_LIMIT, InvariantError, MultiPoly,
                            SyzygyVector, family_poly, generation_oracle,
                            jacobian_generators, l_poly,
                            syzygy_dimension_table, syzygy_generators,
                            verify_syzygies)
from conftest import ref_format_terms

F = Fraction

x1 = MultiPoly.variable(0, 2)
x2 = MultiPoly.variable(1, 2)


# -- polynomial arithmetic ------------------------------------------------------

def test_partial_derivative():
    assert (x1 ** 2 * x2).partial(0) == 2 * x1 * x2


def test_partial_index_out_of_range():
    p = 3 * x1 * x2 ** 2
    for i in (-1, 2):
        with pytest.raises(IndexError):
            p.partial(i)


def test_variable_index_out_of_range():
    for i in (-1, 2):
        with pytest.raises(IndexError, match="variable index out of range"):
            MultiPoly.variable(i, 2)


def test_degree_of_the_zero_polynomial_is_refused():
    with pytest.raises(ValueError, match="degree of the zero polynomial"):
        MultiPoly.zero(2).degree()


def test_negative_power_is_refused():
    with pytest.raises(ValueError, match="negative power of a polynomial"):
        x1 ** -1


def test_l_poly_index_out_of_range():
    for i in (0, 3):
        with pytest.raises(IndexError, match="variable index out of range"):
            l_poly((1, 2, 3), i)


def test_weights_need_two_positive_entries():
    for w in ((), (3,), (1, 0), (2, -1, 1)):
        with pytest.raises(ValueError, match="need at least two positive weights"):
            family_poly(w)


def test_equal_polynomials_hash_equal():
    a = (x1 + x2) * (x1 - x2)
    b = MultiPoly(2, {(2, 0): 1, (0, 2): F(-2, 2)})
    assert a == b and a is not b and hash(a) == hash(b)
    assert len({a, b, x1 ** 2, MultiPoly.zero(2)}) == 3
    # a vector of them is hashable too, equal vectors hashing equal
    first, again = syzygy_generators((2, 3, 1)), syzygy_generators((2, 3, 1))
    assert first == again and list(map(hash, first)) == list(map(hash, again))
    assert len(set(first + again)) == 2


def test_equality_with_a_foreign_type_is_not_implemented():
    assert x1.__eq__(1) is NotImplemented
    assert x1.__eq__("x1") is NotImplemented
    assert x1 != 1 and MultiPoly.constant(2, 1) != 1
    assert MultiPoly.zero(2) != 0


def test_product_with_a_foreign_type_is_not_implemented():
    foreign = None
    assert x1.__mul__(foreign) is NotImplemented
    for product in (lambda: x1 * foreign, lambda: foreign * x1):
        with pytest.raises(TypeError, match="unsupported operand"):
            product()


def test_product_of_conjugates():
    assert (x1 + x2) * (x1 - x2) == x1 ** 2 - x2 ** 2


def test_poly_str_grammar_fragment():
    assert str(x1 ** 2 * x2 + x1 * x2 ** 2) == "x1^2*x2 + x1*x2^2"
    assert str(MultiPoly.zero(2)) == "0"


def test_negative_exponent_is_rejected():
    with pytest.raises(ValueError):
        MultiPoly(2, {(1, -1): 1})


def test_exponents_of_a_zero_coefficient_are_checked():
    # a zero coefficient is dropped, but its exponent vector is still checked
    for exps in ((1, 2, 3), (1, -2)):
        for c in (0, 1):
            with pytest.raises(ValueError):
                MultiPoly(2, {exps: c})
    assert MultiPoly(2, {(1, 2): 0}).is_zero


def test_non_integer_exponents_are_refused():
    for e in (1.5, F(3, 2), "2"):
        with pytest.raises(TypeError):
            MultiPoly(1, {(e,): 1})


def test_degree_beyond_a_key_field_is_rejected():
    top = MultiPoly(1, {(DEGREE_LIMIT - 1,): 1})
    assert top.degree() == DEGREE_LIMIT - 1
    # each exponent fits its field, but the total degree does not
    with pytest.raises(ValueError):
        MultiPoly(2, {(DEGREE_LIMIT - 1, 1): 1})
    with pytest.raises(ValueError):
        MultiPoly(1, {(DEGREE_LIMIT,): 1})


def test_product_beyond_a_key_field_is_rejected():
    half = DEGREE_LIMIT // 2
    a = MultiPoly(2, {(half, 0): 1, (0, 1): 3})
    assert (a * MultiPoly(2, {(0, half - 1): 2})).degree() == DEGREE_LIMIT - 1
    with pytest.raises(ValueError):
        a * MultiPoly(2, {(0, half): 2})


# -- the packed representation against a tuple-keyed reference -------------------

def _ref_clean(c):
    return {k: v for k, v in c.items() if v}


def _ref_add(a, b):
    c = dict(a)
    for k, v in b.items():
        c[k] = c.get(k, 0) + v
    return _ref_clean(c)


def _ref_mul(a, b):
    c = {}
    for k1, v1 in a.items():
        for k2, v2 in b.items():
            k = tuple(x + y for x, y in zip(k1, k2))
            c[k] = c.get(k, 0) + v1 * v2
    return _ref_clean(c)


def _ref_partial(a, i):
    return _ref_clean({k[:i] + (k[i] - 1,) + k[i + 1:]: v * k[i]
                       for k, v in a.items() if k[i]})


def _ref_grlex(a):
    return sorted(a, key=lambda e: (sum(e), e))


def _ref_divide(a, b):
    """The quotient a / b by grlex long division, None when not exact; an
    integral coefficient of the quotient is an int."""
    lead = _ref_grlex(b)[-1]
    rem, quo = dict(a), {}
    while rem:
        lt = _ref_grlex(rem)[-1]
        diff = tuple(x - y for x, y in zip(lt, lead))
        if min(diff) < 0:
            return None
        c = F(rem[lt]) / F(b[lead])
        quo[diff] = c.numerator if c.denominator == 1 else c
        rem = _ref_add(rem, _ref_mul({diff: -quo[diff]}, b))
    return quo


def _rand_terms(rng, nvars):
    terms = {}
    for _ in range(rng.randint(1, 6)):
        exps = tuple(rng.randint(0, 5) for _ in range(nvars))
        terms[exps] = rng.choice((rng.randint(-6, 6), F(rng.randint(-6, 6),
                                                         rng.randint(1, 4))))
    return _ref_clean(terms)


def test_packed_keys_match_tuple_reference():
    rng = random.Random(2024)
    for _ in range(300):
        nvars = rng.randint(1, 4)
        a, b = _rand_terms(rng, nvars), _rand_terms(rng, nvars)
        pa, pb = MultiPoly(nvars, a), MultiPoly(nvars, b)
        assert dict(pa.items()) == a
        assert [e for e, _ in pa.items()] == _ref_grlex(a)
        assert str(pa) == ref_format_terms(
            (a[e], [(f"x{i + 1}", k) for i, k in enumerate(e)])
            for e in reversed(_ref_grlex(a)))
        assert dict((pa + pb).items()) == _ref_add(a, b)
        assert dict((pa - pb).items()) == _ref_add(a, {k: -v for k, v in b.items()})
        assert dict((pa * pb).items()) == _ref_mul(a, b)
        for i in range(nvars):
            assert dict(pa.partial(i).items()) == _ref_partial(a, i)


# -- the family polynomial ------------------------------------------------------

def test_family_poly_small():
    assert family_poly((1, 1, 1)) == x1 ** 2 * x2 + x1 * x2 ** 2


def test_family_poly_one_variable():
    for w in ((1, 1), (2, 3), (4, 1)):
        f = family_poly(w)
        x = MultiPoly.variable(0, 1)
        assert f == x ** sum(w)


def test_family_poly_degree_is_weight_sum():
    for w in ((1, 2, 3), (2, 2, 1, 1), (3, 1, 4)):
        f = family_poly(w)
        assert {sum(e) for e, _ in f.items()} == {sum(w)}


def test_family_poly_matches_the_power_reference():
    # sigma^{w_0} written directly against w_0 successive products
    for w in _all_tuples(4, 4) + [(40, 1, 1, 1), (6, 5, 4, 3, 2), (60, 2, 1, 1),
                                  (70, 1, 1)]:
        n = len(w) - 1
        expected = MultiPoly(n, {w[1:]: 1}) * MultiPoly.sigma(n) ** w[0]
        got = family_poly(w)
        assert got == expected and str(got) == str(expected), w


def test_family_poly_refuses_a_degree_at_the_limit():
    # d = 2^15 is refused before sigma^{w_0} is expanded; d = 2^15 - 1 builds
    with pytest.raises(ValueError, match="not below"):
        family_poly((DEGREE_LIMIT - 1, 1))
    with pytest.raises(ValueError, match="not below"):
        family_poly((DEGREE_LIMIT // 2, DEGREE_LIMIT // 2 - 1, 1))
    f = family_poly((DEGREE_LIMIT - 2, 1))
    assert f == MultiPoly(1, {(DEGREE_LIMIT - 1,): 1})
    assert f.degree() == DEGREE_LIMIT - 1


def test_checks_past_the_key_limit_are_refused_up_front(monkeypatch):
    # f builds at d = 2^15 - 1, but every check reaches degree d + 1 = 2^15:
    # refused by name before the generators are built
    def no_work(weights):
        raise AssertionError("the generators were built")

    message = (rf"weight sum d = {DEGREE_LIMIT - 1}: the syzygy checks reach "
               rf"degree d \+ 1, which must be below {DEGREE_LIMIT}")
    with monkeypatch.context() as patched:
        patched.setattr(syzygy, "jacobian_generators", no_work)
        for w in ((DEGREE_LIMIT - 2, 1), (20000, 12767), (16383, 16383, 1)):
            for call in (verify_syzygies, syzygy_generators,
                         lambda w: syzygy_dimension_table(w, DEGREE_LIMIT - 1)):
                with pytest.raises(ValueError, match=message):
                    call(w)
    # one below: the checks reach degree 2^15 - 1 and verify
    w = (DEGREE_LIMIT - 3, 1)
    assert verify_syzygies(w)
    assert [v.kind for v in syzygy_generators(w)] == ["euler"]
    assert generation_oracle(w, DEGREE_LIMIT - 1)


def test_dimension_table_refuses_a_bound_at_the_limit(monkeypatch):
    # a bound of 2^15 or more would build shift keys past the 16-bit fields;
    # it is refused before the generators are built
    def no_work(weights):
        raise AssertionError("the generators were built")

    monkeypatch.setattr(syzygy, "jacobian_generators", no_work)
    for bound in (DEGREE_LIMIT, DEGREE_LIMIT + 1, 65600):
        with pytest.raises(ValueError, match=f"{bound} is not below {DEGREE_LIMIT}"):
            syzygy_dimension_table((1, 1), bound)


# -- syzygy generators ------------------------------------------------------------

def test_one_variable_euler_only():
    gens = syzygy_generators((2, 3))
    assert len(gens) == 1 and gens[0].kind == "euler"
    assert gens[0].components[0] == MultiPoly.constant(1, -5)


def test_koszul_example():
    gens = syzygy_generators((1, 1, 1))
    koszul = gens[1]
    assert koszul.kind == "koszul(1,2)"
    assert koszul.components[0].is_zero
    assert koszul.components[1] == x1 * l_poly((1, 1, 1), 2)
    assert koszul.components[2] == -(x2 * l_poly((1, 1, 1), 1))
    assert koszul.dot(jacobian_generators((1, 1, 1))).is_zero


def test_generator_count():
    assert len(syzygy_generators((1, 1, 1, 1, 1))) == 1 + 6


def test_verify_worked_examples():
    assert verify_syzygies((1, 1, 1))
    assert verify_syzygies((2, 3, 1, 2))
    assert verify_syzygies((3, 2, 2, 1))


def test_dot_needs_one_component_per_generator():
    gens = jacobian_generators((1, 1, 1))
    euler = syzygy_generators((1, 1, 1))[0]
    with pytest.raises(ValueError):
        SyzygyVector(euler.components + (x1,), "euler").dot(gens)
    with pytest.raises(ValueError):
        SyzygyVector(euler.components[:-1], "euler").dot(gens)


def test_a_wrong_partial_fails_the_koszul_quotient_check(monkeypatch):
    w = (2, 3, 1, 2)
    real = jacobian_generators(w)
    for j in range(1, 4):
        gens = list(real)
        gens[j] = gens[j] * 2
        monkeypatch.setattr(syzygy, "jacobian_generators",
                            lambda weights, gens=gens: list(gens))
        with pytest.raises(InvariantError, match=rf"Koszul quotient x_{j}\*"):
            syzygy_generators(w)


@pytest.mark.parametrize("wrong", [
    lambda lj, x: lj * 2,
    lambda lj, x: -lj,
    lambda lj, x: lj + x,
], ids=["doubled", "negated", "extra_x1"])
def test_a_wrong_l_at_one_index_fails_the_koszul_quotient_check(monkeypatch, wrong):
    w = (2, 3, 1, 2)
    real_l_poly = syzygy.l_poly
    x = MultiPoly.variable(0, 3)
    for bad in range(1, 4):
        monkeypatch.setattr(syzygy, "l_poly", lambda w, i: (
            wrong(real_l_poly(w, i), x) if i == bad else real_l_poly(w, i)))
        with pytest.raises(InvariantError, match=rf"Koszul quotient x_{bad}\*"):
            syzygy_generators(w)


def _all_tuples(n_max, w_max):
    """Every weight tuple (w_0, ..., w_n) with 1 <= n <= n_max, 1 <= w_i <= w_max."""
    return [w for n in range(1, n_max + 1)
            for w in product(range(1, w_max + 1), repeat=n + 1)]


def _ref_generators(w):
    """The generators built from the quotients q_j = x_j*sigma*f'_j / f, each
    found by long division, with Koszul slots x_i*q_j and -x_j*q_i."""
    n = len(w) - 1
    gens = jacobian_generators(w)
    f = dict(gens[0].items())
    xs = [MultiPoly.variable(i, n) for i in range(n)]
    sigma = MultiPoly.sigma(n)
    qs = [MultiPoly(n, _ref_divide(dict((xs[j] * sigma * gens[j + 1]).items()), f))
          for j in range(n)]
    out = [SyzygyVector((MultiPoly.constant(n, -sum(w)), *xs), "euler")]
    for i, j in combinations(range(n), 2):
        components = [MultiPoly.zero(n)] * (n + 1)
        components[i + 1] = xs[i] * qs[j]
        components[j + 1] = -(xs[j] * qs[i])
        out.append(SyzygyVector(tuple(components), f"koszul({i + 1},{j + 1})"))
    return out


def test_generators_match_the_division_built_reference():
    for w in _all_tuples(3, 3) + [(60, 2, 1, 1)]:
        got, expected = syzygy_generators(w), _ref_generators(w)
        assert [v.kind for v in got] == [v.kind for v in expected]
        for v, ref in zip(got, expected, strict=True):
            assert v.components == ref.components
            assert list(map(str, v.components)) == list(map(str, ref.components))


def test_koszul_slot_without_sigma_is_not_a_syzygy():
    # x_1*l_2 with the sigma term of l_2 = w_2*sigma + w_0*x_2 dropped
    from dworkgm.syzygy import _failing_checks
    w = (2, 3, 1, 2)
    gens = [g._c for g in jacobian_generators(w)]
    vectors = syzygy_generators(w)

    def failing(vectors):
        return _failing_checks([[c._c for c in v.components] for v in vectors],
                               gens, 3)

    assert failing(vectors) == []
    koszul = vectors[1]
    assert koszul.kind == "koszul(1,2)"
    x = [MultiPoly.variable(i, 3) for i in range(3)]
    slots = list(koszul.components)
    slots[1] = x[0] * (l_poly(w, 2) - MultiPoly.sigma(3) * w[2])
    assert slots[1] == x[0] * x[1] * w[0]
    bad = SyzygyVector(tuple(slots), koszul.kind)
    assert failing([vectors[0], bad, *vectors[2:]]) == [1]


@pytest.mark.parametrize("s", range(4))
def test_a_broken_vector_is_never_handed_out(capsys, monkeypatch, s):
    # vector s of (2, 3, 1, 2), the Euler vector or one Koszul vector, with
    # one slot doubled: the identities hold, the dot does not, and no entry
    # point hands the vectors out
    from dworkgm.cli import main
    real = syzygy._syzygy_checks

    def broken(weights):
        vectors, identities = real(weights)
        vector = list(vectors[s])
        i = next(i for i, slot in enumerate(vector) if slot)
        vector[i] = {k: 2 * v for k, v in vector[i].items()}
        return vectors[:s] + [vector] + vectors[s + 1:], identities

    w = (2, 3, 1, 2)
    monkeypatch.setattr(syzygy, "_syzygy_checks", broken)
    with pytest.raises(InvariantError, match="^generators are not syzygies$"):
        syzygy_generators(w)
    with pytest.raises(InvariantError, match="^generators are not syzygies$"):
        syzygy_dimension_table(w, sum(w))
    assert main(["syzygy", "--weights", "2,3,1,2", "--json"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert '"message": "generators are not syzygies"' in err
    # the weight-only pass builds no vector, so it reads the true ones
    assert verify_syzygies(w)


def test_entry_points_take_no_private_argument():
    import inspect
    from dworkgm.dwork import consistency_checks, full_report, k_table
    for entry in (verify_syzygies, syzygy_generators, syzygy_dimension_table,
                  generation_oracle, full_report, k_table, consistency_checks):
        names = list(inspect.signature(entry).parameters)
        assert names and not [n for n in names if n.startswith("_")], entry


def test_packed_fields_at_the_width_edge():
    # with M = 2^70 the largest generator coefficient and N = 1 the largest
    # check norm, the bound is B = M*N: check 0 reaches B, check 2 reaches -B
    # in the top field, and check 1 is -1.  At width bit_length(B) - 1 = 70
    # the fields of checks 0 and 1 cancel, 2^70 - 1 * 2^70 = 0, so the pair
    # is missed unless the fields are wide enough
    from dworkgm.syzygy import _failing_checks
    big = 2**70
    gens = [{0: big}, {0: 1}]
    checks = [[{0: 1}, {}], [{}, {0: -1}], [{0: -1}, {}]]
    assert _failing_checks(checks, gens, 1) == [0, 1, 2]
    assert _failing_checks(checks[:2], gens, 1) == [0, 1]
    # packed at that width, check 0's value and check 1's shifted value cancel
    narrow = big.bit_length() - 1
    assert big + (-1 << narrow) == 0
    # a vanishing check between failing ones, and none failing
    zero = [{0: 1}, {0: -big}]
    assert _failing_checks([checks[0], zero, checks[2]], gens, 1) == [0, 2]
    assert _failing_checks([zero, zero], gens, 1) == []
    assert _failing_checks([], gens, 1) == []


def _ref_dot(vector, generators):
    """The dot product as a sum of products, each built on its own."""
    acc = MultiPoly.zero(generators[0].nvars)
    for a, g in zip(vector.components, generators, strict=True):
        acc = acc + a * g
    return acc


def test_fused_dot_matches_a_sum_of_products():
    for w in ((2, 3, 1, 2), (3, 3, 3, 3), (60, 2, 1, 1)):
        gens = jacobian_generators(w)
        for v in syzygy_generators(w):
            assert v.dot(gens) == _ref_dot(v, gens) == MultiPoly.zero(3)
            # against the generators reversed the dot is not zero
            flipped = v.dot(gens[::-1])
            assert flipped == _ref_dot(v, gens[::-1]) and not flipped.is_zero


def test_perturbed_euler_fails():
    w = (1, 1, 1)
    gens = jacobian_generators(w)
    bad = SyzygyVector(
        components=(MultiPoly.constant(2, -sum(w) + 1), x1, x2),
        kind="euler",
    )
    assert not bad.dot(gens).is_zero


def test_euler_identity_sampled_sweep():
    rng = random.Random(314)
    tuples = set()
    while len(tuples) < 60:
        n = rng.randint(1, 5)
        tuples.add(tuple(rng.randint(1, 5) for _ in range(n + 1)))
    for w in sorted(tuples):
        gens = jacobian_generators(w)
        euler = syzygy_generators(w)[0]
        assert euler.dot(gens).is_zero


def _ref_weight_checks(w):
    """The checks of ``verify_syzygies(w)`` as term maps built by MultiPoly
    arithmetic: x_j*sigma against -l_j for each j, sigma times the Euler
    vector, and x_i*l_j against -x_j*l_i for each pair i < j."""
    n = len(w) - 1
    sigma, zero = MultiPoly.sigma(n), MultiPoly.zero(n)
    xs = [MultiPoly.variable(i, n) for i in range(n)]
    ls = [l_poly(w, j + 1) for j in range(n)]
    checks = []
    for j in range(n):
        check = [zero] * (n + 1)
        check[0], check[j + 1] = -ls[j], xs[j] * sigma
        checks.append(check)
    checks.append([sigma * -sum(w)] + [x * sigma for x in xs])
    for i, j in combinations(range(n), 2):
        check = [zero] * (n + 1)
        check[i + 1], check[j + 1] = xs[i] * ls[j], -(xs[j] * ls[i])
        checks.append(check)
    return [[c._c for c in check] for check in checks]


def test_weight_packing_matches_the_generic_packing():
    # the components written from the table of l coefficients are the ints
    # the generic packer makes of the checks built by MultiPoly arithmetic,
    # at the same width, and the norms are the ones summed from the term maps
    from dworkgm.syzygy import (_pack_checks, _pack_weight_checks,
                                _weight_norms, _weight_table)
    for w in _all_tuples(4, 4) + list(product(range(1, 4), repeat=6)):
        n, d = len(w) - 1, sum(w)
        gens = [g._c for g in jacobian_generators(w)]
        checks = _ref_weight_checks(w)
        packed, width = _pack_weight_checks(w, gens)
        assert (packed, width) == _pack_checks(checks, gens)
        assert all(len(p) == n for p in packed)
        norms = _weight_norms(_weight_table(w))
        assert norms == [sum(abs(v) for c in check for v in c.values())
                         for check in checks]
        # the folded Euler check has the largest norm, n*d + n^2
        assert max(norms) == norms[n] == n * d + n * n


@pytest.mark.parametrize("w", [(3, 1), (2, 3, 1, 2), (1, 2, 1, 3, 1),
                               (2, 1, 1, 1, 1, 1)])
def test_a_moved_generator_coefficient_never_verifies(monkeypatch, w):
    # one coefficient of f or of one f'_i, present or not, moved by +-1:
    # the weight-only pass returns False or raises InvariantError
    from dworkgm.syzygy import _monomial_keys
    rng = random.Random(30)
    n, d = len(w) - 1, sum(w)
    real = jacobian_generators(w)
    for slot, g in enumerate(real):
        keys = _monomial_keys(n, d if slot == 0 else d - 1)
        for key in rng.sample(keys, min(len(keys), 12)) + [max(g._c)]:
            for delta in (1, -1):
                c = dict(g._c)
                c[key] = c.get(key, 0) + delta
                moved = list(real)
                moved[slot] = syzygy._make(n, {k: v for k, v in c.items() if v})
                monkeypatch.setattr(syzygy, "jacobian_generators",
                                    lambda weights, moved=moved: list(moved))
                try:
                    assert verify_syzygies(w) is False
                except InvariantError:
                    pass
    monkeypatch.undo()
    assert verify_syzygies(w) is True


def test_verify_every_tuple_with_five_variables_and_weights_up_to_3():
    # the first grid with ten Koszul fields
    tuples = list(product(range(1, 4), repeat=6))
    assert len(tuples) == 729
    assert all(verify_syzygies(w) for w in tuples)


# -- generation oracle --------------------------------------------------------------

def test_generation_oracle_examples():
    assert generation_oracle((1, 1, 1), 8)
    assert generation_oracle((2, 1, 1), 8)
    # rows with coefficients beyond 64 bits, such as binomial(70, 35)
    assert generation_oracle((70, 1, 1), 72)
    assert generation_oracle((60, 2, 1, 1), 66)


def test_generation_oracle_one_variable_any_bound():
    for w in ((1, 1), (2, 3), (3, 3)):
        assert generation_oracle(w, sum(w) + 6)


def test_generation_oracle_bound_check():
    with pytest.raises(ValueError):
        generation_oracle((1, 1, 1), 2)


def test_dimension_table_first_syzygy_degrees():
    table = {row.degree: row for row in syzygy_dimension_table((1, 1, 1), 8)}
    d = 3
    # nothing below the Euler degree d, one Euler syzygy at degree d
    for m in range(d):
        assert table[m].syzygy_dim == 0
    assert table[d].syzygy_dim == 1 and table[d].generated_dim == 1
    # Koszul enters at degree d + 1: Euler multiples (n = 2) plus one new
    assert table[d + 1].syzygy_dim == 3 and table[d + 1].generated_dim == 3


def test_dimension_tables_pinned():
    # recorded from the tuple-keyed implementation; degrees absent here have
    # both dimensions zero
    pinned = {
        ((3, 2, 2, 1), 12): {8: 1, 9: 6, 10: 14, 11: 25, 12: 39},
        ((40, 1, 1, 1), 45): {43: 1, 44: 6, 45: 14},
        ((6, 5, 4, 3, 2), 22): {20: 1, 21: 10, 22: 30},
    }
    for (w, bound), dims in pinned.items():
        table = syzygy_dimension_table(w, bound)
        assert [row.degree for row in table] == list(range(bound + 1))
        for row in table:
            expected = dims.get(row.degree, 0)
            assert (row.syzygy_dim, row.generated_dim) == (expected, expected)


def test_codes_add_and_sort_like_keys():
    # n = 1..5 and every monomial of degree <= 8, in base 9: the code of a
    # sum of keys is the sum of their codes, the codes of one degree sort
    # like its keys, and every code is below 9^(n-1), so the slot ranges
    # i*9^(n-1) + code of one degree never overlap
    from dworkgm.syzygy import _coder, _monomial_keys, _pack
    bound = 8
    base = bound + 1
    for n in range(1, 6):
        code, top = _coder(n, base), base ** (n - 1)
        keys = {t: _monomial_keys(n, t) for t in range(bound + 1)}
        for t, ks in keys.items():
            monomials = [[0] * n for _ in range(math.comb(t + n - 1, n - 1))]
            for e, picks in zip(monomials, combinations_with_replacement(range(n), t)):
                for i in picks:
                    e[i] += 1
            assert ks == sorted(map(_pack, monomials))
            codes = [code(k) for k in ks]
            assert codes == sorted(set(codes))
            assert all(0 <= c < top for c in codes)
            columns = {i * top + c for i in range(n + 1) for c in codes}
            assert len(columns) == (n + 1) * len(ks)
        for t1 in range(bound + 1):
            for t2 in range(bound + 1 - t1):
                for k1 in keys[t1]:
                    for k2 in keys[t2]:
                        assert code(k1 + k2) == code(k1) + code(k2)


def _ref_dimension_table(w, bound):
    """The table with both eliminations run in every degree 0..bound and the
    monomial keys of every degree built up front."""
    from dworkgm.syzygy import (DegreeDims, _monomial_keys, _rank_exact,
                                _rank_mod)
    d, n = sum(w), len(w) - 1
    gens = jacobian_generators(w)
    vectors = syzygy_generators(w)
    slot_degrees = [d] + [d - 1] * n
    eval_pieces = [(deg, [g._c.items()]) for g, deg in zip(gens, slot_degrees)]
    span_pieces = [(d if v.kind == "euler" else d + 1,
                    [c._c.items() for c in v.components]) for v in vectors]
    keys = {k: _monomial_keys(n, k) for k in range(bound + 1)}

    def rows(m, pieces, columns):
        for degree, parts in pieces:
            for shift in keys.get(m - degree, ()):
                yield {cols[k + shift]: v
                       for cols, terms in zip(columns, parts) for k, v in terms}

    results = []
    for m in range(bound + 1):
        target = {key: col for col, key in enumerate(keys[m])}
        slot_columns = []
        dom_dim = 0
        for deg in slot_degrees:
            slot_basis = keys.get(m - deg, ())
            slot_columns.append({key: dom_dim + i for i, key in enumerate(slot_basis)})
            dom_dim += len(slot_basis)
        syz_mod = dom_dim - len(_rank_mod(rows(m, eval_pieces, [target]), len(target)))
        span_mod = len(_rank_mod(rows(m, span_pieces, slot_columns), dom_dim))
        if syz_mod == span_mod:
            results.append(DegreeDims(m, syz_mod, span_mod))
        else:
            syz = dom_dim - _rank_exact(rows(m, eval_pieces, [target]), len(target))
            span = _rank_exact(rows(m, span_pieces, slot_columns), dom_dim)
            results.append(DegreeDims(m, syz, span))
    return results


def test_dimension_table_matches_the_all_degrees_reference(monkeypatch):
    cases = [(w, sum(w) + 4) for w in _all_tuples(3, 3)]
    cases += [(w, sum(w) + extra) for w in ((2, 3), (5, 1), (70, 1, 1))
              for extra in (0, 1)]
    cases += [(w, sum(w) + 2) for w in ((2, 1, 1, 1, 1), (1, 1, 1, 1, 1, 1))]
    expected = {case: _ref_dimension_table(*case) for case in cases}
    rank_mod = syzygy._rank_mod
    calls = []

    def counting_rank_mod(rows, ncols, **flags):
        calls.append(ncols)
        return rank_mod(rows, ncols, **flags)

    monkeypatch.setattr(syzygy, "_rank_mod", counting_rank_mod)
    for (w, bound), table in expected.items():
        calls.clear()
        assert syzygy_dimension_table(w, bound) == table
        # two eliminations in each degree d - 1..bound, none below
        assert len(calls) == 2 * (bound - sum(w) + 2)


def _sparse(dense):
    return [{c: x for c, x in enumerate(row) if x} for row in dense]


def test_modular_and_exact_ranks_agree():
    # force the exact path on a small instance and compare
    from dworkgm.syzygy import _rank_exact, _rank_mod
    rng = random.Random(99)
    for _ in range(30):
        rows = _sparse([[rng.randint(-30, 30) for _ in range(7)] for _ in range(5)])
        assert len(_rank_mod(rows, 7)) == _rank_exact(rows, 7)
    # entries beyond 64 bits, as in the syzygy rows of (70, 1, 1)
    big = math.comb(70, 35)
    for _ in range(30):
        rows = _sparse([[rng.choice((0, 1, -big, big, big * big + 1, -(2**63) - 1))
                         for _ in range(7)] for _ in range(5)])
        assert len(_rank_mod(rows, 7)) == _rank_exact(rows, 7)


def test_ranks_of_seeded_rank_deficient_rows():
    # r rows in echelon form with leading entries other than +-1 span the
    # rest: integer combinations, repeats, and combinations whose
    # coefficients are near or beyond p, nonzero mod p until eliminated
    from dworkgm.syzygy import _rank_exact, _rank_mod
    p = 1_000_003
    rng = random.Random(2024)
    coeffs = (0, 1, -1, 2, -3, p - 1, p + 1, -p + 2, 3 * p + 5, 2**70 + 1)
    for _ in range(60):
        ncols = rng.randint(3, 9)
        r = rng.randint(1, ncols - 1)
        basis = []
        for lead in sorted(rng.sample(range(ncols), r)):
            row = {lead: rng.choice((-1, 1)) * rng.randint(2, 9)}
            row.update((c, rng.randint(-9, 9)) for c in range(lead + 1, ncols)
                       if rng.random() < 0.6)
            basis.append(row)
        rows = basis * rng.randint(1, 2)
        for _ in range(rng.randint(1, 6)):
            combo = {}
            for row in basis:
                a = rng.choice(coeffs)
                for c, x in row.items():
                    combo[c] = combo.get(c, 0) + a * x
            rows.append(combo)
        rows = [{c: x for c, x in row.items() if x} for row in rows]
        rng.shuffle(rows)
        assert len(_rank_mod(iter(rows), ncols)) == r
        assert _rank_exact(iter(rows), ncols) == r


def test_ranks_do_not_depend_on_the_row_order():
    # seeded sparse rank-deficient rows whose leading entries are not +-1 and
    # whose entries reach beyond 2^64, in their own, reversed and shuffled
    # order: the pivots keep their leading entries, so the order and the
    # scaling of the pivot rows must not change the rank
    from dworkgm.syzygy import _rank_exact, _rank_mod
    rng = random.Random(1999)
    big = (2**64 + 13, -(2**65) - 1, 3**50, 1_000_003 * 7 + 2)
    for _ in range(40):
        ncols = rng.randint(4, 12)
        r = rng.randint(1, ncols - 2)
        basis = []
        for lead in sorted(rng.sample(range(ncols), r)):
            row = {lead: rng.choice((2, -3, 5, 1_000_002, *big))}
            row.update((c, rng.choice((rng.randint(-9, 9), *big)))
                       for c in range(lead + 1, ncols) if rng.random() < 0.4)
            basis.append(row)
        rows = list(basis)
        for _ in range(rng.randint(2, 8)):
            combo = {}
            for row in rng.sample(basis, rng.randint(1, r)):
                a = rng.choice((-2, 3, 2**64 + 1))
                for c, x in row.items():
                    combo[c] = combo.get(c, 0) + a * x
            rows.append({c: x for c, x in combo.items() if x})
        orders = [rows, rows[::-1]]
        for _ in range(3):
            orders.append(rng.sample(rows, len(rows)))
        for order in orders:
            assert len(_rank_mod(order, ncols)) == r
            assert _rank_exact(iter(order), ncols) == r


def test_exact_rank_fallback_gives_the_same_table(monkeypatch):
    # a modular rank of 0 makes the two one-sided bounds disagree in every
    # degree with a nonzero domain, so those degrees take exact elimination
    from dworkgm import syzygy
    expected = syzygy_dimension_table((2, 1, 1), 7)
    rank_exact = syzygy._rank_exact
    exact_calls = []

    def counting_rank_exact(rows, ncols):
        exact_calls.append(ncols)
        return rank_exact(rows, ncols)

    monkeypatch.setattr(syzygy, "_rank_mod", lambda rows, ncols, **flags: ())
    monkeypatch.setattr(syzygy, "_rank_exact", counting_rank_exact)
    assert syzygy_dimension_table((2, 1, 1), 7) == expected
    assert exact_calls


class _EveryColumnALead(list):
    """The true leads, so its length is still rank_p of the span matrix, but
    every column tests as one of them."""

    def __contains__(self, column):
        return True


def test_wrong_span_leads_fall_back_to_exact_elimination(monkeypatch):
    # wrong leads leave out evaluation rows that no span pivot proves
    # dependent: the kept rows lose rank, the kernel bound rises above the
    # span bound in every degree from d - 1, and exact elimination over the
    # full matrices decides
    rank_mod, rank_exact = syzygy._rank_mod, syzygy._rank_exact
    mod_calls, exact_calls = [], []

    def wrong_leads_on_span(rows, ncols, **flags):
        # in each degree the span matrix is eliminated first
        mod_calls.append(ncols)
        leads = rank_mod(rows, ncols, **flags)
        return _EveryColumnALead(leads) if len(mod_calls) % 2 else leads

    def counting_rank_exact(rows, ncols):
        exact_calls.append(ncols)
        return rank_exact(rows, ncols)

    cases = [((2, 1, 1), 8), ((1, 2, 3), 10), ((70, 1, 1), 73)]
    expected = {case: _ref_dimension_table(*case) for case in cases}
    monkeypatch.setattr(syzygy, "_rank_mod", wrong_leads_on_span)
    monkeypatch.setattr(syzygy, "_rank_exact", counting_rank_exact)
    for (w, bound), table in expected.items():
        mod_calls.clear()
        exact_calls.clear()
        assert syzygy_dimension_table(w, bound) == table
        assert len(exact_calls) == 2 * (bound - sum(w) + 2)


def _full_eval_rank_mod(w, m):
    """rank_p of every evaluation row x^s*g_i of degree m."""
    from dworkgm.syzygy import _monomial_keys, _rank_mod
    d, n = sum(w), len(w) - 1
    target = {key: col for col, key in enumerate(_monomial_keys(n, m))}
    rows = [{target[k + s]: v for k, v in g._c.items()}
            for g, deg in zip(jacobian_generators(w), [d] + [d - 1] * n)
            for s in _monomial_keys(n, m - deg)]
    return len(_rank_mod(rows, len(target)))


def test_kept_evaluation_rows_keep_the_modular_rank(monkeypatch):
    # the oracle tuples of the syzygy benchmark workload, in every degree
    # that is eliminated: the evaluation rows at span leads are left out,
    # and the rest have the rank of all of them, so no bound moves
    cases = [(w, sum(w) + 4) for w in _all_tuples(3, 3)]
    cases += [(w, sum(w) + 2)
              for w in ((40, 1, 1, 1), (6, 5, 4, 3, 2), (60, 2, 1, 1), (70, 1, 1))]
    assert len(cases) == 121
    expected = {(w, bound): [_full_eval_rank_mod(w, m)
                             for m in range(sum(w) - 1, bound + 1)]
                for w, bound in cases}
    rank_mod = syzygy._rank_mod
    ranks = []

    def recording_rank_mod(rows, ncols, **flags):
        leads = rank_mod(rows, ncols, **flags)
        ranks.append(len(leads))
        return leads

    def no_rank_exact(rows, ncols):
        raise AssertionError("exact elimination ran")

    monkeypatch.setattr(syzygy, "_rank_mod", recording_rank_mod)
    monkeypatch.setattr(syzygy, "_rank_exact", no_rank_exact)
    for (w, bound), eval_ranks in expected.items():
        ranks.clear()
        assert generation_oracle(w, bound)
        # span first, then the kept evaluation rows, in each degree
        assert ranks[1::2] == eval_ranks


def test_entries_are_reduced_mod_p_on_read():
    # r rows in echelon form whose key entry is a unit mod p, with nonzero
    # multiples of p before it (so some leads are 0 mod p) and entries
    # beyond 64 bits after it, then integer combinations of them: the rank
    # is r over Q and mod p, read in any order, with the entries reduced up
    # front or not, and the rows passed in are left as they were
    from dworkgm.syzygy import _rank_exact, _rank_mod
    p = 1_000_003
    multiples = (p, -p, 3 * p, 2**70 * p)
    units = (2, -3, 5, math.comb(70, 35), 2**64 + 13, -(2**63) - 1)
    assert all(x % p for x in units)
    rng = random.Random(27)
    zero_leads = 0
    for _ in range(60):
        ncols = rng.randint(3, 10)
        r = rng.randint(1, ncols - 1)
        basis = []
        for key in sorted(rng.sample(range(ncols), r)):
            row = {c: rng.choice(multiples) for c in range(key) if rng.random() < 0.4}
            row[key] = rng.choice(units)
            row.update((c, rng.choice((rng.randint(-9, 9), *units, *multiples)))
                       for c in range(key + 1, ncols) if rng.random() < 0.5)
            basis.append({c: x for c, x in row.items() if x})
        rows = list(basis)
        for _ in range(rng.randint(1, 6)):
            combo = {}
            for row in rng.sample(basis, rng.randint(1, r)):
                a = rng.choice((1, -2, 3, p, 2**64 + 1))
                for c, x in row.items():
                    combo[c] = combo.get(c, 0) + a * x
            rows.append({c: x for c, x in combo.items() if x})
        rows = [row for row in rows if row]
        zero_leads += sum(row[min(row)] % p == 0 for row in rows)
        snapshot = [dict(row) for row in rows]
        reduced = [{c: x % p for c, x in row.items() if x % p} for row in rows]
        assert len(_rank_mod(reduced, ncols)) == r
        for order in (rows, rows[::-1], rng.sample(rows, len(rows))):
            assert len(_rank_mod(iter(order), ncols)) == r
            assert _rank_exact(iter(order), ncols) == r
        assert rows == snapshot
    assert zero_leads


def _rank_mod_row_sets(test, monkeypatch):
    """The (rows, ncols) pairs that ``test`` passes to ``_rank_mod``."""
    rank_mod = syzygy._rank_mod
    seen = []

    def recording_rank_mod(rows, ncols, **flags):
        rows = list(rows)
        seen.append((rows, ncols))
        return rank_mod(rows, ncols, **flags)

    with monkeypatch.context() as patch:
        patch.setattr(syzygy, "_rank_mod", recording_rank_mod)
        test()
    return seen


def test_ascending_rows_keep_every_lead(monkeypatch):
    # the row sets of two seeded tests, with multiples of p and entries
    # beyond 64 bits, sorted by raw lead: dropping the pivots below each raw
    # lead keeps the rank and the leads, and the rows passed in are left as
    # they were
    from dworkgm.syzygy import _rank_mod
    row_sets = _rank_mod_row_sets(test_ranks_of_seeded_rank_deficient_rows,
                                  monkeypatch)
    row_sets += _rank_mod_row_sets(test_entries_are_reduced_mod_p_on_read,
                                   monkeypatch)
    assert len(row_sets) == 60 + 4 * 60
    for rows, ncols in row_sets:
        rows = sorted(rows, key=lambda row: min(row, default=0))
        snapshot = [dict(row) for row in rows]
        leads = set(_rank_mod(rows, ncols))
        assert set(_rank_mod(iter(rows), ncols, ascending=True)) == leads
        assert rows == snapshot


def test_ascending_rows_read_the_pivot_at_their_own_lead():
    # rows that share a raw lead: each is reduced by the pivot at that lead,
    # which must still be there; combinations of echelon rows, without the
    # rows themselves, sorted by raw lead
    from dworkgm.syzygy import _rank_exact, _rank_mod
    assert len(_rank_mod([{0: 1, 1: 1}, {0: 1, 1: 2}], 2, ascending=True)) == 2
    rng = random.Random(28)
    for _ in range(60):
        ncols = rng.randint(3, 9)
        r = rng.randint(1, ncols - 1)
        basis = [{lead: rng.choice((2, -3, 2**64 + 13)),
                  **{c: rng.randint(-9, 9) for c in range(lead + 1, ncols)}}
                 for lead in sorted(rng.sample(range(ncols), r))]
        rows = []
        for _ in range(r + rng.randint(0, 3)):
            combo = {}
            for row in rng.sample(basis, rng.randint(1, r)):
                a = rng.choice((1, -2, 3, 2**64 + 1))
                for c, x in row.items():
                    combo[c] = combo.get(c, 0) + a * x
            rows.append({c: x for c, x in combo.items() if x})
        rows.sort(key=lambda row: min(row, default=0))
        rank = _rank_exact(rows, ncols)
        assert len(_rank_mod(rows, ncols, ascending=True)) == rank
        assert set(_rank_mod(rows, ncols, ascending=True)) == set(_rank_mod(rows, ncols))


def test_ascending_rows_whose_lead_goes_down_raise():
    from dworkgm.syzygy import _rank_mod
    p = 1_000_003
    rows = [{0: 1, 1: 1}, {2: 1}, {1: 3}]
    with pytest.raises(InvariantError, match="row lead 1 is below the lead 2"):
        _rank_mod(rows, 3, ascending=True)
    assert len(_rank_mod(rows, 3)) == 3
    # the raw lead counts, even when its entry is 0 mod p
    assert len(_rank_mod([{1: p, 3: 1}, {2: 1}], 4, ascending=True)) == 2
    with pytest.raises(InvariantError, match="row lead 1 is below the lead 2"):
        _rank_mod([{2: 1}, {1: p, 3: 1}], 4, ascending=True)


def test_syzygy_runs_without_numpy():
    # numpy is not a dependency; a None entry in sys.modules makes any
    # attempt to import it fail
    code = ("import sys; sys.modules['numpy'] = None\n"
            "from dworkgm.cli import main\n"
            "sys.exit(main(['syzygy', '--weights', '70,1,1', '--bound', '72']))")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, env=package_env())
    assert proc.returncode == 0, proc.stderr


def test_multipoly_refuses_floats():
    with pytest.raises(TypeError, match="exact"):
        MultiPoly(1, {(1,): 0.5})
    with pytest.raises(TypeError, match="exact"):
        x1 * 0.5
    with pytest.raises(TypeError, match="exact"):
        0.5 * x1
    assert x1 * F(1, 2) == MultiPoly(2, {(1, 0): F(1, 2)})


def test_multipoly_takes_a_decimal_exactly():
    c = Decimal("1.00000000000001")
    cube = MultiPoly(1, {(1,): c}) ** 3
    assert cube == MultiPoly(1, {(3,): F(100000000000001, 10 ** 14) ** 3})
    assert str(cube) == f"{F(100000000000001, 10 ** 14) ** 3}*x1^3"


def test_multipoly_refuses_a_complex_coefficient():
    for c in (1j, complex(2, 0)):
        with pytest.raises(TypeError):
            MultiPoly(1, {(1,): c})


def test_multipoly_plus_a_scalar_is_a_type_error():
    for c in (1, F(1, 2), 0.5):
        for op in (lambda: x1 + c, lambda: x1 - c, lambda: c + x1, lambda: c - x1):
            with pytest.raises(TypeError):
                op()
    with pytest.raises(TypeError, match="exact"):
        x1 + 0.5
    with pytest.raises(TypeError, match="exact"):
        x1 - 0.5


def test_syzygy_weights_are_integers_not_truncated():
    with pytest.raises(TypeError):
        family_poly((1.5, 2))
    assert family_poly((1, 2)) == family_poly([True, 2])
