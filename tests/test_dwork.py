import dataclasses
import itertools
import json
import math
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from conftest import package_env, random_hyp_data
from dworkgm import dwork, hypergeom, weyl
from dworkgm.dwork import (GBlock, Weights, c_set, consistency_checks,
                           ft_identity_holds, ft_pair, ft_sign, full_report,
                           g_block, gamma_n, invariant_hyp, k_table, m_table,
                           primitive_sweep, singular_fibers,
                           structure_multiplicities, validate_weights)
from dworkgm.hypergeom import (ExpMultiset, FactorList, hyp_operator, make_hyp,
                               power_pushforward)

F = Fraction


# -- weights -----------------------------------------------------------------

def test_validate_weights_examples():
    w = validate_weights((1, 1, 1, 1, 1))
    assert (w.d, w.e) == (5, 1)
    w = validate_weights((2, 2, 1, 1))
    assert w.d == 6 and w.e == 1
    assert validate_weights((2, 2)).e == 2 and validate_weights((2, 2, 1)).e == 1
    w = validate_weights((2, 4, 6))
    assert w.d == 12 and w.e == 2 and not w.primitive


def test_cached_weight_fields_equal_sum_and_gcd():
    rng = random.Random(32)
    tuples = [tuple(rng.randint(1, 60) * k for _ in range(rng.randint(2, 7)))
              for k in (1, 2, 3, 6) for _ in range(50)]
    for t in tuples + [(1, 1), (4, 6), (97, 53, 1), (10 ** 40, 10 ** 30)]:
        w = Weights(t)
        for _ in range(2):  # the first read computes, the second is kept
            assert w.n == len(t) - 1 and w.d == sum(t)
            assert w.e == math.gcd(*t) and w.primitive == (math.gcd(*t) == 1)
        assert {"n", "d", "e", "primitive"} <= set(vars(w))
        # equality, hash and repr read w alone, with or without the cache
        fresh = Weights(t)
        assert w == fresh and hash(w) == hash(fresh) and repr(w) == repr(fresh)
        assert repr(w) == f"Weights(w={t!r})"


def test_validate_weights_errors():
    with pytest.raises(ValueError):
        validate_weights((3,))
    with pytest.raises(ValueError):
        validate_weights((1, 0, 2))
    with pytest.raises(ValueError):
        validate_weights((1, -2))


# -- critical value and singular locus ------------------------------------------

def test_gamma_examples():
    assert gamma_n((1, 1, 1)) == F(1, 27)
    assert gamma_n((1, 2, 3)) == F(1, 432)
    assert gamma_n((1, 1, 1, 1, 1)) == F(1, 3125)
    assert gamma_n((2, 2, 1, 1)) == F(1, 2916)


def test_singular_fibers_examples():
    sf = singular_fibers((1, 1, 1))
    assert sf.poly_str == "1/27*t^3 - 1"
    assert sf.rational_roots == (F(3),)
    assert singular_fibers((1, 1)).rational_roots == (F(-2), F(2))
    sf = singular_fibers((1, 2, 3))
    assert sf.rational_roots == ()
    assert sf.poly_str == "1/432*t^6 - 1"
    # d^d exceeds the float range from d = 144 on
    sf = singular_fibers((200, 1))
    assert sf.degree == 201 and sf.rational_roots == ()
    assert singular_fibers((1,) * 150).rational_roots == (F(-150), F(150))


def test_integer_nthroot_exact_at_perfect_powers():
    for n in range(2, 202):
        for r in (2, 3, 7, 200, 201, 10**6 + 3):
            assert dwork._integer_nthroot(r**n - 1, n) == (r - 1, False)
            assert dwork._integer_nthroot(r**n, n) == (r, True)
            assert dwork._integer_nthroot(r**n + 1, n) == (r, False)
    assert dwork._integer_nthroot(0, 5) == (0, True)
    assert dwork._integer_nthroot(12345, 1) == (12345, True)


def test_c_set_examples():
    assert c_set((1, 1, 1, 1, 1)) == FactorList([])
    assert c_set((1, 2, 3)) == FactorList([F(1, 3), F(1, 2), F(2, 3)])
    assert c_set((2, 2, 1, 1)) == FactorList([F(1, 2)])


# -- invariant hypergeometric datum ------------------------------------------------

def test_invariant_hyp_examples():
    h = invariant_hyp((1, 1, 1, 1, 1))
    assert h.gamma == F(1, 3125)
    assert h.alpha == ExpMultiset([0, 0, 0, 0])
    assert h.beta == ExpMultiset([F(1, 5), F(2, 5), F(3, 5), F(4, 5)])

    h = invariant_hyp((1, 2, 3))
    assert h.gamma == F(1, 432)
    assert h.alpha == ExpMultiset([0, 0])
    assert h.beta == ExpMultiset([F(1, 6), F(5, 6)])

    h = invariant_hyp((2, 2, 1, 1))
    assert h.gamma == F(1, 2916)
    assert h.alpha == ExpMultiset([F(1, 2), 0, 0, 0])
    assert h.beta == ExpMultiset([F(1, 6), F(1, 3), F(2, 3), F(5, 6)])


def test_invariant_hyp_requires_primitive():
    with pytest.raises(ValueError, match="primitive"):
        invariant_hyp((2, 4, 6))


# -- the G block --------------------------------------------------------------------

def test_g_block_classical():
    gb = g_block((1, 1, 1, 1, 1))
    assert gb.rank == 4
    assert gb.exps_zero == FactorList([0, 0, 0, 0])
    assert gb.exps_infinity == FactorList([F(1, 5), F(2, 5), F(3, 5), F(4, 5)])
    assert gb.c_set.rank() == 0
    assert gb.chi == -1 and gb.finite_singularity == F(1, 3125)


def test_g_block_mixed():
    gb = g_block((1, 2, 3))
    assert gb.rank == 5
    assert gb.exps_zero == FactorList([0, 0, F(1, 2), F(1, 3), F(2, 3)])
    assert gb.exps_infinity == \
        FactorList([F(1, 6), F(1, 3), F(1, 2), F(2, 3), F(5, 6)])


def test_g_block_repeated_class():
    gb = g_block((2, 2, 1, 1))
    assert gb.rank == 5
    assert gb.exps_zero == FactorList([F(1, 2), F(1, 2), 0, 0, 0])


def test_g_block_sequences_leave_splitness_open():
    gb = g_block((1, 2, 3))
    sequences = gb.as_json()["sequences"]
    assert [list(s) for s in sequences] == [["left", "middle", "right", "split"]] * 2
    assert [s["split"] for s in sequences] == ["unknown", "unknown"]
    assert sequences[1]["right"] == "K(1/3) + K(1/2) + K(2/3)"
    assert sequences[1]["left"] == gb.hyp.display()


def test_g_block_pushforward_pair():
    gb = g_block((2, 4, 6))
    assert gb.rank == 10
    assert gb.e == 2 and gb.hyp == invariant_hyp((1, 2, 3))
    assert gb.exps_zero == power_pushforward(g_block((1, 2, 3)).exps_zero, 2)
    # the Kummer block is the pushforward of the primitive C set
    assert gb.kummer_block == FactorList(
        [F(1, 6), F(2, 3), F(1, 4), F(3, 4), F(1, 3), F(5, 6)])


# -- cohomology tables -----------------------------------------------------------------

def test_k_table_small():
    kt = k_table((1, 1, 1))
    assert set(kt) == {-1, 0}
    assert kt[-1] == FactorList([1])
    assert isinstance(kt[0], GBlock)
    assert kt[0].quotient == FactorList({1: 2})


def test_k_table_classical_ranks():
    kt = k_table((1, 1, 1, 1, 1))
    assert [kt[i].rank() for i in (-3, -2, -1)] == [1, 4, 6]
    assert kt[0].quotient.rank() == 4


def test_k_table_nonprimitive():
    kt = k_table((2, 4, 6))
    assert kt[-1] == FactorList([F(1, 2), 1])


def test_k_table_base_case():
    kt = k_table((1, 2))
    assert set(kt) == {0}
    assert kt[0].rank + kt[0].quotient.rank() == 3  # generic rank d of the base complex


@pytest.mark.parametrize("w, total", [((1, 2), 3), ((1, 2, 3), 7),
                                      ((2, 4, 6), 14), ((1, 1, 1, 1, 1), 8)])
def test_k_table_degree_zero_is_the_g_block(w, total):
    top = k_table(w)[0]
    assert top == g_block(w)
    assert top.rank + top.quotient.rank() == total


def test_m_table_negative_degrees_are_the_k_table_of_the_first_weights():
    tuples = [w for w in primitive_sweep(4, 4) if w.n >= 2]
    assert len(tuples) == 1285
    for w in tuples:
        kt = k_table(w.w[:-1])
        assert {i: fl for i, fl in m_table(w).items() if i < 0} == \
            {i: fl for i, fl in kt.items() if i < 0}, w


def test_m_table_examples():
    for w2 in (1, 2, 5):
        mt = m_table((1, 2, w2))
        assert set(mt) == {0}
        assert mt[0] == FactorList([F(1, 3), F(2, 3), 1])

    mt = m_table((1, 1, 1, 1))
    assert mt[-1] == FactorList([1])
    assert mt[0] == FactorList([1, F(1, 3), F(2, 3), 1])

    mt = m_table((2, 2, 2, 3))
    assert mt[-1] == FactorList([F(1, 2), 1])


def test_m_table_needs_three_weights():
    with pytest.raises(ValueError):
        m_table((1, 2))


def test_structure_multiplicities():
    mt = m_table((1, 1, 1, 1))
    assert structure_multiplicities(mt) == {-1: 1, 0: 2}


# -- Fourier pair ----------------------------------------------------------------------

def test_ft_pair_calibration_instance():
    pair = ft_pair((1, 1))
    assert pair.p == weyl.parse_op("1/4*(D - 2)*(D - 2) - t^2")
    assert pair.q == weyl.parse_op("d^2 - 1/4*(d*t + 2)*(d*t + 2)")
    assert weyl.fourier(pair.p, "inverse") == pair.q * pair.sign
    assert pair.sign == -1


def test_ft_pair_worked_identity():
    pair = ft_pair((1, 1, 1))
    assert weyl.fourier(pair.p, "inverse") == pair.q * pair.sign


@pytest.mark.parametrize("w", [(1, 1), (1, 3)])  # d even: the sign is -1
@pytest.mark.parametrize("sign", [-2, 0, 2])
def test_ft_identity_refuses_a_sign_other_than_one_or_minus_one(w, sign):
    # any sign but 1 used to mean "negate", so -2 passed wherever -1 did
    pair = ft_pair(w)
    assert ft_identity_holds(pair)
    assert not ft_identity_holds(dataclasses.replace(pair, sign=sign))


@pytest.mark.parametrize("w", [(1, 2), (1, 1)])
def test_ft_identity_reads_the_sign_without_a_product(w, monkeypatch):
    pair = ft_pair(w)
    products = []
    real = weyl.WeylOp.__mul__

    def counted(self, other):
        products.append(other)
        return real(self, other)

    monkeypatch.setattr(weyl.WeylOp, "__mul__", counted)
    assert ft_identity_holds(pair)
    assert products == []
    assert not ft_identity_holds(dataclasses.replace(pair, sign=-pair.sign))


def test_ft_sign_rule():
    assert [ft_sign(d) for d in (2, 3, 4, 5)] == [-1, 1, -1, 1]


# -- full report -----------------------------------------------------------------------

def test_full_report_classical():
    r = full_report((1, 1, 1, 1, 1))
    assert r["gamma"] == "1/3125"
    assert r["g_block"]["hyp"] == \
        "Hyp(gamma=1/3125; alpha=[1, 1, 1, 1]; beta=[1/5, 2/5, 3/5, 4/5])"
    assert r["g_block"]["c_set"] == []
    assert r["g_block"]["rank"] == 4
    assert [r["cohomology"][str(i)]["rank"] for i in (-3, -2, -1)] == [1, 4, 6]
    assert r["cohomology"]["0"]["constant_quotient"] == "O^4"
    assert r["singular_fibers"]["rational_roots"] == ["5"]
    assert all(r["checks"].values())


def test_full_report_key_order_follows_schema():
    r = full_report((1, 2, 3))
    assert list(r) == ["weights", "n", "d", "e", "gamma", "singular_fibers",
                       "cohomology", "g_block", "invariant_statement", "ft",
                       "checks"]
    assert list(r["g_block"]) == ["rank", "c_set", "hyp", "exps_zero",
                                  "exps_infinity", "chi", "finite_singularity",
                                  "sequences"]


def test_full_report_worked_instance():
    r = full_report((1, 2, 3))
    assert r["gamma"] == "1/432"
    assert r["g_block"]["c_set"] == ["1/3", "1/2", "2/3"]
    assert r["g_block"]["exps_infinity"] == ["1/6", "1/3", "1/2", "2/3", "5/6"]
    assert r["invariant_statement"]["pullback_power"] == -6
    assert r["ft"]["sign"] == -1
    assert all(r["checks"].values())


def test_full_report_nonprimitive_wraps_base():
    r = full_report((2, 4, 6))
    assert r["pushforward"]["e"] == 2
    assert r["pushforward"]["base_report"] == full_report((1, 2, 3))
    assert r["g_block"]["hyp"] == \
        {"e": 2, "base": "Hyp(gamma=1/432; alpha=[1, 1]; beta=[1/6, 5/6])"}
    assert r["checks"]["pushforward_gamma"]
    assert all(r["checks"].values())


def test_full_report_nonprimitive_builds_the_base_block_once(monkeypatch):
    calls = []
    for name in ("g_block", "invariant_hyp"):
        real = getattr(dwork, name)

        def counted(w, _real=real, _name=name):
            calls.append((_name, tuple(validate_weights(w).w)))
            return _real(w)

        monkeypatch.setattr(dwork, name, counted)
    full_report((2, 4, 6))
    assert calls.count(("g_block", (1, 2, 3))) == 1
    assert calls.count(("invariant_hyp", (1, 2, 3))) == 1


def test_full_report_permutation_invariant():
    reference = json.dumps(full_report((1, 2, 3)))
    for perm in ((3, 2, 1), (2, 1, 3), (2, 3, 1)):
        assert json.dumps(full_report(perm)) == reference


@pytest.mark.parametrize("w", [(299, 1), (150, 97, 53), (100, 100, 99, 1)])
def test_large_degree_report_passes_every_check(w):
    r = full_report(w)
    assert {"indicial_zero", "indicial_infinity", "fourier_pair"} <= set(r["checks"])
    assert all(r["checks"].values())


def test_base_case_reproduces_rank_and_singularity():
    r = full_report((1, 2))
    assert r["g_block"]["rank"] == 2  # d - 1
    assert r["g_block"]["finite_singularity"] == "4/27"
    assert [k for k in r["cohomology"] if k != "0"] == []
    assert all(r["checks"].values())


def test_consistency_checks_standalone():
    checks = consistency_checks((1, 1, 2))
    assert checks and all(checks.values())


def test_indicial_checks_read_the_singular_support(monkeypatch):
    wrong = weyl.SingularSupport((F(7),), (), True, False)
    monkeypatch.setattr(weyl, "singular_support", lambda op: wrong)
    checks = consistency_checks((1, 2, 3))
    assert checks["singular_support_gamma"] is False
    assert checks["regular"] is False
    assert checks["indicial_zero"] and checks["indicial_infinity"]


def _patched_g_block(monkeypatch, **changes):
    """Make dwork.g_block (and so k_table) hand out blocks with the given
    fields replaced; a non-primitive block is built on a patched base."""
    real = dwork.g_block
    monkeypatch.setattr(dwork, "g_block",
                        lambda w: dataclasses.replace(real(w), **changes))


@pytest.mark.parametrize("w", [(1, 2, 3), (2, 4, 6)])
def test_chi_block_reads_the_printed_chi(w, monkeypatch):
    _patched_g_block(monkeypatch, chi=-2)
    assert full_report(w)["g_block"]["chi"] == -2
    checks = consistency_checks(w)
    assert checks["chi_block"] is False
    assert [k for k, ok in checks.items() if not ok] == ["chi_block"]


def test_chi_block_is_false_on_a_reducible_base(monkeypatch):
    _patched_g_block(monkeypatch, hyp=make_hyp(1, [F(1, 2)], [F(3, 2)]))
    checks = consistency_checks((1, 2, 3))
    assert checks["chi_block"] is False and checks["irreducible"] is False


def test_checks_report_false_on_a_reducible_pushforward_base(monkeypatch):
    # the exponents of a pushforward exist for an irreducible base only, so
    # the identities that read them are False instead of raising
    real = dwork.g_block
    reducible = make_hyp(1, [F(1, 2)], [F(3, 2)])

    def patched(w):
        block = real(w)
        if validate_weights(w).w == (1, 2, 3):
            block = dataclasses.replace(block, hyp=reducible)
        return block

    monkeypatch.setattr(dwork, "g_block", patched)
    checks = consistency_checks((2, 4, 6))
    assert checks["exps_zero_identity"] is False
    assert checks["exps_infinity_identity"] is False
    assert checks["chi_block"] is False


# -- the one-pass operator builder against the multiply-and-subtract chain ----

def _chain_hyp_operator(h):
    return (weyl.euler_product(h.alpha.reps) * h.gamma
            - weyl.WeylOp.t() * weyl.euler_product(h.beta.reps))


def _chain_ft_pair(w):
    w = validate_weights(w)
    g, d = gamma_n(w), w.d
    nums, n = ExpMultiset(*dwork._weight_numerators(w, d)).numerators
    return (weyl.euler_product(nums, n) * g - weyl.WeylOp.t(d),
            weyl.WeylOp.d(d) - weyl.euler_product([-n - x for x in nums], n) * g)


_SWEEP_3_4 = [w.w for w in primitive_sweep(3, 4)]


def test_hyp_operator_matches_the_chain():
    data = ([invariant_hyp(w) for w in _SWEEP_3_4] + random_hyp_data(40, seed=1811)
            + [make_hyp(F(-3, 7)),  # type (0, 0)
               # gamma's numerator 4 shares the factor 4 with the Euler scale 2*2
               make_hyp(4, [F(1, 2), F(1, 2)], [F(1, 3), F(2, 3)])])
    for h in data:
        op, ref = hyp_operator(h), _chain_hyp_operator(h)
        assert op == ref and hash(op) == hash(ref) and str(op) == str(ref), h


def test_ft_pair_matches_the_chain():
    for w in _SWEEP_3_4 + [(2, 4, 6), (96, 23), (140, 3)]:
        ft = ft_pair(w)
        p, q = _chain_ft_pair(w)
        assert ft.p == p and hash(ft.p) == hash(p), w
        assert ft.q == q and hash(ft.q) == hash(q), w


def test_ft_pair_builds_no_multiset_and_negates_no_operator(monkeypatch):
    built = []
    real_init, real_neg = ExpMultiset.__init__, weyl.WeylOp.__neg__

    def counted_init(self, *args, **kwargs):
        built.append("ExpMultiset")
        real_init(self, *args, **kwargs)

    def counted_neg(self):
        built.append("neg")
        return real_neg(self)

    monkeypatch.setattr(ExpMultiset, "__init__", counted_init)
    monkeypatch.setattr(weyl.WeylOp, "__neg__", counted_neg)
    for w in [(1, 2, 3), (2, 4, 6), (96, 23)]:
        ft_pair(w)
    assert built == []


@pytest.mark.parametrize("build", [consistency_checks, full_report])
@pytest.mark.parametrize("w", [(1, 2, 3), (2, 2, 4, 4)])
def test_only_the_datum_builds_multisets(monkeypatch, w, build):
    # classes mod Z are FactorLists; representatives are built for the
    # datum alone: its alpha and beta, and the two lists cancel leaves
    built = []
    real_init = ExpMultiset.__init__

    def counted_init(self, *args, **kwargs):
        built.append(args)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(ExpMultiset, "__init__", counted_init)
    build(w)
    assert len(built) == 4


def test_consistency_checks_test_irreducibility_once(monkeypatch):
    calls = []
    real = hypergeom.is_irreducible

    def counted(h):
        calls.append(h)
        return real(h)

    monkeypatch.setattr(dwork, "is_irreducible", counted)
    checks = consistency_checks((1, 2, 3))
    assert calls == [invariant_hyp((1, 2, 3))]
    assert checks["irreducible"] and checks["chi_block"]


def _c_set_reference(w):
    # the definition, an any() per class k/d
    d = sum(w)
    return FactorList([F(k, d) for k in range(1, d) if any(k * wi % d == 0 for wi in w)])


def test_c_set_reads_the_multiples_of_d_over_gcd():
    tuples = [t for n in range(1, 5) for t in itertools.product(range(1, 7), repeat=n + 1)]
    tuples += [(97, 53, 1), (200, 1), (7, 11, 13, 17, 19, 23, 29)]
    for t in tuples:
        cs, ref = c_set(t), _c_set_reference(t)
        assert cs == ref and cs.canonical_texts() == ref.canonical_texts(), t


def test_primitive_sweep_counts():
    sweep = dwork.primitive_sweep(1, 2)
    assert sorted(w.w for w in sweep) == [(1, 1), (1, 2), (2, 1)]


def ref_primitive_sweep(n_max, w_max):
    """The sweep as one list, each length built by extending the last."""
    out = []
    for n in range(1, n_max + 1):
        stack = [()]
        for _ in range(n + 1):
            stack = [t + (x,) for t in stack for x in range(1, w_max + 1)]
        out += [t for t in stack if math.gcd(*t) == 1]
    return out


def test_primitive_sweep_is_lazy_and_in_order():
    for n_max in range(1, 5):
        for w_max in range(1, 5):
            sweep = dwork.primitive_sweep(n_max, w_max)
            assert iter(sweep) is sweep
            assert [w.w for w in sweep] == ref_primitive_sweep(n_max, w_max)
    # 2^(n+1) tuples for every n up to 10^6: only a lazy sweep gets to any
    sweep = dwork.primitive_sweep(10**6, 2)
    assert [next(sweep).w for _ in range(4)] == [(1, 1), (1, 2), (2, 1), (1, 1, 1)]


def test_primitive_sweep_makes_no_list_of_its_entries():
    # under a 1 GB address space: a copy of 1..10^9 would need about 36 GB
    code = ("import resource\n"
            "resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))\n"
            "from dworkgm.dwork import primitive_sweep\n"
            "sweep = primitive_sweep(1, 10**9)\n"
            "print([next(sweep).w for _ in range(3)])")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=package_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[(1, 1), (1, 2), (1, 3)]\n"
    assert list(dwork.primitive_sweep(3, 0)) == []


@pytest.mark.parametrize("bad", [(1.5, 2), (Fraction(3, 2), 2), ("1", 2)])
def test_weights_are_integers_not_truncated(bad):
    with pytest.raises(TypeError):
        validate_weights(bad)
    with pytest.raises(TypeError):
        gamma_n(bad)
    with pytest.raises(TypeError):
        dwork.Weights(bad)


def test_sweep_checks_leave_the_factoriser_unimported():
    # reports and sweeps split roots of degree <= 2 only, in closed form, so
    # their start-up never pays for importing dworkgm._factor
    code = ("import sys\n"
            "from dworkgm.dwork import consistency_checks\n"
            "assert all(consistency_checks((1, 2, 3)).values())\n"
            "assert 'dworkgm._factor' not in sys.modules\n")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, env=package_env())
    assert proc.returncode == 0, proc.stderr
