"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Each criterion prints a single pass/fail line (visible with ``pytest -s``;
under plain ``pytest`` the line is shown for failing tests).  Run with

    pytest tests/test_acceptance.py -v
"""

import itertools
import json
from contextlib import contextmanager
from fractions import Fraction

from dworkgm import arrangement, dwork, weyl
from dworkgm.dwork import ft_pair, ft_sign, full_report, m_table
from dworkgm.hypergeom import FactorList, hyp_operator
from conftest import random_hyp_data

F = Fraction


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"[criterion {number:2d}] {name}: FAIL")
        raise
    print(f"[criterion {number:2d}] {name}: PASS")


def test_criterion_01_classical_dwork_instance():
    with criterion(1, "classical Dwork instance (1,1,1,1,1)"):
        r = full_report((1, 1, 1, 1, 1))
        assert r["gamma"] == "1/3125"
        g = r["g_block"]
        assert g["hyp"] == ("Hyp(gamma=1/3125; alpha=[1, 1, 1, 1]; "
                            "beta=[1/5, 2/5, 3/5, 4/5])")
        assert g["exps_zero"] == ["1", "1", "1", "1"]  # the class of 0
        assert g["exps_infinity"] == ["1/5", "2/5", "3/5", "4/5"]
        assert g["c_set"] == []
        assert g["rank"] == 4
        assert [r["cohomology"][str(i)]["rank"] for i in (-3, -2, -1)] == [1, 4, 6]
        assert r["cohomology"]["0"]["constant_quotient"] == "O^4"
        assert all(r["checks"].values())


def test_criterion_02_worked_mixed_instance():
    with criterion(2, "worked mixed instance (1,2,3)"):
        r = full_report((1, 2, 3))
        assert r["gamma"] == "1/432"
        g = r["g_block"]
        assert g["c_set"] == ["1/3", "1/2", "2/3"]
        assert g["hyp"] == "Hyp(gamma=1/432; alpha=[1, 1]; beta=[1/6, 5/6])"
        assert g["rank"] == 5
        assert g["exps_infinity"] == ["1/6", "1/3", "1/2", "2/3", "5/6"]
        assert all(r["checks"].values())


def test_criterion_03_euler_factorization_identity():
    with criterion(3, "Euler factorization equals t^d d^d, d = 1..12"):
        for d in range(1, 13):
            difference = weyl.euler_factorization(d) - weyl.WeylOp.t(d) * weyl.WeylOp.d(d)
            assert difference.is_zero


def test_criterion_04_fourier_pair():
    with criterion(4, "Fourier pair identity, primitive n <= 3, w_i <= 4"):
        # calibration anchor: the two-weight instance fixes the sign rule
        anchor = ft_pair((1, 1))
        assert weyl.fourier(anchor.p, "inverse") == anchor.q * anchor.sign
        assert anchor.sign == ft_sign(2) == -1
        for w in dwork.primitive_sweep(3, 4):
            pair = ft_pair(w)
            assert pair.sign == ft_sign(w.d)
            assert weyl.fourier(pair.p, "inverse") == pair.q * pair.sign


def test_criterion_05_indicial_oracle_random_data():
    with criterion(5, "indicial oracle on 200 seeded hypergeometric data"):
        data = random_hyp_data(200, seed=93120, max_type=5, max_den=12)
        for h in data:
            op = hyp_operator(h)
            at_zero = weyl.indicial_polynomial(op, "zero")
            roots = sorted(r for r, mult in at_zero.roots()[0] for _ in range(mult))
            nums, n = h.alpha.numerators  # sorted
            assert roots == [F(x, n) for x in nums]
            at_inf = weyl.indicial_polynomial(op, "infinity")
            roots = sorted(r for r, mult in at_inf.roots()[0] for _ in range(mult))
            nums, n = h.beta.numerators
            assert roots == [F(x, n) for x in nums]
            support = weyl.singular_support(op)
            assert support.finite_rational == (h.gamma,)
            assert not support.other_factors


def test_criterion_06_consistency_sweep():
    with criterion(6, "consistency sweep, primitive n <= 4, w_i <= 5"):
        canonical: dict[tuple, str] = {}
        required = ("exps_zero_identity", "exps_infinity_identity",
                    "alpha_count", "irreducible", "chi_block",
                    "cn_sent_to_structure")
        for w in dwork.primitive_sweep(4, 5):
            report = full_report(w)
            checks = report["checks"]
            assert all(checks[name] for name in required), (w.w, checks)
            assert all(checks.values()), (w.w, checks)
            # permutation invariance: identical bytes across the orbit
            key = tuple(sorted(w.w))
            doc = json.dumps(report)
            assert canonical.setdefault(key, doc) == doc, w.w


def test_criterion_07_syzygy_suite():
    from dworkgm import syzygy
    with criterion(7, "syzygy identities and generation oracle"):
        for n in range(1, 5):
            for w in itertools.product(range(1, 5), repeat=n + 1):
                # verify_syzygies re-derives the Koszul slots by exact
                # division and asserts the simplified form internally
                assert syzygy.verify_syzygies(w), w
        for n in range(1, 4):
            for w in itertools.product(range(1, 4), repeat=n + 1):
                assert syzygy.generation_oracle(w, sum(w) + 4), w


def test_criterion_08_arrangement_suite():
    with criterion(8, "arrangement tables against the combinatorial oracle"):
        for n in range(2, 8):
            assert arrangement.projective_arrangement_consistent(n)
            # below the top degree the torus-slice table matches the
            # generic-arrangement Betti numbers under the ambient shift
            betti = arrangement.nbc_oracle(n, n - 1)
            tn = arrangement.torus_slice_dims(n)
            assert all(tn[i] == betti[i + n - 1] for i in range(-(n - 1), 0))
        for w in dwork.primitive_sweep(4, 5):
            if w.n < 2:
                continue
            milnor = arrangement.milnor_fiber_dims(w.w)
            assert milnor[0] == w.n + w.d - 1 == (w.n - 1) + w.d
            extended = m_table(dwork.Weights(w.w + (1,)))
            assert milnor == {i: fl.rank() for i, fl in extended.items()}


def test_criterion_09_nonprimitive_reduction():
    with criterion(9, "non-primitive reduction (2,4,6)"):
        r = full_report((2, 4, 6))
        assert r["pushforward"]["e"] == 2
        assert r["pushforward"]["base_report"] == full_report((1, 2, 3))
        table = dwork.k_table((2, 4, 6))
        assert table[-1] == FactorList([F(1, 2), 1])
        assert all(r["checks"].values())


def test_criterion_10_base_case():
    with criterion(10, "base case n = 1"):
        for pair in ((1, 1), (1, 2), (2, 3), (1, 4), (3, 5)):
            r = full_report(pair)
            d = sum(pair)
            assert r["g_block"]["rank"] == d - 1
            assert r["g_block"]["finite_singularity"] == str(dwork.gamma_n(pair))
            assert [k for k in r["cohomology"] if k != "0"] == []
            assert all(r["checks"].values())
