import math
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from conftest import package_env
from dworkgm.syzygy import (ExactDivisionError, MultiPoly, SyzygyVector,
                            family_poly, generation_oracle, jacobian_generators,
                            l_poly, partial_factorization_holds, syzygy_dimension_table,
                            syzygy_generators, verify_syzygies)

F = Fraction

x1 = MultiPoly.variable(0, 2)
x2 = MultiPoly.variable(1, 2)


# -- polynomial arithmetic ------------------------------------------------------

def test_partial_derivative():
    assert (x1 ** 2 * x2).partial(0) == 2 * x1 * x2


def test_product_of_conjugates():
    assert (x1 + x2) * (x1 - x2) == x1 ** 2 - x2 ** 2


def test_exact_divide():
    assert (x1 ** 2 * x2).exact_divide(x1) == x1 * x2
    quotient = ((x1 + x2) ** 3).exact_divide((x1 + x2) ** 2)
    assert quotient == x1 + x2


def test_inexact_division_is_distinguished():
    with pytest.raises(ExactDivisionError):
        (x1 ** 2 + x2).exact_divide(x1)
    with pytest.raises(ZeroDivisionError):
        x1.exact_divide(MultiPoly.zero(2))


def test_poly_str_grammar_fragment():
    assert str(x1 ** 2 * x2 + x1 * x2 ** 2) == "x1^2*x2 + x1*x2^2"
    assert str(MultiPoly.zero(2)) == "0"


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
        assert f.is_homogeneous() and f.degree() == sum(w)


def test_family_poly_affine_variant():
    f = family_poly((1, 1, 1), homogeneous=False)
    one = MultiPoly.constant(2, 1)
    assert f == x1 * x2 * (one - x1 - x2)


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
        euler = syzygy_generators(w, _gens=gens)[0]
        assert euler.dot(gens).is_zero


def test_partial_factorization_identity():
    for w in ((1, 1, 1), (2, 1, 3), (3, 2, 2, 1), (2, 3, 1, 2)):
        assert partial_factorization_holds(w)


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


def test_modular_and_exact_ranks_agree():
    # force the exact path on a small instance and compare
    from dworkgm.syzygy import _rank_exact, _rank_mod
    rng = random.Random(99)
    for _ in range(30):
        rows = [[rng.randint(-30, 30) for _ in range(7)] for _ in range(5)]
        assert _rank_mod(rows, 7) == _rank_exact(rows, 7)
    # entries beyond 64 bits, as in the syzygy rows of (70, 1, 1)
    big = math.comb(70, 35)
    for _ in range(30):
        rows = [[rng.choice((0, 1, -big, big, big * big + 1, -(2**63) - 1))
                 for _ in range(7)] for _ in range(5)]
        assert _rank_mod(rows, 7) == _rank_exact(rows, 7)


def test_syzygy_runs_without_numpy():
    # numpy is not a dependency; a None entry in sys.modules makes any
    # attempt to import it fail
    code = ("import sys; sys.modules['numpy'] = None\n"
            "from dworkgm.cli import main\n"
            "sys.exit(main(['syzygy', '--weights', '70,1,1', '--bound', '72']))")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, env=package_env())
    assert proc.returncode == 0, proc.stderr
