import random
from fractions import Fraction

import pytest

from dworkgm import weyl
from dworkgm.hypergeom import (ExpMultiset, FactorList, cancel, exponents,
                               hyp_operator, is_irreducible, make_hyp,
                               power_pullback, power_pushforward)
from conftest import random_hyp_data

F = Fraction


def test_multiset_equality_is_class_wise():
    assert ExpMultiset([0, 0]) == ExpMultiset([1, 1])
    assert ExpMultiset([F(1, 3)]) == ExpMultiset([F(4, 3)])
    assert ExpMultiset([F(1, 3)]) != ExpMultiset([F(1, 3), F(1, 3)])


@pytest.mark.parametrize("value", [ExpMultiset([F(1, 2)]), FactorList([F(1, 2)])])
def test_equality_with_another_type_is_left_to_it(value):
    # __eq__ answers NotImplemented, so Python falls back to identity
    assert value.__eq__(F(1, 2)) is NotImplemented
    assert value.__eq__((F(1, 2),)) is NotImplemented
    assert value != F(1, 2) and value != "[1/2]" and not value == [F(1, 2)]
    assert ExpMultiset([F(1, 2)]) != FactorList([F(1, 2)])


# -- cancel ---------------------------------------------------------------------

def test_cancel_worked_examples():
    a, b = cancel([1, 1, 1], [F(1, 3), F(2, 3), 1])
    assert a == ExpMultiset([1, 1]) and b == ExpMultiset([F(1, 3), F(2, 3)])

    a, b = cancel([F(1, 2), F(1, 2), 1, 1, 1, 1],
                  [F(k, 6) for k in range(1, 7)])
    assert a == ExpMultiset([F(1, 2), 1, 1, 1])
    assert b == ExpMultiset([F(1, 6), F(2, 6), F(4, 6), F(5, 6)])

    a, b = cancel([], [F(1, 2)])
    assert len(a) == 0 and b == ExpMultiset([F(1, 2)])


def test_cancel_idempotent_order_independent():
    rng = random.Random(3)
    for _ in range(200):
        xs = [F(rng.randint(-12, 12), rng.randint(1, 6)) for _ in range(rng.randint(0, 6))]
        ys = [F(rng.randint(-12, 12), rng.randint(1, 6)) for _ in range(rng.randint(0, 6))]
        a, b = cancel(xs, ys)
        # disjoint after one pass, stable under a second
        assert not (a.classes() & b.classes())
        assert cancel(a, b) == (a, b)
        # order independent and length-difference preserving
        rng.shuffle(xs), rng.shuffle(ys)
        a2, b2 = cancel(xs, ys)
        assert (a2, b2) == (a, b)
        assert len(a) - len(b) == len(xs) - len(ys)


# -- construction ------------------------------------------------------------------

def test_make_hyp_delta_type():
    h = make_hyp(F(1, 3))
    assert h.type == (0, 0)


def test_make_hyp_reduce_displays_canonical():
    h = make_hyp(F(1, 27), [1, 1, 1], [F(1, 3), F(2, 3), 1], reduce=True)
    assert h.alpha == ExpMultiset([0, 0])
    assert h.display() == "Hyp(gamma=1/27; alpha=[1, 1]; beta=[1/3, 2/3])"


def test_make_hyp_full_cancellation():
    h = make_hyp(1, [F(1, 2)], [F(1, 2)], reduce=True)
    assert h.type == (0, 0)


def test_make_hyp_rejects_zero_gamma():
    with pytest.raises(ValueError):
        make_hyp(0, [1], [2])


# -- operator realization -------------------------------------------------------------

def test_hyp_operator_examples():
    assert hyp_operator(make_hyp(F(2, 5))) == weyl.parse_op("2/5 - t")
    assert hyp_operator(make_hyp(1, [0], [])) == weyl.parse_op("D - t")
    expected = weyl.parse_op("1/27*D*D - t*(D - 1/3)*(D - 2/3)")
    assert hyp_operator(make_hyp(F(1, 27), [0, 0], [F(1, 3), F(2, 3)])) == expected


def test_operator_uses_stored_representatives():
    lowered = make_hyp(1, [0], [F(1, 2)])
    raised = make_hyp(1, [1], [F(3, 2)])
    # equal as data mod Z, but realized on the chosen representatives
    assert lowered == raised
    assert hyp_operator(lowered) != hyp_operator(raised)
    ind = weyl.indicial_polynomial(hyp_operator(raised), "zero")
    assert dict(ind.roots()[0]) == {F(1): 1}


# -- irreducibility and exponents ----------------------------------------------------

def test_irreducibility_criterion():
    assert is_irreducible(make_hyp(1, [0, 0], [F(1, 3), F(2, 3)]))
    assert not is_irreducible(make_hyp(1, [F(1, 2)], [F(3, 2)]))
    assert is_irreducible(make_hyp(1))


def test_reduce_always_gives_irreducible():
    rng = random.Random(4)
    for _ in range(100):
        xs = [F(rng.randint(-9, 9), rng.randint(1, 8)) for _ in range(rng.randint(0, 5))]
        ys = [F(rng.randint(-9, 9), rng.randint(1, 8)) for _ in range(rng.randint(0, 5))]
        assert is_irreducible(make_hyp(1, xs, ys, reduce=True))


def test_exponents_worked_example():
    h = make_hyp(F(1, 27), [0, 0], [F(1, 3), F(2, 3)])
    assert exponents(h, "zero") == FactorList([0, 0]) == h.alpha.factors
    assert exponents(h, "infinity") == FactorList([F(1, 3), F(2, 3)])


def test_exponents_reject_an_unknown_place():
    with pytest.raises(ValueError, match="unknown place 'middle'"):
        exponents(make_hyp(F(1, 27), [0, 0], [F(1, 3), F(2, 3)]), "middle")


def test_exponents_reject_reducible():
    with pytest.raises(ValueError, match="irreducible"):
        exponents(make_hyp(1, [F(1, 2)], [F(3, 2)]), "zero")


def test_exponent_indicial_agreement_sample():
    for h in random_hyp_data(50, seed=1202):
        op = hyp_operator(h)
        for place, source in (("zero", h.alpha), ("infinity", h.beta)):
            ind = weyl.indicial_polynomial(op, place)
            assert ind.has_roots_exactly(source.reps)
        ss = weyl.singular_support(op)
        assert ss.finite_rational == (h.gamma,)
        assert ss.regular_at_zero and ss.regular_at_infinity


def test_operator_recovers_parameters():
    # type, exponent classes and gamma are all readable off the operator
    h = make_hyp(F(3, 7), [F(1, 5), F(2, 5)], [F(1, 2), F(1, 3)])
    op = hyp_operator(h)
    assert op.order() == 2
    assert weyl.indicial_polynomial(op, "zero").has_roots_exactly(h.alpha.reps)
    assert weyl.indicial_polynomial(op, "infinity").has_roots_exactly(h.beta.reps)
    assert weyl.singular_support(op).finite_rational == (F(3, 7),)


# -- power maps -----------------------------------------------------------------------

def test_pullback_examples():
    # a Kummer class pulls back by scaling, K_a -> K_{d*a}
    assert FactorList([F(1, 2)]).scaled(-6) == FactorList([1])
    assert FactorList([F(1, 3)]).scaled(1) == FactorList([F(1, 3)])
    assert FactorList([F(1, 3)]).scaled(2) == FactorList([F(2, 3)])
    assert FactorList({F(1, 4): 2, F(3, 4): 1}).scaled(2) == FactorList({F(1, 2): 3})
    with pytest.raises(ValueError):
        power_pullback(make_hyp(1, [F(1, 3)], [F(1, 2)]), 0)
    # K_a -> K_{k*a} is defined on classes for an integer k only
    with pytest.raises(TypeError):
        FactorList([F(1, 2)]).scaled(F(1, 2))


def test_pullback_hyp_is_bookkeeping():
    h = make_hyp(1, [F(1, 2)], [F(1, 3)])
    alpha, beta = power_pullback(h, -6)
    assert alpha == FactorList([1])
    assert beta == FactorList([1])


def test_pushforward_examples():
    assert power_pushforward(FactorList([0]), 3) == FactorList([F(1, 3), F(2, 3), 1])
    assert power_pushforward(FactorList([F(2, 5)]), 1) == FactorList([F(2, 5)])
    assert power_pushforward(FactorList([F(1, 2)]), 2) == FactorList([F(1, 4), F(3, 4)])
    with pytest.raises(ValueError):
        power_pushforward(FactorList([F(1, 2)]), 0)


def test_preimage_classes():
    # the pushforward of one class is its e preimage classes, once each
    assert power_pushforward(FactorList([F(-3, 2)]), 2) == FactorList([F(1, 4), F(3, 4)])
    assert power_pushforward(FactorList([0]), 3) == FactorList([F(1, 3), F(2, 3), 1])
    with pytest.raises(ValueError):
        power_pushforward(FactorList([1]), 0)
    rng = random.Random(5)
    for _ in range(50):
        c = F(rng.randint(-12, 12), rng.randint(1, 9))
        e = rng.randint(1, 6)
        classes = power_pushforward(FactorList([c]), e).classes
        assert len(classes) == e and set(classes.values()) == {1}
        xs = list(classes)
        assert all(0 < x <= 1 for x in xs)
        assert FactorList(xs).scaled(e) == FactorList([c] * e)
        assert power_pushforward(FactorList([c, F(1, 7)]), e) == \
            FactorList(xs + list(power_pushforward(FactorList([F(1, 7)]), e).classes))


def test_pushforward_hyp_pair():
    h = make_hyp(F(1, 432), [0, 0], [F(1, 6), F(5, 6)])
    assert power_pushforward(exponents(h, "zero"), 2) == FactorList([F(1, 2), 1, F(1, 2), 1])
    assert power_pushforward(exponents(h, "infinity"), 2) == \
        FactorList([F(1, 12), F(7, 12), F(5, 12), F(11, 12)])


def test_pushforward_scaling_recovers_classes():
    rng = random.Random(12)
    for _ in range(100):
        alpha = F(rng.randint(-12, 12), rng.randint(1, 9))
        e = rng.randint(1, 5)
        pushed = power_pushforward(FactorList([alpha]), e)
        assert pushed.scaled(e) == FactorList([alpha] * e)


def test_pushforward_is_additive():
    kummers = FactorList({F(1, 2): 1, F(1, 3): 2})
    pushed = FactorList([])
    for c, mult in kummers.classes.items():
        pushed = pushed + power_pushforward(FactorList({c: mult}), 4)
    assert power_pushforward(kummers, 4) == pushed
    assert pushed.rank() == 4 * kummers.rank()


def test_factor_list_equality_mod_z():
    assert FactorList([F(1, 2), 1]) == FactorList([F(3, 2), 0])
    assert FactorList([F(1, 2), 1]) == FactorList({F(-1, 2): 1, 2: 1})
    assert FactorList([F(1, 2), F(1, 2)]) != FactorList([F(1, 2)])


def test_factor_list_display_order():
    fl = FactorList({0: 2, F(3, 4): 1, F(1, 3): 5})
    assert str(fl) == "K(1/3)^5 + K(3/4) + O^2"
    assert str(FactorList()) == "0"
    assert fl.rank() == 5 + 1 + 2


def test_factor_list_counts_without_enumerating():
    big = 10 ** 30
    fl = FactorList({1: big, F(1, 2): big}) + FactorList({1: 1})
    assert fl.rank() == 2 * big + 1
    assert str(fl) == f"K(1/2)^{big} + O^{big + 1}"


# -- exactness of the bookkeeping -------------------------------------------------------

@pytest.mark.parametrize("build", [
    lambda: ExpMultiset([F(1, 2), 0.1]),
    lambda: power_pushforward(FactorList([F(1, 2)]), 2.0),
    lambda: FactorList([F(1, 3)]).scaled(2.0),
    lambda: make_hyp(0.5, [0], [F(1, 2)]),
    lambda: FactorList([0.25]),
    lambda: FactorList({F(1, 2): 1, 1.0: 2}),
    lambda: cancel([F(1, 3)], [0.5]),
    lambda: ExpMultiset([F(1, 3)], 2.0),
    lambda: power_pullback(make_hyp(1, [0], [F(1, 2)]), 2.0),
])
def test_floats_are_refused(build):
    # ExpMultiset([0.1]) would otherwise hold 3602879701896397/36028797018963968
    with pytest.raises(TypeError, match="float"):
        build()


def test_factor_list_refuses_negative_multiplicities():
    with pytest.raises(ValueError, match="multiplicit"):
        FactorList({F(1, 2): -1})
    with pytest.raises(ValueError, match="multiplicit"):
        FactorList({F(1, 2): 1, F(1, 3): -2})
    # a zero multiplicity is dropped
    assert FactorList({F(1, 2): 0, F(1, 3): 1}) == FactorList([F(1, 3)])
    assert str(FactorList({F(1, 2): 0})) == "0"


@pytest.mark.parametrize("build", [
    lambda: ExpMultiset("12"),
    lambda: ExpMultiset(""),
    lambda: ExpMultiset(["1", F(1, 2)]),
    lambda: make_hyp(1, "12", "3"),
    lambda: make_hyp("1/2", [0], [F(1, 2)]),
    lambda: power_pullback(make_hyp(1, [0], [F(1, 2)]), "2"),
    lambda: FactorList("12"),
    lambda: FactorList(""),
    lambda: FactorList(["1/2"]),
    lambda: FactorList({"1/2": 1}),
    lambda: FactorList([F(1, 3)]).scaled("2"),
    lambda: cancel([F(1, 3)], "1/3"),
    lambda: ExpMultiset([1], "3"),
    lambda: power_pushforward(FactorList([F(1, 2)]), "2"),
])
def test_strings_are_refused(build):
    # a string is neither its number nor the list of its digits
    with pytest.raises(TypeError, match="string"):
        build()


@pytest.mark.parametrize("build", [
    lambda: FactorList({F(1, 2): 1.5}),
    lambda: FactorList({F(1, 2): 1.0}),
    lambda: FactorList({F(1, 2): F(2)}),
    lambda: FactorList({1: F(1, 2)}),
    lambda: FactorList({F(1, 2): "2"}),
    lambda: FactorList({F(1, 3): 1, 0: 2.0}),
])
def test_multiplicities_are_integers(build):
    with pytest.raises(TypeError):
        build()
