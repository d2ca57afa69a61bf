"""Property test of the exponent bookkeeping against a Fraction reference.

``RefExpMultiset``, ``ref_cancel`` and ``ref_is_irreducible`` keep every
representative as a ``Fraction`` and compare canonical (0, 1] classes; they
are the implementation the residues-over-N representation replaced.  An
``ExpMultiset``'s numerators over N must be the reference's representatives,
and ``cancel``, ``==``, ``hash``, ``str`` and ``repr`` must agree with it on
multisets of mixed denominators, negative and integer representatives
included; its class view ``factors`` must agree with ``RefFactorList`` from
``test_factor_list_properties``.  The operations on classes alone, the
pullback ``FactorList.scaled``, ``power_pushforward`` and ``exponents``,
must agree with the same reference's ``scaled``, ``pushforward`` and
canonical classes.
"""

import math
from collections import Counter
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from dworkgm.hypergeom import (ExpMultiset, FactorList, cancel, exponents,
                               is_irreducible, make_hyp, power_pushforward)
from test_factor_list_properties import RefFactorList, ref_power_pushforward

_ONE = Fraction(1)


def ref_canonical_rep(x):
    x = Fraction(x)
    r = x.numerator % x.denominator
    return Fraction(r, x.denominator) if r else _ONE


def ref_preimage_classes(c, e):
    if e < 1:
        raise ValueError("pushforward order must be a positive integer")
    c = ref_canonical_rep(c)
    return [(c + a) / e for a in range(e)]


class RefExpMultiset:
    def __init__(self, reps=()):
        self._reps = tuple(sorted(Fraction(r) for r in reps))
        self._classes = None

    @property
    def reps(self):
        return self._reps

    def classes(self):
        if self._classes is None:
            self._classes = Counter(ref_canonical_rep(r) for r in self._reps)
        return self._classes

    def canonical(self):
        return tuple(sorted(ref_canonical_rep(r) for r in self._reps))

    def __len__(self):
        return len(self._reps)

    def __bool__(self):
        return bool(self._reps)

    def __eq__(self, other):
        if isinstance(other, RefExpMultiset):
            return self.classes() == other.classes()
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self.classes().items()))

    def scaled(self, k):
        k = Fraction(k)
        return RefExpMultiset(r * k for r in self._reps)

    def pushforward(self, e):
        return RefExpMultiset(x for c in self._reps
                              for x in ref_preimage_classes(c, e))

    def __str__(self):
        return "[" + ", ".join(str(c) for c in self.canonical()) + "]"

    def __repr__(self):
        return f"ExpMultiset({[str(r) for r in self._reps]})"


def ref_cancel(alpha, beta):
    a = alpha if isinstance(alpha, RefExpMultiset) else RefExpMultiset(alpha)
    b = beta if isinstance(beta, RefExpMultiset) else RefExpMultiset(beta)

    def grouped(ms):
        groups = {}
        for r in ms.reps:
            groups.setdefault(ref_canonical_rep(r), []).append(r)
        return groups

    ga, gb = grouped(a), grouped(b)
    for cls in set(ga) & set(gb):
        k = min(len(ga[cls]), len(gb[cls]))
        del ga[cls][len(ga[cls]) - k:]
        del gb[cls][len(gb[cls]) - k:]
    survivors_a = [r for group in ga.values() for r in group]
    survivors_b = [r for group in gb.values() for r in group]
    return RefExpMultiset(survivors_a), RefExpMultiset(survivors_b)


def ref_is_irreducible(alpha, beta):
    return not (alpha.classes() & beta.classes())


def reps_of(ms):
    """The representatives of an ``ExpMultiset``, read off its numerators."""
    nums, n = ms.numerators
    return tuple([Fraction(x, n) for x in nums])


def assert_agrees(new, ref):
    """Every view of ``new`` matches the reference: its integer numerators
    over the least common denominator of the representatives, its classes."""
    nums, n = new.numerators
    assert all(type(x) is int for x in nums) and type(n) is int
    assert n == math.lcm(1, *(r.denominator for r in ref.reps))
    assert reps_of(new) == ref.reps
    assert len(new) == len(ref) and bool(new) == bool(ref)
    assert_classes_agree(new.factors, ref)
    assert str(new) == str(ref)
    assert repr(new) == repr(ref)
    # built again from its own representatives: equal, with an equal hash
    again = ExpMultiset(ref.reps)
    assert new == again and hash(new) == hash(again)


def assert_classes_agree(fl, ref):
    """The ``FactorList`` fl counts and prints the classes of the reference."""
    assert fl.classes == ref.classes()
    assert all(type(c) is Fraction for c in fl.classes)
    assert fl.canonical_texts() == [str(c) for c in ref.canonical()]
    assert fl.rank() == len(ref)
    again = FactorList(ref.reps)
    assert fl == again and hash(fl) == hash(again)


# Mixed denominators, so that two multisets rarely share one N; plain ints
# (negative and zero included) stand for integer representatives.
rep = st.one_of(
    st.builds(Fraction, st.integers(-30, 30), st.sampled_from([1, 2, 3, 4, 5, 6, 8, 12])),
    st.integers(-3, 3),
)
reps = st.lists(rep, max_size=8)
# a class pulls back along z -> z^k for an integer k
power = st.integers(-6, 6)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(reps, power, st.integers(1, 4))
def test_unary_operations_match_the_reference(xs, k, e):
    new, ref = ExpMultiset(xs), RefExpMultiset(xs)
    assert_agrees(new, ref)
    assert_classes_agree(new.factors.scaled(k), ref.scaled(k))
    assert_classes_agree(power_pushforward(new.factors, e), ref.pushforward(e))


@st.composite
def related_pairs(draw):
    """Two multisets; the second often repeats classes of the first under
    other representatives, so equality and shared classes both occur."""
    xs = draw(reps)
    moved = [Fraction(r) + draw(st.integers(-2, 2)) for r in xs]
    keep = draw(st.lists(st.booleans(), min_size=len(moved), max_size=len(moved)))
    ys = [r for r, k in zip(moved, keep) if k] + draw(st.lists(rep, max_size=3))
    return xs, draw(st.permutations(ys))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(related_pairs())
def test_binary_operations_match_the_reference(pair):
    xs, ys = pair
    a, b = ExpMultiset(xs), ExpMultiset(ys)
    ra, rb = RefExpMultiset(xs), RefExpMultiset(ys)
    assert (a == b) == (ra == rb)
    assert (a != b) == (ra != rb)
    if a == b:
        assert hash(a) == hash(b)
    ca, cb = cancel(a, b)
    rca, rcb = ref_cancel(ra, rb)
    assert_agrees(ca, rca)
    assert_agrees(cb, rcb)
    # cancel also takes plain iterables
    la, lb = cancel(xs, ys)
    assert reps_of(la) == rca.reps and reps_of(lb) == rcb.reps

    h = make_hyp(1, a, b)
    assert is_irreducible(h) == ref_is_irreducible(ra, rb)
    for place, source in (("zero", ra), ("infinity", rb)):
        if ref_is_irreducible(ra, rb):
            assert_classes_agree(exponents(h, place), RefExpMultiset(source.canonical()))
        else:
            with pytest.raises(ValueError):
                exponents(h, place)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(reps, st.integers(1, 4))
def test_equality_and_hash_across_construction_paths(xs, e):
    """A result equals, with the same hash, the multiset built directly from
    the reference's representatives, whatever denominators led to it."""
    new, ref = ExpMultiset(xs), RefExpMultiset(xs)
    pushed = power_pushforward(new.factors, e)
    for got, expected in ((pushed, ref.pushforward(e)),
                          (pushed.scaled(e), ref.pushforward(e).scaled(e)),
                          (ExpMultiset(xs, e), ref.scaled(Fraction(1, e)))):
        direct = type(got)(expected.reps)
        assert got == direct and hash(got) == hash(direct)
        assert got == type(got)(expected.canonical())


# -- the class view: ``ExpMultiset.factors`` is a ``FactorList`` -----------------

def assert_minimal(fl, n):
    """fl counts residues 1..n over the least denominator n."""
    assert fl._den == n
    assert all(1 <= r <= n and m > 0 for r, m in fl._counts.items())
    assert math.gcd(n, *fl._counts) == 1


def least_den(ref):
    return math.lcm(1, *(c.denominator for c in ref.classes()))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(reps, st.integers(1, 5), power, reps)
def test_class_view_matches_the_references(xs, e, k, ys):
    new, ref = ExpMultiset(xs), RefExpMultiset(xs)
    # over the least denominator, however the multiset was reached
    for ms in (new, ExpMultiset(xs + ys), ExpMultiset(xs, 6)):
        assert_minimal(ms.factors, ms.numerators[1])
    # and so are the classes scaled or pushed forward: over the least
    # common denominator of the reference's classes
    assert_minimal(new.factors.scaled(k), least_den(ref.scaled(k)))
    assert new.factors == FactorList(new.factors.classes) == FactorList(ref.classes())
    assert new.factors.classes == RefFactorList(ref.classes()).classes
    assert str(new.factors) == str(RefFactorList(ref.classes()))
    pushed = power_pushforward(new.factors, e)
    assert_minimal(pushed, least_den(ref.pushforward(e)))
    assert pushed.classes == ref_power_pushforward(
        RefFactorList(ref.classes()), e).classes


@settings(derandomize=True, deadline=None, max_examples=300)
@given(related_pairs())
def test_hash_agrees_with_equality(pair):
    xs, ys = pair
    a, b = ExpMultiset(xs), ExpMultiset(ys)
    assert (a == b) == (a.factors == b.factors) == (RefExpMultiset(xs) == RefExpMultiset(ys))
    if a == b:
        assert hash(a) == hash(b) and hash(a.factors) == hash(b.factors)
    again = ExpMultiset(list(reversed(xs)))
    assert again == a and hash(again) == hash(a)


@pytest.mark.parametrize("e", [1, 2, 3, 7])
def test_pushforward_of_the_empty_list_stays_over_one(e):
    assert ExpMultiset().factors._den == 1 and ExpMultiset([], 6).factors._den == 1
    assert power_pushforward(FactorList(), e)._den == 1
    assert power_pushforward(ExpMultiset([], 6).factors, e) == FactorList()
    assert FactorList().scaled(e)._den == 1
    assert power_pushforward(FactorList({Fraction(1, 3): 0}), e) == FactorList()
