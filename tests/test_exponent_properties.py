"""Property test of the exponent bookkeeping against a Fraction reference.

``RefExpMultiset``, ``ref_cancel`` and ``ref_is_irreducible`` keep every
representative as a ``Fraction`` and compare canonical (0, 1] classes; they
are the implementation the residues-over-N representation replaced.  Every
public operation of ``ExpMultiset`` must agree with them on multisets of
mixed denominators, negative and integer representatives included, and its
class view ``factors`` must agree with ``RefFactorList`` from
``test_factor_list_properties``.
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

    def __iter__(self):
        return iter(self._reps)

    def __bool__(self):
        return bool(self._reps)

    def __eq__(self, other):
        if isinstance(other, RefExpMultiset):
            return self.classes() == other.classes()
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self.classes().items()))

    def __add__(self, other):
        return RefExpMultiset(self._reps + other._reps)

    def scaled(self, k):
        k = Fraction(k)
        return RefExpMultiset(r * k for r in self._reps)

    def pushforward(self, e):
        return RefExpMultiset(x for c in self._reps
                              for x in ref_preimage_classes(c, e))

    def remove_class(self, x):
        target = ref_canonical_rep(x)
        matching = [r for r in self._reps if ref_canonical_rep(r) == target]
        if not matching:
            raise ValueError(f"class {target} does not occur")
        keep = list(self._reps)
        keep.remove(max(matching))
        return RefExpMultiset(keep)

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


def assert_agrees(new, ref):
    """Every read-only view of ``new`` matches the reference, types included."""
    assert new.reps == ref.reps
    assert all(type(r) is Fraction for r in new.reps)
    assert list(new) == list(ref)
    assert len(new) == len(ref) and bool(new) == bool(ref)
    assert new.classes() == ref.classes()
    assert all(type(c) is Fraction for c in new.classes())
    assert new.canonical() == ref.canonical()
    assert all(type(c) is Fraction for c in new.canonical())
    assert str(new) == str(ref)
    assert repr(new) == repr(ref)
    # built again from its own representatives: equal, with an equal hash
    again = ExpMultiset(ref.reps)
    assert new == again and hash(new) == hash(again)


# Mixed denominators, so that two multisets rarely share one N; plain ints
# (negative and zero included) stand for integer representatives.
rep = st.one_of(
    st.builds(Fraction, st.integers(-30, 30), st.sampled_from([1, 2, 3, 4, 5, 6, 8, 12])),
    st.integers(-3, 3),
)
reps = st.lists(rep, max_size=8)
scalar = st.one_of(st.integers(-6, 6),
                   st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4)))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(reps, scalar, st.integers(1, 4), rep)
def test_unary_operations_match_the_reference(xs, k, e, x):
    new, ref = ExpMultiset(xs), RefExpMultiset(xs)
    assert_agrees(new, ref)
    assert_agrees(new.scaled(k), ref.scaled(k))
    assert_agrees(new.pushforward(e), ref.pushforward(e))
    # remove a class that is present as well as one that may not be
    for target in ([xs[0]] if xs else []) + [x]:
        try:
            expected = ref.remove_class(target)
        except ValueError as err:
            with pytest.raises(ValueError) as got:
                new.remove_class(target)
            assert str(got.value) == str(err)
        else:
            assert_agrees(new.remove_class(target), expected)


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
    assert_agrees(a + b, ra + rb)
    ca, cb = cancel(a, b)
    rca, rcb = ref_cancel(ra, rb)
    assert_agrees(ca, rca)
    assert_agrees(cb, rcb)
    # cancel also takes plain iterables
    la, lb = cancel(xs, ys)
    assert la.reps == rca.reps and lb.reps == rcb.reps

    h = make_hyp(1, a, b)
    assert is_irreducible(h) == ref_is_irreducible(ra, rb)
    for place, source in (("zero", ra), ("infinity", rb)):
        if ref_is_irreducible(ra, rb):
            assert_agrees(exponents(h, place), RefExpMultiset(source.canonical()))
        else:
            with pytest.raises(ValueError):
                exponents(h, place)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(reps, st.integers(1, 4))
def test_equality_and_hash_across_construction_paths(xs, e):
    """A result equals, with the same hash, the multiset built directly from
    the reference's representatives, whatever denominators led to it."""
    new, ref = ExpMultiset(xs), RefExpMultiset(xs)
    for got, expected in ((new.pushforward(e), ref.pushforward(e)),
                          (new.pushforward(e).scaled(e), ref.pushforward(e).scaled(e)),
                          (new.scaled(Fraction(1, e)), ref.scaled(Fraction(1, e)))):
        direct = ExpMultiset(expected.reps)
        assert got == direct and hash(got) == hash(direct)
        assert got == ExpMultiset(expected.canonical())


# -- the class view: ``ExpMultiset.factors`` is a ``FactorList`` -----------------

def assert_minimal(fl, n):
    """fl counts residues 1..n over the least denominator n."""
    assert fl._den == n
    assert all(1 <= r <= n and m > 0 for r, m in fl._counts.items())
    assert math.gcd(n, *fl._counts) == 1


@settings(derandomize=True, deadline=None, max_examples=300)
@given(reps, st.integers(1, 5), scalar, reps)
def test_class_view_matches_the_references(xs, e, k, ys):
    new, ref = ExpMultiset(xs), RefExpMultiset(xs)
    # over the least denominator, however the multiset was reached
    for ms in (new, new.scaled(k), new + ExpMultiset(ys), ExpMultiset(xs, 6)):
        assert_minimal(ms.factors, ms.numerators[1])
    assert new.factors == FactorList(new.classes()) == FactorList(ref.classes())
    assert new.factors.classes == RefFactorList(ref.classes()).classes
    assert str(new.factors) == str(RefFactorList(ref.classes()))
    pushed = new.pushforward(e)
    assert pushed.factors == power_pushforward(new.factors, e)
    assert_minimal(pushed.factors, pushed.numerators[1])
    assert pushed.factors.classes == ref_power_pushforward(
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
    assert ExpMultiset().pushforward(e).numerators == ((), 1)
    assert power_pushforward(FactorList({Fraction(1, 3): 0}), e) == FactorList()
