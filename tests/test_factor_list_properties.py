"""Property test of composition-factor lists against a Fraction reference.

``RefFactorList`` keeps its Kummer classes as a ``Counter`` of canonical
``Fraction``s in (0, 1]; with ``ref_kummer_sum``
and ``ref_power_pushforward`` it is the implementation that the
residues-over-N representation replaced.  Every public read of
``FactorList``, its sum, the Kummer pushforward, ``structure_multiplicities``
and the integer builder behind the cohomology tables must agree with it, for
integer and negative representatives, denominators up to 60 and
multiplicities up to 10^30.
"""

from collections import Counter
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from dworkgm.dwork import structure_multiplicities
from dworkgm.hypergeom import FactorList, _kummer_sum, power_pushforward

_ONE = Fraction(1)


def ref_canonical_rep(x):
    x = Fraction(x)
    r = x.numerator % x.denominator
    return Fraction(r, x.denominator) if r else _ONE


def ref_preimage_classes(c, e):
    c = ref_canonical_rep(c)
    return [(c + a) / e for a in range(e)]


class RefFactorList:
    def __init__(self, classes=()):
        classes = Counter(classes)
        if any(m < 0 for m in classes.values()):
            raise ValueError("multiplicities of composition factors must be >= 0")
        self.classes = counts = Counter()
        for x, mult in classes.items():
            if mult:
                counts[ref_canonical_rep(x)] += mult

    def __add__(self, other):
        out = RefFactorList()
        out.classes = self.classes + other.classes
        return out

    def __eq__(self, other):
        return self.classes == other.classes

    def rank(self):
        return sum(self.classes.values())

    def __str__(self):
        parts = [("O" if c == 1 else f"K({c})", self.classes[c])
                 for c in sorted(self.classes)]
        if not parts:
            return "0"
        return " + ".join(s if mult == 1 else f"{s}^{mult}" for s, mult in parts)


def ref_kummer_sum(e, mult):
    return RefFactorList(dict.fromkeys(ref_preimage_classes(1, e), mult))


def ref_power_pushforward(fl, e):
    return RefFactorList({x: mult for c, mult in fl.classes.items()
                          for x in ref_preimage_classes(c, e)})


def ref_structure_multiplicities(table):
    return {i: fl.classes[1] for i, fl in table.items() if fl.classes[1]}


# integers, negative representatives and denominators up to 60
classes = st.one_of(
    st.integers(-3, 3),
    st.builds(Fraction, st.integers(-120, 120), st.integers(1, 60)))
multiplicities = st.one_of(st.integers(0, 3), st.integers(0, 10**30))


# class -> multiplicity; zero multiplicities kept
class_maps = st.dictionaries(classes, multiplicities, max_size=8)


def assert_agrees(new, ref):
    assert new.classes == ref.classes
    assert all(type(c) is Fraction and 0 < c <= 1 for c in new.classes)
    assert str(new) == str(ref)
    assert new.rank() == ref.rank()


def respelled(kummer, draw):
    """The same classes with other representatives, as a list when the
    multiplicities are small enough to enumerate."""
    shifted = Counter()
    for c, m in kummer.items():
        shifted[c + draw(st.integers(-4, 4))] += m
    if sum(shifted.values()) <= 40:
        return list(shifted.elements())
    return shifted


@settings(derandomize=True, deadline=None, max_examples=300)
@given(class_maps, class_maps, st.data())
def test_factor_list_matches_the_fraction_reference(ka, kb, data):
    new_a, ref_a = FactorList(ka), RefFactorList(ka)
    new_b, ref_b = FactorList(kb), RefFactorList(kb)
    assert_agrees(new_a, ref_a)
    assert_agrees(new_a + new_b, ref_a + ref_b)
    assert (new_a == new_b) == (ref_a == ref_b)
    if new_a == new_b:
        assert hash(new_a) == hash(new_b)
    # the same list written differently is equal and hashes equally
    again = FactorList(respelled(ka, data.draw))
    assert again == new_a and hash(again) == hash(new_a)
    assert new_a + new_b == new_b + new_a == FactorList((ref_a + ref_b).classes)
    table = {-1: new_a, 0: new_a + new_b, 1: new_b}
    ref_table = {-1: ref_a, 0: ref_a + ref_b, 1: ref_b}
    assert structure_multiplicities(table) == ref_structure_multiplicities(ref_table)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(class_maps, st.integers(1, 7), classes)
def test_kummer_pushforward_matches_the_reference(kummer, e, c):
    new, ref = power_pushforward(FactorList(kummer), e), \
        ref_power_pushforward(RefFactorList(kummer), e)
    assert_agrees(new, ref)
    assert new == FactorList(ref.classes)
    assert_agrees(power_pushforward(FactorList([c]), e),
                  ref_power_pushforward(RefFactorList([c]), e))


@settings(derandomize=True, deadline=None, max_examples=200)
@given(st.integers(1, 60), st.data())
def test_residue_builders_match_the_reference(den, data):
    # counts over a denominator that need not be minimal
    residues = data.draw(st.lists(st.integers(1, den), unique=True, max_size=8))
    counts = {r: data.draw(st.integers(1, 10**30)) for r in residues}
    new = FactorList._residues(den, counts)
    ref = RefFactorList({Fraction(r, den): m for r, m in counts.items()})
    assert_agrees(new, ref)
    assert new == FactorList(ref.classes) and hash(new) == hash(FactorList(ref.classes))
    mult = data.draw(multiplicities)
    assert_agrees(_kummer_sum(den, mult), ref_kummer_sum(den, mult))
    table = {0: new, 1: _kummer_sum(den, mult)}
    assert structure_multiplicities(table) == ref_structure_multiplicities(
        {0: ref, 1: ref_kummer_sum(den, mult)})
