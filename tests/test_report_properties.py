"""Property tests of whole reports over random weight tuples, d <= 300."""

from collections import Counter
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from dworkgm.dwork import full_report, k_table, m_table
from dworkgm.hypergeom import FactorList


@st.composite
def weight_tuples(draw):
    """n + 1 = 2..5 weights, all multiplied by e = 1..3; d <= 300."""
    length = draw(st.integers(2, 5))
    e = draw(st.integers(1, 3))
    w = draw(st.lists(st.integers(1, 300 // (length * e)),
                      min_size=length, max_size=length))
    return tuple(e * x for x in w)


def parse_kummer_sum(text: str) -> Counter:
    """Class -> multiplicity from the printed form 'K(1/3)^2 + O'."""
    counts: Counter = Counter()
    if text == "0":
        return counts
    for part in text.split(" + "):
        name, _, mult = part.partition("^")
        cls = Fraction(1) if name == "O" else Fraction(name.removeprefix("K(")[:-1])
        counts[cls] += int(mult or 1)
    return counts


def assert_round_trips(fl: FactorList) -> None:
    assert not fl.hyps
    counts = parse_kummer_sum(str(fl))
    assert counts == fl.classes
    assert FactorList(counts) == fl


@settings(derandomize=True, deadline=None, max_examples=15)
@given(weight_tuples())
def test_reports_pass_their_checks_and_factor_lists_round_trip(w):
    report = full_report(w)
    assert report["checks"] and all(report["checks"].values()), report["checks"]
    kt = k_table(w)
    for i, entry in kt.items():
        if i:
            assert report["cohomology"][str(i)]["factors"] == str(entry)
            assert_round_trips(entry)
    assert report["cohomology"]["0"]["constant_quotient"] == str(kt[0].quotient)
    assert_round_trips(kt[0].quotient)
    assert_round_trips(kt[0].kummer_block)
    if len(w) >= 3:
        for entry in m_table(w).values():
            assert_round_trips(entry)
