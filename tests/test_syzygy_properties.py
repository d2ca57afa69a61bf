"""Property tests of the syzygy layer over random weight tuples."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from dworkgm.syzygy import generation_oracle, verify_syzygies

weights = st.lists(st.integers(1, 6), min_size=2, max_size=4).map(tuple)


@settings(derandomize=True, deadline=None, max_examples=20)
@given(weights)
def test_generators_are_syzygies_and_generate_one_degree_past_d(w):
    assert verify_syzygies(w)
    assert generation_oracle(w, sum(w) + 1)
