"""Property tests of the syzygy layer over random weight tuples and random
sparse matrices."""

import math
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from dworkgm.syzygy import (_rank_exact, _rank_mod, generation_oracle,
                            verify_syzygies)

weights = st.lists(st.integers(1, 6), min_size=2, max_size=4).map(tuple)


@settings(derandomize=True, deadline=None, max_examples=20)
@given(weights)
def test_generators_are_syzygies_and_generate_one_degree_past_d(w):
    assert verify_syzygies(w)
    assert generation_oracle(w, sum(w) + 1)


def _dense_rank_exact(rows: list[list[int]], ncols: int) -> int:
    """Dense exact row reduction over Fraction, the reference for the sparse
    ranks."""
    work = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for c in range(ncols):
        piv = None
        for i in range(rank, len(work)):
            if work[i][c]:
                piv = i
                break
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        pivot_row = work[rank]
        inv = 1 / pivot_row[c]
        work[rank] = [x * inv for x in pivot_row]
        pivot_row = work[rank]
        for i in range(rank + 1, len(work)):
            factor = work[i][c]
            if factor:
                work[i] = [x - factor * y for x, y in zip(work[i], pivot_row)]
        rank += 1
        if rank == len(work):
            break
    return rank


BIG = math.comb(70, 35)
entries = st.one_of(st.integers(-6, 6),
                    st.sampled_from((BIG, -BIG, BIG * BIG + 1, -(2**63) - 1)))


@st.composite
def sparse_matrices(draw):
    """Rows {column: value} without zeros; some rows empty, repeated, or a
    combination of two others, which makes fill-in and dependent rows."""
    ncols = draw(st.integers(1, 9))
    row = st.dictionaries(st.integers(0, ncols - 1), entries, max_size=ncols)
    rows = [{c: x for c, x in r.items() if x}
            for r in draw(st.lists(row, max_size=9))]
    for _ in range(draw(st.integers(0, 3))):
        if not rows:
            break
        a = draw(st.sampled_from(rows))
        b = draw(st.sampled_from(rows))
        k = draw(entries)
        mixed = {c: k * a.get(c, 0) + b.get(c, 0) for c in a.keys() | b.keys()}
        rows.insert(draw(st.integers(0, len(rows))), {c: x for c, x in mixed.items() if x})
        rows.append(dict(draw(st.sampled_from(rows))))
    return rows, ncols


@settings(derandomize=True, deadline=None, max_examples=300)
@given(sparse_matrices())
def test_sparse_ranks_match_dense_exact_reduction(matrix):
    rows, ncols = matrix
    dense = [[r.get(c, 0) for c in range(ncols)] for r in rows]
    expected = _dense_rank_exact(dense, ncols)
    # a one-shot iterator: both ranks read their rows once
    assert _rank_exact(iter(rows), ncols) == expected
    assert _rank_mod(iter(rows), ncols) == expected
