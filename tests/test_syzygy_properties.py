"""Property tests of the syzygy layer over random weight tuples and random
sparse matrices, and of its packed zero test against one dot per check."""

import math
from fractions import Fraction
from itertools import product
from unittest import mock

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from dworkgm import syzygy
from dworkgm.syzygy import (InvariantError, MultiPoly, SyzygyVector,
                            _failing_checks, _monomial_keys, _rank_exact,
                            _rank_mod, generation_oracle, jacobian_generators,
                            syzygy_generators, verify_syzygies)
from test_syzygy import _ref_dot

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
    assert len(_rank_mod(iter(rows), ncols)) == expected


# -- the packed pass against one dot per check ----------------------------------

PACKED_CASES = [w for n in range(1, 4) for w in product(range(1, 4), repeat=n + 1)]
PACKED_CASES += [(60, 2, 1, 1), (6, 5, 4, 3, 2)]
deltas = st.one_of(st.integers(-5, 5).filter(bool),
                   st.sampled_from((2**70 + 1, -(2**64), 3**45)))


def _ref_failing(vectors, gens):
    """The indices of the vectors whose dot is not zero, found check by
    check by ``SyzygyVector.dot``, which must agree with ``_ref_dot``."""
    failing = []
    for s, v in enumerate(vectors):
        dot = v.dot(gens)
        assert dot == _ref_dot(v, gens)
        if not dot.is_zero:
            failing.append(s)
    return failing


def _identities(w):
    """The n checks x_j*sigma*f'_j - l_j*f, l_j read through ``syzygy.l_poly``
    (as patched), as vectors built by MultiPoly arithmetic."""
    n = len(w) - 1
    out = []
    for j in range(n):
        components = [MultiPoly.zero(n)] * (n + 1)
        components[0] = -syzygy.l_poly(w, j + 1)
        components[j + 1] = MultiPoly.variable(j, n) * MultiPoly.sigma(n)
        out.append(SyzygyVector(tuple(components), f"identity({j + 1})"))
    return out


def _maps(vectors):
    return [[c._c for c in v.components] for v in vectors]


def _slot_degree(vector, i):
    if vector.kind == "euler":
        return 0 if i == 0 else 1
    return 2


@settings(derandomize=True, deadline=None, max_examples=6)
@given(st.data())
def test_a_perturbed_vector_fails_exactly_its_own_check(data):
    # one coefficient of one component of one vector, present or not, moved
    # by delta: the packed pass names that vector and no other
    for w in PACKED_CASES:
        n = len(w) - 1
        gens = jacobian_generators(w)
        vectors = syzygy_generators(w, _gens=gens)
        s = data.draw(st.integers(0, len(vectors) - 1))
        i = data.draw(st.integers(0, n))
        key = data.draw(st.sampled_from(
            _monomial_keys(n, _slot_degree(vectors[s], i))))
        delta = data.draw(deltas)
        c = dict(vectors[s].components[i]._c)
        c[key] = c.get(key, 0) + delta
        components = list(vectors[s].components)
        components[i] = syzygy._make(n, {k: v for k, v in c.items() if v})
        bad = list(vectors)
        bad[s] = SyzygyVector(tuple(components), vectors[s].kind)
        expected = _ref_failing(bad, gens)
        assert expected == [s]
        assert _failing_checks(_maps(bad), [g._c for g in gens], n) == expected
        assert not verify_syzygies(w, _parts=(gens, bad))
        # the fused pass of identities and vectors: the identities hold
        fused = _identities(w) + bad
        assert _failing_checks(_maps(fused), [g._c for g in gens], n) == [n + s]


@settings(derandomize=True, deadline=None, max_examples=6)
@given(st.data())
def test_a_perturbed_l_fails_its_identity_and_its_koszul_vectors(data):
    # l_j moved by delta at one linear monomial: identity j fails, and so do
    # the Koszul vectors built from l_j; verify_syzygies raises naming j
    real_l_poly = syzygy.l_poly
    for w in PACKED_CASES:
        n = len(w) - 1
        bad_j = data.draw(st.integers(1, n))
        key = data.draw(st.sampled_from(_monomial_keys(n, 1)))
        delta = data.draw(deltas)

        def perturbed(weights, i):
            lj = real_l_poly(weights, i)
            if i != bad_j:
                return lj
            c = dict(lj._c)
            c[key] = c.get(key, 0) + delta
            return syzygy._make(n, {k: v for k, v in c.items() if v})

        with mock.patch.object(syzygy, "l_poly", perturbed):
            gens = jacobian_generators(w)
            vectors, identities = syzygy._syzygy_checks(w)
            checks = _identities(w) + [
                SyzygyVector(tuple(syzygy._make(n, c) for c in v), "vector")
                for v in vectors]
            expected = _ref_failing(checks, gens)
            assert expected[0] == bad_j - 1
            assert [s for s in expected if s < n] == [bad_j - 1]
            assert len(expected) == 1 + (n - 1)  # the pairs (i, bad_j)
            assert _failing_checks(identities + vectors,
                                   [g._c for g in gens], n) == expected
            with pytest.raises(InvariantError,
                               match=rf"Koszul quotient x_{bad_j}\*sigma\*f'_{bad_j} "):
                verify_syzygies(w)
            with pytest.raises(InvariantError, match=rf"x_{bad_j}\*sigma"):
                syzygy_generators(w)
