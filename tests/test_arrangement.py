from itertools import combinations

import pytest

from dworkgm.arrangement import (projective_arrangement_consistent, projective_arrangement_dims,
                                 milnor_fiber_dims, nbc_oracle,
                                 proj_space_table, torus_slice_dims)


def test_projective_arrangement_n2():
    assert projective_arrangement_dims(2) == {0: 1, 1: 3}


def test_projective_arrangement_n3():
    # C(3,0) even case at i=-1, C(3,1)+1 odd case at i=0, C(3,2) at i=1
    assert projective_arrangement_dims(3) == {-1: 1, 0: 4, 1: 3}


def test_projective_arrangement_n4_entry():
    assert projective_arrangement_dims(4)[-2] == 1  # C(4,0), i+n even


def test_projective_arrangement_window_and_errors():
    table = projective_arrangement_dims(5)
    assert set(table) == set(range(-3, 2))
    with pytest.raises(ValueError):
        projective_arrangement_dims(1)


def test_milnor_examples():
    assert milnor_fiber_dims((1, 1, 1)) == {-1: 1, 0: 4}
    assert milnor_fiber_dims((1, 1, 1, 1)) == {-2: 1, -1: 3, 0: 6}
    assert milnor_fiber_dims((2, 2, 1)) == {-1: 1, 0: 6}


def test_milnor_rejects_common_factor():
    with pytest.raises(ValueError, match="common factor"):
        milnor_fiber_dims((2, 2, 4))


@pytest.mark.parametrize("w,message", [
    ((1, 1), "ambient dimension at least 2"),
    ((5,), "ambient dimension at least 2"),
    ((0, 1, 1), "weights must be positive"),
    ((1, -1, 2), "weights must be positive"),
])
def test_milnor_refuses_short_or_nonpositive_weights(w, message):
    with pytest.raises(ValueError, match=message):
        milnor_fiber_dims(w)


@pytest.mark.parametrize("n", [1, 0, -3])
def test_torus_slice_refuses_n_below_2(n):
    with pytest.raises(ValueError, match="n must be at least 2"):
        torus_slice_dims(n)


def test_tn_examples():
    assert torus_slice_dims(2) == {-1: 1, 0: 1}
    assert torus_slice_dims(3) == {-2: 1, -1: 3, 0: 2}
    assert torus_slice_dims(5)[-4] == 1


def test_tn_alternating_sum_vanishes():
    for n in range(2, 9):
        assert sum((-1) ** i * v for i, v in torus_slice_dims(n).items()) == 0


def ref_nbc_oracle(num_hyperplanes, ambient_dim):
    """The Moebius recursion run on every flat: each subset of at most the
    rank hyperplanes, as a sum over all its proper subsets."""
    rank = min(num_hyperplanes, ambient_dim)
    mu = {frozenset(): 1}
    betti = {0: 1}
    for k in range(1, rank + 1):
        total = 0
        for flat in combinations(range(num_hyperplanes), k):
            value = 0
            for j in range(k):
                for sub in combinations(flat, j):
                    value -= mu[frozenset(sub)]
            mu[frozenset(flat)] = value
            total += abs(value)
        betti[k] = total
    return betti


def test_nbc_by_rank_matches_every_flat():
    for n in range(1, 11):
        for dim in range(1, 11):
            assert nbc_oracle(n, dim) == ref_nbc_oracle(n, dim), (n, dim)


def test_nbc_trivial_cases():
    assert nbc_oracle(2, 1) == {0: 1, 1: 2}      # a line minus two points
    assert nbc_oracle(1, 4) == {0: 1, 1: 1}      # complement of one hyperplane


def test_nbc_needs_a_hyperplane():
    with pytest.raises(ValueError, match="at least one hyperplane"):
        nbc_oracle(0, 1)


def test_nbc_three_lines_in_plane():
    # Moebius recursion on the generic intersection poset, not asserted a
    # priori: frozen after running the recursion by hand on U_{2,3}
    assert nbc_oracle(3, 2) == {0: 1, 1: 3, 2: 3}


def test_nbc_moebius_values_alternate():
    betti = nbc_oracle(6, 3)
    assert set(betti) == {0, 1, 2, 3}
    assert all(v > 0 for v in betti.values())


def test_proj_space_table():
    assert proj_space_table(2) == {-2: 1, 0: 1, 2: 1}


def test_projective_arrangement_consistency_with_oracle():
    for n in range(2, 8):
        assert projective_arrangement_consistent(n)


def test_projective_arrangement_consistency_up_to_200():
    # the dimensions pass 2^53 from n = 57 on: an alternating sum in floats
    # would round there
    for n in range(2, 201):
        assert projective_arrangement_consistent(n), n


def test_milnor_fiber_weights_are_integers_not_truncated():
    with pytest.raises(TypeError):
        milnor_fiber_dims((1.5, 1, 1))
