"""Arrangement-cohomology dimension tables and their combinatorial oracle.

Three closed-form tables (all exact integers, empty outside their stated
windows):

  * ``projective_arrangement_dims`` -- local cohomology of the projective
    arrangement of the n coordinate hyperplanes plus their sum;
  * ``milnor_fiber_dims`` -- global de Rham cohomology of the Milnor fiber
    of a generic weighted arrangement;
  * ``torus_slice_dims`` -- global de Rham cohomology of the torus slice
    used by the inductive step.

The independent oracle is ``nbc_oracle``: Betti numbers of the complement of
a generic affine arrangement computed from the Moebius function of its
intersection poset by rank (all subsets up to the rank are flats in general
position, so the Moebius value of a flat depends only on its rank),
equivalently by no-broken-circuit counting.  The closed forms are
validated against the oracle through the long-exact-sequence relation of
``projective_arrangement_consistent``; the direct-image tables use
left-shifted (nonpositive) degrees and the checks perform the shift (ambient
dimension) explicitly.
"""

from __future__ import annotations

import operator
from math import comb, gcd


DimensionTable = dict[int, int]


def projective_arrangement_dims(n: int) -> DimensionTable:
    """Local-cohomology dimension table in degrees -(n-2)..1, n >= 2.

    Dimension C(n, i+n-2) when i+n is even, C(n, i+n-2) + 1 when odd.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    table = {}
    for i in range(-(n - 2), 2):
        dim = comb(n, i + n - 2)
        if (i + n) % 2:
            dim += 1
        table[i] = dim
    return table


def milnor_fiber_dims(w) -> DimensionTable:
    """De Rham table of the Milnor fiber of n+1 weighted generic hyperplanes
    in ambient dimension n: C(n, i+n-1) in degrees -(n-1)..-1 and n+d-1 in
    degree 0, d the weight sum.  The weights must share no common factor.
    """
    weights = tuple(map(operator.index, w))
    n = len(weights) - 1
    if n < 2:
        raise ValueError("need ambient dimension at least 2 (three weights)")
    if any(x < 1 for x in weights):
        raise ValueError("weights must be positive")
    if gcd(*weights) != 1:
        raise ValueError("weights must share no common factor")
    d = sum(weights)
    table = {i: comb(n, i + n - 1) for i in range(-(n - 1), 0)}
    table[0] = n + d - 1
    return table


def torus_slice_dims(n: int) -> DimensionTable:
    """De Rham table of the torus slice: C(n, i+n-1) in degrees -(n-1)..-1
    and n-1 in degree 0."""
    if n < 2:
        raise ValueError("n must be at least 2")
    table = {i: comb(n, i + n - 1) for i in range(-(n - 1), 0)}
    table[0] = n - 1
    return table


def nbc_oracle(num_hyperplanes: int, ambient_dim: int) -> DimensionTable:
    """Betti numbers of the complement of a generic affine arrangement, by rank.

    In general position every subset of at most min(N, dim) hyperplanes is a
    flat of the intersection poset, and the flats below a flat of k
    hyperplanes are its C(k, j) subsets of each size j < k.  So the defining
    recursion mu(F) = -sum(mu(G) for G < F) gives a value that depends only
    on the rank k, and it runs once per rank:

        mu_0 = 1,  mu_k = -sum(C(k, j) * mu_j for j < k).

    The k-th Betti number is the k-th unsigned Whitney number C(N, k)|mu_k|.
    This is the ground truth the closed-form tables are tested against, not
    a restatement of them.
    """
    if num_hyperplanes < 1 or ambient_dim < 1:
        raise ValueError("need at least one hyperplane in positive dimension")
    mu = [1]
    for k in range(1, min(num_hyperplanes, ambient_dim) + 1):
        mu.append(-sum(comb(k, j) * m for j, m in enumerate(mu)))
    return {k: comb(num_hyperplanes, k) * abs(m) for k, m in enumerate(mu)}


def proj_space_table(m: int) -> DimensionTable:
    """De Rham table of projective m-space as a direct image to the point:
    one-dimensional in degrees -m, -m+2, ..., m."""
    return {i: 1 for i in range(-m, m + 1, 2)}


def projective_arrangement_consistent(n: int) -> bool:
    """Long-exact-sequence consistency of the projective table with the oracle.

    With b the oracle Betti numbers of n generic affine hyperplanes in
    dimension n-1 (shift n-1) and P the projective-space table, the vanishing
    connecting maps force, degree by degree on the stated window,

        table[i] = b[i + n - 2] + P[i],

    whose alternating-sum corollary chi(table) = chi(P restricted to the
    window) - chi(shifted complement) follows from these equalities (put
    j = i + 1 in the shifted sum), so it is not checked separately.
    """
    table = projective_arrangement_dims(n)
    betti = nbc_oracle(n, n - 1)
    proj = proj_space_table(n - 1)
    return all(dim == betti.get(i + n - 2, 0) + proj.get(i, 0)
               for i, dim in table.items())
