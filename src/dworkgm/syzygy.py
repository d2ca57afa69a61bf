"""Syzygies of the Jacobian ideal of the weighted arrangement polynomial.

For weights w = (w_0, ..., w_n) the polynomial is

    f = x_1^{w_1} * ... * x_n^{w_n} * (x_1 + ... + x_n)^{w_0},

homogeneous of degree d = sum(w_i).  The syzygies of (f, f'_1, ..., f'_n)
are generated by the Euler relation (-d, x_1, ..., x_n) and, for i < j, the
Koszul-like vectors with f-slot zero, i-slot x_i*l_j and j-slot -x_j*l_i,
where l_i = w_i*sigma + w_0*x_i; the module computes the Koszul slots as the
exact quotient x_i*x_j*sigma*f'_j / f and asserts that it agrees with the
simplified form.

``generation_oracle`` checks generation degree by degree up to a bound by
exact linear algebra: the dimension of the space of homogeneous syzygies
(kernel of the evaluation map on coefficient vectors) must equal the
dimension of the span of the generators under polynomial multiplication.
Ranks are computed mod a large prime first; since the generator span is
contained in the syzygy space over Q, matching modular bounds certify the
rational equality exactly, and any mismatch falls back to dense exact
rational row reduction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterator, Sequence, Union

from .weyl import format_terms

Scalar = Union[int, Fraction]


class InvariantError(RuntimeError):
    """An internal invariant failed: a bug in this program, not bad input."""


class ExactDivisionError(ArithmeticError):
    """The requested polynomial division is not exact."""


# ---------------------------------------------------------------------------
# Multivariate polynomials over the rationals
# ---------------------------------------------------------------------------

def _grlex(exps: tuple[int, ...]) -> tuple:
    return (sum(exps), exps)


class MultiPoly:
    """Polynomial in x_1..x_n with exact rational coefficients.

    Stored as a sparse map from exponent vectors to coefficients; zero
    coefficients are never kept.
    """

    __slots__ = ("nvars", "_c")

    def __init__(self, nvars: int, coeffs=None):
        self.nvars = nvars
        c = {}
        if coeffs:
            for exps, v in (coeffs.items() if hasattr(coeffs, "items") else coeffs):
                if v:
                    key = tuple(int(e) for e in exps)
                    if len(key) != nvars:
                        raise ValueError("exponent vector of wrong length")
                    c[key] = c.get(key, 0) + v
        self._c = {k: v for k, v in c.items() if v}

    # -- constructors --------------------------------------------------------

    @staticmethod
    def zero(nvars: int) -> "MultiPoly":
        return MultiPoly(nvars)

    @staticmethod
    def constant(nvars: int, value: Scalar) -> "MultiPoly":
        return MultiPoly(nvars, {(0,) * nvars: value})

    @staticmethod
    def variable(i: int, nvars: int) -> "MultiPoly":
        exps = [0] * nvars
        exps[i] = 1
        return MultiPoly(nvars, {tuple(exps): 1})

    @staticmethod
    def sigma(nvars: int) -> "MultiPoly":
        """x_1 + ... + x_n."""
        out = MultiPoly.zero(nvars)
        for i in range(nvars):
            out = out + MultiPoly.variable(i, nvars)
        return out

    # -- structure -----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._c

    def items(self) -> Iterator[tuple[tuple[int, ...], Scalar]]:
        return iter(sorted(self._c.items(), key=lambda kv: _grlex(kv[0])))

    def __len__(self) -> int:
        return len(self._c)

    def degree(self) -> int:
        if not self._c:
            raise ValueError("degree of the zero polynomial")
        return max(sum(e) for e in self._c)

    def is_homogeneous(self) -> bool:
        degrees = {sum(e) for e in self._c}
        return len(degrees) <= 1

    def __eq__(self, other: object) -> bool:
        if isinstance(other, MultiPoly):
            return self.nvars == other.nvars and self._c == other._c
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.nvars, frozenset(self._c.items())))

    # -- arithmetic ------------------------------------------------------------

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        c = dict(self._c)
        for k, v in other._c.items():
            s = c.get(k, 0) + v
            if s:
                c[k] = s
            else:
                c.pop(k, None)
        out = MultiPoly.__new__(MultiPoly)
        out.nvars, out._c = self.nvars, c
        return out

    def __neg__(self) -> "MultiPoly":
        out = MultiPoly.__new__(MultiPoly)
        out.nvars, out._c = self.nvars, {k: -v for k, v in self._c.items()}
        return out

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        return self + (-other)

    def __mul__(self, other: "MultiPoly | Scalar") -> "MultiPoly":
        if isinstance(other, (int, Fraction)):
            out = MultiPoly.__new__(MultiPoly)
            out.nvars = self.nvars
            out._c = {} if not other else {k: v * other for k, v in self._c.items()}
            return out
        c: dict = {}
        for k1, v1 in self._c.items():
            for k2, v2 in other._c.items():
                k = tuple(a + b for a, b in zip(k1, k2))
                s = c.get(k, 0) + v1 * v2
                if s:
                    c[k] = s
                else:
                    c.pop(k, None)
        out = MultiPoly.__new__(MultiPoly)
        out.nvars, out._c = self.nvars, c
        return out

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "MultiPoly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = MultiPoly.constant(self.nvars, 1)
        for _ in range(n):
            result = result * self
        return result

    def partial(self, i: int) -> "MultiPoly":
        """Partial derivative with respect to x_{i+1} (0-based index)."""
        c = {}
        for k, v in self._c.items():
            if k[i]:
                key = k[:i] + (k[i] - 1,) + k[i + 1:]
                c[key] = c.get(key, 0) + v * k[i]
        return MultiPoly(self.nvars, c)

    def exact_divide(self, divisor: "MultiPoly") -> "MultiPoly":
        """Exact quotient self / divisor; raises ExactDivisionError otherwise."""
        if divisor.is_zero:
            raise ZeroDivisionError("division by the zero polynomial")
        if self.is_zero:
            return MultiPoly.zero(self.nvars)
        dlead = max(divisor._c, key=_grlex)
        dcoeff = divisor._c[dlead]
        rem = dict(self._c)
        quo: dict = {}
        while rem:
            lt = max(rem, key=_grlex)
            diff = tuple(a - b for a, b in zip(lt, dlead))
            if any(e < 0 for e in diff):
                raise ExactDivisionError("division is not exact")
            rc = rem[lt]
            if isinstance(rc, int) and isinstance(dcoeff, int) and rc % dcoeff == 0:
                c = rc // dcoeff
            else:
                c = Fraction(rc) / Fraction(dcoeff)
            quo[diff] = c
            for k, v in divisor._c.items():
                key = tuple(a + b for a, b in zip(diff, k))
                s = rem.get(key, 0) - c * v
                if s:
                    rem[key] = s
                else:
                    rem.pop(key, None)
        return MultiPoly(self.nvars, quo)

    # -- printing --------------------------------------------------------------

    def __str__(self) -> str:
        return format_terms(
            (v, [(f"x{i + 1}", e) for i, e in enumerate(exps)])
            for exps, v in sorted(self._c.items(), key=lambda kv: _grlex(kv[0]),
                                  reverse=True))

    def __repr__(self) -> str:
        return f"<MultiPoly {self}>"


# ---------------------------------------------------------------------------
# The family polynomial and its syzygies
# ---------------------------------------------------------------------------

def _weights(w) -> tuple[int, ...]:
    weights = tuple(int(x) for x in w)
    if len(weights) < 2 or any(x < 1 for x in weights):
        raise ValueError("need at least two positive weights")
    return weights


def family_poly(w, homogeneous: bool = True) -> MultiPoly:
    """x_1^{w_1} ... x_n^{w_n} * (x_1+...+x_n)^{w_0}, expanded.

    With ``homogeneous=False`` the affine variant with (1 - x_1 - ... - x_n)
    in place of the sum is returned instead.
    """
    weights = _weights(w)
    n = len(weights) - 1
    mono = MultiPoly(n, {tuple(weights[1:]): 1})
    if homogeneous:
        last = MultiPoly.sigma(n)
    else:
        last = MultiPoly.constant(n, 1) - MultiPoly.sigma(n)
    return mono * last ** weights[0]


def l_poly(w, i: int) -> MultiPoly:
    """l_i = w_i * sigma + w_0 * x_i (1-based slot i)."""
    weights = _weights(w)
    n = len(weights) - 1
    return (MultiPoly.sigma(n) * weights[i]
            + MultiPoly.variable(i - 1, n) * weights[0])


@dataclass(frozen=True)
class SyzygyVector:
    """Vector pairing with the generators (f, f'_1, ..., f'_n); the dot
    product against them is the zero polynomial."""

    components: tuple[MultiPoly, ...]
    kind: str  # "euler" or "koszul(i,j)"

    def dot(self, generators: Sequence[MultiPoly]) -> MultiPoly:
        acc = MultiPoly.zero(generators[0].nvars)
        for a, g in zip(self.components, generators):
            acc = acc + a * g
        return acc


def jacobian_generators(w) -> list[MultiPoly]:
    """(f, f'_1, ..., f'_n) for the homogeneous family polynomial."""
    weights = _weights(w)
    n = len(weights) - 1
    f = family_poly(weights)
    return [f] + [f.partial(i) for i in range(n)]


def syzygy_generators(w, _gens: list[MultiPoly] | None = None) -> list[SyzygyVector]:
    """The Euler vector and the Koszul-like vectors for all pairs i < j.

    The Koszul slots are computed by exact division of x_i*x_j*sigma*f'_j by
    f; disagreement with the simplified form x_i*l_j would indicate an
    implementation bug and is surfaced loudly.
    """
    weights = _weights(w)
    n = len(weights) - 1
    gens = _gens if _gens is not None else jacobian_generators(weights)
    f, partials = gens[0], gens[1:]
    d = sum(weights)
    xs = [MultiPoly.variable(i, n) for i in range(n)]
    sigma = MultiPoly.sigma(n)
    ls = [l_poly(weights, i + 1) for i in range(n)]

    euler = SyzygyVector(
        components=(MultiPoly.constant(n, -d), *xs),
        kind="euler",
    )
    out = [euler]
    for i, j in combinations(range(n), 2):
        slot_i = (xs[i] * xs[j] * sigma * partials[j]).exact_divide(f)
        slot_j = (xs[i] * xs[j] * sigma * partials[i]).exact_divide(f)
        if slot_i != xs[i] * ls[j] or slot_j != xs[j] * ls[i]:
            raise InvariantError(
                f"Koszul quotient for pair ({i + 1},{j + 1}) does not match "
                f"the simplified form x_i*l_j")
        components = [MultiPoly.zero(n) for _ in range(n + 1)]
        components[i + 1] = slot_i
        components[j + 1] = -slot_j
        out.append(SyzygyVector(components=tuple(components),
                                kind=f"koszul({i + 1},{j + 1})"))
    return out


def verify_syzygies(w) -> bool:
    """True iff every generator dots to zero against (f, f'_1, ..., f'_n)."""
    gens = jacobian_generators(w)
    return all(v.dot(gens).is_zero for v in syzygy_generators(w, _gens=gens))


# ---------------------------------------------------------------------------
# Degree-bounded generation oracle
# ---------------------------------------------------------------------------

def _monomials(nvars: int, degree: int) -> list[tuple[int, ...]]:
    if degree < 0:
        return []
    if nvars == 1:
        return [(degree,)]
    out = []
    for first in range(degree + 1):
        for rest in _monomials(nvars - 1, degree - first):
            out.append((first,) + rest)
    return out


def _rank_mod(rows: list[list[int]], ncols: int, p: int = 1_000_003) -> int:
    work = [[x % p for x in row] for row in rows]
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
        inv = pow(work[rank][c], -1, p)
        pivot_row = work[rank] = [x * inv % p for x in work[rank]]
        for i in range(rank + 1, len(work)):
            factor = work[i][c]
            if factor:
                work[i] = [(x - factor * y) % p
                           for x, y in zip(work[i], pivot_row)]
        rank += 1
        if rank == len(work):
            break
    return rank


def _rank_exact(rows: list[list[int]], ncols: int) -> int:
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


def _int_coeff(v: Scalar) -> int:
    f = Fraction(v)
    if f.denominator != 1:
        raise ValueError("expected an integer coefficient")
    return f.numerator


def _poly_row(poly: MultiPoly, index: dict[tuple[int, ...], int]) -> list[int]:
    row = [0] * len(index)
    for exps, v in poly._c.items():
        row[index[exps]] = _int_coeff(v)
    return row


@dataclass
class DegreeDims:
    degree: int
    syzygy_dim: int
    generated_dim: int

    @property
    def matches(self) -> bool:
        return self.syzygy_dim == self.generated_dim


def syzygy_dimension_table(w, degree_bound: int) -> list[DegreeDims]:
    """Per-degree syzygy-space and generator-span dimensions up to the bound.

    A degree-m syzygy is a vector (a_0, ..., a_n) with deg a_0 = m - d and
    deg a_i = m - d + 1 such that a_0*f + sum a_i*f'_i = 0.  Both dimensions
    are exact: modular ranks certify equality when the two one-sided bounds
    meet, otherwise exact rational elimination decides.
    """
    weights = _weights(w)
    d = sum(weights)
    if degree_bound < d:
        raise ValueError(f"degree bound must be at least d = {d}")
    n = len(weights) - 1
    gens = jacobian_generators(weights)
    vectors = syzygy_generators(weights)
    if not all(v.dot(gens).is_zero for v in vectors):
        raise InvariantError("generators are not syzygies")
    slot_degrees = [d] + [d - 1] * n  # degrees of (f, f'_1..f'_n)
    results = []
    for m in range(degree_bound + 1):
        target = _monomials(n, m)
        target_index = {mono: k for k, mono in enumerate(target)}
        # evaluation map: (a_0..a_n) -> a_0 f + sum a_i f'_i, on monomial bases
        slot_bases = [_monomials(n, m - deg) for deg in slot_degrees]
        eval_rows = []
        for gen_poly, basis in zip(gens, slot_bases):
            for mono in basis:
                shifted = MultiPoly(n, {tuple(a + b for a, b in zip(exps, mono)): v
                                        for exps, v in gen_poly._c.items()})
                eval_rows.append(_poly_row(shifted, target_index))
        dom_dim = len(eval_rows)
        # span of the generators inside the domain coordinates
        offsets = []
        total = 0
        for basis in slot_bases:
            offsets.append(total)
            total += len(basis)
        slot_index = [{mono: k for k, mono in enumerate(basis)}
                      for basis in slot_bases]
        span_rows = []
        for vec in vectors:
            vec_degree = d if vec.kind == "euler" else d + 1
            for mono in _monomials(n, m - vec_degree):
                row = [0] * total
                for slot, comp in enumerate(vec.components):
                    for exps, v in comp._c.items():
                        key = tuple(a + b for a, b in zip(exps, mono))
                        row[offsets[slot] + slot_index[slot][key]] = _int_coeff(v)
                span_rows.append(row)
        syz_mod = dom_dim - _rank_mod(eval_rows, len(target))
        span_mod = _rank_mod(span_rows, total)
        if syz_mod == span_mod:
            # span <= kernel over Q, and the mod-p bounds squeeze both:
            # dom - rank_p(M) >= kernel_Q >= span_Q >= rank_p(G)
            results.append(DegreeDims(m, syz_mod, span_mod))
        else:
            syz = dom_dim - _rank_exact(eval_rows, len(target))
            span = _rank_exact(span_rows, total)
            results.append(DegreeDims(m, syz, span))
    return results


def generation_oracle(w, degree_bound: int) -> bool:
    """True iff the generators span the syzygies in every degree <= bound."""
    return all(entry.matches for entry in syzygy_dimension_table(w, degree_bound))


def partial_factorization_holds(w) -> bool:
    """The identity f'_i = x^{w - e_i} * sigma^{w_0 - 1} * l_i, symbolically."""
    weights = _weights(w)
    n = len(weights) - 1
    f = family_poly(weights)
    sigma = MultiPoly.sigma(n)
    for i in range(n):
        exps = list(weights[1:])
        exps[i] -= 1
        mono = MultiPoly(n, {tuple(exps): 1})
        expected = mono * sigma ** (weights[0] - 1) * l_poly(weights, i + 1)
        if f.partial(i) != expected:
            return False
    return True
