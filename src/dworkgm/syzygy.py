"""Syzygies of the Jacobian ideal of the weighted arrangement polynomial.

For weights w = (w_0, ..., w_n) the polynomial is

    f = x_1^{w_1} * ... * x_n^{w_n} * (x_1 + ... + x_n)^{w_0},

homogeneous of degree d = sum(w_i).  The syzygies of (f, f'_1, ..., f'_n)
are generated by the Euler relation (-d, x_1, ..., x_n) and, for i < j, the
Koszul-like vectors with f-slot zero, i-slot x_i*l_j and j-slot -x_j*l_i,
where l_i = w_i*sigma + w_0*x_i.  The module checks, once per index, the
product identity x_j*sigma*f'_j = l_j*f, which over the domain Q[x] says
exactly that the quotient x_j*sigma*f'_j / f is l_j, and builds the Koszul
slots x_i*l_j and -x_j*l_i by shifting the keys of l.

``generation_oracle`` checks generation degree by degree up to a bound by
exact linear algebra: the dimension of the space of homogeneous syzygies
(kernel of the evaluation map on coefficient vectors) must equal the
dimension of the span of the generators under polynomial multiplication.
Its sparse rows {column: int} are yielded one at a time, in order of
leading (smallest) column, which is read off each piece's smallest keys
before any row is built: ascending for the evaluation matrix, descending for
the span matrix, the faster order of each.  They are eliminated mod a large
prime first, each pivot kept with the inverse of its leading entry instead
of being divided through; since the generator span is contained in the
syzygy space over Q, matching modular bounds certify the rational equality
exactly, and any mismatch falls back to the same elimination over Q.

``MultiPoly`` keys each monomial x_1^{e_1} ... x_n^{e_n} by one int that
packs n + 1 fields of 16 bits, most significant first:
[e_1 + ... + e_n | e_1 | ... | e_n].  A product of monomials is the sum of
their keys, integer order is grlex order, and the dimension table builds its
matrix rows by adding a shift key.  The top bit of each field stays clear,
so the sum of two in-range keys never carries from one field into the next:
every monomial degree must stay below ``DEGREE_LIMIT`` = 2^15, and the
constructor and products raise ValueError beyond it.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Iterator, Sequence

from .weyl import Scalar, _exact, _refuse_float, format_terms


class InvariantError(RuntimeError):
    """An internal invariant failed: a bug in this program, not bad input."""


# ---------------------------------------------------------------------------
# Multivariate polynomials over the rationals
# ---------------------------------------------------------------------------

# Packed monomial keys (see the module docstring): fields of _BITS bits whose
# top bit stays clear, so adding two keys never carries between fields.
_BITS = 16
_MASK = (1 << _BITS) - 1
DEGREE_LIMIT = 1 << (_BITS - 1)


def _pack(exps) -> int:
    key = degree = 0
    for e in exps:
        e = operator.index(e)
        if e < 0:
            raise ValueError("negative exponent in a polynomial")
        key = (key << _BITS) | e
        degree += e
    if degree >= DEGREE_LIMIT:
        raise ValueError(f"monomial degree {degree} is not below {DEGREE_LIMIT}")
    return (degree << (_BITS * len(exps))) | key


def _unpack(key: int, nvars: int) -> tuple[int, ...]:
    return tuple((key >> (_BITS * (nvars - 1 - i))) & _MASK for i in range(nvars))


def _unit(i: int, nvars: int) -> int:
    """The key of x_{i+1}: one in its own field and one in the degree field."""
    return (1 << (_BITS * nvars)) | (1 << (_BITS * (nvars - 1 - i)))


def _add_product(acc: dict, a: dict, b: dict, nvars: int) -> None:
    """Add the product of the term maps a and b into acc, zeros included."""
    if not a or not b:
        return
    # every product key is at most the sum of the two largest keys, so one
    # check on that degree keeps every field of every sum in range
    if (max(a) + max(b)) >> (_BITS * nvars) >= DEGREE_LIMIT:
        raise ValueError(f"product degree is not below {DEGREE_LIMIT}")
    get = acc.get
    b_items = b.items()
    for k1, v1 in a.items():
        for k2, v2 in b_items:
            k = k1 + k2
            acc[k] = get(k, 0) + v1 * v2


def _make(nvars: int, c: dict) -> "MultiPoly":
    out = MultiPoly.__new__(MultiPoly)
    out.nvars, out._c = nvars, c
    return out


class MultiPoly:
    """Polynomial in x_1..x_n with exact rational coefficients.

    Stored as a sparse map from packed monomial keys to int or Fraction
    coefficients; zero coefficients are never kept, and the constructor
    converts any other number exactly (a float, a string or a complex raises
    TypeError).  A key holds the total degree and then the exponents of
    x_1..x_n in fixed 16-bit fields, most significant first, so key order is
    grlex order and a product of monomials is a sum of keys.
    Every monomial degree, given or produced by a product, must stay below
    DEGREE_LIMIT (2^15); a larger one raises ValueError.  The constructor and
    ``items()`` speak exponent tuples.
    """

    __slots__ = ("nvars", "_c")

    def __init__(self, nvars: int, coeffs=None):
        self.nvars = nvars
        c = {}
        if coeffs:
            for exps, v in (coeffs.items() if hasattr(coeffs, "items") else coeffs):
                # every exponent vector is checked, a zero coefficient's too
                if len(exps) != nvars:
                    raise ValueError("exponent vector of wrong length")
                key = _pack(exps)
                if type(v) is not int:
                    v = _exact(v)  # a Decimal exactly, not in its context
                if v:
                    c[key] = c.get(key, 0) + v
        self._c = {k: v for k, v in c.items() if v}

    # -- constructors --------------------------------------------------------

    @staticmethod
    def zero(nvars: int) -> "MultiPoly":
        return _make(nvars, {})

    @staticmethod
    def constant(nvars: int, value: Scalar) -> "MultiPoly":
        return MultiPoly(nvars, {(0,) * nvars: value})

    @staticmethod
    def variable(i: int, nvars: int) -> "MultiPoly":
        if not 0 <= i < nvars:
            raise IndexError("variable index out of range")
        return _make(nvars, {_unit(i, nvars): 1})

    @staticmethod
    def sigma(nvars: int) -> "MultiPoly":
        """x_1 + ... + x_n."""
        return _make(nvars, {_unit(i, nvars): 1 for i in range(nvars)})

    # -- structure -----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._c

    def items(self) -> Iterator[tuple[tuple[int, ...], Scalar]]:
        """(exponent tuple, coefficient) pairs in increasing grlex order."""
        n, c = self.nvars, self._c
        return ((_unpack(k, n), c[k]) for k in sorted(c))

    def __len__(self) -> int:
        return len(self._c)

    def degree(self) -> int:
        if not self._c:
            raise ValueError("degree of the zero polynomial")
        return max(self._c) >> (_BITS * self.nvars)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, MultiPoly):
            return self.nvars == other.nvars and self._c == other._c
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.nvars, frozenset(self._c.items())))

    # -- arithmetic ------------------------------------------------------------

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        if not isinstance(other, MultiPoly):
            _refuse_float(other)
            return NotImplemented
        c = dict(self._c)
        for k, v in other._c.items():
            s = c.get(k, 0) + v
            if s:
                c[k] = s
            else:
                c.pop(k, None)
        return _make(self.nvars, c)

    def __neg__(self) -> "MultiPoly":
        return _make(self.nvars, {k: -v for k, v in self._c.items()})

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        if not isinstance(other, MultiPoly):
            _refuse_float(other)
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: "MultiPoly | Scalar") -> "MultiPoly":
        if isinstance(other, (int, Fraction)):
            return _make(self.nvars, {k: v * other for k, v in self._c.items()}
                         if other else {})
        if not isinstance(other, MultiPoly):
            _refuse_float(other)
            return NotImplemented
        c: dict = {}
        _add_product(c, self._c, other._c, self.nvars)
        return _make(self.nvars, {k: v for k, v in c.items() if v})

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
        if not 0 <= i < self.nvars:
            raise IndexError("variable index out of range")
        shift = _BITS * (self.nvars - 1 - i)
        unit = _unit(i, self.nvars)
        c = {}
        for k, v in self._c.items():
            e = (k >> shift) & _MASK
            if e:
                c[k - unit] = v * e
        return _make(self.nvars, c)

    # -- printing --------------------------------------------------------------

    def __str__(self) -> str:
        n, c = self.nvars, self._c
        return format_terms(
            (c[k], [(f"x{i + 1}", e) for i, e in enumerate(_unpack(k, n))])
            for k in sorted(c, reverse=True))

    def __repr__(self) -> str:
        return f"<MultiPoly {self}>"


# ---------------------------------------------------------------------------
# The family polynomial and its syzygies
# ---------------------------------------------------------------------------

def _weights(w) -> tuple[int, ...]:
    weights = tuple(map(operator.index, w))
    if len(weights) < 2 or any(x < 1 for x in weights):
        raise ValueError("need at least two positive weights")
    return weights


def family_poly(w) -> MultiPoly:
    """x_1^{w_1} ... x_n^{w_n} * (x_1+...+x_n)^{w_0}, expanded.

    A degree d = sum(w) not below DEGREE_LIMIT raises ValueError before any
    term is built.  The terms of sigma^{w_0} are written directly: the keys
    of degree w_0 are walked field by field, as in ``_monomial_keys``, with
    the multinomial coefficient w_0! / (e_1! ... e_n!) carried as the product
    of the binomials C(w_0 - e_1 - ... - e_{i-1}, e_i), and each key is
    shifted by the key of x_1^{w_1} ... x_n^{w_n}.
    """
    weights = _weights(w)
    n, w0 = len(weights) - 1, weights[0]
    d = sum(weights)
    if d >= DEGREE_LIMIT:
        raise ValueError(f"monomial degree {d} is not below {DEGREE_LIMIT}")
    level = [(w0, w0, 1)]  # (key prefix, exponent left, coefficient so far)
    for _ in range(n - 1):
        next_level = []
        for prefix, left, coeff in level:
            for e in range(left + 1):
                next_level.append(((prefix << _BITS) | e, left - e, coeff))
                coeff = coeff * (left - e) // (e + 1)
        level = next_level
    shift = _pack(weights[1:])
    return _make(n, {((prefix << _BITS) | left) + shift: coeff
                     for prefix, left, coeff in level})


def l_poly(w, i: int) -> MultiPoly:
    """l_i = w_i * sigma + w_0 * x_i (1-based slot i)."""
    weights = _weights(w)
    n = len(weights) - 1
    if not 1 <= i <= n:
        raise IndexError("variable index out of range")
    c = {_unit(k, n): weights[i] for k in range(n)}
    c[_unit(i - 1, n)] += weights[0]
    return _make(n, c)


@dataclass(frozen=True)
class SyzygyVector:
    """Vector pairing with the generators (f, f'_1, ..., f'_n); the dot
    product against them is the zero polynomial."""

    components: tuple[MultiPoly, ...]
    kind: str  # "euler" or "koszul(i,j)"

    def dot(self, generators: Sequence[MultiPoly]) -> MultiPoly:
        """sum a_i * g_i, every product expanded into one term map whose zeros
        are dropped at the end; a component count mismatch raises ValueError."""
        nvars = generators[0].nvars
        acc: dict = {}
        for a, g in zip(self.components, generators, strict=True):
            _add_product(acc, a._c, g._c, nvars)
        return _make(nvars, {k: v for k, v in acc.items() if v})


def jacobian_generators(w) -> list[MultiPoly]:
    """(f, f'_1, ..., f'_n) for the homogeneous family polynomial."""
    weights = _weights(w)
    n = len(weights) - 1
    f = family_poly(weights)
    return [f] + [f.partial(i) for i in range(n)]


def syzygy_generators(w, _gens: list[MultiPoly] | None = None) -> list[SyzygyVector]:
    """The Euler vector and the Koszul-like vectors for all pairs i < j.

    For each index j the identity x_j*sigma*f'_j - l_j*f = 0 is expanded into
    one term map; since f is not zero it holds exactly when the quotient
    x_j*sigma*f'_j / f is l_j.  A nonzero term would indicate an
    implementation bug and is surfaced loudly.  The pair i < j has slots
    x_i*l_j and -x_j*l_i, the keys of l shifted by the key of one variable.
    """
    weights = _weights(w)
    n = len(weights) - 1
    gens = _gens if _gens is not None else jacobian_generators(weights)
    f, partials = gens[0], gens[1:]
    d = sum(weights)
    units = [_unit(i, n) for i in range(n)]

    euler = SyzygyVector(
        components=(MultiPoly.constant(n, -d), *(_make(n, {u: 1}) for u in units)),
        kind="euler",
    )
    out = [euler]
    minus_f = {k: -v for k, v in f._c.items()}
    ls = []
    for j in range(n):
        lj = l_poly(weights, j + 1)._c
        acc: dict = {}
        _add_product(acc, {units[j] + u: 1 for u in units}, partials[j]._c, n)
        _add_product(acc, lj, minus_f, n)
        if any(acc.values()):
            raise InvariantError(
                f"Koszul quotient x_{j + 1}*sigma*f'_{j + 1} / f does not match "
                f"the simplified form l_{j + 1}")
        ls.append(lj)
    for i, j in combinations(range(n), 2):
        components = [MultiPoly.zero(n)] * (n + 1)
        components[i + 1] = _make(n, {k + units[i]: v for k, v in ls[j].items()})
        components[j + 1] = _make(n, {k + units[j]: -v for k, v in ls[i].items()})
        out.append(SyzygyVector(components=tuple(components),
                                kind=f"koszul({i + 1},{j + 1})"))
    return out


def _syzygy_parts(w) -> tuple[list[MultiPoly], list[SyzygyVector]]:
    """The Jacobian generators and the syzygy generators, built once."""
    gens = jacobian_generators(w)
    return gens, syzygy_generators(w, _gens=gens)


def verify_syzygies(w, _parts=None) -> bool:
    """True iff every generator dots to zero against (f, f'_1, ..., f'_n).

    ``_parts`` is the pair (jacobian_generators(w), syzygy_generators(w)),
    for callers that have built it already.
    """
    gens, vectors = _parts if _parts is not None else _syzygy_parts(w)
    return all(v.dot(gens).is_zero for v in vectors)


# ---------------------------------------------------------------------------
# Degree-bounded generation oracle
# ---------------------------------------------------------------------------

def _monomial_keys(nvars: int, degree: int) -> list[int]:
    """Packed keys of the monomials of one degree, in increasing order."""
    if degree < 0:
        return []

    def extend(prefix: int, left: int, fields: int) -> list[int]:
        if fields == 1:
            return [(prefix << _BITS) | left]
        return [key for e in range(left + 1)
                for key in extend((prefix << _BITS) | e, left - e, fields - 1)]

    return extend(degree, degree, nvars)


def _rank_mod(rows: Iterable[dict[int, int]], ncols: int,
              p: int = 1_000_003) -> int:
    """Rank mod p of the sparse rows {column: int}; reads the iterable once.

    Each row is reduced by the pivot rows so far, keyed by leading column.
    A pivot is stored as (inverse of its leading entry, rest of the row), so
    no pivot row is divided through: a reduction multiplies the row's
    leading entry by that inverse once to get its factor.  The rank does not
    depend on the order of the rows; columns are < ncols.
    """
    pivots: dict[int, tuple[int, dict[int, int]]] = {}
    for row in rows:
        r = {c: x % p for c, x in row.items() if x % p}
        while r:
            lead = min(r)
            a = r.pop(lead)
            pivot = pivots.get(lead)
            if pivot is None:
                pivots[lead] = (pow(a, -1, p), r)
                break
            inv, rest = pivot
            factor = a * inv % p
            for c, y in rest.items():
                x = (r.get(c, 0) - factor * y) % p
                if x:
                    r[c] = x
                else:
                    r.pop(c, None)
        if len(pivots) == ncols:
            break
    return len(pivots)


def _rank_exact(rows: Iterable[dict[int, int]], ncols: int) -> int:
    """Rank over Q of ``_rank_mod``'s rows, by its elimination over Fraction."""
    pivots: dict[int, tuple[Fraction, dict[int, Fraction]]] = {}
    for row in rows:
        r = {c: Fraction(x) for c, x in row.items() if x}
        while r:
            lead = min(r)
            a = r.pop(lead)
            pivot = pivots.get(lead)
            if pivot is None:
                pivots[lead] = (1 / a, r)
                break
            inv, rest = pivot
            factor = a * inv
            for c, y in rest.items():
                x = r.get(c, 0) - factor * y
                if x:
                    r[c] = x
                else:
                    r.pop(c, None)
        if len(pivots) == ncols:
            break
    return len(pivots)


def _int_coeff(v: Scalar) -> int:
    if isinstance(v, int):
        return v
    if v.denominator != 1:
        raise ValueError("expected an integer coefficient")
    return v.numerator


def _int_terms(poly: MultiPoly) -> list[tuple[int, int]]:
    return [(k, _int_coeff(v)) for k, v in poly._c.items()]


@dataclass
class DegreeDims:
    degree: int
    syzygy_dim: int
    generated_dim: int

    @property
    def matches(self) -> bool:
        return self.syzygy_dim == self.generated_dim


def syzygy_dimension_table(w, degree_bound: int,
                           _parts=None) -> list[DegreeDims]:
    """Per-degree syzygy-space and generator-span dimensions up to the bound.

    A degree-m syzygy is a vector (a_0, ..., a_n) with deg a_0 = m - d and
    deg a_i = m - d + 1 such that a_0*f + sum a_i*f'_i = 0.  Both dimensions
    are exact: modular ranks certify equality when the two one-sided bounds
    meet, otherwise exact rational elimination decides.  Below degree d - 1
    every slot degree is negative, so the domain is empty and both
    dimensions are zero with no elimination.  A bound below d or not below
    DEGREE_LIMIT raises ValueError before any work.  ``_parts`` is as in
    ``verify_syzygies``.
    """
    weights = _weights(w)
    d = sum(weights)
    if degree_bound < d:
        raise ValueError(f"degree bound must be at least d = {d}")
    if degree_bound >= DEGREE_LIMIT:
        raise ValueError(f"degree bound {degree_bound} is not below {DEGREE_LIMIT}")
    n = len(weights) - 1
    gens, vectors = _parts if _parts is not None else _syzygy_parts(weights)
    if not verify_syzygies(weights, _parts=(gens, vectors)):
        raise InvariantError("generators are not syzygies")
    slot_degrees = [d] + [d - 1] * n  # degrees of (f, f'_1..f'_n)

    # a row is a piece (degree, parts, lows) times a monomial x^s of degree
    # m - degree, each part placed by its own column map; lows pairs each
    # nonzero part with its smallest key, whose column plus the shift is the
    # part's leading column.  The evaluation map (a_0..a_n) -> a_0 f +
    # sum a_i f'_i has the one-part pieces f, f'_i.
    def piece(degree: int, polys) -> tuple:
        parts = [_int_terms(q) for q in polys]
        return degree, parts, [(i, min(q._c)) for i, q in enumerate(polys) if q._c]

    eval_pieces = [piece(deg, [g]) for g, deg in zip(gens, slot_degrees)]
    span_pieces = [piece(d if v.kind == "euler" else d + 1, v.components)
                   for v in vectors]
    # the shift degrees m - degree of the pieces, for d - 1 <= m <= bound
    keys = {k: _monomial_keys(n, k) for k in range(degree_bound - d + 2)}

    def rows(m: int, pieces, columns, descending: bool) -> Iterator[dict[int, int]]:
        """The rows of degree m, yielded one at a time in order of leading
        column; each lead is read off the lows, so no row is built to sort."""
        order = sorted(
            ((min(columns[i][low + shift] for i, low in lows), index, shift)
             for index, (degree, _, lows) in enumerate(pieces)
             for shift in keys.get(m - degree, ())),
            reverse=descending)
        for _, index, shift in order:
            yield {cols[k + shift]: v
                   for cols, terms in zip(columns, pieces[index][1]) for k, v in terms}

    results = [DegreeDims(m, 0, 0) for m in range(d - 1)]
    for m in range(d - 1, degree_bound + 1):
        target = {key: col for col, key in enumerate(_monomial_keys(n, m))}
        slot_columns = []
        dom_dim = 0
        for deg in slot_degrees:
            slot_basis = keys.get(m - deg, ())
            slot_columns.append({key: dom_dim + i for i, key in enumerate(slot_basis)})
            dom_dim += len(slot_basis)
        # the evaluation rows go in ascending, the span rows in descending
        # order of lead, the faster order of each as measured
        syz_mod = dom_dim - _rank_mod(rows(m, eval_pieces, [target], False),
                                      len(target))
        span_mod = _rank_mod(rows(m, span_pieces, slot_columns, True), dom_dim)
        if syz_mod == span_mod:
            # span <= kernel over Q, and the mod-p bounds squeeze both:
            # dom - rank_p(M) >= kernel_Q >= span_Q >= rank_p(G)
            results.append(DegreeDims(m, syz_mod, span_mod))
        else:
            syz = dom_dim - _rank_exact(rows(m, eval_pieces, [target], False),
                                        len(target))
            span = _rank_exact(rows(m, span_pieces, slot_columns, True), dom_dim)
            results.append(DegreeDims(m, syz, span))
    return results


def generation_oracle(w, degree_bound: int) -> bool:
    """True iff the generators span the syzygies in every degree <= bound."""
    return all(entry.matches for entry in syzygy_dimension_table(w, degree_bound))
