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

Every such check is a combination c_0*f + c_1*f'_1 + ... + c_n*f'_n that
must vanish, and all the checks of a call are tested in one packed pass
(``_failing_checks``), a Kronecker substitution on the index of the check:
check s is shifted into field s, W bits wide, of one integer per monomial
key, so each generator is multiplied once by the packed components at its
index instead of once per check.  With M the largest |coefficient| of a
generator and N the largest sum over a check's components of the absolute
values of their coefficients, every coefficient of a check's combination is
at most M*N in absolute value, and W = bit_length(M*N) + 2 keeps each field
a signed value below a quarter of its range.  The packed value of a key is
then sum_s v_s * 2^(W*s) with |v_s| < 2^(W-2): its lowest field is the
centred residue modulo 2^W, and removing it leaves the rest divisible by
2^W, so no field carries into or cancels another.  Every packed value is
zero exactly when every check vanishes, and the failing checks are read off
the fields only when one is not.  Every call that hands out vectors
(``syzygy_generators``, the dimension table and the command line) builds
them from the int weights and checks the n identities and the 1 + C(n,2)
vectors in one fused pass, each check packed from its term maps
(``_pack_checks``), before any vector leaves the module.

``verify_syzygies(w)`` from the weights alone checks the same identities
and vectors, but the Euler check folded by sigma:
sigma*(-d*f + x_1*f'_1 + ... + x_n*f'_n) = 0.  Q[x] is a domain and sigma
is not zero, so this holds exactly when the Euler check does, the argument
the identities already rest on.  Folded, slot 0 of every check is linear and
slot i is x_i times a linear form, so the packed components are written
straight from one table of the coefficients l_jk of l_1..l_n at x_1..x_n,
read once from ``l_poly``, with no term map built (``_pack_weight_checks``):
at x_k slot 0 is -sum_j l_jk*2^(jW) - d*2^(nW), and at x_i*x_k slot i is
2^((i-1)W) + 2^(nW) plus +-l_bk*2^(sW) for each Koszul pair s of i and b.
Every slot has n keys, the keys the identities use.  The norms come from
the same table; the folded Euler check has norm n*d + n^2 (n*d from
-d*sigma, n from each x_i*sigma), the largest of the checks, so
W = bit_length(M*(n*d + n^2)) + 2.  Every check reaches degree d + 1, so a
weight sum with d + 1 not below ``DEGREE_LIMIT`` is refused before any is
built.

``generation_oracle`` checks generation degree by degree up to a bound by
exact linear algebra: the dimension of the space of homogeneous syzygies
(kernel of the evaluation map M on coefficient vectors) must equal the
dimension of the span of the generators under polynomial multiplication
(the row space of the span matrix G).  The sparse rows {column: int} are
yielded one at a time, in order of leading (smallest) column, which is read
off each piece's smallest column before any row is built: descending for G,
ascending for M, the faster order of each.  Both are eliminated mod a large
prime, each pivot kept with the inverse of its leading entry instead of
being divided through, and each entry reduced mod p only when it is read.
G goes first.  A row of M belongs to one domain column (slot i, monomial s),
and the rows at the pivot leads of G are never built: each pivot of G is a
syzygy mod p supported at and after its lead, so the row of M at a lead is
a combination of the rows at later columns, and by induction from the last
column down, of the rows kept; rank_p(M) is unchanged.  The squeeze
dom - rank_p(M) >= dim ker_Q >= dim span_Q >= rank_p(G) stays exact: the
span is contained in the kernel over Q, and no set of rows of M has a rank
mod p above rank_Q(M), whatever the leads, so matching bounds certify the
rational equality.  Any mismatch falls back to the same elimination over Q
on the full matrices.

The columns are monomial codes, not keys.  Within one degree a monomial is
fixed by e_1, ..., e_{n-1}; its code reads them as digits in base B = bound
+ 1, e_1 most significant.  No exponent of a monomial of degree <= bound
reaches B, so no digit of a sum carries: the code of a product is the sum
of the codes, and the codes of one degree sort like its keys.  Each
generator and vector term is encoded once per table, and a row x^s*g is
then g's codes plus the code of s, with no lookup.  A column of M is the
code of a monomial of degree m; a domain column is i*B^(n-1) + code(s), so
slot i keeps its own range, in slot-major order.  The rows of M come in
ascending order of raw lead, and a row's lead only rises under reduction,
so no row reads a pivot whose lead is below the current raw lead: the
elimination of M drops the rest of each such pivot as it passes, keeping
its lead counted.  Each reduction is the one it would be with every pivot
kept, so the rank is exact.

``MultiPoly`` keys each monomial x_1^{e_1} ... x_n^{e_n} by one int that
packs n + 1 fields of 16 bits, most significant first:
[e_1 + ... + e_n | e_1 | ... | e_n].  A product of monomials is the sum of
their keys, and integer order is grlex order.  The top bit of each field
stays clear, so the sum of two in-range keys never carries from one field
into the next: every monomial degree must stay below ``DEGREE_LIMIT`` =
2^15, and the constructor and products raise ValueError beyond it.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from heapq import heappop, heappush
from itertools import chain, combinations
from typing import Callable, Iterable, Iterator, KeysView, Sequence

from .weyl import Scalar, _clear_denominators, _exact, _refuse_float, format_terms


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
        keys = sorted(c, reverse=True)
        nums, den = _clear_denominators([c[k] for k in keys])
        return format_terms(
            ((a, [(f"x{i + 1}", e) for i, e in enumerate(_unpack(k, n))])
             for a, k in zip(nums, keys)), den)

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


def _top(gens: Sequence[dict]) -> int:
    """M, the largest |coefficient| of the generator term maps."""
    return max(map(abs, _values(gens)), default=0)


def _width(top: int, norm: int) -> int:
    """The field width bit_length(M*N) + 2 (see the module docstring)."""
    return (top * norm).bit_length() + 2


def _pack_checks(checks: Sequence[Sequence[dict]], gens: Sequence[dict]
                 ) -> tuple[list[dict], int]:
    """The packed components of the checks, one map per generator, and
    their field width: check s is shifted into field s of one int per
    monomial key.  Each check is a list of int term maps c_0..c_n aligned
    with the int generator term maps gens; a check whose component count
    differs from the generators' raises ValueError."""
    norm = max([sum(map(abs, _values(check))) for check in checks], default=0)
    width = _width(_top(gens), norm)
    packed: list[dict] = [{} for _ in gens]
    for s, check in enumerate(checks):
        shift = s * width
        for p, c in zip(packed, check, strict=True):
            get = p.get
            for k, v in c.items():
                p[k] = get(k, 0) + (v << shift)
    return packed, width


def _failing_fields(packed: Sequence[dict], width: int, gens: Sequence[dict],
                    nvars: int) -> list[int]:
    """The indices, ascending, of the fields of the packed checks whose sum
    c_0*g_0 + ... + c_n*g_n is not zero: each generator meets the packed
    components at its index in one ``_add_product``, and the fields are
    decoded only when some accumulated value is not zero."""
    acc: dict = {}
    for p, g in zip(packed, gens):
        _add_product(acc, p, g, nvars)
    if not any(acc.values()):
        return []
    # every field is a signed value below a quarter of its range: the low
    # field is the centred residue, and removing it leaves the others exact
    mask, half = (1 << width) - 1, 1 << (width - 1)
    failing = set()
    for value in acc.values():
        s = 0
        while value:
            field = value & mask
            if field >= half:
                field -= mask + 1
            if field:
                failing.add(s)
            value = (value - field) >> width
            s += 1
    return sorted(failing)


def _failing_checks(checks: Sequence[Sequence[dict]], gens: Sequence[dict],
                    nvars: int) -> list[int]:
    """The indices, ascending, of the checks whose sum c_0*g_0 + ... +
    c_n*g_n is not zero; each check is a list of int term maps c_0..c_n
    aligned with the int generator term maps gens.

    One packed pass (see the module docstring): ``_pack_checks``, then
    ``_failing_fields``.  A check whose component count differs from the
    generators' raises ValueError.
    """
    packed, width = _pack_checks(checks, gens)
    return _failing_fields(packed, width, gens, nvars)


def _syzygy_weights(w) -> tuple[int, ...]:
    """The weights, refused with ValueError when d + 1 is not below
    DEGREE_LIMIT: every check of a syzygy reaches degree d + 1."""
    weights = _weights(w)
    d = sum(weights)
    if d + 1 >= DEGREE_LIMIT:
        raise ValueError(f"weight sum d = {d}: the syzygy checks reach degree "
                         f"d + 1, which must be below {DEGREE_LIMIT}")
    return weights


def _raise_on_identity(failing: list[int], n: int) -> None:
    """Raise for the first failing Koszul-quotient identity: the identities
    are the first n checks of a packed pass."""
    if failing and failing[0] < n:
        j = failing[0] + 1
        raise InvariantError(
            f"Koszul quotient x_{j}*sigma*f'_{j} / f does not match "
            f"the simplified form l_{j}")


def _syzygy_checks(weights: tuple[int, ...]
                   ) -> tuple[list[list[dict]], list[list[dict]]]:
    """The syzygy generators and the n identity checks x_j*sigma*f'_j -
    l_j*f, each a list of term maps aligned with (f, f'_1, ..., f'_n): the
    Euler vector first, then the Koszul vectors of the pairs i < j in
    ``combinations`` order.

    Since f is not zero, identity j holds exactly when the quotient
    x_j*sigma*f'_j / f is l_j.  The pair i < j has slots x_i*l_j and
    -x_j*l_i, the keys of l shifted by the key of one variable.
    """
    n = len(weights) - 1
    units = [_unit(i, n) for i in range(n)]
    ls = [l_poly(weights, j + 1)._c for j in range(n)]
    identities = []
    for j in range(n):
        check: list[dict] = [{}] * (n + 1)
        check[0] = {k: -v for k, v in ls[j].items()}
        check[j + 1] = {units[j] + u: 1 for u in units}
        identities.append(check)
    # the key of the constant monomial is 0
    vectors = [[{0: -sum(weights)}] + [{u: 1} for u in units]]
    for i, j in combinations(range(n), 2):
        components: list[dict] = [{}] * (n + 1)
        components[i + 1] = {k + units[i]: v for k, v in ls[j].items()}
        components[j + 1] = {k + units[j]: -v for k, v in ls[i].items()}
        vectors.append(components)
    return vectors, identities


def _checked_generators(weights: tuple[int, ...]
                        ) -> tuple[list[MultiPoly], list[SyzygyVector]]:
    """The Jacobian generators and the syzygy generators of weights that
    ``_syzygy_weights`` has passed, checked in one fused packed pass: the n
    identities x_j*sigma*f'_j - l_j*f = 0 behind the Koszul slots and the
    1 + C(n,2) dots.  A failing check would indicate an implementation bug:
    a failing identity raises InvariantError naming the first failing j, any
    other failing check InvariantError("generators are not syzygies")."""
    n = len(weights) - 1
    gens = jacobian_generators(weights)
    vectors, identities = _syzygy_checks(weights)
    failing = _failing_checks(identities + vectors, [g._c for g in gens], n)
    _raise_on_identity(failing, n)
    if failing:
        raise InvariantError("generators are not syzygies")
    kinds = ["euler"] + [f"koszul({i + 1},{j + 1})"
                         for i, j in combinations(range(n), 2)]
    return gens, [SyzygyVector(components=tuple(_make(n, c) for c in v), kind=kind)
                  for v, kind in zip(vectors, kinds)]


def syzygy_generators(w) -> list[SyzygyVector]:
    """The Euler vector and the Koszul-like vectors for all pairs i < j,
    each checked to dot to zero, with the identities behind the Koszul
    slots, in one packed pass (``_checked_generators``).  A weight sum d
    with d + 1 not below DEGREE_LIMIT raises ValueError before any work.
    """
    return _checked_generators(_syzygy_weights(w))[1]


def _weight_table(weights: tuple[int, ...]) -> list[list[int]]:
    """The coefficients of the weight-only checks at x_1..x_n: row j < n
    holds those of l_{j+1}, read once from ``l_poly``, and row n holds d at
    each, those of d*sigma in the folded Euler check."""
    n = len(weights) - 1
    units = [_unit(k, n) for k in range(n)]
    table = []
    for j in range(1, n + 1):
        get = l_poly(weights, j)._c.get
        table.append([get(u, 0) for u in units])
    table.append([sum(weights)] * n)
    return table


def _weight_norms(table: list[list[int]]) -> list[int]:
    """The norm of each weight-only check, in field order, from the table:
    identity j has -l_j and the n ones of x_j*sigma, the folded Euler check
    -d*sigma and n slots x_i*sigma (n*d + n^2), and the pair i < j the
    slots x_i*l_j and -x_j*l_i."""
    n = len(table) - 1
    sums = [sum(map(abs, row)) for row in table]
    return ([sums[j] + n for j in range(n)] + [sums[n] + n * n]
            + [sums[i] + sums[j] for i, j in combinations(range(n), 2)])


def _pack_weight_checks(weights: tuple[int, ...], gens: Sequence[dict]
                        ) -> tuple[list[dict], int]:
    """The packed components and field width of the weight-only checks,
    the n identities, the folded Euler check and the Koszul vectors in
    ``_syzygy_checks`` order, written straight from ``_weight_table``: the
    same ints ``_pack_checks`` makes of those checks built as term maps.

    Slot 0 holds -l_j in field j and -d*sigma in field n, so at x_k it is
    -sum_j table[j][k] * 2^(jW).  Slot i holds x_i*sigma in fields i - 1 and
    n, and the Koszul slot of each pair s containing i, so at x_i*x_k it is
    2^((i-1)W) + 2^(nW) plus +-table[b][k] * 2^(sW) for the other index b.
    """
    table = _weight_table(weights)
    n = len(weights) - 1
    width = _width(_top(gens), max(_weight_norms(table)))
    units = [_unit(k, n) for k in range(n)]
    shifted = [[c << (j * width) for c in row] for j, row in enumerate(table)]
    packed = [{u: -sum(column) for u, column in zip(units, zip(*shifted))}]
    koszul = [[0] * n for _ in range(n)]
    for s, (i, j) in enumerate(combinations(range(n), 2), n + 1):
        shift = s * width
        ki, kj, li, lj = koszul[i], koszul[j], table[i], table[j]
        for k in range(n):
            ki[k] += lj[k] << shift
            kj[k] -= li[k] << shift
    euler = 1 << (n * width)
    for i, u in enumerate(units):
        ones = (1 << (i * width)) + euler
        packed.append({u + v: ones + c for v, c in zip(units, koszul[i])})
    return packed, width


def verify_syzygies(w) -> bool:
    """True iff every generator dots to zero against (f, f'_1, ..., f'_n).

    The n Koszul-quotient identities, the Euler vector folded by sigma and
    the Koszul vectors are checked in one packed pass, whose components are
    written from the weights (``_pack_weight_checks``), with no vector
    built; a failing identity raises InvariantError naming the first failing
    j.  A weight sum d with d + 1 not below DEGREE_LIMIT raises ValueError
    before any work.
    """
    weights = _syzygy_weights(w)
    n = len(weights) - 1
    gens = [g._c for g in jacobian_generators(weights)]
    failing = _failing_fields(*_pack_weight_checks(weights, gens), gens, n)
    _raise_on_identity(failing, n)
    return not failing


# ---------------------------------------------------------------------------
# Degree-bounded generation oracle
# ---------------------------------------------------------------------------

def _monomial_keys(nvars: int, degree: int) -> list[int]:
    """Packed keys of the monomials of one degree, in increasing order.

    One flat pass per field, as in ``family_poly``: each level extends every
    key prefix by the exponents 0..left of the next variable, in increasing
    order, and the last variable takes what is left.
    """
    if degree < 0:
        return []
    level = [(degree, degree)]  # (key prefix, exponent left)
    for _ in range(nvars - 1):
        level = [((prefix << _BITS) | e, left - e)
                 for prefix, left in level for e in range(left + 1)]
    return [(prefix << _BITS) | left for prefix, left in level]


def _coder(nvars: int, base: int) -> Callable[[int], int]:
    """The code of a packed key within its degree: the exponents e_1..e_{n-1}
    as digits in ``base``, most significant first, e_n left out.  For keys of
    degree below ``base`` the codes of one degree sort like the keys, and the
    code of a sum of keys is the sum of their codes."""
    fields = range(_BITS * (nvars - 1), 0, -_BITS)

    def code(key: int) -> int:
        c = 0
        for shift in fields:
            c = c * base + ((key >> shift) & _MASK)
        return c

    return code


# The prime of the oracle's elimination.
_PRIME = 1_000_003


def _rank_mod(rows: Iterable[dict[int, int]], ncols: int, *,
              ascending: bool = False) -> KeysView[int]:
    """The leading columns of the pivots of the sparse rows {column: int}
    mod p = ``_PRIME``, as a view of as many columns as their rank; reads the
    iterable once, and leaves the row dicts as they are.

    Each row is copied and reduced by the pivot rows so far, keyed by leading
    column.  An entry is reduced mod p only when it is read: as a lead, where
    one that is 0 mod p is dropped and the next one read, or in a pivot
    update.  A pivot is stored as (inverse of its leading entry, rest of the
    row), so no pivot row is divided through: a reduction multiplies the
    row's leading entry by that inverse once to get its factor.  Every column
    of a pivot's rest is after its lead.  The rank does not depend on the
    order of the rows.  The columns are nonnegative ints, any number of them
    apart; ncols is how many there are, and the elimination stops at that
    rank.

    With ``ascending`` the caller promises rows in ascending order of raw
    lead (smallest column, whatever its entry), and a row whose raw lead is
    below the one before raises InvariantError.  A row's lead only rises
    under reduction, so no later row reads a pivot whose lead is below the
    current raw lead: the rest of each such pivot is dropped, and its lead
    stays counted.
    """
    p = _PRIME
    pivots: dict[int, tuple[int, dict[int, int]] | None] = {}
    live: list[int] = []  # a heap of the leads whose rest is kept, if ascending
    floor = 0
    for row in rows:
        if not row:
            continue
        r = dict(row)
        lead = min(r)
        if ascending:
            if lead < floor:
                raise InvariantError(
                    f"row lead {lead} is below the lead {floor} before it")
            floor = lead
            while live and live[0] < lead:
                pivots[heappop(live)] = None
        while True:
            a = r.pop(lead) % p
            if a:
                pivot = pivots.get(lead)
                if pivot is None:
                    pivots[lead] = (pow(a, -1, p), r)
                    if ascending:
                        heappush(live, lead)
                    break
                inv, rest = pivot
                factor = a * inv % p
                for c, y in rest.items():
                    x = (r.get(c, 0) - factor * y) % p
                    if x:
                        r[c] = x
                    else:
                        r.pop(c, None)
            if not r:
                break
            lead = min(r)
        if len(pivots) == ncols:
            break
    return pivots.keys()


def _rank_exact(rows: Iterable[dict[int, int]], ncols: int) -> int:
    """Rank over Q of ``_rank_mod``'s rows, by its elimination over Fraction;
    the rank itself, not the leads."""
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


def _values(maps: Iterable[dict]) -> Iterator:
    """The coefficients of the term maps, one after another."""
    return chain.from_iterable(map(dict.values, maps))


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
    meet, otherwise exact rational elimination decides.  Below degree d - 1
    every slot degree is negative, so the domain is empty and both
    dimensions are zero with no elimination.  The generators it eliminates
    are checked first, as ``syzygy_generators`` checks them.  A weight sum d
    with d + 1 not below DEGREE_LIMIT, and then a bound below d or not below
    DEGREE_LIMIT, raise ValueError before any work.
    """
    return _generation_table(w, degree_bound)[1]


def _generation_table(w, degree_bound: int
                      ) -> tuple[list[SyzygyVector], list[DegreeDims]]:
    """The checked syzygy generators and ``syzygy_dimension_table``'s rows,
    built once for callers that print both."""
    weights = _syzygy_weights(w)
    d = sum(weights)
    if degree_bound < d:
        raise ValueError(f"degree bound must be at least d = {d}")
    if degree_bound >= DEGREE_LIMIT:
        raise ValueError(f"degree bound {degree_bound} is not below {DEGREE_LIMIT}")
    n = len(weights) - 1
    gens, vectors = _checked_generators(weights)
    slot_degrees = [d] + [d - 1] * n  # degrees of (f, f'_1..f'_n)
    # the Euler vector first, then the Koszul vectors one degree up
    span_degrees = [d] + [d + 1] * (len(vectors) - 1)

    # codes (see the module docstring) in base bound + 1; slot i of the
    # domain takes the columns i * top + code
    base = degree_bound + 1
    top = base ** (n - 1)
    code = _coder(n, base)

    def piece(parts) -> tuple[int, list[tuple[int, int]]]:
        """The smallest column and the terms (column, int) of the parts, the
        terms of part i at i * top + code."""
        terms = [(i * top + code(k), v)
                 for i, part in enumerate(parts) for k, v in part]
        return min(c for c, _ in terms), terms

    # a row is a piece times a monomial x^s: each column plus the code of s.
    # The evaluation map (a_0..a_n) -> a_0 f + sum a_i f'_i has the one-part
    # pieces f, f'_i, and its row x^s*g_i is the one of domain column
    # (slot i, monomial s)
    eval_pieces = [piece([g._c.items()]) for g in gens]
    span_pieces = [piece([c._c.items() for c in v.components]) for v in vectors]
    # the codes of the shift monomials, of degrees m - degree for m <= bound
    codes = {t: [code(k) for k in _monomial_keys(n, t)]
             for t in range(degree_bound - d + 2)}

    def rows(pieces, shifts, descending: bool) -> Iterator[dict[int, int]]:
        """The rows of each piece times the codes shifts[index], yielded one
        at a time in order of leading column, read off the smallest columns,
        so no row is built to sort."""
        order = sorted(((low + s, index, s)
                        for index, (low, _) in enumerate(pieces)
                        for s in shifts[index]),
                       reverse=descending)
        for _, index, s in order:
            yield {c + s: v for c, v in pieces[index][1]}

    results = [DegreeDims(m, 0, 0) for m in range(d - 1)]
    for m in range(d - 1, degree_bound + 1):
        slot_shifts = [codes.get(m - deg, ()) for deg in slot_degrees]
        dom_dim = sum(map(len, slot_shifts))
        span_shifts = [codes.get(m - deg, ()) for deg in span_degrees]
        ncols = math.comb(m + n - 1, n - 1)  # the monomials of degree m
        # the span rows go in descending, the evaluation rows in ascending
        # order of lead, the faster order of each as measured; the
        # evaluation rows at span leads are combinations of the rows kept
        # (see the module docstring), so they are never built
        leads = _rank_mod(rows(span_pieces, span_shifts, True), dom_dim)
        kept = [[s for s in shifts if i * top + s not in leads]
                for i, shifts in enumerate(slot_shifts)]
        syz_mod = dom_dim - len(_rank_mod(rows(eval_pieces, kept, False), ncols,
                                          ascending=True))
        span_mod = len(leads)
        if syz_mod == span_mod:
            # span <= kernel over Q, and the mod-p bounds squeeze both:
            # dom - rank_p(kept rows of M) >= kernel_Q >= span_Q >= rank_p(G)
            results.append(DegreeDims(m, syz_mod, span_mod))
        else:
            syz = dom_dim - _rank_exact(rows(eval_pieces, slot_shifts, False), ncols)
            span = _rank_exact(rows(span_pieces, span_shifts, True), dom_dim)
            results.append(DegreeDims(m, syz, span))
    return vectors, results


def generation_oracle(w, degree_bound: int) -> bool:
    """True iff the generators span the syzygies in every degree <= bound."""
    return all(entry.matches for entry in syzygy_dimension_table(w, degree_bound))
