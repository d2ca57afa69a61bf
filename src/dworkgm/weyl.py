"""Exact normal-form arithmetic in the localized one-variable Weyl algebra.

The algebra is k[t, t^-1]<d>, generated by the coordinate t (invertible) and
the derivation d = d/dt, subject to the single relation

    d*t - t*d = 1.

Every operator is stored in the normal form

    sum_k  p_k(t) * d^k

with Laurent-polynomial coefficients p_k over exact rationals; this
representation is unique, so equality of operators is equality of coefficient
lists.  On top of the ring arithmetic this module provides:

  * a text grammar for operators (``parse_op`` / ``str(op)``), with the Euler
    operator D = t*d available as sugar;
  * the Fourier-Laplace substitution t -> d, d -> -t and its inverse;
  * the coordinate change t -> 1/t (point at infinity);
  * indicial polynomials at zero and infinity, whose roots are the local
    exponents;
  * singular-point detection for the leading coefficient, with Fuchs-type
    regularity flags at zero and infinity.

The transforms clear denominators and run on integers, as ``euler_product``
does, and build each output Fraction once.

All values are immutable and all operations are pure functions, so anything
here can be shared freely between threads.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Union

Scalar = Union[int, Fraction]


class ParseError(ValueError):
    """Syntax error in the operator grammar, with a character position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


# ---------------------------------------------------------------------------
# Laurent polynomials in t
# ---------------------------------------------------------------------------

class LaurentPoly:
    """Laurent polynomial in t with Fraction coefficients, sparse on exponents.

    Zero coefficients are never stored, so the zero polynomial has empty
    support and ``degree``/``order`` are only defined for nonzero elements.
    """

    __slots__ = ("_c",)

    def __init__(self, coeffs: Mapping[int, Scalar] | None = None):
        c = {}
        if coeffs:
            for e, v in coeffs.items():
                v = Fraction(v)
                if v:
                    c[int(e)] = v
        self._c = c

    @staticmethod
    def term(coeff: Scalar, exponent: int = 0) -> "LaurentPoly":
        return LaurentPoly({exponent: coeff})

    def items(self) -> Iterator[tuple[int, Fraction]]:
        return iter(sorted(self._c.items()))

    def __bool__(self) -> bool:
        return bool(self._c)

    @property
    def is_zero(self) -> bool:
        return not self._c

    def degree(self) -> int:
        if not self._c:
            raise ValueError("degree of the zero polynomial")
        return max(self._c)

    def order(self) -> int:
        """Lowest exponent with nonzero coefficient (t-adic valuation)."""
        if not self._c:
            raise ValueError("order of the zero polynomial")
        return min(self._c)

    def __getitem__(self, e: int) -> Fraction:
        return self._c.get(e, Fraction(0))

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        c = dict(self._c)
        for e, v in other._c.items():
            s = c.get(e, 0) + v
            if s:
                c[e] = s
            else:
                c.pop(e, None)
        out = LaurentPoly.__new__(LaurentPoly)
        out._c = c
        return out

    def __neg__(self) -> "LaurentPoly":
        out = LaurentPoly.__new__(LaurentPoly)
        out._c = {e: -v for e, v in self._c.items()}
        return out

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other: "LaurentPoly | Scalar") -> "LaurentPoly":
        if isinstance(other, (int, Fraction)):
            other = Fraction(other)
            out = LaurentPoly.__new__(LaurentPoly)
            out._c = {} if not other else {e: v * other for e, v in self._c.items()}
            return out
        c: dict[int, Fraction] = {}
        for e1, v1 in self._c.items():
            for e2, v2 in other._c.items():
                e = e1 + e2
                s = c.get(e, 0) + v1 * v2
                if s:
                    c[e] = s
                else:
                    c.pop(e, None)
        out = LaurentPoly.__new__(LaurentPoly)
        out._c = c
        return out

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        if isinstance(other, LaurentPoly):
            return self._c == other._c
        if isinstance(other, (int, Fraction)):
            return self == LaurentPoly.term(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(frozenset(self._c.items()))

    def __repr__(self) -> str:
        return f"LaurentPoly({dict(sorted(self._c.items()))!r})"


_LP_ZERO = LaurentPoly()
_LP_ONE = LaurentPoly.term(1)


# ---------------------------------------------------------------------------
# Weyl operators
# ---------------------------------------------------------------------------

class WeylOp:
    """Operator sum_k p_k(t) d^k in normal form (all d factors on the right).

    The top coefficient of a nonzero operator is nonzero; the zero operator
    has an empty coefficient list.  Arithmetic realizes d*t = t*d + 1 exactly,
    and the normal form of a given operator is unique.
    """

    __slots__ = ("_p",)

    def __init__(self, coeffs: Iterable[LaurentPoly] = ()):
        p = list(coeffs)
        while p and p[-1].is_zero:
            p.pop()
        self._p = tuple(p)

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero() -> "WeylOp":
        return _W_ZERO

    @staticmethod
    def one() -> "WeylOp":
        return _W_ONE

    @staticmethod
    def constant(c: Scalar) -> "WeylOp":
        return WeylOp([LaurentPoly.term(c)])

    @staticmethod
    def t(exponent: int = 1) -> "WeylOp":
        return WeylOp([LaurentPoly.term(1, exponent)])

    @staticmethod
    def d(power: int = 1) -> "WeylOp":
        if power < 0:
            raise ValueError("d admits no negative powers")
        return WeylOp([_LP_ZERO] * power + [_LP_ONE])

    # -- structure ----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._p

    def order(self) -> int:
        """Degree in d."""
        if not self._p:
            raise ValueError("order of the zero operator")
        return len(self._p) - 1

    def coeff(self, k: int) -> LaurentPoly:
        if 0 <= k < len(self._p):
            return self._p[k]
        return _LP_ZERO

    def coeffs(self) -> tuple[LaurentPoly, ...]:
        return self._p

    def monomials(self) -> Iterator[tuple[int, int, Fraction]]:
        """Yield (k, m, c) for every monomial c * t^m * d^k."""
        for k, p in enumerate(self._p):
            for m, c in p.items():
                yield k, m, c

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "WeylOp") -> "WeylOp":
        if not isinstance(other, WeylOp):
            return NotImplemented
        a, b = self._p, other._p
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for k, q in enumerate(b):
            out[k] = out[k] + q
        return WeylOp(out)

    def __neg__(self) -> "WeylOp":
        return WeylOp([-p for p in self._p])

    def __sub__(self, other: "WeylOp") -> "WeylOp":
        return self + (-other)

    def __mul__(self, other: "WeylOp | Scalar") -> "WeylOp":
        if isinstance(other, (int, Fraction)):
            return WeylOp([p * other for p in self._p])
        if not isinstance(other, WeylOp):
            return NotImplemented
        if self.is_zero or other.is_zero:
            return _W_ZERO
        acc: list[dict[int, Fraction]] = [
            {} for _ in range(len(self._p) + len(other._p) - 1)
        ]
        for i, p in enumerate(self._p):
            if p.is_zero:
                continue
            pc = p._c
            for j, q in enumerate(other._p):
                if q.is_zero:
                    continue
                # d^i q = sum_k C(i,k) q^(k) d^(i-k)
                deriv = q._c
                for k in range(i + 1):
                    if not deriv:
                        break
                    cmb = math.comb(i, k)
                    target = acc[i - k + j]
                    for e1, v1 in pc.items():
                        prod = v1 * cmb
                        for e2, v2 in deriv.items():
                            e = e1 + e2
                            s = target.get(e, 0) + prod * v2
                            if s:
                                target[e] = s
                            else:
                                del target[e]
                    deriv = {e - 1: v * e for e, v in deriv.items() if e}
        out = []
        for c in acc:
            lp = LaurentPoly.__new__(LaurentPoly)
            lp._c = c
            out.append(lp)
        return WeylOp(out)

    def __rmul__(self, other: Scalar) -> "WeylOp":
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

    def __pow__(self, n: int) -> "WeylOp":
        if n < 0:
            raise ValueError("operators admit no negative powers")
        result = _W_ONE
        for _ in range(n):
            result = result * self
        return result

    def __eq__(self, other: object) -> bool:
        if isinstance(other, WeylOp):
            return self._p == other._p
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._p)

    # -- printing ------------------------------------------------------------

    def __str__(self) -> str:
        return format_terms(
            (c, [("t", m), ("d", k)])
            for k in range(len(self._p) - 1, -1, -1)
            for m, c in sorted(self._p[k]._c.items(), reverse=True))

    def __repr__(self) -> str:
        return f"<WeylOp {self}>"


_W_ZERO = WeylOp()
_W_ONE = WeylOp([_LP_ONE])


def _numerators(op: WeylOp) -> tuple[int, list[tuple[int, int, int]]]:
    """Clear denominators: (L, [(k, m, n), ...]) with op = sum n/L * t^m d^k
    and L the lcm of the coefficient denominators."""
    # reduce, not lcm(*...): argument tuples of every length would fill the
    # interpreter's tuple free lists and raise the peak RSS.
    scale = functools.reduce(
        math.lcm, (c.denominator for p in op._p for c in p._c.values()), 1)
    return scale, [(k, m, c.numerator * (scale // c.denominator))
                   for k, p in enumerate(op._p) for m, c in p._c.items()]


def _from_numerators(acc: Mapping[int, Mapping[int, int]], scale: int) -> WeylOp:
    """The operator sum acc[k][m]/L * t^m d^k, with L = scale; zeros dropped."""
    out = []
    for k in range(max(acc, default=-1) + 1):
        lp = LaurentPoly.__new__(LaurentPoly)
        lp._c = {m: Fraction(n, scale) for m, n in acc.get(k, {}).items() if n}
        out.append(lp)
    return WeylOp(out)


def euler_op() -> WeylOp:
    """The Euler operator D = t*d."""
    return WeylOp([_LP_ZERO, LaurentPoly.term(1, 1)])


def euler_product(constants: Iterable[Scalar]) -> WeylOp:
    """Normal form of prod (D - c) over the given constants.

    Computed in the commuting D-basis (an integer polynomial after clearing
    denominators) and converted by D^k = sum_j S(k, j) t^j d^j, which is much
    cheaper than repeated operator multiplication.
    """
    cs = [Fraction(c) for c in constants]
    n = len(cs)
    if n == 0:
        return _W_ONE
    scale = math.lcm(*(c.denominator for c in cs))
    ints = [int(c * scale) for c in cs]
    poly = [1]
    for ci in ints:
        nxt = [0] * (len(poly) + 1)
        for i, v in enumerate(poly):
            nxt[i + 1] += v
            nxt[i] -= v * ci
        poly = nxt
    numerators = [0] * (n + 1)
    stirling = [1]  # row k of the Stirling numbers S(k, j), j <= k
    power = 1  # scale ** k
    for k in range(n + 1):
        if k:
            stirling = [0] + [stirling[j - 1] + j * stirling[j]
                              for j in range(1, k)] + [1]
        scaled = poly[k] * power
        for j, s in enumerate(stirling):
            numerators[j] += scaled * s
        power *= scale
    denominator = scale ** n
    return WeylOp(LaurentPoly.term(Fraction(numerator, denominator), j)
                  for j, numerator in enumerate(numerators))


def euler_factorization(d: int) -> WeylOp:
    """The product (D)(D-1)...(D-d+1), equal to t^d d^d in normal form."""
    if d < 1:
        raise ValueError("d must be a positive integer")
    return euler_product(range(d))


# ---------------------------------------------------------------------------
# Parser for the operator grammar
# ---------------------------------------------------------------------------
#
#   expr     := ('+'|'-')? term (('+'|'-') term)*
#   term     := factor ('*' factor)*
#   factor   := atom ('^' '-'? integer)?
#   atom     := 't' | 'd' | 'D' | rational | '(' expr ')'
#   rational := integer ('/' positive-integer)?
#
# 'D' desugars to t*d.  Negative exponents are legal only on the bare 't'.

_SYMBOLS = {"t", "d", "D"}


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(("num", text[i:j], i))
            i = j
        elif ch in _SYMBOLS:
            tokens.append(("sym", ch, i))
            i += 1
        elif ch in "+-*^()/":
            tokens.append((ch, ch, i))
            i += 1
        else:
            raise ParseError(f"unexpected character {ch!r}", i)
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> tuple[str, str, int] | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> tuple[str, str, int]:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input", len(self.text))
        self.pos += 1
        return tok

    def expect(self, kind: str) -> tuple[str, str, int]:
        tok = self.next()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        return tok

    def parse(self) -> WeylOp:
        op = self.expr()
        tok = self.peek()
        if tok is not None:
            if tok[0] == "/":
                raise ParseError("division token outside a rational literal", tok[2])
            raise ParseError(f"unexpected token {tok[1]!r}", tok[2])
        return op

    def expr(self) -> WeylOp:
        sign = 1
        tok = self.peek()
        if tok is not None and tok[0] in "+-":
            self.next()
            sign = -1 if tok[0] == "-" else 1
        result = self.term() * sign
        while True:
            tok = self.peek()
            if tok is None or tok[0] not in "+-":
                break
            self.next()
            rhs = self.term()
            result = result + (rhs if tok[0] == "+" else -rhs)
        return result

    def term(self) -> WeylOp:
        result = self.factor()
        while True:
            tok = self.peek()
            if tok is None:
                break
            if tok[0] == "*":
                self.next()
                result = result * self.factor()
            elif tok[0] == "/":
                raise ParseError("division token outside a rational literal", tok[2])
            else:
                break
        return result

    def factor(self) -> WeylOp:
        base, bare_t = self.atom()
        tok = self.peek()
        if tok is None or tok[0] != "^":
            return base
        self.next()
        neg = False
        tok = self.peek()
        if tok is not None and tok[0] == "-":
            self.next()
            neg = True
        num = self.expect("num")
        n = int(num[1])
        if neg:
            if not bare_t:
                raise ParseError("negative exponents are allowed only on t", num[2])
            return WeylOp.t(-n)
        return base ** n

    def atom(self) -> tuple[WeylOp, bool]:
        tok = self.next()
        kind, value, pos = tok
        if kind == "sym":
            if value == "t":
                return WeylOp.t(), True
            if value == "d":
                return WeylOp.d(), False
            return euler_op(), False
        if kind == "num":
            numerator = int(value)
            nxt = self.peek()
            if nxt is not None and nxt[0] == "/":
                self.next()
                den = self.expect("num")
                if int(den[1]) == 0:
                    raise ParseError("zero denominator in rational literal", den[2])
                return WeylOp.constant(Fraction(numerator, int(den[1]))), False
            return WeylOp.constant(numerator), False
        if kind == "(":
            inner = self.expr()
            self.expect(")")
            return inner, False
        if kind == "/":
            raise ParseError("division token outside a rational literal", pos)
        raise ParseError(f"unexpected token {value!r}", pos)


def parse_op(text: str) -> WeylOp:
    """Parse an operator expression into its unique normal form.

    Parsing, printing and re-parsing is the identity on normal forms.
    """
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# Fourier-Laplace substitution
# ---------------------------------------------------------------------------

def fourier(op: WeylOp, direction: str = "forward") -> WeylOp:
    """Fourier-Laplace substitution: forward is t -> d, d -> -t.

    This is a ring automorphism of the unlocalized Weyl algebra; the inverse
    direction is the inverse map t -> -d, d -> t.  Operators containing t^-1
    are rejected, since the substitution is only defined on polynomial
    coefficients.  Each monomial maps through the two-sided Leibniz expansion
    d^m t^k = sum_j C(m,j) * k(k-1)...(k-j+1) * t^(k-j) d^(m-j).
    """
    if direction not in ("forward", "inverse"):
        raise ValueError(f"unknown direction {direction!r}")
    for p in op.coeffs():
        if not p.is_zero and p.order() < 0:
            raise ValueError("operator contains t^-1; the Fourier substitution "
                             "is defined only for polynomial coefficients")
    scale, monos = _numerators(op)
    acc: dict[int, dict[int, int]] = {}
    for k, m, n in monos:
        # n*t^m*d^k  ->  n * d^m * (-t)^k      (forward)
        #            ->  n * (-d)^m * t^k      (inverse)
        if (k if direction == "forward" else m) % 2:
            n = -n
        # n * C(m,j) * k(k-1)...(k-j+1), updated by exact division
        for j in range(min(m, k) + 1):
            target = acc.setdefault(m - j, {})
            target[k - j] = target.get(k - j, 0) + n
            n = n * (m - j) * (k - j) // (j + 1)
    return _from_numerators(acc, scale)


# ---------------------------------------------------------------------------
# Point at infinity
# ---------------------------------------------------------------------------

def mobius_infinity(op: WeylOp) -> WeylOp:
    """Rewrite the operator in the coordinate u = 1/t.

    The substitution is generated by t -> u^-1 and t*d_t -> -(u*d_u),
    equivalently d_t -> -u^2 d_u; it is an involution on normal forms.
    The result is expressed in the (u, d_u) pair under the same names.

    Monomial rule: t^m d^k maps to (-1)^k u^(k-m) * (D)(D+1)...(D+k-1).
    The monomials of one t-weight m-k share the factor u^(k-m) on the left,
    so their images are summed by Horner's rule in the normal form
    sum_i r_i u^i d^i, where right multiplication by D + k is the integer
    recurrence r'_i = r_(i-1) + (i + k) * r_i.
    """
    scale, monos = _numerators(op)
    parts: dict[int, dict[int, int]] = {}  # t-weight m-k -> {k: +-n}
    for k, m, n in monos:
        parts.setdefault(m - k, {})[k] = -n if k % 2 else n
    acc: dict[int, dict[int, int]] = {}
    for w, part in parts.items():
        # Horner: r <- r*(D + k) + part[k], from the top k down to 0
        top = max(part)
        r = [part[top]]
        for k in range(top - 1, -1, -1):
            r = ([part.get(k, 0) + k * r[0]]
                 + [r[i - 1] + (i + k) * r[i] for i in range(1, len(r))]
                 + [r[-1]])
        for i, c in enumerate(r):
            acc.setdefault(i, {})[i - w] = c
    return _from_numerators(acc, scale)


# ---------------------------------------------------------------------------
# Indicial polynomials
# ---------------------------------------------------------------------------

def _min_weight_part(op: WeylOp) -> list[int]:
    """The part of minimal t-weight, as a polynomial in s = Euler operator.

    A monomial t^m d^k has weight m-k and contributes its coefficient times
    the falling factorial s(s-1)...(s-k+1), because t^k d^k equals that
    product of Euler factors.  Returned as ascending integer coefficients,
    L times the rational ones for the common denominator L.  The part is
    never zero: its monomial of largest k alone reaches s-degree k.
    """
    _, monos = _numerators(op)
    weight = min(m - k for k, m, _ in monos)
    part = {k: n for k, m, n in monos if m - k == weight}
    # Horner: q <- q*(s - k) + part[k], from the top k down to 0
    top = max(part)
    q = [part[top]]
    for k in range(top - 1, -1, -1):
        q = ([part.get(k, 0) - k * q[0]]
             + [q[i - 1] - k * q[i] for i in range(1, len(q))] + [q[-1]])
    return q


def _trim(coeffs: list[Fraction]) -> list[Fraction]:
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return coeffs


@dataclass(frozen=True)
class IndicialPolynomial:
    """Monic polynomial in s over the rationals, tagged with its place.

    Its degree equals the rank of the slope-zero part at the place, and its
    roots are the local exponents.  Roots are extracted exactly: rational
    roots with multiplicity, everything else reported as monic irreducible
    factors.
    """

    coeffs: tuple[Fraction, ...]  # ascending, monic
    place: str

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, x: Scalar) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def roots(self) -> tuple[tuple[tuple[Fraction, int], ...], tuple[str, ...]]:
        """(rational roots with multiplicity, leftover irreducible factors)."""
        rational, leftovers = _rational_root_split(list(self.coeffs))
        return rational, tuple(format_poly(f, "s") for f in leftovers)

    def root_multiset(self) -> dict[Fraction, int]:
        return dict(self.roots()[0])

    def has_roots_exactly(self, values: Iterable[Scalar]) -> bool:
        """True iff the polynomial equals prod (s - v) over the multiset.

        Direct product comparison; independent of any factorization routine.
        """
        vs = [Fraction(v) for v in values]
        if len(vs) != self.degree:
            return False
        # prod (L*s - L*v) = L^n * prod (s - v), in integers
        scale = functools.reduce(math.lcm, (v.denominator for v in vs), 1)
        prod = [1]
        for v in vs:
            root = v.numerator * (scale // v.denominator)
            nxt = [0] * (len(prod) + 1)
            for i, c in enumerate(prod):
                nxt[i + 1] += c * scale
                nxt[i] -= c * root
            prod = nxt
        top = scale ** len(vs)
        return all(p * c.denominator == top * c.numerator
                   for p, c in zip(prod, self.coeffs))

    def __str__(self) -> str:
        return format_poly(self.coeffs, "s")


def format_terms(terms: Iterable[tuple[Scalar, list[tuple[str, int]]]]) -> str:
    """Print a sum of terms c * x^e * y^f * ... in the grammar.

    Each term is a coefficient and its monomial as (variable, exponent)
    factors, given in print order.  Zero coefficients and zero exponents are
    skipped, and a unit coefficient is shown only on a constant term.
    """
    parts: list[str] = []
    for c, factors in terms:
        if not c:
            continue
        mono = [v if e == 1 else f"{v}^{e}" for v, e in factors if e]
        a = abs(c)
        if a != 1 or not mono:
            mono.insert(0, str(a))
        if parts:
            parts.append(" + " if c > 0 else " - ")
        elif c < 0:
            parts.append("-")
        parts.append("*".join(mono))
    return "".join(parts) or "0"


def format_poly(coeffs: Iterable[Fraction], var: str) -> str:
    """Print a univariate polynomial (ascending coefficients) in the grammar."""
    cs = list(coeffs)
    return format_terms((cs[e], [(var, e)]) for e in range(len(cs) - 1, -1, -1))


def _fraction_sqrt(x: Fraction) -> Fraction | None:
    if x < 0:
        return None
    pn, pd = math.isqrt(x.numerator), math.isqrt(x.denominator)
    if pn * pn == x.numerator and pd * pd == x.denominator:
        return Fraction(pn, pd)
    return None


def _rational_root_split(
    coeffs: list[Fraction],
) -> tuple[tuple[tuple[Fraction, int], ...], list[tuple[Fraction, ...]]]:
    """Split a rational polynomial into rational roots and irreducible factors.

    Zero roots and degree <= 2 pieces are peeled off directly; higher-degree
    parts go through sympy's exact factorization over Q.
    """
    coeffs = _trim(list(coeffs))
    if not coeffs:
        raise ValueError("zero polynomial has no root data")
    roots: dict[Fraction, int] = {}
    v = 0
    while not coeffs[v]:
        v += 1
    if v:
        roots[Fraction(0)] = v
        coeffs = coeffs[v:]
    leftovers: list[tuple[Fraction, ...]] = []
    deg = len(coeffs) - 1
    if deg == 0:
        pass
    elif deg == 1:
        r = -coeffs[0] / coeffs[1]
        roots[r] = roots.get(r, 0) + 1
    elif deg == 2:
        c0, c1, c2 = coeffs
        disc = c1 * c1 - 4 * c2 * c0
        sq = _fraction_sqrt(disc)
        if sq is None:
            leftovers.append((c0 / c2, c1 / c2, Fraction(1)))
        else:
            for r in ((-c1 + sq) / (2 * c2), (-c1 - sq) / (2 * c2)):
                roots[r] = roots.get(r, 0) + 1
    else:
        import sympy

        s = sympy.Symbol("s")
        poly = sympy.Poly(list(reversed([sympy.Rational(c) for c in coeffs])), s)
        for factor, mult in poly.factor_list()[1]:
            fc = [Fraction(str(c)) for c in reversed(factor.all_coeffs())]
            if len(fc) == 2:
                r = -fc[0] / fc[1]
                roots[r] = roots.get(r, 0) + mult
            else:
                lead = fc[-1]
                monic = tuple(c / lead for c in fc)
                leftovers.extend([monic] * mult)
    ordered = tuple(sorted(roots.items()))
    return ordered, leftovers


def indicial_polynomial(op: WeylOp, place: str = "zero") -> IndicialPolynomial:
    """Indicial polynomial at zero or infinity.

    At zero: write op = sum_k t^k q_k(D) (possible after clearing a t-power)
    and take the q of minimal weight, made monic.  At infinity: move the
    point to the origin with ``mobius_infinity`` and substitute s -> -s, so
    that the Kummer operator D - a has root a at both places (exponents here
    are module-decomposition data, not solution exponents).
    """
    if op.is_zero:
        raise ValueError("zero operator has no indicial polynomial")
    if place not in ("zero", "infinity"):
        raise ValueError(f"unknown place {place!r}")
    if place == "infinity":
        q = _min_weight_part(mobius_infinity(op))
        q = [c if i % 2 == 0 else -c for i, c in enumerate(q)]  # s -> -s
    else:
        q = _min_weight_part(op)
    lead = q[-1]
    return IndicialPolynomial(tuple(Fraction(c, lead) for c in q), place)


# ---------------------------------------------------------------------------
# Singular support
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SingularSupport:
    """Finite singular candidates and regularity flags of an operator.

    ``finite_rational`` lists the distinct rational roots of the leading
    d-coefficient away from zero; roots that are not rational stay inside
    ``other_factors`` as monic irreducible polynomials in t, never
    approximated.
    """

    finite_rational: tuple[Fraction, ...]
    other_factors: tuple[str, ...]
    regular_at_zero: bool
    regular_at_infinity: bool


def fuchs_regular_at_zero(op: WeylOp) -> bool:
    """Fuchs condition: ord_0(p_k) - k >= ord_0(p_r) - r for every k.

    Equivalently the indicial polynomial at 0 has full degree r: within one
    t-weight the d-degrees k give distinct s-degrees, so the minimal-weight
    part reaches degree r exactly when ord_0(p_r) - r is minimal.
    """
    r = op.order()
    bound = op.coeff(r).order() - r
    for k, p in enumerate(op.coeffs()):
        if not p.is_zero and p.order() - k < bound:
            return False
    return True


def finite_singular_points(op: WeylOp) -> tuple[tuple[Fraction, ...], tuple[str, ...]]:
    """Distinct rational roots of the leading d-coefficient away from zero,
    plus the leftover irreducible factors as grammar strings."""
    if op.is_zero:
        raise ValueError("zero operator has no singular support")
    lead = op.coeff(op.order())
    shift = lead.order()
    coeffs = [lead[e] for e in range(shift, lead.degree() + 1)]
    rational, leftovers = _rational_root_split(coeffs)
    finite = tuple(sorted(r for r, _ in rational if r != 0))
    return finite, tuple(format_poly(f, "t") for f in leftovers)


def singular_support(op: WeylOp) -> SingularSupport:
    """Candidate singular points in the punctured line plus 0/infinity flags.

    Finite candidates are the roots of the leading d-coefficient away from
    the origin; regularity at zero and infinity is the Fuchs condition on
    coefficient orders (all Newton-polygon slopes zero).
    """
    finite, factors = finite_singular_points(op)
    return SingularSupport(
        finite_rational=finite,
        other_factors=factors,
        regular_at_zero=fuchs_regular_at_zero(op),
        regular_at_infinity=fuchs_regular_at_zero(mobius_infinity(op)),
    )
