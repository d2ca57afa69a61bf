"""Exact normal-form arithmetic in the localized one-variable Weyl algebra.

The algebra is k[t, t^-1]<d>, generated by the coordinate t (invertible) and
the derivation d = d/dt, subject to the single relation

    d*t - t*d = 1.

Every operator is stored in the normal form

    sum_k  p_k(t) * d^k

with Laurent-polynomial coefficients p_k over the rationals, kept as integer
numerators over one minimal denominator; this representation is unique, so
equality of operators is equality of numerators and denominator.  On top of
the ring arithmetic this module provides:

  * a text grammar for operators (``parse_op`` / ``str(op)``), with the Euler
    operator D = t*d available as sugar;
  * the Fourier-Laplace substitution t -> d, d -> -t and its inverse;
  * the coordinate change t -> 1/t, ``mobius_infinity``: the public form of
    the point at infinity and the tests' reference for reading it;
  * indicial polynomials, whose roots are the local exponents, and
    Fuchs-type regularity flags, both read at zero and infinity from the rows;
  * singular-point detection for the leading coefficient.

Products and transforms walk the stored rows, run on integers and end in
the one normaliser ``_from_numerators``; rationals become integers over one
denominator in one place, ``_clear_denominators``, and the indicial layer
(``IndicialPolynomial``, its evaluation and root check, the root oracle)
stays in integers.  Printing starts from integers too: ``format_terms`` and
``format_poly`` take numerators over one denominator, and every exact
rational becomes text in one place, ``_ratio``, which also writes numbers
past Python's limit on int-to-text conversion.  ``LaurentPoly`` is the
public Fraction form, the input of
``WeylOp([...])`` and the output of ``coeff``, ``coeffs`` and ``monomials``; a
float raises ``TypeError`` (0.1 is not 1/10).  Private helpers hold the
algebra the callers share: ``_sum_terms`` adds signed operators and
parser monomials in one row map, for ``+``, ``-`` and the parser's
expressions; ``_leibniz`` moves d^a past t^b, for ``WeylOp.__mul__``;
``_times_euler`` multiplies by a*D + b on the right, for
``_euler_rows``, the one Euler-product recurrence, which ``euler_product``
and the builder ``_euler_difference`` read; ``_rising_sum`` sums one
t-weight class of rising products (D+c)(D+c+1)...(D+c+i-1), for
``fourier`` and ``mobius_infinity``.  The builder makes
sign * (c*prod(D - a_i) - t^m * prod(D - b_j) * d^k), the sign 1 or -1, in
one integer pass with one normalisation, for its three callers:
``hypergeom.hyp_operator`` and the operators P and Q of ``dwork.ft_pair``,
Q with the sign -1.  The Fourier check of that pair
therefore shares no kernel with the builder of P and Q.

These kernels cost one pass per coefficient.  ``_leibniz`` steps the target
row and exponent down together and looks each row up once;
``_times_euler`` carries the previous entry and the running multiplier
a*j + b; ``_rising_sum`` is a Horner sum whose steps carry the previous
entry, one small-by-big product per entry.  The Horner steps of
``_weight_part`` and the product of ``IndicialPolynomial.has_roots_exactly``
have the same shape, each in its own loop: the root check is an oracle and
shares no code with the operators it checks.

All values are immutable and all operations are pure functions, so anything
here can be shared freely between threads.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Union

Scalar = Union[int, Fraction]


class ParseError(ValueError):
    """Syntax error in the operator grammar, with a character position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def _refuse_float(x: object) -> None:
    if isinstance(x, float):  # 0.1 is not 1/10
        raise TypeError(f"dworkgm arithmetic is exact; got the float {x!r}")
    if isinstance(x, str):  # '12' is neither 12 nor the digits [1, 2]
        raise TypeError(f"dworkgm arithmetic takes numbers; got the string {x!r}")


def _exact(x: Scalar) -> Fraction:
    _refuse_float(x)
    return Fraction(x)


def _clear_denominators(values: Iterable[Scalar], den: int = 1) -> tuple[list[int], int]:
    """The rationals v/den as (integer numerators, one denominator); ints
    pass as they are, a float or a string (also as ``values`` or ``den``)
    raises TypeError and den < 1 ValueError."""
    _refuse_float(den)
    if den < 1:
        raise ValueError(f"the scale den must be a positive integer, not {den!r}")
    _refuse_float(values)  # a string is not the list of its digits
    nums = list(values)
    if {*map(type, nums)} <= {int}:  # a bool takes the path that converts it
        return nums, den
    fracs = [_exact(v) for v in nums]
    lcm = functools.reduce(math.lcm, (f.denominator for f in fracs), 1)
    return [f.numerator * (lcm // f.denominator) for f in fracs], den * lcm


def _strip(f: list) -> list:
    """f without its trailing zeros (or empty rows), in place."""
    while f and not f[-1]:
        f.pop()
    return f


def _primitive(f: list[int]) -> list[int]:
    """f divided by its content, with a positive leading coefficient."""
    c = functools.reduce(math.gcd, f, 0)
    if f[-1] < 0:
        c = -c
    return [a // c for a in f]


# ---------------------------------------------------------------------------
# Laurent polynomials in t
# ---------------------------------------------------------------------------

class LaurentPoly:
    """Laurent polynomial in t with Fraction coefficients, sparse on exponents.

    The public form of an operator coefficient; zero coefficients are never
    stored, so the zero polynomial has empty support.
    """

    __slots__ = ("_c",)

    def __init__(self, coeffs: Mapping[int, Scalar] | None = None):
        c = {}
        if coeffs:
            for e, v in coeffs.items():
                v = _exact(v)
                if v:
                    c[operator.index(e)] = v
        self._c = c

    @staticmethod
    def term(coeff: Scalar, exponent: int = 0) -> "LaurentPoly":
        return LaurentPoly({exponent: coeff})

    def items(self) -> Iterator[tuple[int, Fraction]]:
        return iter(sorted(self._c.items()))

    @property
    def is_zero(self) -> bool:
        return not self._c

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

    def __eq__(self, other: object) -> bool:
        if isinstance(other, LaurentPoly):
            return self._c == other._c
        return NotImplemented

    def __hash__(self) -> int:
        return hash(frozenset(self._c.items()))

    def __repr__(self) -> str:
        exps = sorted(self._c, reverse=True)
        nums, den = _clear_denominators([self._c[e] for e in exps])
        return f"<LaurentPoly {format_terms(zip(nums, [[('t', e)] for e in exps]), den)}>"


_LP_ZERO = LaurentPoly()


# ---------------------------------------------------------------------------
# Weyl operators
# ---------------------------------------------------------------------------

class WeylOp:
    """Operator sum_k p_k(t) d^k in normal form (all d factors on the right).

    Stored as integer numerators over one minimal denominator L = ``_den``:
    ``_rows[k]`` maps m to n, so that p_k = sum n/L * t^m.  No n is zero,
    gcd(L, every n) is 1 and the last row is not empty (zero is L = 1, no
    rows), so ``==`` and ``hash`` compare (L, rows).  Fractions are built
    only for the caller, by ``coeff``, ``coeffs`` and ``monomials``; printing
    reads the rows and L.
    """

    __slots__ = ("_den", "_rows")

    def __init__(self, coeffs: Iterable[LaurentPoly] = ()):
        # the coefficients are reduced, so their lcm L is minimal
        ps = [p._c for p in coeffs]
        nums, den = _clear_denominators([c for p in ps for c in p.values()])
        nums = iter(nums)
        rows = _strip([{m: next(nums) for m in p} for p in ps])
        self._den, self._rows = den, tuple(rows)

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero() -> "WeylOp":
        return _W_ZERO

    @staticmethod
    def one() -> "WeylOp":
        return _W_ONE

    @staticmethod
    def constant(c: Scalar) -> "WeylOp":
        c = _exact(c)
        return _make(c.denominator, [{0: c.numerator}] if c else [])

    @staticmethod
    def t(exponent: int = 1) -> "WeylOp":
        return _make(1, [{operator.index(exponent): 1}])

    @staticmethod
    def d(power: int = 1) -> "WeylOp":
        power = operator.index(power)
        if power < 0:
            raise ValueError("d admits no negative powers")
        # distinct rows: _from_numerators edits rows in place
        return _make(1, [{} for _ in range(power)] + [{0: 1}])

    # -- structure ----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._rows

    def order(self) -> int:
        """Degree in d."""
        if not self._rows:
            raise ValueError("order of the zero operator")
        return len(self._rows) - 1

    def coeff(self, k: int) -> LaurentPoly:
        if 0 <= k < len(self._rows):
            lp = LaurentPoly.__new__(LaurentPoly)
            lp._c = {m: Fraction(n, self._den) for m, n in self._rows[k].items()}
            return lp
        return _LP_ZERO

    def coeffs(self) -> tuple[LaurentPoly, ...]:
        return tuple([self.coeff(k) for k in range(len(self._rows))])

    def monomials(self) -> Iterator[tuple[int, int, Fraction]]:
        """Iterate over (k, m, c) for every monomial c * t^m * d^k."""
        den = self._den
        return iter([(k, m, Fraction(row[m], den))
                     for k, row in enumerate(self._rows) for m in sorted(row)])

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "WeylOp") -> "WeylOp":
        if not isinstance(other, WeylOp):
            return NotImplemented
        return _sum_terms([(1, self), (1, other)])

    def __neg__(self) -> "WeylOp":
        return _make(self._den, [{m: -n for m, n in row.items()} for row in self._rows])

    def __sub__(self, other: "WeylOp") -> "WeylOp":
        if not isinstance(other, WeylOp):
            return NotImplemented
        return _sum_terms([(1, self), (-1, other)])

    def __mul__(self, other: "WeylOp | Scalar") -> "WeylOp":
        if isinstance(other, (int, Fraction)):
            # cancel gcd(L, a) at once; the gcd chain finds the rest
            g = math.gcd(self._den, other.numerator)
            a = other.numerator // g
            return _from_numerators(
                {k: {m: n * a for m, n in row.items()} for k, row in enumerate(self._rows)},
                self._den // g * other.denominator)
        if not isinstance(other, WeylOp):
            return NotImplemented
        # n1*t^m1*d^k1 * n2*t^m2*d^k2 = n1*n2 * t^m1 * (d^k1 t^m2) * d^k2
        rows2 = other._rows
        acc: dict[int, dict[int, int]] = {}
        for k1, row1 in enumerate(self._rows):
            for m1, n1 in row1.items():
                for k2, row2 in enumerate(rows2):
                    for m2, n2 in row2.items():
                        _leibniz(acc, n1 * n2, k1, m2, m1, k2)
        return _from_numerators(acc, self._den * other._den)

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
            return self._den == other._den and self._rows == other._rows
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self._den, tuple([frozenset(row.items()) for row in self._rows])))

    # -- printing ------------------------------------------------------------

    def __str__(self) -> str:
        rows = self._rows
        return format_terms(
            ((rows[k][m], [("t", m), ("d", k)])
             for k in range(len(rows) - 1, -1, -1)
             for m in sorted(rows[k], reverse=True)), self._den)

    def __repr__(self) -> str:
        return f"<WeylOp {self}>"


def _make(den: int, rows: list[dict[int, int]]) -> WeylOp:
    op = WeylOp.__new__(WeylOp)
    op._den, op._rows = den, tuple(rows)
    return op


_W_ZERO = _make(1, [])
_W_ONE = _make(1, [{0: 1}])


def _from_numerators(acc: Mapping[int, dict[int, int]], scale: int) -> WeylOp:
    """The operator sum acc[k][m]/scale * t^m d^k in canonical form, made from
    acc's own rows: zero numerators and trailing empty rows dropped, then
    numerators and scale divided by their gcd, whose chain stops as soon as
    it reaches 1 (at once for the scale 1)."""
    rows = [acc.get(k, {}) for k in range(max(acc, default=-1) + 1)]
    for row in rows:
        if 0 in row.values():
            for m in [m for m, n in row.items() if not n]:
                del row[m]
    _strip(rows)
    if scale == 1:
        return _make(1, rows)
    g = scale
    for row in rows:
        for n in row.values():
            g = math.gcd(g, n)
            if g == 1:
                return _make(scale, rows)
    return _make(scale // g, [{m: n // g for m, n in row.items()} for row in rows])


def _leibniz(acc: dict[int, dict[int, int]], n: int, a: int, b: int,
             t_shift: int, d_shift: int) -> None:
    """Add n * t^t_shift * (d^a t^b) * d^d_shift to acc[k][m], the integer
    coefficient of t^m d^k, by the Leibniz rule
    d^a t^b = sum_j C(a,j) * b(b-1)...(b-j+1) * t^(b-j) d^(a-j);
    the kernel of ``WeylOp.__mul__``.

    One pass over j, with k = a - j + d_shift and m = b - j + t_shift
    stepping down together: each target row is looked up once, and a row
    that acc lacks is inserted as {m: n}, so rows and keys enter acc in the
    order of j."""
    # n * C(a,j) * b(b-1)...(b-j+1), updated by exact division with one
    # big-by-small product; for b >= 0 it vanishes past j = b
    k, m = a + d_shift, b + t_shift
    for j in range(a + 1 if b < 0 else min(a, b) + 1):
        row = acc.get(k)
        if row is None:
            acc[k] = {m: n}
        else:
            row[m] = row.get(m, 0) + n
        n = n * ((a - j) * (b - j)) // (j + 1)
        k -= 1
        m -= 1


def _times_euler(r: list[int], a: int, b: int) -> list[int]:
    """sum r_j t^j d^j times a*D + b on the right, in the same basis:
    t^j d^j * D = t^(j+1) d^(j+1) + j * t^j d^j, so
    r'_j = a * r_(j-1) + (a*j + b) * r_j, with r_(-1) = r_(len r) = 0.

    One pass over r that carries the previous entry and the running
    multiplier c = a*j + b, which grows by a at each step.  The kernel of
    ``_euler_rows`` alone: the transforms that check its products run
    ``_rising_sum``."""
    out = []
    prev, c = 0, b
    for x in r:
        out.append(a * prev + c * x)
        prev = x
        c += a
    out.append(a * prev)
    return out


def _rising_sum(part: Mapping[int, int], c: int) -> list[int]:
    """sum_i part[i] * (D+c)(D+c+1)...(D+c+i-1) as its integer entries r_j
    in the basis t^j d^j, for a nonempty part.

    Horner from the top i down, r <- r*(D + c + i) + part[i], where one
    step t^j d^j * (D + b) = t^(j+1) d^(j+1) + (j + b) * t^j d^j reads
    r'_j = r_(j-1) + (b + j) * r_j: one pass over r that carries the
    previous entry, with one small-by-big product per entry.  Its own loop,
    not ``_times_euler``: the transforms that call it check the operators
    that ``_times_euler`` builds."""
    top = max(part)
    r = [part[top]]
    for i in range(top - 1, -1, -1):
        nxt = []
        prev, b = 0, c + i
        for x in r:
            nxt.append(prev + b * x)
            prev = x
            b += 1
        nxt.append(prev)
        nxt[0] += part.get(i, 0)
        r = nxt
    return r


def euler_op() -> WeylOp:
    """The Euler operator D = t*d."""
    return _make(1, [{}, {1: 1}])


def _euler_rows(nums: Iterable[int], den: int) -> tuple[list[int], int]:
    """prod (D - n/den) over the integers n as (r, scale), the product being
    sum r_j/scale * t^j d^j.

    Each factor enters as the primitive (den/g)*D - n/g, g = gcd(den, n),
    over den/g; by Gauss's lemma the product is primitive, so its scale is
    already minimal.  It is built by the Horner recurrence of
    ``_times_euler`` in the basis t^j d^j, one factor at a time, so every
    product is a big integer times a small one.
    """
    r, scale = [1], 1
    for n in nums:
        g = math.gcd(den, n)
        r = _times_euler(r, den // g, -n // g)
        scale *= den // g
    return r, scale


def euler_product(constants: Iterable[Scalar], den: int = 1) -> WeylOp:
    """Normal form of prod (D - c/den) over the rational constants c, den
    being a plain scale, so integer numerators go in as they are; the rows
    come from ``_euler_rows``."""
    r, scale = _euler_rows(*_clear_denominators(constants, den))
    return _from_numerators({j: {j: n} for j, n in enumerate(r)}, scale)


def _euler_difference(c: Fraction, a: tuple[Iterable[int], int],
                      b: tuple[Iterable[int], int], m: int, k: int,
                      sign: int = 1) -> WeylOp:
    """sign * (c*prod(D - a_i) - t^m * prod(D - b_j) * d^k), each product
    given as (integer numerators, denominator), in one pass: the rows of
    both come from ``_euler_rows``, the second shifted by (m, k), over one
    common scale, and are normalised once.  The sign, 1 or -1, enters the
    two row factors, so a negated operator costs no second pass."""
    ra, sa = _euler_rows(*a)
    rb, sb = _euler_rows(*b)
    # gcd first, as a scalar product does: cancel g = gcd(sa, c's numerator)
    # before multiplying, so the gcd chain of _from_numerators does not walk
    # and divide every big numerator
    g = math.gcd(sa, c.numerator)
    sa = sa // g * c.denominator
    scale = math.lcm(sa, sb)
    fa, fb = sign * (c.numerator // g) * (scale // sa), sign * (scale // sb)
    acc = {j: {j: n * fa} for j, n in enumerate(ra)}
    for j, n in enumerate(rb):
        row = acc.setdefault(j + k, {})
        row[j + m] = row.get(j + m, 0) - n * fb
    return _from_numerators(acc, scale)


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
# 'D' desugars to t*d, and an integer is a run of decimal digits in any
# script (str.isdecimal), of any length: ``_int`` reads it without changing
# the digit limit.  Negative exponents are legal only on the bare 't'.
# A term is kept as one monomial num/den * t^m * d^k while its factors are
# rationals, powers of the bare 't' before any 'd', or powers of the bare
# 'd'; from the first other factor on (a 't' after a 'd', a 'D', a
# parenthesised or powered base) it is an operator built by products.  An
# expression adds its terms as ``+`` and ``-`` add operators, in
# ``_sum_terms``: one row map over the lcm of their denominators, normalised
# once, so a normal form, as printed, parses without any product of
# operators.  A power of any other base is raised by repeated products.
# Parentheses nest at most _MAX_NESTING = 100 levels deep: the parser
# recurses through four methods per level, and a deeper '(' is a
# ParseError at its position, not a RecursionError.  An exponent on any
# base but the bare 't' is at most _MAX_POWER = 4096.  A
# power of any base but the bare 't' or 'd' must also keep an a-priori bound
# on the work of its products (``_power_work``, from the exponent and the
# base's order, t-weights, term count and coefficient sizes) within
# _MAX_POWER_WORK = 10^6, which the slowest allowed power, D^815, takes
# about 1 s to meet; either excess is a ParseError at the exponent, raised
# before any row is built.
# A power of the bare 't' is one monomial, and its exponent is not limited.

_SYMBOLS = {"t", "d", "D"}
_MAX_NESTING = 100
_MAX_POWER = 4096
_MAX_POWER_WORK = 10 ** 6

# num/den * t^m * d^k: a term of the parser before it needs a product
_Monomial = tuple[int, int, int, int]


def _int(run: str) -> int:
    """The int of a run of decimal digits, read in two halves past the
    interpreter's limit on text-to-int conversion, as ``_digits`` splits."""
    try:
        return int(run)
    except ValueError:  # more digits than the limit allows
        k = len(run) // 2
        return _int(run[:k]) * 10 ** (len(run) - k) + _int(run[k:])


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdecimal():
            j = i
            while j < len(text) and text[j].isdecimal():
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
        self.depth = 0  # parentheses open around the current token

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
            raise ParseError(f"unexpected token {tok[1]!r}", tok[2])
        return op

    def expr(self) -> WeylOp:
        tok = self.peek()
        sign = 1
        if tok is not None and tok[0] in "+-":
            self.next()
            sign = -1 if tok[0] == "-" else 1
        terms = [(sign, self.term())]
        while True:
            tok = self.peek()
            if tok is None or tok[0] not in "+-":
                break
            self.next()
            terms.append((-1 if tok[0] == "-" else 1, self.term()))
        return _sum_terms(terms)

    def term(self) -> WeylOp | _Monomial:
        """The product of the factors: the monomial (num, den, m, k) while
        they can be absorbed into it, the operator from the first factor
        that cannot."""
        num, den, m, k = 1, 1, 0, 0
        op = None
        while True:
            f = self.factor()
            if op is None and isinstance(f, tuple) and not (k and f[2]):
                num, den, m, k = num * f[0], den * f[1], m + f[2], k + f[3]
            else:
                if op is None:
                    op = _monomial(num, den, m, k)
                op = op * (_monomial(*f) if isinstance(f, tuple) else f)
            tok = self.peek()
            if tok is None:
                break
            if tok[0] == "*":
                self.next()
            elif tok[0] == "/":
                raise ParseError("division token outside a rational literal", tok[2])
            else:
                break
        return (num, den, m, k) if op is None else op

    def factor(self) -> WeylOp | _Monomial:
        """An atom and its exponent.  The bare 't' and 'd' are the only
        atoms (1, 1, 1, 0) and (1, 1, 0, 1), and their powers stay monomials."""
        base = self.atom()
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
        n = _int(num[1])
        if base == (1, 1, 1, 0):  # the bare 't'
            return (1, 1, -n if neg else n, 0)
        if neg:
            raise ParseError("negative exponents are allowed only on t", num[2])
        if n > _MAX_POWER:
            raise ParseError(f"exponent {_digits(n)} is above the limit {_MAX_POWER}",
                             num[2])
        if base == (1, 1, 0, 1):  # the bare 'd'
            return (1, 1, 0, n)
        if isinstance(base, tuple):
            base = _monomial(*base)
        if _power_work(base, n) > _MAX_POWER_WORK:
            raise ParseError(f"exponent {n} on this base is above the work limit "
                             f"{_MAX_POWER_WORK}", num[2])
        return base ** n

    def atom(self) -> WeylOp | _Monomial:
        """The next atom: 't', 'd' and a rational as their monomials (a
        rational has m = k = 0), 'D' and a parenthesised expression as operators."""
        tok = self.next()
        kind, value, pos = tok
        if kind == "sym":
            if value == "t":
                return (1, 1, 1, 0)
            if value == "d":
                return (1, 1, 0, 1)
            return euler_op()
        if kind == "num":
            numerator = _int(value)
            nxt = self.peek()
            if nxt is not None and nxt[0] == "/":
                self.next()
                den = self.expect("num")
                denominator = _int(den[1])
                if denominator == 0:
                    raise ParseError("zero denominator in rational literal", den[2])
                return (numerator, denominator, 0, 0)
            return (numerator, 1, 0, 0)
        if kind == "(":
            if self.depth == _MAX_NESTING:
                raise ParseError(
                    f"parentheses nested deeper than {_MAX_NESTING} levels", pos)
            self.depth += 1
            inner = self.expr()
            self.expect(")")
            self.depth -= 1
            return inner
        if kind == "/":
            raise ParseError("division token outside a rational literal", pos)
        raise ParseError(f"unexpected token {value!r}", pos)


def _monomial(num: int, den: int, m: int, k: int) -> WeylOp:
    """num/den * t^m * d^k in normal form."""
    return _from_numerators({k: {m: num}}, den)


def _sum_terms(terms: list[tuple[int, WeylOp | _Monomial]]) -> WeylOp:
    """The sum of sign * term over (sign, term), each term an operator or a
    monomial: one row map over the lcm of their denominators, normalised
    once."""
    scale = math.lcm(*[t[1] if isinstance(t, tuple) else t._den for _, t in terms])
    acc: dict[int, dict[int, int]] = {}
    for sign, t in terms:
        if isinstance(t, tuple):
            num, den, m, k = t
            row = acc.setdefault(k, {})
            row[m] = row.get(m, 0) + sign * num * (scale // den)
        else:
            s = sign * (scale // t._den)
            for k, row in enumerate(t._rows):
                target = acc.setdefault(k, {})
                for m, n in row.items():
                    target[m] = target.get(m, 0) + n * s
    return _from_numerators(acc, scale)


def _power_work(base: WeylOp, n: int) -> int:
    """An upper bound on the work, in Leibniz steps and rows, of raising
    base to the n-th power by n products P^j * P, each Leibniz step weighted
    by the 64-bit words of the largest numerator or denominator it can make.

    With r the order of P and T its number of terms: P^j has order at most
    j*r, and its t-weights m - k are sums of j of the c distinct weights of
    P, so there are at most C(j + c - 1, c - 1) of them, and at most j*S + 1
    for weights spread over S steps of their gcd.  Each weight holds at most
    j*r + 1 terms, and each term meets the T terms of P in one Leibniz
    expansion of at most min(j*r, b) + 1 steps, b being the largest
    t-exponent of P (j*r + 1 steps when one is negative); the product has
    (j + 1)*r + 1 rows.

    The numerators and the denominator of P^(j+1) carry (j + 1)-fold
    products of P's own, at most (j + 1)*beta bits with beta = ceil(log2)
    of P's largest numerator or denominator, and a step multiplies them by
    a Leibniz factor C(a, i) * b(b-1)...(b-i+1), a <= j*r, at most
    (a * (|b| + a))^i with i <= min(a, b) steps.  What the Leibniz factors
    of earlier steps leave in P^j is not counted: D^815, whose coefficients
    are Stirling numbers of thousands of bits, meets the limit with every
    step at one word, so the limit prices that growth already.  A power
    whose steps all stay within one word keeps the unweighted bound.
    """
    cells = [(m, k) for k, row in enumerate(base._rows) for m in row]
    if not cells:
        return n
    r = len(base._rows) - 1
    weights = {m - k for m, k in cells}
    low = min(weights)
    step = functools.reduce(math.gcd, [w - low for w in weights], 0)
    spread = (max(weights) - low) // step if step else 0
    b = max(m for m, _ in cells)
    negative = min(m for m, _ in cells) < 0
    if negative:
        b = r * n
    top = max(abs(m) for m, _ in cells)
    largest = max(max(abs(x) for row in base._rows for x in row.values()), base._den)
    beta = (largest - 1).bit_length()
    work, sums = 0, 1  # sums = C(j + c - 1, c - 1)
    for j in range(n):
        if j:
            sums = sums * (j + len(weights) - 1) // j
        a = j * r
        steps = min(a, b)
        leibniz = steps * (a * (top + a if negative else top)).bit_length()
        words = max(1, -(-((j + 1) * beta + leibniz) // 64))
        work += ((j + 1) * r + 1 + min(sums, j * spread + 1) * (a + 1)
                 * len(cells) * (steps + 1) * words)
    return work


def parse_op(text: str) -> WeylOp:
    """Parse an operator expression into its unique normal form.

    Parsing, printing and re-parsing is the identity on normal forms, with
    numbers of any size; the interpreter's digit limit is never changed.
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
    coefficients.

    Each monomial t^m d^k maps to a multiple of d^m t^k, whose normal form
    is, with c = k - m and i = min(m, k),

        t^c * (D+c+1)(D+c+2)...(D+c+i)      for c >= 0,
        (D-c+1)(D-c+2)...(D-c+i) * d^-c     for c < 0.

    The monomials of one t-weight share c, so their images are summed by
    ``_rising_sum`` from D + |c| + 1 and shifted once.  Neither ``_leibniz``
    nor ``_times_euler`` runs here: ``dwork.ft_pair`` builds P and Q with
    the latter, and the Fourier check of the pair must not share a kernel
    with the operators it checks.
    """
    if direction not in ("forward", "inverse"):
        raise ValueError(f"unknown direction {direction!r}")
    rows = op._rows
    if any(row and min(row) < 0 for row in rows):
        raise ValueError("operator contains t^-1; the Fourier substitution "
                         "is defined only for polynomial coefficients")
    forward = direction == "forward"
    parts: dict[int, dict[int, int]] = {}  # c = k-m -> {min(m, k): +-n}
    for k, row in enumerate(rows):
        for m, n in row.items():
            # n*t^m*d^k  ->  n * d^m * (-t)^k      (forward)
            #            ->  n * (-d)^m * t^k      (inverse)
            if (k if forward else m) % 2:
                n = -n
            parts.setdefault(k - m, {})[min(m, k)] = n
    # classes of distinct c land on distinct monomials t^(j+c) d^j
    acc: dict[int, dict[int, int]] = {}
    for c, part in parts.items():
        r = _rising_sum(part, abs(c) + 1)
        t_shift, d_shift = (c, 0) if c >= 0 else (0, -c)
        for j, x in enumerate(r):
            acc.setdefault(j + d_shift, {})[j + t_shift] = x
    return _from_numerators(acc, op._den)


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
    so their images are summed by ``_rising_sum`` from D, the kernel of
    ``fourier``, in the normal form sum_i r_i u^i d^i.
    """
    parts: dict[int, dict[int, int]] = {}  # t-weight m-k -> {k: +-n}
    for k, row in enumerate(op._rows):
        for m, n in row.items():
            parts.setdefault(m - k, {})[k] = -n if k % 2 else n
    acc: dict[int, dict[int, int]] = {}
    for w, part in parts.items():
        for i, c in enumerate(_rising_sum(part, 0)):
            acc.setdefault(i, {})[i - w] = c
    return _from_numerators(acc, op._den)


# ---------------------------------------------------------------------------
# Indicial polynomials
# ---------------------------------------------------------------------------

def _weight_part(op: WeylOp, place: str) -> list[int]:
    """The part of extreme t-weight m-k, minimal at zero and maximal at
    infinity, as a polynomial in s = Euler operator.

    Each monomial t^m d^k of it contributes its coefficient times the falling
    factorial s(s-1)...(s-k+1): t^k d^k is that product of Euler factors,
    and at infinity u = 1/t gives (-1)^k u^(k-m) D(D+1)...(D+k-1), the same
    product under s -> -s.  Ascending integer coefficients, L times the
    rational ones; never zero, as the monomial of largest k reaches degree k.
    """
    rows = op._rows
    weight = _extreme(place)(m - k for k, row in enumerate(rows) for m in row)
    part = {k: row[weight + k] for k, row in enumerate(rows) if weight + k in row}
    # Horner: q <- q*(s - k) + part[k], from the top k down to 0, each step
    # one pass that carries the previous entry: q'_i = q_(i-1) - k * q_i
    top = max(part)
    q = [part[top]]
    for k in range(top - 1, -1, -1):
        nxt = []
        prev = 0
        for x in q:
            nxt.append(prev - k * x)
            prev = x
        nxt.append(prev)
        nxt[0] += part.get(k, 0)
        q = nxt
    return q


def _extreme(place: str):
    if place not in ("zero", "infinity"):
        raise ValueError(f"unknown place {place!r}")
    return min if place == "zero" else max


@dataclass(frozen=True)
class IndicialPolynomial:
    """Monic polynomial in s over the rationals, tagged with its place.

    Built from ascending rational coefficients at any scale, it keeps their
    primitive integer multiple ``nums``, so it is monic by construction;
    ``coeffs`` is the monic Fraction form.  The zero polynomial and a place
    other than "zero" or "infinity" raise ValueError.

    Its degree equals the rank of the slope-zero part at the place, and its
    roots are the local exponents.  ``roots`` extracts them exactly by
    factorisation over Q (``_rational_root_split``): rational roots with
    multiplicity, everything else reported as monic irreducible factors.
    ``has_roots_exactly`` checks a claimed root multiset by a product
    comparison in integers that uses no factorisation.
    """

    nums: tuple[int, ...]  # ascending, primitive, positive leading entry
    place: str

    def __post_init__(self):
        if self.place not in ("zero", "infinity"):
            raise ValueError(f"unknown place {self.place!r}")
        nums = _strip(_clear_denominators(self.nums)[0])
        if not nums:
            raise ValueError("the zero polynomial is not an indicial polynomial")
        object.__setattr__(self, "nums", tuple(_primitive(nums)))

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        lead = self.nums[-1]
        return tuple([Fraction(n, lead) for n in self.nums])

    @property
    def degree(self) -> int:
        return len(self.nums) - 1

    def __call__(self, x: Scalar) -> Fraction:
        """The value at the rational x = p/q, a float or a string raising
        TypeError: sum nums[i] * p^i * q^(deg-i) over lead * q^deg, by
        Horner's rule in integers."""
        x = _exact(x)
        p, q = x.numerator, x.denominator
        acc, q_power = 0, 1
        for n in reversed(self.nums):
            acc = acc * p + n * q_power
            q_power *= q
        return Fraction(acc, self.nums[-1] * (q_power // q))

    def roots(self) -> tuple[tuple[tuple[Fraction, int], ...], tuple[str, ...]]:
        """(rational roots with multiplicity, leftover irreducible factors)."""
        rational, leftovers = _rational_root_split(list(self.nums))
        return rational, _format_factors(leftovers, "s")

    def has_roots_exactly(self, values: Iterable[Scalar], den: int = 1) -> bool:
        """True iff the polynomial equals prod (s - v/den) over the multiset.

        Product comparison in integers, independent of any factorization
        routine: with the values n/L, prod (L*s - n) * lead = nums * L^deg.
        The product grows one factor at a time, each in one pass that
        carries the previous entry: p'_i = L * p_(i-1) - n * p_i.
        """
        claimed, scale = _clear_denominators(values, den)
        if len(claimed) != self.degree:
            return False
        prod = [1]
        for n in claimed:
            nxt = []
            prev = 0
            for x in prod:
                nxt.append(scale * prev - n * x)
                prev = x
            nxt.append(scale * prev)
            prod = nxt
        lead, top = self.nums[-1], scale ** len(claimed)
        return all(p * lead == top * c for p, c in zip(prod, self.nums))

    def __str__(self) -> str:
        return format_poly(self.nums, "s", self.nums[-1])


def _digits(n: int) -> str:
    """The decimal digits of the int n.  Past the interpreter's limit on
    int-to-text conversion (``sys.get_int_max_str_digits()``, Python
    3.10.7+), n is split at a power of ten near half its digits, and each
    half is written the same way, the low half padded with zeros; a Python
    without the limit never gets past ``str``.  The setting is only read
    through that refusal, never changed."""
    try:
        return str(n)
    except ValueError:  # more digits than the limit allows
        pass
    if n < 0:
        return "-" + _digits(-n)
    k = n.bit_length() * 3 // 20  # log10(2) > 0.3, so 10^k < n
    high, low = divmod(n, 10 ** k)
    return _digits(high) + _digits(low).zfill(k)


def _ratio(num: int, den: int) -> str:
    """The rational num/den (den > 0) in lowest terms as text, "n" or
    "n/m": one gcd, then digits.  Every exact rational is printed here."""
    g = math.gcd(num, den)
    if g != 1:
        num //= g
        den //= g
    try:
        return str(num) if den == 1 else f"{num}/{den}"
    except ValueError:  # past the limit on int-to-text conversion
        return _digits(num) if den == 1 else f"{_digits(num)}/{_digits(den)}"


def format_terms(terms: Iterable[tuple[int, list[tuple[str, int]]]], den: int) -> str:
    """Print a sum of terms n/den * x^e * y^f * ... in the grammar.

    Each term is an integer numerator n over the common positive
    denominator den and its monomial as (variable, exponent) factors, given
    in print order.  Zero numerators and zero exponents are skipped, a unit
    coefficient (n = +-den) is shown only on a constant term, and every
    coefficient is printed in lowest terms by ``_ratio``.
    """
    parts: list[str] = []
    for c, factors in terms:
        if not c:
            continue
        mono = [v if e == 1 else f"{v}^{_digits(e)}" for v, e in factors if e]
        a = abs(c)
        if a != den or not mono:
            mono.insert(0, _ratio(a, den))
        if parts:
            parts.append(" + " if c > 0 else " - ")
        elif c < 0:
            parts.append("-")
        parts.append("*".join(mono))
    return "".join(parts) or "0"


def format_poly(nums: Iterable[int], var: str, den: int) -> str:
    """Print the univariate polynomial sum nums[e]/den * var^e (ascending
    integer numerators over one positive denominator) in the grammar."""
    ns = list(nums)
    return format_terms(((ns[e], [(var, e)]) for e in range(len(ns) - 1, -1, -1)), den)


def _format_factors(factors: Iterable[tuple[int, ...]], var: str) -> tuple[str, ...]:
    """Primitive integer polynomials (ascending, positive leading entry) as
    the grammar strings of their monic forms: each over its own leading
    entry, which is the lcm of the monic form's denominators."""
    return tuple([format_poly(f, var, f[-1]) for f in factors])


def _low_degree_roots(f: list[int]) -> list[Fraction]:
    """The rational roots of the integer polynomial f of degree 1 or 2, in
    closed form; a double root is listed twice, and an irreducible
    quadratic has none."""
    if len(f) == 2:
        return [Fraction(-f[0], f[1])]
    c0, c1, c2 = f
    disc = c1 * c1 - 4 * c2 * c0
    sq = math.isqrt(max(disc, 0))
    if sq * sq != disc:
        return []
    return [Fraction(-c1 + sq, 2 * c2), Fraction(-c1 - sq, 2 * c2)]


def _integer_nthroot(x: int, n: int) -> tuple[int, bool]:
    """Floor of the n-th root of x >= 0, and whether it is exact.

    Integer Newton iteration from the upper bound 2^ceil(bits/n); the
    iterates decrease strictly until they reach the floor root.
    """
    if x == 0:
        return 0, True
    r = 1 << -(-x.bit_length() // n)
    while True:
        s = ((n - 1) * r + x // r ** (n - 1)) // n
        if s >= r:
            return r, r ** n == x
        r = s


def _rational_root_split(
    coeffs: list[Scalar],
) -> tuple[tuple[tuple[Fraction, int], ...], list[tuple[int, ...]]]:
    """Split a rational polynomial into rational roots and irreducible factors.

    Returns the rational roots with multiplicity, in increasing order, and
    the irreducible factors of degree >= 2, each as its primitive integer
    multiple with positive leading coefficient (ascending), listed once per
    multiplicity.  Zero roots and a rest of degree <= 2 are handled in
    closed form (``_low_degree_roots``), on the integer numerators; a rest
    of degree >= 3 goes to ``_factor._factor_integer``, the factoriser's
    one entry point (rational roots by p-adic lifting, Capelli's criterion
    for binomials, degree analysis and Zassenhaus for the rest).  Factors
    are ordered by degree, then multiplicity, then the coefficients,
    highest first, of the primitive integer factor with positive leading
    coefficient.
    """
    coeffs = _strip(_clear_denominators(coeffs)[0])
    if not coeffs:
        raise ValueError("zero polynomial has no root data")
    v = next(i for i, c in enumerate(coeffs) if c)  # the zero root's multiplicity
    roots: list[tuple[Fraction, int]] = [(Fraction(0), v)] if v else []
    coeffs = coeffs[v:]
    leftovers: list[tuple[int, ...]] = []
    deg = len(coeffs) - 1
    if deg in (1, 2):  # nonzero roots, as in every case below
        found = _low_degree_roots(coeffs)
        for r in found:
            if roots and roots[-1][0] == r:  # the second of a double root
                roots[-1] = (r, 2)
            else:
                roots.append((r, 1))
        if not found:
            leftovers.append(tuple(_primitive(coeffs)))
    elif deg > 2:
        # Imported on first use: reports and sweeps never get here, and
        # their start-up then pays nothing for the factoriser.
        from ._factor import _factor_integer

        found, factors = _factor_integer(coeffs)
        roots += found  # distinct, and no zero root is left among them
        for f, m in factors:
            leftovers.extend([tuple(f)] * m)
    # exact integer keys: every rational root a/b of coeffs has b | lead
    lead = abs(coeffs[-1])
    roots.sort(key=lambda rm: rm[0].numerator * (lead // rm[0].denominator))
    return tuple(roots), leftovers


def indicial_polynomial(op: WeylOp, place: str = "zero") -> IndicialPolynomial:
    """Indicial polynomial at zero or infinity, from ``_weight_part``.

    At infinity this is the polynomial of ``mobius_infinity(op)`` at zero
    with s -> -s, so that the Kummer operator D - a has root a at both
    places (exponents here are module-decomposition data, not solution
    exponents).
    """
    if op.is_zero:
        raise ValueError("zero operator has no indicial polynomial")
    return IndicialPolynomial(_weight_part(op, place), place)


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


def fuchs_regular(op: WeylOp, place: str) -> bool:
    """Fuchs condition on the rows p_k of op, r being the order: at zero
    ord_0(p_k) - k >= ord_0(p_r) - r for every k, at infinity deg(p_k) - k <=
    deg(p_r) - r (the condition at zero on ``mobius_infinity(op)``).  Either
    says that the indicial polynomial at the place has full degree r.
    """
    if op.is_zero:
        raise ValueError("zero operator has no Fuchs condition")
    pick = _extreme(place)
    weights = [pick(row) - k for k, row in enumerate(op._rows) if row]
    return pick(weights) == weights[-1]


def finite_singular_points(op: WeylOp) -> tuple[tuple[Fraction, ...], tuple[str, ...]]:
    """Distinct rational roots of the leading d-coefficient away from zero,
    plus the leftover irreducible factors as grammar strings."""
    if op.is_zero:
        raise ValueError("zero operator has no singular support")
    # the roots do not depend on the scale, so the numerators serve
    lead = op._rows[op.order()]
    coeffs = [lead.get(e, 0) for e in range(min(lead), max(lead) + 1)]
    rational, leftovers = _rational_root_split(coeffs)
    finite = tuple([r for r, _ in rational if r])  # in increasing order
    return finite, _format_factors(leftovers, "t")


def singular_support(op: WeylOp) -> SingularSupport:
    """Candidate singular points in the punctured line plus 0/infinity flags.

    Finite candidates are the roots of the leading d-coefficient away from
    the origin; the flags are ``fuchs_regular`` at zero and at infinity (all
    Newton-polygon slopes zero).
    """
    finite, factors = finite_singular_points(op)
    return SingularSupport(
        finite_rational=finite,
        other_factors=factors,
        regular_at_zero=fuchs_regular(op, "zero"),
        regular_at_infinity=fuchs_regular(op, "infinity"),
    )
