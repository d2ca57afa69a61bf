"""Formal calculus of one-dimensional hypergeometric and Kummer data.

A hypergeometric datum is a triple (gamma; alpha; beta) of a nonzero rational
and two exponent multisets; it is realized on the operator side as

    gamma * prod_i (D - a_i)  -  t * prod_j (D - b_j),        D = t*d.

Exponents matter modulo the integers, and the canonical representative of
each class lies in (0, 1], so the trivial class shows up as 1.  A list of
classes is a ``FactorList``: residues 1..N over the minimal N, with
multiplicity.  The same type counts Kummer composition factors K_a, class 1
(residue N) being the structure sheaf O.  Along z -> z^e the class r/N
pushes forward to the e classes (r + a*N)/(N*e), a = 0..e-1, in
``power_pushforward`` alone; a class pulls back by ``FactorList.scaled(e)``.
Only the operator depends on the chosen representatives, so only the alpha
and beta of a datum are ``ExpMultiset``s: sorted integer numerators over one
denominator N, which the operator reads, and their classes in ``factors``,
which everything else reads.  Floats and strings are refused.

Besides the datum itself the module implements cancellation of shared
classes, the irreducibility criterion (no alpha-beta difference an integer),
exponents at zero and infinity, and pullback and pushforward along power
maps of the punctured line.  The direct image of an irreducible datum h
along z -> z^e has exponents ``power_pushforward(exponents(h, place), e)``
and no type of its own.  Everything is pure, and immutable once built.
"""

from __future__ import annotations

import math
import operator
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

from . import weyl
from .weyl import Scalar, WeylOp, _clear_denominators, _exact, _ratio, _refuse_float


class ExpMultiset:
    """A datum's exponent list: rational representatives, compared modulo Z.

    ``ExpMultiset(reps, den)`` holds the representatives r/den, for ints and
    Fractions r and a positive integer scale den (default 1), as sorted
    integer numerators over N, the least common denominator of the
    representatives; only the operator reads them (``numerators``).  Their
    classes are counted in ``factors``, a ``FactorList`` over the same N,
    which ``==``, ``hash``, ``str``, ``cancel``, ``is_irreducible`` and
    ``exponents`` read.  ``str`` prints the classes in (0, 1], ``repr`` the
    representatives; no Fraction is built.
    """

    __slots__ = ("_nums", "factors")

    def __init__(self, reps: Iterable[Scalar] = (), den: int = 1):
        nums, den = _clear_denominators(reps, den)
        self.factors = fl = FactorList._counted(nums, den)
        nums.sort()
        g = den // fl._den  # gcd(den, residues) = gcd(den, numerators)
        self._nums = tuple([x // g for x in nums]) if g > 1 else tuple(nums)

    @property
    def numerators(self) -> tuple[tuple[int, ...], int]:
        """The representatives as (sorted integer numerators, N)."""
        return self._nums, self.factors._den

    def __len__(self) -> int:
        return len(self._nums)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ExpMultiset):
            return self.factors == other.factors
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.factors)

    def __str__(self) -> str:
        return "[" + ", ".join(self.factors.canonical_texts()) + "]"

    def __repr__(self) -> str:
        n = self.factors._den
        return f"ExpMultiset({[_ratio(x, n) for x in self._nums]})"


def _multiset(xs: ExpMultiset | Iterable[Scalar]) -> ExpMultiset:
    return xs if isinstance(xs, ExpMultiset) else ExpMultiset(xs)


def cancel(alpha: ExpMultiset | Iterable[Scalar],
           beta: ExpMultiset | Iterable[Scalar]) -> tuple[ExpMultiset, ExpMultiset]:
    """Remove shared classes from both lists, one member per coincidence.

    For every class c, min(mult_alpha(c), mult_beta(c)) members are removed
    from each side, the largest representatives of c first, leaving lists
    that are disjoint modulo Z; the length difference is preserved and the
    result does not depend on element order.  The removal runs over the
    numerators at the lcm n of the two denominators.
    """
    a, b = _multiset(alpha), _multiset(beta)
    n, ca, cb = _common(a.factors, b.factors)
    shared = {r: min(m, cb[r]) for r, m in ca.items() if r in cb}
    out = []
    for ms in (a, b):
        left, s, keep = dict(shared), n // ms.factors._den, []
        for x in reversed(ms._nums):
            x *= s
            c = x % n or n
            if left.get(c):
                left[c] -= 1
            else:
                keep.append(x)
        out.append(ExpMultiset(keep, n))
    return out[0], out[1]


# ---------------------------------------------------------------------------
# Hypergeometric and Kummer data
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HypModule:
    """Hypergeometric datum (gamma; alpha; beta) with gamma nonzero.

    Type (n, m) is (len(alpha), len(beta)); the (0, 0) case is the punctual
    datum supported at gamma.
    """

    gamma: Fraction
    alpha: ExpMultiset
    beta: ExpMultiset

    @property
    def type(self) -> tuple[int, int]:
        return len(self.alpha), len(self.beta)

    def display(self) -> str:
        g = self.gamma
        return (f"Hyp(gamma={_ratio(g.numerator, g.denominator)}; "
                f"alpha={self.alpha}; beta={self.beta})")

    __str__ = display


def make_hyp(gamma: Scalar,
             alpha: Iterable[Scalar] | ExpMultiset = (),
             beta: Iterable[Scalar] | ExpMultiset = (),
             reduce: bool = False) -> HypModule:
    """Build a hypergeometric datum, optionally cancelling shared classes."""
    gamma = _exact(gamma)
    if not gamma:
        raise ValueError("gamma must be nonzero")
    a, b = _multiset(alpha), _multiset(beta)
    if reduce:
        a, b = cancel(a, b)
    return HypModule(gamma=gamma, alpha=a, beta=b)


def hyp_operator(h: HypModule) -> WeylOp:
    """The operator gamma*prod(D - a_i) - t*prod(D - b_j), in normal form,
    built in one integer pass from the numerators of alpha and beta by
    ``weyl._euler_difference`` at (m, k) = (1, 0)."""
    return weyl._euler_difference(h.gamma, h.alpha.numerators, h.beta.numerators, 1, 0)


def is_irreducible(h: HypModule) -> bool:
    """No alpha - beta difference is an integer; type (0, 0) is irreducible."""
    _, ca, cb = _common(h.alpha.factors, h.beta.factors)
    return ca.keys().isdisjoint(cb)


def exponents(h: HypModule, place: str) -> FactorList:
    """Exponent classes at zero (alpha) or infinity (beta), with
    multiplicity: the datum's own ``factors``.

    Defined for irreducible data only; matches the indicial roots of
    ``hyp_operator(h)`` at the same place, class by class.
    """
    if place not in ("zero", "infinity"):
        raise ValueError(f"unknown place {place!r}")
    if not is_irreducible(h):
        raise ValueError("exponents are defined for irreducible data only")
    return (h.alpha if place == "zero" else h.beta).factors


# ---------------------------------------------------------------------------
# Composition-factor lists
# ---------------------------------------------------------------------------

class FactorList:
    """Multiset of Kummer composition factors K_a, counted.

    The classes are held as residues 1..N over one minimal denominator N
    with their counts: residue r stands for the class r/N in (0, 1], and
    residue N for the structure sheaf O; ``ExpMultiset.factors`` is one.
    ``classes`` reads them as a fresh ``Counter`` of canonical ``Fraction``s.
    Multiplicities are counted, never enumerated.  The argument is an
    iterable of classes or a mapping class -> integer multiplicity >= 0;
    classes are identified modulo Z.
    """

    __slots__ = ("_den", "_counts")

    def __new__(cls, classes: Iterable[Scalar] | Mapping[Scalar, int] = ()):
        _refuse_float(classes)  # a string is not the list of its digits
        classes = Counter(classes)
        nums, den = _clear_denominators(list(classes))
        counts: dict[int, int] = {}
        for x, m in zip(nums, map(operator.index, classes.values())):
            if m < 0:
                raise ValueError("multiplicities of composition factors must be >= 0")
            if m:
                r = x % den or den
                counts[r] = counts.get(r, 0) + m
        return cls._residues(den, counts)

    @classmethod
    def _counted(cls, nums: Iterable[int], den: int) -> "FactorList":
        """The classes x/den of the integers x, each counted once per x."""
        counts: dict[int, int] = {}
        for x in nums:
            r = x % den or den
            counts[r] = counts.get(r, 0) + 1
        return cls._residues(den, counts)

    @classmethod
    def _residues(cls, den: int, counts: dict[int, int]) -> "FactorList":
        """Residues 1..den counted by counts[r] > 0, divided by their gcd with den."""
        g = math.gcd(den, *counts)
        if g > 1:
            den, counts = den // g, {r // g: m for r, m in counts.items()}
        return cls._minimal(den, counts)

    @classmethod
    def _minimal(cls, den: int, counts: dict[int, int]) -> "FactorList":
        """The residues r in 1..den counted by counts[r] > 0, den minimal."""
        out = object.__new__(cls)
        out._den, out._counts = den, counts
        return out

    @property
    def classes(self) -> Counter:
        """Canonical class in (0, 1] -> multiplicity, class 1 being O."""
        n = self._den
        return Counter({Fraction(r, n): m for r, m in self._counts.items()})

    def __add__(self, other: "FactorList") -> "FactorList":
        # over the lcm of two minimal denominators the union stays minimal
        n, counts, more = _common(self, other)
        for r, m in more.items():
            counts[r] = counts.get(r, 0) + m
        return FactorList._minimal(n, counts)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, FactorList):
            return self._den == other._den and self._counts == other._counts
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self._den, frozenset(self._counts.items())))

    def rank(self) -> int:
        """Generic rank: 1 per Kummer class."""
        return sum(self._counts.values())

    def scaled(self, k: int) -> "FactorList":
        """K_a -> K_{k*a} for an integer k: the pullback along z -> z^k."""
        _refuse_float(k)
        n, k = self._den, operator.index(k)
        counts: dict[int, int] = {}
        for r, m in self._counts.items():
            c = r * k % n or n
            counts[c] = counts.get(c, 0) + m
        return FactorList._residues(n, counts)

    def canonical_texts(self) -> list[str]:
        """The classes in (0, 1] by ascending residue, each once per count,
        printed from r/N."""
        n, counts = self._den, self._counts
        return [_ratio(r, n) for r in sorted(counts) for _ in range(counts[r])]

    def __str__(self) -> str:
        """K(a) by ascending a, then O, with ^mult."""
        n = self._den
        parts = [("O" if r == n else f"K({_ratio(r, n)})", self._counts[r])
                 for r in sorted(self._counts)]
        if not parts:
            return "0"
        return " + ".join(s if mult == 1 else f"{s}^{mult}" for s, mult in parts)

    def __repr__(self) -> str:
        return f"FactorList({self})"


def _common(a: FactorList, b: FactorList) -> tuple[int, dict[int, int], dict[int, int]]:
    """The lcm n of the two denominators, and both lists as residue -> count over n."""
    n = math.lcm(a._den, b._den)
    return (n, {r * (n // a._den): m for r, m in a._counts.items()},
            {r * (n // b._den): m for r, m in b._counts.items()})


# ---------------------------------------------------------------------------
# Power maps of the punctured line
# ---------------------------------------------------------------------------

def power_pullback(h: HypModule, d: int) -> tuple[FactorList, FactorList]:
    """Exponent classes (alpha, beta) of the pullback of a hypergeometric
    datum along z -> z^d (d a nonzero integer), as bookkeeping only: each is
    ``FactorList.scaled(d)`` of the datum's classes, as a Kummer class K_a
    pulls back to K_{d*a}."""
    if d == 0:
        raise ValueError("pullback power must be nonzero")
    return h.alpha.factors.scaled(d), h.beta.factors.scaled(d)


def power_pushforward(fl: FactorList, e: int) -> FactorList:
    """Direct image of a list of Kummer classes along z -> z^e (e >= 1).

    The Kummer class a goes to the sum of K_x over the e classes x with
    e*x congruent to a: residue r over N goes to r + a*N over N*e,
    a = 0..e-1.
    """
    _refuse_float(e)
    if e < 1:
        raise ValueError("pushforward order must be a positive integer")
    n, counts = fl._den, fl._counts
    if not counts:
        return fl  # the empty list stays over 1
    # a g dividing N*e and every r + a*N divides N and every r, so it is 1
    return FactorList._minimal(n * e, {r + a * n: m for r, m in counts.items()
                                       for a in range(e)})


def _kummer_sum(e: int, mult: int) -> FactorList:
    """K(a/e), a = 1..e, each mult >= 0 times: the direct image of O^mult."""
    return power_pushforward(FactorList._minimal(1, {1: mult} if mult else {}), e)
