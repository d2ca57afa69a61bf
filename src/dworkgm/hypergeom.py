"""Formal calculus of one-dimensional hypergeometric and Kummer data.

A hypergeometric datum is a triple (gamma; alpha; beta) of a nonzero rational
and two exponent multisets; it is realized on the operator side as

    gamma * prod_i (D - a_i)  -  t * prod_j (D - b_j),        D = t*d.

Exponents matter modulo the integers: two representatives are congruent when
their difference is an integer, and the canonical display representative of
each class lies in the half-open interval (0, 1], so the trivial class shows
up as 1.  Multisets keep the representatives they were built from (the
operator realization depends on them), while equality, cancellation and all
class bookkeeping happen class-wise.

Besides the datum itself the module implements cancellation of shared
classes, the irreducibility criterion (no alpha-beta difference an integer),
exponents at zero and infinity, Kummer twists, pullback and pushforward
along power maps of the punctured line, Euler characteristics of composition
factor lists, and the two-term local computation used for fibers over the
puncture.  Everything is immutable and pure.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Union

from . import weyl
from .weyl import WeylOp

Scalar = Union[int, Fraction]


_ONE = Fraction(1)


def canonical_rep(x: Scalar) -> Fraction:
    """Representative of x mod Z inside (0, 1]; the trivial class maps to 1."""
    x = Fraction(x)
    r = x.numerator % x.denominator
    # numerator and denominator are coprime, so r/den is already reduced
    return Fraction(r, x.denominator) if r else _ONE


class ExpMultiset:
    """Multiset of rational exponent representatives, compared modulo Z.

    The raw representatives are preserved (sorted) so that operator
    realizations stay literal; equality, hashing and display always go
    through the canonical (0, 1] classes, with multiplicity.
    """

    __slots__ = ("_reps", "_classes")

    def __init__(self, reps: Iterable[Scalar] = ()):
        self._reps = tuple(sorted(Fraction(r) for r in reps))
        self._classes = None

    @property
    def reps(self) -> tuple[Fraction, ...]:
        return self._reps

    def classes(self) -> Counter:
        if self._classes is None:
            self._classes = Counter(canonical_rep(r) for r in self._reps)
        return self._classes

    def canonical(self) -> tuple[Fraction, ...]:
        return tuple(sorted(canonical_rep(r) for r in self._reps))

    def __len__(self) -> int:
        return len(self._reps)

    def __iter__(self) -> Iterator[Fraction]:
        return iter(self._reps)

    def __bool__(self) -> bool:
        return bool(self._reps)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ExpMultiset):
            return self.classes() == other.classes()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(frozenset(self.classes().items()))

    def __add__(self, other: "ExpMultiset") -> "ExpMultiset":
        """Multiset union (disjoint sum of representatives)."""
        return ExpMultiset(self._reps + other._reps)

    def shifted(self, eta: Scalar) -> "ExpMultiset":
        eta = Fraction(eta)
        return ExpMultiset(r + eta for r in self._reps)

    def scaled(self, k: Scalar) -> "ExpMultiset":
        k = Fraction(k)
        return ExpMultiset(r * k for r in self._reps)

    def pushforward(self, e: int) -> "ExpMultiset":
        """Classes x with e*x congruent to one of ours: (c + a)/e, a = 0..e-1."""
        if e < 1:
            raise ValueError("pushforward order must be positive")
        return ExpMultiset(
            canonical_rep((c + a) / e)
            for c in self.canonical()
            for a in range(e)
        )

    def remove_class(self, x: Scalar, count: int = 1) -> "ExpMultiset":
        """Drop ``count`` members of the class of x (largest representatives)."""
        target = canonical_rep(x)
        matching = sorted((r for r in self._reps if canonical_rep(r) == target),
                          reverse=True)
        if len(matching) < count:
            raise ValueError(f"class {target} has multiplicity {len(matching)} < {count}")
        to_drop = Counter(matching[:count])
        keep = []
        for r in self._reps:
            if to_drop.get(r, 0) > 0:
                to_drop[r] -= 1
            else:
                keep.append(r)
        return ExpMultiset(keep)

    def __str__(self) -> str:
        return "[" + ", ".join(str(c) for c in self.canonical()) + "]"

    def __repr__(self) -> str:
        return f"ExpMultiset({[str(r) for r in self._reps]})"


def cancel(alpha: ExpMultiset | Iterable[Scalar],
           beta: ExpMultiset | Iterable[Scalar]) -> tuple[ExpMultiset, ExpMultiset]:
    """Remove shared classes from both multisets, one member per coincidence.

    For every class c, min(mult_alpha(c), mult_beta(c)) members are removed
    from each side, leaving lists that are disjoint modulo Z; the length
    difference is preserved and the result does not depend on element order
    or on the chosen representatives (at class level).
    """
    a = alpha if isinstance(alpha, ExpMultiset) else ExpMultiset(alpha)
    b = beta if isinstance(beta, ExpMultiset) else ExpMultiset(beta)

    def grouped(ms):
        groups: dict[Fraction, list[Fraction]] = {}
        for r in ms.reps:  # reps are sorted ascending
            groups.setdefault(canonical_rep(r), []).append(r)
        return groups

    ga, gb = grouped(a), grouped(b)
    for cls in set(ga) & set(gb):
        k = min(len(ga[cls]), len(gb[cls]))
        del ga[cls][len(ga[cls]) - k:]
        del gb[cls][len(gb[cls]) - k:]
    survivors_a = [r for group in ga.values() for r in group]
    survivors_b = [r for group in gb.values() for r in group]
    return ExpMultiset(survivors_a), ExpMultiset(survivors_b)


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

    @property
    def is_delta(self) -> bool:
        return self.type == (0, 0)

    def display(self) -> str:
        return (f"Hyp(gamma={self.gamma}; alpha={self.alpha}; beta={self.beta})")

    def __str__(self) -> str:
        return self.display()


def make_hyp(gamma: Scalar,
             alpha: Iterable[Scalar] | ExpMultiset = (),
             beta: Iterable[Scalar] | ExpMultiset = (),
             reduce: bool = False) -> HypModule:
    """Build a hypergeometric datum, optionally cancelling shared classes."""
    gamma = Fraction(gamma)
    if not gamma:
        raise ValueError("gamma must be nonzero")
    a = alpha if isinstance(alpha, ExpMultiset) else ExpMultiset(alpha)
    b = beta if isinstance(beta, ExpMultiset) else ExpMultiset(beta)
    if reduce:
        a, b = cancel(a, b)
    return HypModule(gamma=gamma, alpha=a, beta=b)


def hyp_operator(h: HypModule) -> WeylOp:
    """The operator gamma*prod(D - a_i) - t*prod(D - b_j), in normal form."""
    left = weyl.euler_product(h.alpha.reps)
    right = weyl.euler_product(h.beta.reps)
    return left * h.gamma - WeylOp.t() * right


def is_irreducible(h: HypModule) -> bool:
    """No alpha - beta difference is an integer; type (0, 0) is irreducible."""
    return not (h.alpha.classes() & h.beta.classes())


def exponents(h: HypModule, place: str) -> ExpMultiset:
    """Exponent classes at zero (alpha) or infinity (beta), with multiplicity.

    Defined for irreducible data only; matches the indicial roots of
    ``hyp_operator(h)`` at the same place, class by class.
    """
    if place not in ("zero", "infinity"):
        raise ValueError(f"unknown place {place!r}")
    if not is_irreducible(h):
        raise ValueError("exponents are defined for irreducible data only")
    source = h.alpha if place == "zero" else h.beta
    return ExpMultiset(source.canonical())


def kummer_twist(h: HypModule, eta: Scalar) -> HypModule:
    """Shift every exponent by eta; involutive with -eta, gamma unchanged."""
    return HypModule(gamma=h.gamma,
                     alpha=h.alpha.shifted(eta),
                     beta=h.beta.shifted(eta))


@dataclass(frozen=True)
class KummerModule:
    """Rank-one datum t^alpha; alpha matters modulo Z only."""

    alpha: Fraction

    def __init__(self, alpha: Scalar):
        object.__setattr__(self, "alpha", Fraction(alpha))

    @property
    def class_rep(self) -> Fraction:
        return canonical_rep(self.alpha)

    @property
    def is_trivial(self) -> bool:
        return self.alpha.denominator == 1

    def __eq__(self, other: object) -> bool:
        if isinstance(other, KummerModule):
            return self.class_rep == other.class_rep
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.class_rep)

    def __str__(self) -> str:
        return "O" if self.is_trivial else f"K({self.class_rep})"


# ---------------------------------------------------------------------------
# Composition-factor lists
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Factor:
    """Composition-factor tag: Structure, Kummer(class), Delta(point), Hyp."""

    kind: str
    param: object = None

    def __str__(self) -> str:
        if self.kind == "structure":
            return "O"
        if self.kind == "kummer":
            return f"K({self.param})"
        if self.kind == "delta":
            return f"Delta({self.param})"
        return str(self.param)

    def sort_key(self) -> tuple:
        order = {"hyp": 0, "delta": 1, "kummer": 2, "structure": 3}
        if isinstance(self.param, Fraction):
            return (order[self.kind], 0, self.param)
        return (order[self.kind], 1, str(self.param) if self.param is not None else "")


def structure() -> Factor:
    return Factor("structure")


def kummer(alpha: Scalar) -> Factor:
    """Kummer factor; an integral class is the structure sheaf."""
    rep = canonical_rep(alpha)
    if rep == 1:
        return structure()
    return Factor("kummer", rep)


def delta(point: Scalar) -> Factor:
    return Factor("delta", Fraction(point))


def hyp_factor(h: HypModule) -> Factor:
    return Factor("hyp", h)


class FactorList:
    """Multiset of composition factors, equal up to permutation and mod-Z
    identification of Kummer classes."""

    __slots__ = ("_c",)

    def __init__(self, factors: Iterable[Factor | tuple[Factor, int]] = ()):
        c: Counter = Counter()
        for f in factors:
            if isinstance(f, tuple):
                factor, mult = f
                c[factor] += mult
            else:
                c[f] += 1
        self._c = +c

    def items(self) -> list[tuple[Factor, int]]:
        return sorted(self._c.items(), key=lambda kv: kv[0].sort_key())

    def __len__(self) -> int:
        return sum(self._c.values())

    def __iter__(self) -> Iterator[Factor]:
        for f, mult in self.items():
            yield from [f] * mult

    def __add__(self, other: "FactorList") -> "FactorList":
        out = FactorList.__new__(FactorList)
        out._c = self._c + other._c
        return out

    def __eq__(self, other: object) -> bool:
        if isinstance(other, FactorList):
            return self._c == other._c
        return NotImplemented

    def __hash__(self) -> int:
        return hash(frozenset(self._c.items()))

    def rank(self) -> int:
        """Generic rank: 1 per Kummer/structure factor, n per type-(n, n) hyp."""
        total = 0
        for f, mult in self._c.items():
            if f.kind in ("structure", "kummer"):
                total += mult
            elif f.kind == "hyp":
                total += f.param.type[0] * mult
        return total

    def __str__(self) -> str:
        if not self._c:
            return "0"
        parts = []
        for f, mult in self.items():
            parts.append(str(f) if mult == 1 else f"{f}^{mult}")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"FactorList({self})"


def euler_char(factors: FactorList | Iterable[Factor]) -> int:
    """Euler-Poincare characteristic of a composition-factor list.

    Structure and Kummer factors contribute 0, punctual factors -1, and an
    irreducible hypergeometric factor -1 (of any type, punctual type (0, 0)
    included).  Reducible hypergeometric entries are rejected: the list must
    consist of composition factors.  Additive under concatenation.
    """
    total = 0
    for f in factors:
        if f.kind in ("structure", "kummer"):
            continue
        if f.kind == "delta":
            total -= 1
        elif f.kind == "hyp":
            if not is_irreducible(f.param):
                raise ValueError(f"reducible factor in composition list: {f.param}")
            total -= 1
        else:
            raise ValueError(f"unknown factor kind {f.kind!r}")
    return total


# ---------------------------------------------------------------------------
# Power maps of the punctured line
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HypPullback:
    """Exponent bookkeeping for the pullback of a hypergeometric datum along
    z -> z^power: exponent multisets multiply by the power.  This is a report
    annotation, not a module computation."""

    power: int
    alpha: ExpMultiset
    beta: ExpMultiset


@dataclass(frozen=True)
class PushforwardHyp:
    """Pushforward pair (e, base): the direct image of an irreducible
    hypergeometric datum along z -> z^e.

    It stays irreducible; its exponent classes at either place are exactly
    the classes x with e*x congruent to a class of the base.  No transformed
    gamma is asserted; the pair itself is the stored datum.
    """

    e: int
    base: HypModule

    @property
    def rank(self) -> int:
        return self.e * self.base.type[0]

    def exponents(self, place: str) -> ExpMultiset:
        return exponents(self.base, place).pushforward(self.e)

    def display(self) -> str:
        return f"[{self.e}]_+ {self.base.display()}"

    def __str__(self) -> str:
        return self.display()


def power_pullback(module: KummerModule | HypModule, d: int) -> Factor | HypPullback:
    """Pullback along z -> z^d (d nonzero).

    Kummer data transform as K_a -> K_{d*a}, collapsing to the structure
    sheaf when d*a is an integer.  Hypergeometric data are handled as
    exponent bookkeeping only.
    """
    if d == 0:
        raise ValueError("pullback power must be nonzero")
    if isinstance(module, KummerModule):
        return kummer(module.alpha * d)
    if isinstance(module, HypModule):
        return HypPullback(power=d,
                           alpha=module.alpha.scaled(d),
                           beta=module.beta.scaled(d))
    raise TypeError(f"unsupported module {module!r}")


def power_pushforward(module: KummerModule | HypModule, e: int) -> FactorList | PushforwardHyp:
    """Direct image along z -> z^e (e >= 1).

    [e]_+ K_a = sum of K_{(a+j)/e} over j = 0..e-1; an irreducible
    hypergeometric datum yields the pushforward pair.
    """
    if e < 1:
        raise ValueError("pushforward order must be a positive integer")
    if isinstance(module, KummerModule):
        return FactorList(kummer((module.alpha + j) / e) for j in range(e))
    if isinstance(module, HypModule):
        if not is_irreducible(module):
            raise ValueError("pushforward pair is defined for irreducible data")
        return PushforwardHyp(e=e, base=module)
    raise TypeError(f"unsupported module {module!r}")


def puncture_fiber_cohomology(alpha: Scalar, w: Iterable[int]) -> dict[int, FactorList]:
    """Cohomology of the local fiber construction over the puncture.

    Requires d'*alpha integral, d' being the sum of all but the last weight.
    An integral alpha yields the structure sheaf in degree -1 plus two copies
    in degree 0; otherwise the single Kummer factor K_alpha in degree 0.
    """
    weights = tuple(int(x) for x in w)
    if len(weights) < 2:
        raise ValueError("need at least two weights")
    alpha = Fraction(alpha)
    d_prev = sum(weights[:-1])
    if (d_prev * alpha).denominator != 1:
        raise ValueError(f"{d_prev}*alpha = {d_prev * alpha} is not an integer")
    if alpha.denominator == 1:
        return {-1: FactorList([structure()]),
                0: FactorList([structure(), structure()])}
    return {0: FactorList([kummer(alpha)])}
