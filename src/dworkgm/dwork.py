"""Pipeline from a weight tuple to the invariant Gauss-Manin report.

Given positive weights w = (w_0, ..., w_n) with d = sum(w_i) and
e = gcd(w_i), the pipeline produces:

  * the critical parameter value gamma = d^-d * prod(w_i^w_i) and the locus
    of singular fibers gamma * t^d = 1;
  * the set C of classes k/d that coincide with some j/w_i (0 < j < w_i);
  * the irreducible hypergeometric datum obtained by cancelling the lists
    (j/w_i : all i, j) against (k/d : k = 1..d);
  * the block G of rank d - e carrying the nonconstant cohomology, with its
    exponents at zero and infinity, Euler characteristic -1, unique finite
    singularity at gamma, and the two exact sequences describing how it sits
    inside the degree-zero cohomology H^0(K), which is G under a constant
    Kummer quotient;
  * the per-degree cohomology tables of the two auxiliary complexes;
  * the Fourier operator pair (P, Q) with its calibrated sign.

For non-primitive weights (e > 1) the invariant piece is the direct image
along z -> z^e of the datum of w/e, which the G block holds with e, and the
report embeds the primitive report of w/e instead of refusing: gamma scales
as gamma(w) = gamma(w/e)^e, ranks multiply by e and exponent classes are the
e-fold preimages of the primitive ones.

Every report embeds the pass/fail results of its internal consistency
checks, which confront the closed formulas with the operator-level oracles
(indicial roots, singular support, Fourier identity) and with the
arrangement-cohomology tables.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, Sequence, Union

from . import arrangement, weyl
from .hypergeom import (ExpMultiset, FactorList, HypModule, _kummer_sum,
                        exponents, hyp_operator, is_irreducible, make_hyp,
                        power_pullback, power_pushforward)
from .weyl import WeylOp, _integer_nthroot, _ratio, format_poly

WeightsLike = Union["Weights", Sequence[int]]


# ---------------------------------------------------------------------------
# Weights
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Weights:
    """Tuple of n+1 positive weights with their sum d and gcd e; a weight
    that is not an integer (``operator.index``) raises TypeError.

    ``n``, ``d``, ``e`` and ``primitive`` are set once when it is built;
    equality, hash and repr read ``w`` alone."""

    w: tuple[int, ...]
    n: int = field(init=False, repr=False, compare=False)
    d: int = field(init=False, repr=False, compare=False)
    e: int = field(init=False, repr=False, compare=False)
    primitive: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        w = tuple(map(operator.index, self.w))
        if len(w) < 2:
            raise ValueError("need at least two weights")
        if any(x < 1 for x in w):
            raise ValueError("weights must be positive integers")
        e = math.gcd(*w)
        for name, value in (("w", w), ("n", len(w) - 1), ("d", sum(w)),
                            ("e", e), ("primitive", e == 1)):
            object.__setattr__(self, name, value)

    def reduced(self) -> "Weights":
        """The primitive tuple w/e."""
        e = self.e
        return Weights(tuple(x // e for x in self.w))

    def __iter__(self):
        return iter(self.w)


def validate_weights(raw: WeightsLike) -> Weights:
    """Check and wrap a weight sequence; at least two entries, all >= 1."""
    return raw if isinstance(raw, Weights) else Weights(raw)


# ---------------------------------------------------------------------------
# Critical value and singular fibers
# ---------------------------------------------------------------------------

def gamma_n(w: WeightsLike) -> Fraction:
    """The critical parameter value d^-d * prod(w_i^w_i), exactly."""
    w = validate_weights(w)
    num = 1
    for x in w:
        num *= x ** x
    return Fraction(num, w.d ** w.d)


@dataclass(frozen=True)
class SingularFibers:
    """The locus descriptor gamma * t^d - 1 of the singular parameters."""

    gamma: Fraction
    degree: int
    rational_roots: tuple[Fraction, ...]

    @property
    def poly_str(self) -> str:
        # gamma * t^d - 1 over the denominator of gamma
        num, den = self.gamma.numerator, self.gamma.denominator
        return format_poly([-den] + [0] * (self.degree - 1) + [num], "t", den)


def singular_fibers(w: WeightsLike) -> SingularFibers:
    """Polynomial gamma * t^d - 1; rational roots listed when 1/gamma is a
    perfect d-th power of a rational."""
    w = validate_weights(w)
    g = gamma_n(w)
    inv = 1 / g
    rn, okn = _integer_nthroot(inv.numerator, w.d)
    rd, okd = _integer_nthroot(inv.denominator, w.d)
    roots: tuple[Fraction, ...] = ()
    if okn and okd:
        r = Fraction(rn, rd)
        roots = (-r, r) if w.d % 2 == 0 else (r,)
    return SingularFibers(gamma=g, degree=w.d, rational_roots=roots)


def c_set(w: WeightsLike) -> ExpMultiset:
    """Classes k/d (0 < k < d) equal to some j/w_i with 0 < j < w_i, each once.

    k/d is such a class exactly when d divides k*w_i, that is when k is a
    multiple of d/gcd(d, w_i); the classes are read off those multiples.
    Empty exactly when d is prime to every w_i.
    """
    w = validate_weights(w)
    d = w.d
    steps = {d // math.gcd(d, wi) for wi in w.w}
    return ExpMultiset(sorted({k for m in steps for k in range(m, d, m)}), d)


def _weight_numerators(w: Weights, k: int = 1) -> tuple[list[int], int]:
    """The list (k*j/w_i : i = 0..n, j = 1..w_i) as plain integer numerators
    over the lcm of the weights."""
    n = functools.reduce(math.lcm, w.w)
    return [k * j * (n // wi) for wi in w.w for j in range(1, wi + 1)], n


def _weight_exponents(w: Weights, k: int = 1) -> ExpMultiset:
    """The list (k*j/w_i : i = 0..n, j = 1..w_i) as a multiset."""
    return ExpMultiset(*_weight_numerators(w, k))


# ---------------------------------------------------------------------------
# The invariant hypergeometric datum and the G block
# ---------------------------------------------------------------------------

def invariant_hyp(w: WeightsLike) -> HypModule:
    """The irreducible hypergeometric datum of the invariant part.

    cancel(j/w_i : i = 0..n, j = 1..w_i ; k/d : k = 1..d) with gamma the
    critical value; requires primitive weights.
    """
    w = validate_weights(w)
    if not w.primitive:
        raise ValueError("the invariant datum is defined for primitive weights; "
                         "use the pushforward pair for gcd > 1")
    beta = ExpMultiset(range(1, w.d + 1), w.d)
    return make_hyp(gamma_n(w), _weight_exponents(w), beta, reduce=True)


@dataclass(frozen=True)
class GBlock:
    """Structured description of the rank d - e block G, the degree-zero
    entry of the K table.

    ``hyp`` is the irreducible datum of the primitive tuple w/e, and G
    holds its direct image along z -> z^e, the datum itself when e = 1.
    ``kummer_block`` lists the Kummer composition factors of G (the classes
    of the C set in the primitive case, their e-fold preimages otherwise);
    ``c_set`` always records the combinatorial C set of the weights
    themselves.  ``quotient`` is the constant quotient of H^0(K) by G.
    ``base`` is the block of w/e when e > 1.
    """

    rank: int
    c_set: ExpMultiset
    hyp: HypModule
    e: int
    kummer_block: FactorList
    exps_zero: ExpMultiset
    exps_infinity: ExpMultiset
    chi: int
    finite_singularity: Fraction
    quotient: FactorList
    base: "GBlock | None" = None

    def as_json(self) -> dict:
        """The block as a JSON-ready mapping, printed when asked for, since
        only reports do; the datum is printed once.  Its "sequences" are G
        in H^0(K) with its quotient, and the hypergeometric module in G with
        the Kummer block, neither known to split."""
        text = self.hyp.display()
        hyp: object = text
        if self.e > 1:
            hyp = {"e": self.e, "base": text}
            text = f"[{self.e}]_+ {text}"
        gamma = self.finite_singularity
        return {
            "rank": self.rank,
            "c_set": self.c_set.canonical_texts(),
            "hyp": hyp,
            "exps_zero": self.exps_zero.canonical_texts(),
            "exps_infinity": self.exps_infinity.canonical_texts(),
            "chi": self.chi,
            "finite_singularity": _ratio(gamma.numerator, gamma.denominator),
            "sequences": [
                {"left": "G", "middle": "H^0(K)", "right": str(self.quotient),
                 "split": "unknown"},
                {"left": text, "middle": "G",
                 "right": str(self.kummer_block), "split": "unknown"},
            ],
        }


def g_block(w: WeightsLike) -> GBlock:
    """Assemble the G block of the degree-zero cohomology."""
    w = validate_weights(w)
    d, e = w.d, w.e
    cs = c_set(w)
    base = None
    if w.primitive:
        h = invariant_hyp(w)
        gamma = h.gamma  # gamma_n(w), as the datum was just built with it
        kblock = cs.factors  # each class of C once
        exps_zero = _weight_exponents(w).remove_class(1)
        exps_inf = ExpMultiset(range(1, d), d)
    else:
        base = g_block(w.reduced())
        gamma = gamma_n(w)
        h = base.hyp
        kblock = power_pushforward(base.kummer_block, e)
        exps_zero = base.exps_zero.pushforward(e)
        exps_inf = base.exps_infinity.pushforward(e)
    return GBlock(
        rank=d - e,
        c_set=cs,
        hyp=h,
        e=e,
        kummer_block=kblock,
        exps_zero=exps_zero,
        exps_infinity=exps_inf,
        chi=-1,
        finite_singularity=gamma,
        quotient=_kummer_sum(e, w.n),
        base=base,
    )


# ---------------------------------------------------------------------------
# Cohomology tables
# ---------------------------------------------------------------------------

def _kummer_rows(n: int, e: int) -> dict[int, FactorList]:
    """Degrees -(n-1)..-1 of the K complex: in degree i each K(a/e),
    a = 1..e, with multiplicity C(n, i + n - 1)."""
    return {i: _kummer_sum(e, math.comb(n, i + n - 1)) for i in range(-(n - 1), 0)}


def k_table(w: WeightsLike) -> dict[int, FactorList | GBlock]:
    """Cohomology table of the K complex: Kummer sums in degrees -(n-1)..-1
    and in degree 0 the G block, which is H^0(K) as G under its constant
    quotient; empty elsewhere.

    For n = 1 the single degree-zero entry carries the base-case data (total
    rank d, unique finite singularity at gamma).
    """
    w = validate_weights(w)
    return {**_kummer_rows(w.n, w.e), 0: g_block(w)}


def m_table(w: WeightsLike) -> dict[int, FactorList]:
    """Cohomology table of the M complex, concentrated in degrees -(n-2)..0.

    Uses the first n weights only: d' = d - w_n and e' = gcd(w_0..w_{n-1});
    in negative degrees it is the K table of those weights.
    """
    w = validate_weights(w)
    n = w.n
    if n < 2:
        raise ValueError("the M table needs at least three weights")
    e1 = math.gcd(*w.w[:-1])
    table = _kummer_rows(n - 1, e1)
    table[0] = _kummer_sum(e1, n - 2) + _kummer_sum(w.d - w.w[-1], 1)
    return table


def structure_multiplicities(table: dict[int, FactorList]) -> dict[int, int]:
    """Multiplicity of the structure-sheaf factor in each degree."""
    return {i: m for i, fl in table.items() if (m := fl._counts.get(fl._den))}


# ---------------------------------------------------------------------------
# Fourier operator pair
# ---------------------------------------------------------------------------

def ft_sign(d: int) -> int:
    """The calibrated global Fourier sign: inverse(P) = sign * Q.

    Calibrated once on the two-weight instance and then fixed as part of the
    contract; under the convention t -> d, d -> -t the exact computation
    gives (-1)^(d+1).
    """
    return -1 if d % 2 == 0 else 1


@dataclass(frozen=True)
class FTPair:
    p: WeylOp
    q: WeylOp
    sign: int


def ft_pair(w: WeightsLike) -> FTPair:
    """The operator pair of the Fourier-transform step with its sign.

    P = gamma * prod_{i,j} (D - d*j/w_i) - t^d and
    Q = d^d - gamma * prod_{i,j} (d*t + d*j/w_i), with d*t the composite
    operator D + 1.  Each is built in one integer pass by
    ``weyl._euler_difference`` with an empty second product, from the plain
    numerators d*j/w_i over the lcm of the weights: P at (m, k) = (d, 0),
    Q at (m, k) = (0, d) with sign -1.
    """
    w = validate_weights(w)
    g, d = gamma_n(w), w.d
    nums, n = _weight_numerators(w, d)
    # the composite d*t is D + 1, so prod(d*t + c) = prod(D - (-1 - c))
    p = weyl._euler_difference(g, (nums, n), ((), 1), d, 0)
    q = weyl._euler_difference(g, ([-n - x for x in nums], n), ((), 1), 0, d, sign=-1)
    return FTPair(p=p, q=q, sign=ft_sign(d))


def ft_identity_holds(pair: FTPair) -> bool:
    """Exact check of fourier(P, inverse) = sign * Q, the sign being 1 or -1."""
    return pair.sign in (1, -1) and weyl.fourier(pair.p, "inverse") == (
        pair.q if pair.sign == 1 else -pair.q)


# ---------------------------------------------------------------------------
# Consistency checks
# ---------------------------------------------------------------------------

def _indicial_checks(h: HypModule, gamma: Fraction) -> dict[str, bool]:
    op = hyp_operator(h)
    ind0 = weyl.indicial_polynomial(op, "zero")
    ind_inf = weyl.indicial_polynomial(op, "infinity")
    ss = weyl.singular_support(op)
    return {
        "indicial_zero": ind0.has_roots_exactly(*h.alpha.numerators),
        "indicial_infinity": ind_inf.has_roots_exactly(*h.beta.numerators),
        "singular_support_gamma": ss.finite_rational == (gamma,) and not ss.other_factors,
        "regular": ss.regular_at_zero and ss.regular_at_infinity,
    }


def _arrangement_checks(w: Weights) -> dict[str, bool]:
    checks = {}
    if w.n >= 2:
        mt = m_table(w)
        const = structure_multiplicities(mt)
        tn = arrangement.torus_slice_dims(w.n)
        ok = all(tn.get(i, 0) == const.get(i, 0) + const.get(i + 1, 0)
                 for i in range(-(w.n - 1), 0))
        ok = ok and tn.get(0, 0) == const.get(0, 0)
        checks["torus_slice_vs_m_table"] = ok
        if w.primitive:
            milnor = arrangement.milnor_fiber_dims(w.w)
            extended = m_table(Weights(w.w + (1,)))
            dims = {i: fl.rank() for i, fl in extended.items()}
            checks["milnor_vs_m_table"] = milnor == dims
    return checks


def consistency_checks(w: WeightsLike) -> dict[str, bool]:
    """Run every internal consistency check for one weight tuple."""
    w = validate_weights(w)
    return _checks(w, k_table(w), ft_pair(w))


def _checks(w: Weights, kt: dict[int, FactorList | GBlock], ft: FTPair
            ) -> dict[str, bool]:
    """The checks of ``consistency_checks`` on the K table and Fourier pair
    of w, already built."""
    gb = kt[0]
    d, e, n = w.d, w.e, w.n
    cs = gb.c_set
    checks: dict[str, bool] = {}
    # chi of G by its composition factors: each Kummer factor contributes 0
    # and the one irreducible hypergeometric factor -1
    irreducible = is_irreducible(gb.hyp)
    chi_block = irreducible and gb.chi == -1
    if w.primitive:
        h = gb.hyp
        checks["exps_zero_identity"] = gb.exps_zero.factors == h.alpha.factors + cs.factors
        checks["exps_infinity_identity"] = gb.exps_infinity.factors == h.beta.factors + cs.factors
        checks["alpha_count"] = len(h.alpha) == d - 1 - len(cs)
        checks["irreducible"] = irreducible
        checks["chi_block"] = chi_block
        # pulled back along z -> z^-d, every class of C becomes O: the
        # minimal denominator of the classes is 1
        checks["cn_sent_to_structure"] = cs.scaled(-d).factors._den == 1
        checks.update(_indicial_checks(h, gamma_n(w)))
    else:
        checks["pushforward_gamma"] = gamma_n(w) == gamma_n(w.reduced()) ** e
        # the exponents of a pushforward exist for an irreducible base only
        for place, exps in (("zero", gb.exps_zero), ("infinity", gb.exps_infinity)):
            checks[f"exps_{place}_identity"] = irreducible and (
                exps.factors == exponents(gb.hyp, place).pushforward(e).factors
                + gb.kummer_block)
        checks["pushforward_exponents"] = (
            gb.exps_zero == gb.base.exps_zero.pushforward(e)
            and gb.exps_infinity == gb.base.exps_infinity.pushforward(e)
        )
        checks["chi_block"] = chi_block
    checks["rank"] = gb.rank == d - e and len(gb.exps_zero) == d - e \
        and len(gb.exps_infinity) == d - e
    checks["fourier_pair"] = ft_identity_holds(ft)
    checks["k_table_window"] = set(kt) == set(range(-(n - 1), 1))
    if w.primitive:
        checks["rank_bounds"] = all(
            math.comb(n, i + n - 1) - 1
            <= kt[i].rank()
            <= math.comb(n, i + n - 1) + 1
            for i in range(-(n - 1), 0)
        )
    checks.update(_arrangement_checks(w))
    return checks


# ---------------------------------------------------------------------------
# Full report
# ---------------------------------------------------------------------------

def _invariant_statement(w: Weights, gb: GBlock, gjson: dict) -> dict:
    """The invariant statement, quoting the datum that ``gjson``, the
    block's ``as_json()``, printed."""
    # every class is 1 exactly when their minimal denominator is
    integral = gb.exps_zero.factors._den == 1
    if not w.primitive:
        return {
            "reduction": (f"gcd {w.e} > 1: wrapped as the pushforward pair "
                          f"[{w.e}]_+ of the primitive report"),
            "integral_exponents_at_zero": integral,
        }
    d = w.d
    pull_alpha, pull_beta = power_pullback(gb.hyp, -d)
    return {
        "middle_extension_at": "0",
        "pullback_power": -d,
        "nonconstant_part": (
            f"middle extension at 0 of the pullback along z -> z^{-d} "
            f"of {gjson['hyp']}"
        ),
        "pullback_alpha": pull_alpha.canonical_texts(),
        "pullback_beta": pull_beta.canonical_texts(),
        "cn_sent_to_structure": gb.c_set.canonical_texts(),
        "integral_exponents_at_zero": integral,
        "constant_part": "constant summands present but not computed",
    }


def full_report(w: WeightsLike) -> dict:
    """Assemble the complete structural report as a JSON-ready mapping.

    The report is invariant under permutations of the weights (all formulas
    depend on the multiset only); the weights are echoed in sorted order.
    """
    w = validate_weights(w)
    return _report(w, g_block(w))


def _report(w: Weights, gb: GBlock) -> dict:
    """The report of w on its G block ``gb``; the report of a non-primitive
    tuple embeds the base report built on ``gb.base``."""
    n, d, e = w.n, w.d, w.e
    fibers = singular_fibers(w)
    kt = {**_kummer_rows(n, e), 0: gb}  # k_table(w), on the given block
    ft = ft_pair(w)
    gjson = gb.as_json()

    cohomology: dict[str, object] = {}
    for i in range(-(n - 1), 0):
        fl = kt[i]
        cohomology[str(i)] = {"factors": str(fl), "rank": fl.rank()}
    cohomology["0"] = {
        "g_block": gjson,
        "constant_quotient": str(gb.quotient),
    }

    report: dict[str, object] = {
        "weights": sorted(w.w),
        "n": n,
        "d": d,
        "e": e,
        "gamma": gjson["finite_singularity"],  # gamma_n(w), printed once
        "singular_fibers": {
            "poly": fibers.poly_str,
            "rational_roots": [_ratio(r.numerator, r.denominator)
                               for r in fibers.rational_roots],
        },
        "cohomology": cohomology,
        "g_block": gjson,
        "invariant_statement": _invariant_statement(w, gb, gjson),
        "ft": {"P": str(ft.p), "Q": str(ft.q), "sign": ft.sign},
    }
    if not w.primitive:
        report["pushforward"] = {
            "e": e,
            "base_report": _report(w.reduced(), gb.base),
        }
    report["checks"] = _checks(w, kt, ft)
    return report


def primitive_sweep(n_max: int, w_max: int) -> Iterator[Weights]:
    """All primitive weight tuples with 1 <= n <= n_max and entries <= w_max,
    yielded one at a time by n, then in lexicographic order.  The tuples of
    one length are counted up like an odometer, so no list of the entries
    is made: the first tuple comes at once, whatever w_max."""
    if w_max < 1:
        return
    for n in range(1, n_max + 1):
        t = [1] * (n + 1)
        while True:
            if math.gcd(*t) == 1:
                yield Weights(tuple(t))
            i = n  # the last entry below w_max steps up, those after it reset
            while i >= 0 and t[i] == w_max:
                t[i] = 1
                i -= 1
            if i < 0:
                break
            t[i] += 1
