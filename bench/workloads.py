"""The four seeded workloads of the dworkgm benchmark.

Each workload is a list of ops.  An op calls one public entry point of
dworkgm and a check decides whether its output is right.  The seed sets the
generated operators and the order of the fixed inputs; the program only ever
sees the generated inputs.

Ops look their entry point up on the module at call time (``mods.dwork.
full_report``, never a reference bound at build time), so that the traced
run's patched functions are the ones called.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

# An op that raises, returns a wrong result or runs longer than this is a
# failed op and is charged this many seconds (the PAR convention of solver
# benchmarks).  It sits well above the slowest op that succeeds today, the
# (140, 3) report at under 2.5 s, and above the cubic extrapolation of the
# two failing ladder rungs (about 6 s for d = 201).
PER_OP_LIMIT_S = 10.0

LADDER = [(5, 5, 5, 5, 4), (1,) * 60, (96, 1), (96, 23),
          (7, 11, 13, 17, 19, 23, 29), (60, 40, 20), (140, 3), (97, 53, 1),
          (200, 1)]
LADDER_DIGESTS = json.loads(
    (Path(__file__).resolve().parent / "ladder_digests.json").read_text())

# generation_oracle(w, d + 2) on inputs bigger than the small grid.
SYZYGY_LARGE = [(40, 1, 1, 1), (6, 5, 4, 3, 2), (60, 2, 1, 1), (70, 1, 1)]

OPERATOR_TRIPLES = 500
# The shape `dworkgm check --weights` draws: order <= 6, t-exponents in
# [-6, 6], at most 3 terms, denominators <= 9.
MAX_ORDER, MAX_T_EXP, MAX_TERMS, MAX_DEN = 6, 6, 3, 9


@dataclass(frozen=True)
class Op:
    label: str
    weights: tuple[int, ...] | None  # the weight tuple, for input properties
    run: Callable[[], object]
    check: Callable[[object], bool]


def weight_key(w: tuple[int, ...]) -> str:
    return ",".join(map(str, w))


def all_tuples(n_max: int, w_max: int) -> list[tuple[int, ...]]:
    """Every tuple (w_0..w_n) with 1 <= n <= n_max and 1 <= w_i <= w_max."""
    return [w for n in range(1, n_max + 1)
            for w in itertools.product(range(1, w_max + 1), repeat=n + 1)]


def all_true(checks: dict) -> bool:
    return bool(checks) and all(v is True for v in checks.values())


# --- sweep -------------------------------------------------------------------

def sweep_op(mods, w: tuple[int, ...]) -> Op:
    return Op(weight_key(w), w,
              lambda: mods.dwork.consistency_checks(w), all_true)


def sweep(mods, rng: random.Random) -> list[Op]:
    tuples = [x.w for x in mods.dwork.primitive_sweep(4, 4)]
    rng.shuffle(tuples)
    return [sweep_op(mods, w) for w in tuples]


# --- ladder ------------------------------------------------------------------

def report_json(mods, w: tuple[int, ...]) -> str:
    # What `dworkgm report --weights ... --json` prints.
    return json.dumps(mods.dwork.full_report(w), indent=2)


def report_ok(w: tuple[int, ...], text: str) -> bool:
    digest = LADDER_DIGESTS.get(weight_key(w))
    if digest is not None:
        return hashlib.sha256(text.encode()).hexdigest() == digest
    # No report of this rung has been recorded yet (it fails at the commit
    # that defined the benchmark): accept it when its embedded oracles pass.
    return all_true(json.loads(text)["checks"])


def ladder_op(mods, w: tuple[int, ...]) -> Op:
    return Op(weight_key(w), w, lambda: report_json(mods, w),
              lambda text: report_ok(w, text))


def ladder(mods, rng: random.Random) -> list[Op]:
    rungs = list(LADDER)
    rng.shuffle(rungs)
    return [ladder_op(mods, w) for w in rungs]


# --- syzygy ------------------------------------------------------------------

def verify_op(mods, w: tuple[int, ...]) -> Op:
    return Op("verify " + weight_key(w), w,
              lambda: mods.syzygy.verify_syzygies(w), lambda ok: ok is True)


def oracle_op(mods, w: tuple[int, ...], bound: int) -> Op:
    return Op(f"oracle {weight_key(w)} <= {bound}", w,
              lambda: mods.syzygy.generation_oracle(w, bound),
              lambda ok: ok is True)


def syzygy(mods, rng: random.Random) -> list[Op]:
    ops = [verify_op(mods, w) for w in all_tuples(4, 4)]
    ops += [oracle_op(mods, w, sum(w) + 4) for w in all_tuples(3, 3)]
    ops += [oracle_op(mods, w, sum(w) + 2) for w in SYZYGY_LARGE]
    rng.shuffle(ops)
    return ops


# --- operators ---------------------------------------------------------------

def random_operator(weyl, rng: random.Random):
    """A nonzero localized operator of the `check --weights` shape."""
    while True:
        coeffs = [weyl.LaurentPoly() for _ in range(MAX_ORDER + 1)]
        for _ in range(rng.randint(1, MAX_TERMS)):
            c = Fraction(rng.randint(-9, 9), rng.randint(1, MAX_DEN))
            k = rng.randint(0, MAX_ORDER)
            m = rng.randint(-MAX_T_EXP, MAX_T_EXP)
            coeffs[k] = coeffs[k] + weyl.LaurentPoly.term(c, m)
        op = weyl.WeylOp(coeffs)
        if not op.is_zero:
            return op


def lead_vanishes_at(op, x: Fraction) -> bool:
    return sum(c * x ** e for e, c in op.coeff(op.order()).items()) == 0


def operator_identities(weyl, a, b, c) -> dict[str, bool]:
    """The ring, parser, Moebius and Fourier identities on one triple, plus
    the root data of each operator checked by evaluation."""
    # t^6 clears every negative t-power, as the Fourier map needs.
    shift = weyl.WeylOp.t(MAX_T_EXP)
    pa, pb = shift * a, shift * b
    fa = weyl.fourier(pa)
    checks = {
        "associative": (a * b) * c == a * (b * c),
        "distributive": (a + b) * c == a * c + b * c,
        "parse_round_trip": all(weyl.parse_op(str(x)) == x for x in (a, b, c)),
        "mobius_involution": all(
            weyl.mobius_infinity(weyl.mobius_infinity(x)) == x for x in (a, b, c)),
        "fourier_ring_map": weyl.fourier(pa * pb) == fa * weyl.fourier(pb),
        "fourier_inverse": weyl.fourier(fa, "inverse") == pa,
    }
    roots_ok = True
    for x in (a, b, c):
        for place in ("zero", "infinity"):
            ind = weyl.indicial_polynomial(x, place)
            rational, _ = ind.roots()
            roots_ok = roots_ok and all(ind(r) == 0 for r, _ in rational) \
                and sum(m for _, m in rational) <= ind.degree
        support = weyl.singular_support(x)
        roots_ok = roots_ok and all(r != 0 and lead_vanishes_at(x, r)
                                    for r in support.finite_rational)
    checks["indicial_and_singular_roots"] = roots_ok
    return checks


def operators_op(mods, i: int, triple) -> Op:
    return Op(f"triple {i}", None,
              lambda: operator_identities(mods.weyl, *triple), all_true)


def operators(mods, rng: random.Random) -> list[Op]:
    return [operators_op(mods, i, tuple(random_operator(mods.weyl, rng)
                                        for _ in range(3)))
            for i in range(OPERATOR_TRIPLES)]


# --- registry ------------------------------------------------------------------

WORKLOADS = {"sweep": sweep, "ladder": ladder, "syzygy": syzygy,
            "operators": operators}


def warmup_op(mods, name: str) -> Op:
    """A fixed small op of the workload's kind.  Running it in set-up
    triggers the lazy imports the workload needs (sympy for `operators`,
    numpy for `syzygy`), as the first command of a CLI user does."""
    if name == "sweep":
        return sweep_op(mods, (1, 2, 3))
    if name == "ladder":
        return ladder_op(mods, (5, 5, 5, 5, 4))
    if name == "syzygy":
        return oracle_op(mods, (1, 2), 7)
    weyl = mods.weyl
    # Indicial polynomial of degree 3 at zero: its roots go through sympy.
    triple = (weyl.parse_op("D^3 - 2"), weyl.parse_op("t*d + 1/2"),
              weyl.parse_op("(t^2 - 3)*d^2 + t^-1"))
    return operators_op(mods, -1, triple)


def build(mods: SimpleNamespace, name: str, seed: int) -> list[Op]:
    return WORKLOADS[name](mods, random.Random(seed))


def input_properties(ops: list[Op]) -> dict[str, object]:
    """Op count and the weight-tuple properties later changes cite."""
    weighted = [op.weights for op in ops if op.weights is not None]
    props: dict[str, object] = {"ops": len(ops)}
    if weighted:
        distinct = {tuple(sorted(w)) for w in weighted}
        props["distinct_weight_multisets"] = len(distinct)
        props["repeat_multiset_frac"] = round(1 - len(distinct) / len(weighted), 4)
        props["max_d"] = max(sum(w) for w in weighted)
    return props

