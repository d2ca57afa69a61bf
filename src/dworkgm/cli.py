"""Command-line front end: deterministic text and JSON emitters.

Exit codes: 0 success, 1 domain error (with a machine-readable error object
on stderr) or a printed verdict that is false (a failed check in report or
check, generated false in syzygy, projective_arrangement_consistent false
in arrangement; nothing on stderr), 2 usage error, 3 internal failure: a
program bug, either an internal invariant that failed (an error object of
type InvariantError on stderr) or any other exception (an error object
naming its type); the object of exit code 3 also carries the traceback.
Every subcommand returns through ``_emit``, which prints its result and
turns its verdict into the exit code.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import traceback
from fractions import Fraction

from . import arrangement, dwork, hypergeom, syzygy, weyl


def _parse_weights(text: str) -> dwork.Weights:
    try:
        parts = [int(x) for x in text.split(",") if x.strip()]
    except ValueError:
        raise ValueError(f"weights must be comma-separated integers, got {text!r}")
    return dwork.validate_weights(parts)


def _parse_sweep(text: str) -> tuple[int, int]:
    try:
        n_max, w_max = (int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected 'n_max,w_max', got {text!r}")
    if n_max < 1 or w_max < 1:
        # either bound below 1 leaves the sweep empty: nothing would be checked
        raise argparse.ArgumentTypeError(
            f"n_max and w_max must be at least 1, got {text!r}")
    return n_max, w_max


def _parse_fractions(text: str) -> list[Fraction]:
    if not text.strip():
        return []
    return [Fraction(part.strip()) for part in text.split(",")]


def _emit(doc, as_json: bool, text_lines, ok: bool = True) -> int:
    """Print the document as JSON or the text lines; exit 0 when ok, else 1."""
    if as_json:
        print(json.dumps(doc, indent=2))
    else:
        for line in text_lines:
            print(line)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_report(args) -> int:
    w = _parse_weights(args.weights)
    report = dwork.full_report(w)
    g = report["g_block"]
    lines = [
        f"weights      : {report['weights']}  (n={report['n']}, d={report['d']}, e={report['e']})",
        f"gamma        : {report['gamma']}",
        f"singular locus: {report['singular_fibers']['poly']}"
        + (f"  rational roots {report['singular_fibers']['rational_roots']}"
           if report["singular_fibers"]["rational_roots"] else ""),
        f"hyp datum    : {g['hyp']}",
        f"G block      : rank {g['rank']}, chi {g['chi']}, singularity at {g['finite_singularity']}",
        f"exps at 0    : {g['exps_zero']}",
        f"exps at inf  : {g['exps_infinity']}",
        f"C set        : {g['c_set']}",
    ]
    for i in sorted(int(k) for k in report["cohomology"]):
        if i < 0:
            entry = report["cohomology"][str(i)]
            lines.append(f"H^{i}         : {entry['factors']}")
    lines.append(f"H^0 quotient : {report['cohomology']['0']['constant_quotient']}")
    lines.append(f"FT sign      : {report['ft']['sign']}")
    failed = [k for k, ok in report["checks"].items() if not ok]
    lines.append("checks       : all passed" if not failed
                 else f"checks       : FAILED {failed}")
    return _emit(report, args.json, lines, not failed)


def _cmd_hyp(args) -> int:
    h = hypergeom.make_hyp(Fraction(args.gamma),
                           _parse_fractions(args.alpha),
                           _parse_fractions(args.beta),
                           reduce=args.reduce)
    doc = {"hyp": h.display()}
    if args.action == "operator":
        doc["operator"] = str(hypergeom.hyp_operator(h))
        lines = [doc["operator"]]
    elif args.action == "irreducible":
        doc["irreducible"] = hypergeom.is_irreducible(h)
        lines = [str(doc["irreducible"]).lower()]
    else:
        doc["exponents_zero"] = hypergeom.exponents(h, "zero").canonical_texts()
        doc["exponents_infinity"] = \
            hypergeom.exponents(h, "infinity").canonical_texts()
        lines = [f"at zero    : {doc['exponents_zero']}",
                 f"at infinity: {doc['exponents_infinity']}"]
    return _emit(doc, args.json, lines)


def _cmd_weyl(args) -> int:
    op = weyl.parse_op(args.op)
    doc = {"op": str(op)}
    lines = [doc["op"]]
    if args.action == "ft":
        doc["direction"] = args.direction
        doc["image"] = str(weyl.fourier(op, args.direction))
        lines = [doc["image"]]
    elif args.action == "indicial":
        ind = weyl.indicial_polynomial(op, args.place)
        rational, leftover = ind.roots()
        doc["place"] = args.place
        doc["polynomial"] = str(ind)
        doc["roots"] = [weyl._ratio(r.numerator, r.denominator)
                        for r, mult in rational for _ in range(mult)]
        doc["irreducible_factors"] = list(leftover)
        lines = [f"indicial polynomial at {args.place}: {doc['polynomial']}",
                 f"roots: {doc['roots']}"]
        if leftover:
            lines.append(f"irreducible factors: {doc['irreducible_factors']}")
    elif args.action == "singular":
        ss = weyl.singular_support(op)
        doc["finite_rational"] = [weyl._ratio(r.numerator, r.denominator)
                                  for r in ss.finite_rational]
        doc["other_factors"] = list(ss.other_factors)
        doc["regular_at_zero"] = ss.regular_at_zero
        doc["regular_at_infinity"] = ss.regular_at_infinity
        lines = [f"finite rational singularities: {doc['finite_rational']}",
                 f"other factors: {doc['other_factors']}",
                 f"regular at 0: {ss.regular_at_zero}, "
                 f"at infinity: {ss.regular_at_infinity}"]
    return _emit(doc, args.json, lines)


def _cmd_syzygy(args) -> int:
    w = _parse_weights(args.weights)
    bound = args.bound if args.bound is not None else w.d + 4
    # the generators are checked before the table is built: a non-syzygy
    # raises InvariantError (exit 3), so every document below reads verified
    vectors, table = syzygy._generation_table(w.w, bound)
    doc = {
        "weights": list(w.w),
        "generators": [
            {"kind": v.kind, "components": [str(c) for c in v.components]}
            for v in vectors
        ],
        "verified": True,
        "generation": {
            "bound": bound,
            "per_degree": [
                {"degree": row.degree, "syzygy_dim": row.syzygy_dim,
                 "generated_dim": row.generated_dim}
                for row in table
            ],
            "generated": all(row.matches for row in table),
        },
    }
    lines = [f"{v.kind}: ({', '.join(str(c) for c in v.components)})"
             for v in vectors]
    lines.append("syzygy identities verified: True")
    lines.append(f"generation up to degree {bound}: {doc['generation']['generated']}")
    for row in table:
        if row.syzygy_dim or row.generated_dim:
            lines.append(f"  degree {row.degree}: syzygies {row.syzygy_dim}, "
                         f"generated {row.generated_dim}")
    return _emit(doc, args.json, lines, doc["generation"]["generated"])


def _cmd_arrangement(args) -> int:
    n = args.n
    if n < 2:
        raise ValueError(f"--n must be at least 2, got {n}")
    w = _parse_weights(args.weights) if args.weights else None
    if w is not None and len(w.w) != n + 1:
        raise ValueError(
            f"--weights must have n + 1 = {n + 1} entries, got {len(w.w)}")
    doc: dict = {"n": n}
    doc["projective_arrangement"] = {
        str(i): v
        for i, v in sorted(arrangement.projective_arrangement_dims(n).items())}
    doc["torus_slice"] = {
        str(i): v for i, v in sorted(arrangement.torus_slice_dims(n).items())}
    doc["projective_arrangement_consistent"] = \
        arrangement.projective_arrangement_consistent(n)
    doc["oracle"] = {
        "betti": {str(k): v for k, v in
                  sorted(arrangement.nbc_oracle(n, n - 1).items())},
        "shift": n - 1,
        "note": "classical Betti indices; the direct-image tables use "
                "degrees shifted by the ambient dimension",
    }
    if w is not None:
        doc["milnor"] = {str(i): v for i, v in
                         sorted(arrangement.milnor_fiber_dims(w.w).items())}
    return _emit(doc, args.json, [f"{k}: {v}" for k, v in doc.items()],
                 doc["projective_arrangement_consistent"])


def _random_op(rng: random.Random, localized: bool = False) -> weyl.WeylOp:
    coeffs = []
    for _ in range(rng.randint(0, 3)):
        k = rng.randint(0, 6)
        m = rng.randint(-6 if localized else 0, 6)
        c = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        while len(coeffs) <= k:
            coeffs.append(weyl.LaurentPoly())
        coeffs[k] = coeffs[k] + weyl.LaurentPoly.term(c, m)
    return weyl.WeylOp(coeffs)


def _random_property_checks() -> dict[str, bool]:
    rng, trials = random.Random(20240809), 40

    def draws(k: int, localized: bool = False):
        return ([_random_op(rng, localized) for _ in range(k)]
                for _ in range(trials))

    ring_ok = all((a + b) * c == a * c + b * c and (a * b) * c == a * (b * c)
                  for a, b, c in draws(3, localized=True))
    fourier_ok = all(weyl.fourier(a * b) == weyl.fourier(a) * weyl.fourier(b)
                     and weyl.fourier(weyl.fourier(a), "inverse") == a
                     for a, b in draws(2))
    # the images of the generators fix which involution it is: conjugating
    # the right map by a power of t is an involution and a ring map too
    d = weyl.WeylOp.d()
    mobius_ok = (weyl.mobius_infinity(weyl.WeylOp.t()) == weyl.WeylOp.t(-1)
                 and weyl.mobius_infinity(d) == -(weyl.WeylOp.t(2) * d)
                 and all(weyl.mobius_infinity(weyl.mobius_infinity(op)) == op
                         for op, in draws(1, localized=True)))
    return {"weyl_ring_laws": ring_ok, "weyl_fourier_ring_map": fourier_ok,
            "weyl_mobius_involution": mobius_ok}


def _cmd_check(args) -> int:
    if args.sweep:
        tuples = dwork.primitive_sweep(*args.sweep)
    else:
        tuples = [_parse_weights(args.weights)]
    docs = []
    for w in tuples:
        checks = dwork.consistency_checks(w)
        if not args.sweep:
            checks.update(_random_property_checks())
            if w.n >= 2:
                checks["projective_arrangement_oracle"] = \
                    arrangement.projective_arrangement_consistent(w.n)
        docs.append({"weights": list(w.w), "checks": checks,
                     "passed": all(checks.values())})
        if not args.json:
            # each tuple's lines are printed as soon as it is checked
            prefix = f"[{','.join(str(x) for x in w.w)}] " if args.sweep else ""
            for name, result in checks.items():
                print(f"{'PASS' if result else 'FAIL'} {prefix}{name}")
    all_ok = all(entry["passed"] for entry in docs)
    doc = {"sweep": docs, "passed": all_ok} if args.sweep else docs[0]
    return _emit(doc, args.json, [] if all_ok else ["some checks FAILED"], all_ok)


# ---------------------------------------------------------------------------
# Argument grammar
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dworkgm",
        description="Exact calculator for the invariant Gauss-Manin "
                    "cohomology of Dwork families, with operator, syzygy and "
                    "arrangement oracles.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("report", help="emit the full structural report")
    p.add_argument("--weights", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("hyp", help="hypergeometric datum operations")
    p.add_argument("action", choices=["exponents", "operator", "irreducible"])
    p.add_argument("--gamma", required=True)
    p.add_argument("--alpha", default="")
    p.add_argument("--beta", default="")
    p.add_argument("--reduce", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_hyp)

    p = sub.add_parser("weyl", help="operator-level tools")
    p.add_argument("action", choices=["parse", "ft", "indicial", "singular"])
    p.add_argument("--op", required=True)
    p.add_argument("--direction", choices=["forward", "inverse"],
                   default="forward")
    p.add_argument("--place", choices=["zero", "infinity"], default="zero")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_weyl)

    p = sub.add_parser("syzygy", help="syzygy generators and generation oracle")
    p.add_argument("--weights", required=True)
    p.add_argument("--bound", type=int, default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_syzygy)

    p = sub.add_parser("arrangement", help="dimension tables and Betti oracle")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--weights", default="")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_arrangement)

    p = sub.add_parser("check", help="run the invariant suite for one tuple")
    p.add_argument("--weights", default="")
    p.add_argument("--sweep", type=_parse_sweep, default=None,
                   help="run the primitive sweep 'n_max,w_max' instead")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_check)
    return parser


def main(argv: list[str] | None = None) -> int:
    # Python 3.10.7+ refuses to read text of more than 4300 digits as an int
    # (Fraction(text) for --gamma, --alpha, ...): lifted for the command only
    if not hasattr(sys, "set_int_max_str_digits"):
        return _run(argv)
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return _run(argv)
    finally:
        sys.set_int_max_str_digits(before)


def _run(argv: list[str] | None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # argparse before Python 3.12 strips the value of --opt=-- to [], not '--'
    for name, value in vars(args).items():
        if value == []:
            setattr(args, name, "")
    if args.command == "check" and not args.sweep and not args.weights:
        parser.error("check needs --weights or --sweep")
    try:
        return args.func(args)
    except Exception as exc:
        # bad input raises a domain error; anything else, an InvariantError
        # included, is a bug, reported with where it happened
        domain = isinstance(exc, (ValueError, ArithmeticError))
        error = {"type": type(exc).__name__, "message": str(exc)}
        if not domain:
            error["traceback"] = "".join(traceback.format_exception(
                type(exc), exc, exc.__traceback__))
        print(json.dumps({"error": error}), file=sys.stderr)
        return 1 if domain else 3


if __name__ == "__main__":
    sys.exit(main())
