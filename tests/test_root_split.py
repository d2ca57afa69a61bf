"""The root oracle: ``weyl._rational_root_split`` and its factoriser.

``tests/golden/root_splits.txt`` pins sympy's answer, recorded when sympy
still did the splitting, on

* every distinct polynomial split by one ``operators`` pass of the
  benchmark at seed 1 (``bench/run.py --workload operators --seed 1``);
* x^4 - 10x^2 + 1, irreducible but a product of quadratics modulo every
  prime, so subset recombination runs;
* a part with repeated factors, a zero root of multiplicity 3, two
  irreducible polynomials of degree 12, a product of two sextics, and a
  quartic without roots modulo its prime 11;
* rational roots that collide modulo 3 and 5, so the prime search passes
  over both; (x^2 - 2)(x^2 - 3), which has a quadratic factor modulo every
  prime, so degree analysis leaves it to recombination; and a binomial of
  degree 12 with two rational roots;
* the indicial polynomials of ``hyp_operator(invariant_hyp(w))`` for
  w = (96, 23) and (140, 3) at both places and (7, 11, ..., 29) at zero,
  of degree up to 142 with coefficients of up to 939 bits.

Each case is a ``poly`` line (coefficients lowest degree first) and a
``split`` line; the answer must match it byte for byte.  After a change to
the corpus, rewrite the split lines with sympy (the ``test`` extra) by

    PYTHONPATH=src python tests/test_root_split.py --write
"""

import dis
import json
import pathlib
import subprocess
import sys
import types
from fractions import Fraction
from itertools import groupby

import pytest

from conftest import monic, package_env, sympy_root_split
from dworkgm import _factor
from dworkgm.weyl import _rational_root_split

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden" / "root_splits.txt"


def format_split(rational, leftovers) -> str:
    roots = " ".join(f"{r}^{m}" for r, m in rational)
    left = " ; ".join(" ".join(map(str, monic(f))) for f in leftovers)
    return f"roots {roots} | leftovers {left}"


def read_cases() -> list[tuple[str, list[Fraction], str]]:
    cases = []
    label = None
    lines = iter(GOLDEN.read_text().splitlines())
    for line in lines:
        if line.startswith("# "):
            label = line[2:]
            continue
        assert line.startswith("poly ")
        split = next(lines)
        assert split.startswith("split ")
        cases.append((label, [Fraction(c) for c in line.split()[1:]],
                      split[len("split "):]))
    return cases


CASES = {label: [(coeffs, split) for _, coeffs, split in group]
         for label, group in groupby(read_cases(), key=lambda case: case[0])}


@pytest.mark.parametrize("label", list(CASES))
def test_split_matches_pinned_sympy_answer(label):
    for coeffs, split in CASES[label]:
        assert format_split(*_rational_root_split(coeffs)) == split


def test_factoriser_edge_cases():
    assert _rational_root_split([Fraction(-3, 4)]) == ((), [])
    with pytest.raises(ValueError):
        _rational_root_split([Fraction(0), Fraction(0)])


def _code_objects(code):
    yield code
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield from _code_objects(const)


def test_corpus_runs_every_line_of_the_factoriser():
    # Line coverage of _factor.py by the corpus without the indicial cases
    # (degree 96-142, seconds under a tracer) and by the edge cases above,
    # through the one way in, _rational_root_split: a stdlib line tracer
    # scoped to the module's code objects.
    codes = {c for f in vars(_factor).values()
             if isinstance(f, types.FunctionType) and f.__module__ == _factor.__name__
             for c in _code_objects(f.__code__)}
    # the body lines: every line with bytecode but the def line itself
    body = {line for c in codes for _, line in dis.findlinestarts(c)
            if line is not None and line != c.co_firstlineno}
    ran = set()

    def local(frame, event, arg):
        if event == "line":
            ran.add(frame.f_lineno)
        return local

    def scoped(frame, event, arg):
        return local if frame.f_code in codes else None

    previous = sys.gettrace()
    sys.settrace(scoped)
    try:
        for label, cases in CASES.items():
            if not label.startswith("indicial"):
                for coeffs, _ in cases:
                    _rational_root_split(coeffs)
        test_factoriser_edge_cases()
    finally:
        sys.settrace(previous)
    assert sorted(body - ran) == []


def write() -> None:
    out = []
    for label, cases in CASES.items():
        out.append(f"# {label}")
        for coeffs, _ in cases:
            out.append("poly " + " ".join(map(str, coeffs)))
            out.append("split " + format_split(*sympy_root_split(coeffs)))
    GOLDEN.write_text("\n".join(out) + "\n")


if __name__ == "__main__" and sys.argv[1:] == ["--write"]:
    write()


NO_SYMPY_RUNS = [
    (["weyl", "indicial", "--op", "(D - 1/3)^2*(D^4 - 10*D^2 + 1)*(3*D^3 + 2)",
      "--place", "infinity"],
     "indicial polynomial at infinity: s^9 - 2/3*s^8 - 89/9*s^7 + 22/3*s^6"
     " - 5/9*s^5 - 196/27*s^4 + 41/9*s^3 - 2/27*s^2 - 4/9*s + 2/27\n"
     "roots: ['1/3', '1/3']\n"
     "irreducible factors: ['s^3 + 2/3', 's^4 - 10*s^2 + 1']\n"),
    (["weyl", "singular", "--op", "(t^4 - 10*t^2 + 1)*(2*t - 3)*d^2 + d"],
     "finite rational singularities: ['3/2']\n"
     "other factors: ['t^4 - 10*t^2 + 1']\n"
     "regular at 0: True, at infinity: True\n"),
    (["check", "--weights", "1,2,3"],
     (GOLDEN.parent / "check_weights_1_2_3.txt").read_text()),
]


def test_root_oracle_runs_without_sympy():
    # sympy is a test dependency only; a None entry in sys.modules makes any
    # attempt to import it fail.  The expected outputs were printed while
    # sympy still did the splitting.
    code = ("import contextlib, io, json, sys; sys.modules['sympy'] = None\n"
            "from dworkgm.cli import main\n"
            "outs = []\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    buf = io.StringIO()\n"
            "    with contextlib.redirect_stdout(buf):\n"
            "        assert main(argv) == 0\n"
            "    outs.append(buf.getvalue())\n"
            "print(json.dumps(outs))")
    argvs = [argv for argv, _ in NO_SYMPY_RUNS]
    proc = subprocess.run([sys.executable, "-c", code, json.dumps(argvs)],
                          capture_output=True, text=True, env=package_env())
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [out for _, out in NO_SYMPY_RUNS]
