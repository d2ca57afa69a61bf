"""The benchmark builds and reads operators through the public Weyl API:
``bench/workloads.py`` draws random operators from ``LaurentPoly()``,
``LaurentPoly.term``, ``+`` and ``WeylOp([...])`` and evaluates
``op.coeff(op.order()).items()``; ``bench/tracing.py`` measures coefficient
sizes through ``op.monomials()``.  Both expect ``Fraction`` values.  These
tests make the same calls, so that a change of representation that would
break the benchmark fails here first."""

import importlib.util
import pathlib
import random
import sys
from fractions import Fraction

from dworkgm import weyl
from dworkgm.weyl import LaurentPoly, WeylOp

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # the dataclasses of workloads.py look their module up in sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_the_calls_of_the_benchmark():
    p = LaurentPoly()
    p = p + LaurentPoly.term(Fraction(-3, 4), -2)
    p = p + LaurentPoly.term(Fraction(5, 6), 3)
    op = WeylOp([LaurentPoly(), LaurentPoly(), p])
    assert op.order() == 2
    lead = list(op.coeff(op.order()).items())
    assert lead == [(-2, Fraction(-3, 4)), (3, Fraction(5, 6))]
    monos = list(op.monomials())
    assert monos == [(2, -2, Fraction(-3, 4)), (2, 3, Fraction(5, 6))]
    for c in [c for _, c in lead] + [c for _, _, c in monos]:
        assert isinstance(c, Fraction)
        assert (c.numerator, c.denominator) in {(-3, 4), (5, 6)}
    # lead_vanishes_at sums c * x ** e over the leading coefficient
    x = Fraction(1, 2)
    assert sum(c * x ** e for e, c in op.coeff(op.order()).items()) == \
        Fraction(-3, 4) * 4 + Fraction(5, 6) / 8


def test_operator_workload_functions_run():
    workloads = load("workloads")
    rng = random.Random(1)
    for _ in range(3):
        triple = [workloads.random_operator(weyl, rng) for _ in range(3)]
        assert all(isinstance(x, WeylOp) and not x.is_zero for x in triple)
        assert all(workloads.operator_identities(weyl, *triple).values())
    op = weyl.parse_op("(t - 2/3)*(t + 5)*d^2 + d")
    assert workloads.lead_vanishes_at(op, Fraction(2, 3))
    assert not workloads.lead_vanishes_at(op, Fraction(1, 3))


def test_tracer_reads_coefficient_bits():
    tracer = load("tracing").Tracer(WeylOp)
    tracer._note_bits(weyl.parse_op(f"{2**40}/3*t^2*d - 1/{2**70}"))
    assert tracer.bits_max == 71
    tracer._note_bits(Fraction(2**99))  # not an operator: ignored
    assert tracer.bits_max == 71
