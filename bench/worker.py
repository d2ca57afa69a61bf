"""One benchmark worker: a fresh process that imports dworkgm from the
checkout's ``src``, runs the workload's warm-up op, prints ``ready`` with the
time that took, and then times passes over the workload for about
``--seconds`` of wall time.  Its last stdout line is a JSON summary for
``run.py``.

Times are CPU times of this process, scaled to a reference speed.  The
workloads are single-threaded and CPU-bound, so CPU time is the wall time a
user waits on a quiet machine.  On a shared host the speed of the CPU itself
changes from second to second, by up to a factor of two on the 2-core VM the
benchmark was defined on.  So ops are timed in chunks of at least CHUNK_S
seconds.  After each chunk the worker times samples of a fixed reference
computation that does not touch dworkgm, REFERENCE_SHARE of the chunk's time
and at least one sample, and it scales the chunk's times by REFERENCE_S over
the median of the samples on both sides of the chunk.  A time then reads as
seconds on a machine on which one reference sample takes REFERENCE_S.  The
median, not the mean, because a sample taken right after a large op runs
with cold caches.

With ``--trace 1`` untraced passes alternate with passes under the tracer,
whose spans are written to ``bench/out`` at exit.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import signal
import statistics
import sys
from pathlib import Path
from time import perf_counter, process_time
from types import SimpleNamespace

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"

# CPU time of one reference sample at the fastest speed seen on the 2-core
# x86 VM the benchmark was defined on.
REFERENCE_S = 0.004
REFERENCE_SHARE = 0.05
CHUNK_S = 0.2
SETUP_SAMPLES = 5


class OpTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise OpTimeout


def reference_sample() -> float:
    """CPU time of a fixed computation in the style of dworkgm's hot loops:
    Fraction arithmetic, tuple keys and dict updates."""
    # Imported here, after set-up, so that set-up pays for its own imports.
    from fractions import Fraction

    t0 = process_time()
    acc, table = Fraction(0), {}
    for i in range(1, 1500):
        acc += Fraction(i % 7 - 3, i % 11 + 1)
        key = (i % 17, i % 5)
        table[key] = table.get(key, 0) + acc.numerator
    return process_time() - t0


def reference_samples(chunk_s: float) -> list[float]:
    """Reference samples worth REFERENCE_SHARE of a chunk, at least one."""
    return [reference_sample()
            for _ in range(max(1, round(REFERENCE_SHARE * chunk_s / REFERENCE_S)))]


def import_dworkgm() -> SimpleNamespace:
    sys.path.insert(0, str(SRC))
    import dworkgm
    from dworkgm import arrangement, dwork, hypergeom, syzygy, weyl

    if Path(dworkgm.__file__).resolve().parent != SRC / "dworkgm":
        raise ImportError(f"dworkgm imported from {dworkgm.__file__}, not {SRC}")
    return SimpleNamespace(weyl=weyl, hypergeom=hypergeom, dwork=dwork,
                           syzygy=syzygy, arrangement=arrangement)


def time_op(op, limit: float) -> tuple[float, str | None]:
    """CPU time of one op, and its error type or None if it succeeded."""
    error = None
    t0 = process_time()
    signal.setitimer(signal.ITIMER_REAL, limit)
    try:
        output = op.run()
    except OpTimeout:
        error = "Timeout"
    except Exception as exc:  # a crash is a measured outcome of the op
        error = type(exc).__name__
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    dt = process_time() - t0
    if error is None and dt > limit:
        error = "Timeout"
    if error is None and not op.check(output):
        error = "WrongResult"
    return dt, error


def run_pass(ops, limit: float, tracer=None) -> dict:
    """Time every op once.  A failed op is charged ``limit`` seconds."""
    wall_start = perf_counter()
    raw, scaled, errors = [], [], []
    chunk_s, before = 0.0, reference_samples(CHUNK_S)
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op_id = i
        dt, error = time_op(op, limit)
        raw.append(dt)
        errors.append(error)
        chunk_s += dt
        if chunk_s >= CHUNK_S or i == len(ops) - 1:
            after = reference_samples(chunk_s)
            factor = REFERENCE_S / statistics.median(before + after)
            scaled += [t * factor for t in raw[len(scaled):]]
            chunk_s, before = 0.0, after
    return {
        "pass_s": sum(t if e is None else limit for t, e in zip(scaled, errors)),
        "measured_s": sum(scaled),
        "raw_s": sum(raw),
        "wall_s": perf_counter() - wall_start,
        "ops": len(ops),
        "times": [t if e is None else None for t, e in zip(scaled, errors)],
        "failures": {op.label: e for op, e in zip(ops, errors) if e},
        "wrong": errors.count("WrongResult"),
    }


def latency_percentiles(passes: list[dict], limit: float) -> dict:
    """p50 and p99 over ops of each op's median time across the passes.

    Failed ops sort last and a percentile that lands on one reads as
    ``limit``.  Taking each op's median first keeps one slow pass from
    moving the percentile."""
    medians = sorted(
        statistics.median(math.inf if p["times"][i] is None else p["times"][i]
                          for p in passes)
        for i in range(passes[0]["ops"]))

    def nearest_rank(q: float) -> float:
        return min(medians[max(0, math.ceil(q * len(medians)) - 1)], limit)

    return {"p50_s": nearest_rank(0.50), "p99_s": nearest_rank(0.99)}


def traced_pass(mods, ops, limit: float, tracer) -> dict:
    lo = len(tracer.spans)
    with tracer.installed(mods):
        result = run_pass(ops, limit, tracer)
    layers = tracer.summarize(lo, len(tracer.spans))
    # Span times are raw CPU times: scale them as the pass was scaled.
    factor = result["measured_s"] / result["raw_s"]
    result["covered_frac"] = layers.pop("covered_s") / result["raw_s"]
    result["layers"] = {name: value * factor if name.endswith("_s") else value
                        for name, value in layers.items()}
    return result


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    mods = import_dworkgm()
    import tracing
    import workloads

    warmup = workloads.warmup_op(mods, args.workload)
    if not warmup.check(warmup.run()):
        raise RuntimeError(f"warm-up op {warmup.label} returned a wrong result")
    setup_s = process_time()
    samples = [reference_sample() for _ in range(SETUP_SAMPLES + 1)]
    # The first sample in a fresh process runs cold; it is not counted.
    reference = statistics.median(samples[1:])
    print(f"ready {setup_s * REFERENCE_S / reference!r}", flush=True)
    if args.setup_only:
        return 0

    ops = workloads.build(mods, args.workload, args.seed)
    limit = workloads.PER_OP_LIMIT_S
    signal.signal(signal.SIGALRM, _alarm)
    tracer = tracing.Tracer(mods.weyl.WeylOp) if args.trace else None
    start = perf_counter()
    passes, traced = [run_pass(ops, limit)], []
    last = passes[-1]
    # Stop at the pass boundary nearest to --seconds of wall time.  A traced
    # run alternates traced and untraced passes, so that the overhead
    # compares passes timed close together.
    while (perf_counter() - start + last["wall_s"] / 2 < args.seconds
           or (tracer and not traced)):
        if tracer is not None and len(traced) < len(passes):
            last = traced_pass(mods, ops, limit, tracer)
            traced.append(last)
        else:
            last = run_pass(ops, limit)
            passes.append(last)

    summary = {
        "props": workloads.input_properties(ops),
        "passes": passes,
        **latency_percentiles(passes, limit),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        summary["traced"] = traced
        summary["coeff_bits_max"] = tracer.bits_max
        tracer.write(BENCH / "out" / f"spans-{args.workload}-{args.seed}.tsv")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
