"""The dworkgm benchmark: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload sweep --seed 1 --seconds 25 --trace 0

Workloads are sweep, ladder, syzygy and operators (see bench/README.md).
Set-up is timed SETUPS times, each in a fresh worker process, and reported
as the median; the last worker goes on to time passes over the workload.
Times are CPU times of the worker scaled to a reference speed (see
worker.py).
Lines before the last describe the inputs, every metric and each failed op.
The last line is {"correct", "attempted", "failed", "metrics"}, holding the
end-to-end metrics with --trace 0 and the per-layer ones with --trace 1.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUPS = 9
# A run whose workers have not finished by then is killed and fails.
RUN_LIMIT_S = 170.0
# op_p99_ms has ten samples beyond it only from 1000 ops per pass on.
P99_MIN_OPS = 1000


class WorkerError(RuntimeError):
    pass


def run_worker(argv: list[str], deadline: float) -> tuple[float, str]:
    """Run one worker; return its set-up time and the rest of its stdout."""
    proc = subprocess.Popen([sys.executable, str(BENCH / "worker.py"), *argv],
                            stdout=subprocess.PIPE, text=True, cwd=ROOT)
    killer = threading.Timer(max(0.0, deadline - perf_counter()), proc.kill)
    killer.start()
    try:
        ready = proc.stdout.readline().split()
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        killer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if ready[:1] != ["ready"] or code != 0:
        raise WorkerError(f"worker {' '.join(argv)} failed with exit code {code}")
    return float(ready[1]), rest


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(setups: list[float], summary: dict) -> dict:
    passes = summary["passes"]
    return {
        "setup_s": metric(statistics.median(setups), "s"),
        "pass_s": metric(statistics.median(p["pass_s"] for p in passes), "s"),
        "peak_rss_mb": metric(summary["peak_rss_mb"], "MB"),
    }


def per_layer(summary: dict) -> dict:
    traced = summary["traced"]
    out = {}
    for name in traced[0]["layers"]:
        value = statistics.median(p["layers"][name] for p in traced)
        unit = ("count" if name.endswith(".calls") else
                "s" if name.endswith("_s") else "ratio")
        out[name] = metric(value, unit)
    out["weyl.coeff_bits_max"] = metric(summary["coeff_bits_max"], "bits")
    base = statistics.median(p["measured_s"] for p in summary["passes"])
    out["trace.overhead_frac"] = metric(
        statistics.median(p["measured_s"] for p in traced) / base - 1, "ratio")
    out["trace.covered_frac"] = metric(
        statistics.median(p["covered_frac"] for p in traced), "ratio")
    return out


def describe(args, setups: list[float], summary: dict, result: dict) -> None:
    """Print the inputs, every metric and each failed op for a reader."""
    props = summary["props"]
    print(f"workload {args.workload}, seed {args.seed}: "
          + ", ".join(f"{k} {v}" for k, v in props.items()))
    print(f"{len(summary['passes'])} untraced and {len(summary.get('traced', []))}"
          f" traced passes; set-up timed {len(setups)} times")
    info = dict(result["metrics"])
    if not args.trace:
        info["ops_failed_frac"] = metric(
            result["failed"] / result["attempted"], "ratio")
        info["op_p50_ms"] = metric(summary["p50_s"] * 1e3, "ms")
        info["pass_wall_s"] = metric(statistics.median(
            p["wall_s"] for p in summary["passes"]), "s")
        if props["ops"] >= P99_MIN_OPS:
            info["op_p99_ms"] = metric(summary["p99_s"] * 1e3, "ms")
    for name, m in info.items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    failures = {}
    for p in summary["passes"] + summary.get("traced", []):
        failures.update(p["failures"])
    for label, error in sorted(failures.items()):
        print(f"  failed op {label}: {error}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "dworkgm" / "__init__.py").is_file():
        print(f"bench: no dworkgm sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = perf_counter() + RUN_LIMIT_S
    argv = ["--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        setups = [run_worker(argv + ["--setup-only"], deadline)[0]
                  for _ in range(SETUPS - 1)]
        setup_s, out = run_worker(argv, deadline)
    except WorkerError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    setups.append(setup_s)
    summary = json.loads(out.splitlines()[-1])
    passes = summary["passes"] + summary.get("traced", [])
    result = {
        "correct": all(p["wrong"] == 0 for p in passes),
        "attempted": sum(p["ops"] for p in passes),
        "failed": sum(len(p["failures"]) for p in passes),
        "metrics": per_layer(summary) if args.trace else end_to_end(setups, summary),
    }
    describe(args, setups, summary, result)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
