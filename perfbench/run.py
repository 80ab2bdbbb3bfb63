"""rgkit benchmark: one workload per run, one JSON result on the last line.

    python3 perfbench/run.py --workload kernel-2t --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seconds 20     # every workload, as a table

A run repeats the workload's fixed unit of work until `--seconds` have
passed (at least once) and reports medians.  `setup_s` is the median over
several fresh interpreters of the time from process start to the point
where every input model is loaded.  With `--trace 1` the run instead does
one untraced unit and one traced unit and reports the per-layer metrics.
Every operation's answer is checked against `known_answers.json`; a line
before the result gives context: host calibration before and after the
run, the wrong-verdict ratio and the workload-specific names of the
metrics.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 9
HASH_SEED = "0"
P99_MIN_SAMPLES = 1000  # so that at least ten samples lie beyond the p99

# Workload-specific names of the generic throughput and latency metrics.
ITEM_NAMES = {"kernel-2t": "configs_per_s", "cpts-equiv": "computations_per_s",
              "rg-requests": "checks_per_s"}


def calibrate() -> float:
    """Median time of a fixed pure-Python loop: host speed, as context."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        x = 0
        for i in range(1_000_000):
            x = (x * 31 + i) % 1_000_003
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def setup_probe(args) -> None:
    """Child of measure_setup: import, load every input model, then print
    the clock reading at the point where the first check call would start."""
    import workloads

    w = workloads.make(args.workload, args.seed, args.size)
    w.load()
    print(time.monotonic())


def measure_setup(args) -> float:
    times = []
    cmd = [sys.executable, str(Path(__file__)), "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size, "--setup-probe"]
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic()
        out = subprocess.run(cmd, cwd=ROOT, check=True, capture_output=True, text=True,
                             timeout=120).stdout
        times.append(float(out.split()[-1]) - t0)
    return statistics.median(times)


def check_ops(ops, known: dict) -> list[str]:
    """Keys of the operations whose answer differs from the known one, or
    that ended in a usage error (exit code 2), which can mask a fault."""
    return [op.key for op in ops
            if known.get(op.key) != json.loads(json.dumps(op.observed))
            or op.observed.get("exit") == 2]


def timed_run(args, w) -> tuple[dict, dict, list]:
    walls, ops = [], []
    deadline = time.perf_counter() + args.seconds
    while True:
        w.load()
        t0 = time.perf_counter()
        unit_ops = w.unit()
        walls.append(time.perf_counter() - t0)
        ops.extend(unit_ops)
        if time.perf_counter() >= deadline:
            break
    items = sum(op.items for op in ops) / len(walls)  # the same in every unit
    wall = statistics.median(walls)
    lat_ms = sorted(op.seconds * 1000 for op in ops)
    metrics = {
        "wall_s": {"value": wall, "unit": "s"},
        "items_per_s": {"value": items / wall, "unit": "1/s"},
        "check_p50_ms": {"value": statistics.median(lat_ms), "unit": "ms"},
    }
    p99 = (statistics.quantiles(lat_ms, n=100)[98]
           if len(lat_ms) >= P99_MIN_SAMPLES else None)
    context = {
        "units": len(walls),
        "unit_walls_s": walls,
        "ops": len(ops),
        ITEM_NAMES[w.name]: items / wall,
        "check_p99_ms": p99,
        "latency_samples": len(lat_ms),
    }
    return metrics, context, ops


def traced_run(args, w) -> tuple[dict, dict, list]:
    """Untraced units as in timed_run, then one traced unit (model loading
    included in the trace, not in its wall time)."""
    from tracer import Tracer

    metrics, context, ops = timed_run(args, w)
    untraced = metrics["wall_s"]["value"]
    tracer = Tracer()
    tracer.install()
    w.tracer = tracer
    try:
        w.load()
        t0 = time.perf_counter()
        traced_ops = w.unit()
        traced = time.perf_counter() - t0
    finally:
        tracer.uninstall()
        w.tracer = None
    out = ROOT / ".perfbench" / f"trace-{w.name}-seed{args.seed}.json"
    tracer.write(out)
    context.update({"untraced_wall_s": untraced, "traced_wall_s": traced,
                    "spans": str(out.relative_to(ROOT))})
    return tracer.metrics(len(traced_ops), traced - untraced), context, ops + traced_ops


def run_all(args) -> None:
    """Run every workload in its own process and print its metrics."""
    import workloads

    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__)), "--workload", name, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--size", args.size]
        lines = subprocess.run(cmd, cwd=ROOT, check=True, capture_output=True,
                               text=True).stdout.splitlines()
        context = json.loads(lines[-2])["context"]
        result = json.loads(lines[-1])
        print(f"== {name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for metric, m in result["metrics"].items():
            print(f"  {metric:40s} {m['value']:>16.6g} {m['unit']}")
        for key in (ITEM_NAMES[name], "check_p99_ms", "latency_samples",
                    "wrong_verdict_ratio", "calibration_s"):
            if key in context:
                print(f"  {key:40s} {json.dumps(context[key])}")


def main() -> int:
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # String hashes are randomised per process, and the dict and set
        # layouts they give change rgkit's speed from run to run; a fixed
        # seed leaves only the host's noise.  Reports do not depend on it.
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  {**os.environ, "PYTHONHASHSEED": HASH_SEED})
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--size", choices=["full", "tiny"], default="full",
                    help="tiny runs each workload at a small size (self-test)")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()

    os.chdir(ROOT)
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import rgkit

    if [Path(p).resolve() for p in rgkit.__path__] != [ROOT / "src" / "rgkit"]:
        sys.exit(f"rgkit was imported from {list(rgkit.__path__)}, not from this checkout")
    import workloads

    if args.workload == "all":
        run_all(args)
        return 0
    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}")
    if args.setup_probe:
        setup_probe(args)
        return 0

    known = json.loads((HERE / "known_answers.json").read_text(encoding="utf-8"))
    answers = known[args.workload][args.size]["ops"]
    calib_before = calibrate()
    w = workloads.make(args.workload, args.seed, args.size, known)
    if args.trace:
        metrics, context, ops = traced_run(args, w)
    else:
        setup = measure_setup(args)
        metrics, context, ops = timed_run(args, w)
        metrics["setup_s"] = {"value": setup, "unit": "s"}
    calib_after = calibrate()
    if not args.trace:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics["peak_rss_mb"] = {"value": rss_kb / 1024, "unit": "MB"}

    wrong = check_ops(ops, answers)
    context.update({
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "python": sys.version.split()[0],
        "cpus": os.cpu_count(),
        "calibration_s": {"before": calib_before, "after": calib_after},
        "wrong_verdict_ratio": len(wrong) / len(ops),
        "wrong": [{"key": k, "observed": next(o.observed for o in ops if o.key == k),
                   "expected": answers.get(k)} for k in sorted(set(wrong))[:5]],
    })
    print(json.dumps({"context": context}))
    print(json.dumps({"correct": not wrong, "attempted": len(ops), "failed": len(wrong),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
