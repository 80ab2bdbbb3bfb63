"""Fast self-test of the benchmark harness.

    python3 perfbench/selftest.py

Runs every workload at its tiny size (the single-thread buddy model,
max_len 3, one request round), untraced and traced at two seeds, and
checks that
  * every end-to-end and per-layer metric in BENCHMARK.json is emitted,
    with its unit, and nothing else;
  * every operation matches the known-answer table;
  * per-layer counts are identical across two runs, and across seeds
    except those of the seeded BPEL generator;
  * without the program's sources the benchmark fails without a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

# Counts that follow the seed on purpose: `bpel compile --generate` compiles
# a different random corpus for each seed.
SEEDED_COUNTS = {
    "rg-requests": ("events.hash.calls", "exprs.compile_expr.calls",
                    "bpel.compile_activity.calls"),
}


def run(workload: str, seed: int, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", str(seed),
           "--seconds", "0", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def result(workload: str, seed: int, trace: int) -> dict:
    proc = run(workload, seed, trace)
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}, res.keys()
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1, proc.stdout
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(res["metrics"]) == {m["name"] for m in declared}, sorted(res["metrics"])
    for m in declared:
        got = res["metrics"][m["name"]]
        assert got["unit"] == m["unit"], (m["name"], got)
        assert isinstance(got["value"], (int, float)), (m["name"], got)
        if not trace:
            assert got["value"] > 0, (m["name"], got)
    return res


def main() -> int:
    names = [w["name"] for w in SPEC["workloads"]]
    for name in names:
        result(name, 1, 0)
        counts = []
        for seed in (1, 1, 2):
            layer = result(name, seed, 1)["metrics"]
            counts.append({k: v["value"] for k, v in layer.items() if v["unit"] == "count"})
        assert counts[0] == counts[1], (name, counts[:2])
        for k in SEEDED_COUNTS.get(name, ()):
            counts[1].pop(k)
            counts[2].pop(k)
        assert counts[1] == counts[2], (name, counts[1:])
        print(f"ok {name}")

    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(names[0], 1, 0, cwd=bare)
    assert proc.returncode != 0 and '"correct"' not in proc.stdout, proc.stdout
    shutil.rmtree(bare)
    print("ok fails without the program")
    return 0


if __name__ == "__main__":
    sys.exit(main())
