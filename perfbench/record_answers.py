"""Regenerate known_answers.json from the program as it is now.

    python3 perfbench/record_answers.py

Run it only on a commit whose answers are trusted (the table was recorded
on the commit that added the benchmark); a later change that alters any
recorded answer changes a verdict, a count or a report byte.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    os.chdir(ROOT)
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads

    known: dict = {}
    for name in workloads.WORKLOADS:
        known[name] = {}
        for size in ("full", "tiny"):
            w = workloads.make(name, 0, size, known)
            entry: dict = {}
            if name == workloads.CptsWorkload.name and size == "full":
                w.load()
                entry["probes"] = w.probes = [list(p) for p in w.probe_list(w.mf)]
            known[name][size] = entry
            w.load()
            entry["ops"] = {op.key: op.observed for op in w.unit()}
            print(f"{name} {size}: {len(entry['ops'])} operations", file=sys.stderr)
    (HERE / "known_answers.json").write_text(
        json.dumps(known, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
