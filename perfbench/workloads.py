"""The three benchmark workloads.

A workload is built from a seed and a size ("full" for the benchmark,
"tiny" for the self-test).  `load()` does the set-up work a user pays
before the first check: it parses every input model.  `unit()` runs the
workload's fixed amount of work once and returns one `Op` per operation,
each with its latency and an observed answer.  Observed answers are
compared with `known_answers.json`, which holds the answers of the
unchanged program; `record_answers.py` regenerates that file.

The seed changes only the order of inputs (BUDDY list order, system and
rule order, request order) and the seed of `bpel compile --generate`.
Every observed answer is order-independent, so one table serves all
seeds, and a seed that changed a count or verdict shows as a mismatch.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
import re
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CORPUS = "corpus"


@dataclass
class Op:
    key: str  # names the operation in the known-answer table
    seconds: float
    observed: dict
    items: int  # work items the operation completed


class Workload:
    name = ""
    tracer = None  # set by a traced run, which labels spans by operation

    def _timed(self, key: str, fn) -> tuple[float, object, dict | None]:
        """Run fn, returning (seconds, result, error); an exception becomes
        an observed error so that it counts as a wrong answer, not a crash."""
        if self.tracer is not None:
            self.tracer.op = key
        t0 = time.perf_counter()
        try:
            res = fn()
        except Exception as e:  # noqa: BLE001 - every failure is reported per op
            return time.perf_counter() - t0, None, {"error": f"{type(e).__name__}: {e}"}
        return time.perf_counter() - t0, res, None


# ----------------------------------------------------------------------
# kernel-2t: reachability analysis of a two-thread buddy-pool model.
# ----------------------------------------------------------------------


def permute_buddy_lists(text: str, rng: random.Random) -> str:
    """Shuffle the items of every list-valued line of a BUDDY section."""
    out = []
    for line in text.splitlines():
        m = re.match(r"^(\s*)(threads|alloc_sizes|timeouts|free_blocks)\s+(.*)$", line)
        if m:
            indent, key, rest = m.groups()
            if key == "free_blocks":
                items = re.findall(r"\([^)]*\)", rest)
            else:
                items = [x.strip() for x in rest.split(",")]
            rng.shuffle(items)
            line = f"{indent}{key} {', '.join(items)}"
        out.append(line)
    return "\n".join(out) + "\n"


class KernelWorkload(Workload):
    name = "kernel-2t"

    def __init__(self, seed: int, size: str = "full"):
        path = HERE / "kernel_2t.pcm" if size == "full" else ROOT / CORPUS / "buddy_single.pcm"
        self.text = permute_buddy_lists(path.read_text(encoding="utf-8"), random.Random(seed))
        self.model = None

    def load(self) -> None:
        from rgkit.modelfile import parse_pcm

        self.model = parse_pcm(self.text).buddy

    def unit(self) -> list[Op]:
        from rgkit import buddy_checks

        # Capture the graph the analysis builds so that its edge counts are
        # checked too; the capture is one extra call per analysis.
        graphs = []
        build = buddy_checks.build_graph

        def capture(*a, **kw):
            g = build(*a, **kw)
            graphs.append(g)
            return g

        buddy_checks.build_graph = capture
        try:
            secs, res, err = self._timed("analyze_kernel", lambda: buddy_checks.analyze_kernel(
                self.model, budget=2_000_000))
        finally:
            buddy_checks.build_graph = build
        self.model = None  # each unit starts from a freshly parsed model
        if err:
            return [Op("analyze_kernel", secs, err, 0)]
        g = graphs[0] if graphs else None
        observed = {
            "node_count": res.node_count,
            "comp_edges": len(g.comp_edges) if g else None,
            "env_edges": len(g.env_edges) if g else None,
            "verdicts": [[n, v.result, v.clause, v.detail] for n, v in res.verdicts],
        }
        return [Op("analyze_kernel", secs, observed, res.node_count)]


# ----------------------------------------------------------------------
# cpts-equiv: the computation-equivalence sweep and rule-mutation probes.
# ----------------------------------------------------------------------


class CptsWorkload(Workload):
    """Sweep: check_linear_modular_equiv on every cpts_suite system.
    Probes: for each modular rule, cpts_linear against cpts_modular with
    that rule disabled, on the systems listed in the known-answer table
    (in sorted order, every system up to the first that detects the rule).
    The probe list is fixed, so every seed does the same work."""

    name = "cpts-equiv"

    def __init__(self, seed: int, size: str = "full", probes: list | None = None):
        self.rng = random.Random(seed)
        self.sweep_len, self.probe_len = (6, 5) if size == "full" else (3, 3)
        self.probes = probes
        self.mf = None

    def load(self) -> None:
        from rgkit.modelfile import load

        self.mf = load(f"{CORPUS}/cpts_suite.pcm")

    def probe_list(self, mf) -> list[tuple[str, str]]:
        """Every (rule, system) pair probed, from the known answers or, when
        recording, by searching in sorted order."""
        if self.probes is not None:
            return [tuple(p) for p in self.probes]
        from rgkit.computations import MODULAR_RULES, cpts_linear, cpts_modular

        ctx, s0, full = mf.ctx(), mf.schema.initial_state(), mf.rels["full"]
        pairs = []
        for rule in MODULAR_RULES:
            for name in sorted(mf.esystems):
                pairs.append((rule, name))
                lin = cpts_linear(ctx, mf.esystems[name], s0, full, 5)
                mod = cpts_modular(ctx, mf.esystems[name], s0, full, 5,
                                   disabled=frozenset([rule]))
                if lin != mod:
                    break
        return pairs

    def unit(self) -> list[Op]:
        from rgkit.computations import check_linear_modular_equiv, cpts_linear, cpts_modular

        mf, self.mf = self.mf, None
        ctx, s0, full = mf.ctx(), mf.schema.initial_state(), mf.rels["full"]
        ops = []
        systems = sorted(mf.esystems)
        self.rng.shuffle(systems)
        for name in systems:
            key = f"equiv {name}"
            secs, v, err = self._timed(key, lambda: check_linear_modular_equiv(
                ctx, mf.esystems[name], mf.sets["init0"], full, self.sweep_len))
            if err:
                ops.append(Op(key, secs, err, 0))
                continue
            n = v.detail.get("computations", 0)
            ops.append(Op(key, secs, {"result": v.result, "clause": v.clause,
                                      "computations": n}, n))
        probes = self.probe_list(mf)
        self.rng.shuffle(probes)
        for rule, name in probes:
            key = f"probe {rule} {name}"

            def probe():
                lin = cpts_linear(ctx, mf.esystems[name], s0, full, self.probe_len)
                mod = cpts_modular(ctx, mf.esystems[name], s0, full, self.probe_len,
                                   disabled=frozenset([rule]))
                return {"linear": len(lin), "modular": len(mod), "equal": lin == mod}

            secs, observed, err = self._timed(key, probe)
            ops.append(Op(key, secs, err or observed, observed["linear"] if observed else 0))
        return ops


# ----------------------------------------------------------------------
# rg-requests: a closed loop of in-process `rgkit` CLI requests.
# ----------------------------------------------------------------------

P, B, I, L, C, F = (f"{CORPUS}/{n}" for n in (
    "prove_suite.pcm", "broken_suite.pcm", "inv_suite.pcm", "loop_variant.pcm",
    "cpts_suite.pcm", "bpel_suite.bpc"))

BROKEN_CASES = [
    ("b_basic", "broken_guar"), ("b_basic", "broken_post"), ("b_basic", "broken_unstable"),
    ("b_atom", "broken_atom"), ("b_seq", "broken_seq"), ("b_choice", "broken_choice"),
    ("b_race", "broken_race"), ("b_iter", "broken_iter"), ("b_trg", "broken_trg"),
    ("b_basic", "broken_env_post"), ("b_pes", "broken_pes"),
]

PROVE_CASES = [
    ("s_basic", "spec_basic", "o01_basic"), ("s_atom", "spec_basic", "o02_atom"),
    ("s_trg", "spec_trg", "o03_trg"), ("s_seq", "spec_seq", "o04_seq"),
    ("s_choice", "spec_basic", "o05_choice"), ("s_join", "spec_join", "o06_join"),
    ("s_iter", "spec_iter", "o07_iter"), ("par_xy", "spec_par", "o09_par"),
]

# Every command of the README's CLI section except `demo buddy`, on the
# small corpus; failing verdicts sit beside passing ones.  "{seed}" is
# replaced by the workload seed.
REQUESTS: list[list[str]] = (
    [["check", "validity", P, "--target", t, "--spec", s]
     for t, s in [("s_basic", "spec_basic"), ("s_iter", "spec_iter"),
                  ("s_join", "spec_join"), ("par_xy", "spec_par")]]
    + [["check", "validity", B, "--target", t, "--spec", s] for t, s in BROKEN_CASES]
    + [["check", "prove", P, "--target", t, "--spec", s, "--outline", o, "--crosscheck"]
       for t, s, o in PROVE_CASES]
    + [["check", "inv", I, "--target", t, "--init", "all0", "--rely", "id",
        "--guar", g, "--inv", inv]
       for t, g, inv in [("m1_counters", "guar_xy_bounded", "inv_xy"),
                         ("m2_prodcons", "guar_cnt", "inv_cnt"),
                         ("m3_single_steps", "guar_xy_bounded", "inv_sum"),
                         ("m1_counters", "guar_unbounded", "inv_xy")]]
    + [["check", "loop-variant", L, "--prog", p, "--cond", "bpos", "--rely", "id",
        "--guar", "guar_dec", "--loopinv", "loopinv", "--alpha-max", "3"]
       for p in ("body_dec", "body_stuck")]
    + [["check", "equiv-cpts", C, "--target", "e07", "--pre", "init0",
        "--universe-rel", "full", "--max-len", "4"],
       ["check", "equiv-cpts", C, "--target", "e05", "--pre", "init0",
        "--universe-rel", "full", "--max-len", "4"],
       ["check", "equiv-cpts", C, "--target", "e04", "--pre", "init0",
        "--universe-rel", "full", "--max-len", "5", "--disable", "CptsMSeqFin"]]
    + [["graph", "dump", C, "--target", t, "--pre", "init0", "--rely", "id"]
       for t in ("e01", "e14")]
    + [["bpel", "compile", F],
       ["--seed", "{seed}", "bpel", "compile", F, "--generate", "50"],
       ["bpel", "bisim", F],
       ["bpel", "bisim", F, "--activity", "a_pick"],
       ["bpel", "inject", F, "--mutation", "drop-fire-sources"],
       ["bpel", "inject", F, "--mutation", "wait-guard-flip", "--activity", "a_wait"]]
    + [["oracle", "--n-max", "1", "--n-levels", "2"],
       ["oracle", "--n-max", "1", "--n-levels", "2", "--drop", "inv_bitmapn"]]
    + [["fmt", f"{CORPUS}/{n}"]
       for n in ("cpts_suite.pcm", "prove_suite.pcm", "bpel_suite.bpc", "buddy_single.pcm")]
)

# Fields that legitimately vary: timing, and for `--generate` the number
# of distinct images, which counts generated activities that happen to
# equal a corpus activity and so depends on the seed.
MILLIS = re.compile(r'"millis": \d+')
DISTINCT = re.compile(r'"distinct_images": \d+')


def report_digest(code: int, out: str, seeded: bool) -> str:
    """Digest of a report without its timing fields and header record (the
    header only echoes argv, which carries the seed)."""
    out = MILLIS.sub('"millis": 0', out)
    if seeded:
        out = DISTINCT.sub('"distinct_images": 0', out)
    lines = [ln for ln in out.splitlines(keepends=True) if not ln.startswith('{"command": ')]
    return hashlib.sha256(f"{code}\n{''.join(lines)}".encode()).hexdigest()


class RequestsWorkload(Workload):
    name = "rg-requests"

    def __init__(self, seed: int, size: str = "full"):
        self.seed = seed
        self.rng = random.Random(seed)

    def load(self) -> None:
        from rgkit import cli  # noqa: F401 - import cost is part of set-up
        from rgkit.modelfile import load

        # Requests parse their models themselves; loading each model once
        # here makes set-up comparable with the other workloads.
        for path in sorted({a for r in REQUESTS for a in r if a.startswith(CORPUS)}):
            load(path)

    def unit(self) -> list[Op]:
        from rgkit import cli

        order = list(REQUESTS)
        self.rng.shuffle(order)
        ops = []
        for template in order:
            key = " ".join(template)
            argv = [a.replace("{seed}", str(self.seed)) for a in template]
            out, err_out = io.StringIO(), io.StringIO()

            def request():
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err_out):
                    return cli.main(argv)

            secs, code, err = self._timed(key, request)
            if err:
                ops.append(Op(key, secs, err, 1))
                continue
            observed = {"exit": code,
                        "digest": report_digest(code, out.getvalue(), "{seed}" in template)}
            if code == 2:
                observed["stderr"] = err_out.getvalue()
            ops.append(Op(key, secs, observed, 1))
        return ops


WORKLOADS = {w.name: w for w in (KernelWorkload, CptsWorkload, RequestsWorkload)}


def make(name: str, seed: int, size: str, known: dict | None = None) -> Workload:
    """Build a workload; `known` (the known-answer table) supplies the
    cpts-equiv probe list, which is searched for when it is absent."""
    if name == CptsWorkload.name:
        probes = (known or {}).get(name, {}).get("full", {}).get("probes")
        return CptsWorkload(seed, size, probes)
    return WORKLOADS[name](seed, size)
