"""Command-line surface tying the checkers together.

Reports go to stdout as JSON lines: a versioned header record followed by
one record per check.  Records are deterministic for identical inputs and
worker counts except for the `millis` timing field.  Exit codes: 0 when
every check passed, 1 when any check failed, 2 for diagnostics and usage
errors, 3 for an internal error (an `internal-error` record on stderr).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time

from .events import ParallelEventSystem, render_system
from .modelfile import BpelFile, ModelFile, load, serialize, serialize_bpel
from .semantics import build_graph, dump_graph, graph_diag
from .values import DomainOverflow, LoadError
from .verdicts import Verdict, diag


class Reporter:
    def __init__(self, out=None):
        self.out = out or sys.stdout
        self.t0 = time.monotonic()
        self.any_fail = False
        self.any_diag = False

    def header(self, command: list[str]) -> None:
        self.emit_raw({"record": "header", "version": 1, "tool": "rgkit", "command": command})

    def emit_raw(self, obj: dict) -> None:
        self.out.write(json.dumps(obj, sort_keys=True, default=str) + "\n")

    def emit(self, v: Verdict, target: str) -> None:
        if v.failed:
            self.any_fail = True
        if v.diagnostic:
            self.any_diag = True
        rec = {
            "record": "verdict",
            "check": v.check,
            "target": target,
            "result": v.result,
            "millis": int((time.monotonic() - self.t0) * 1000),
        }
        if v.clause is not None:
            rec["clause"] = v.clause
        if v.witness is not None:
            rec["witness"] = v.witness
        if v.universe is not None:
            rec["universe"] = v.universe
        if v.node_count is not None:
            rec["node_count"] = v.node_count
        detail = {k: val for k, val in v.detail.items() if not k.startswith("_")}
        if detail:
            rec["detail"] = detail
        self.emit_raw(rec)

    def exit_code(self) -> int:
        if self.any_diag:
            return 2
        return 1 if self.any_fail else 0


def _usage_error(msg: str) -> int:
    sys.stderr.write(f"error: {msg}\n")
    return 2


def _internal_error(e: Exception) -> int:
    rec = {"record": "internal-error", "type": type(e).__name__, "message": str(e)}
    sys.stderr.write(json.dumps(rec, sort_keys=True) + "\n")
    return 3


def _load_pcm(path: str) -> ModelFile:
    mf = load(path)
    if not isinstance(mf, ModelFile):
        raise LoadError(f"{path} is not a model file")
    return mf


def _load_bpc(path: str) -> BpelFile:
    bf = load(path)
    if not isinstance(bf, BpelFile):
        raise LoadError(f"{path} is not a BPEL file")
    return bf


def _target(mf: ModelFile, name: str):
    if name in mf.pes:
        return mf.pes[name]
    if name in mf.esystems:
        return mf.esystems[name]
    raise LoadError(f"unknown target {name!r}")


def _named(table: dict, kind: str, name):
    """`table[name]`; a name the model does not declare is a usage error."""
    if name not in table:
        raise LoadError(f"unknown {kind} {name!r}")
    return table[name]


def cmd_check(args, rep: Reporter) -> None:
    from .checker import (
        check_invariant,
        check_loop_variant,
        check_validity,
        check_validity_pes,
        full_universe,
        prove,
        reachable_universe,
        soundness_crosscheck,
    )
    from .computations import MODULAR_RULES, check_linear_modular_equiv

    mf = _load_pcm(args.model)
    ctx = mf.ctx()

    if args.what == "validity":
        target = _target(mf, args.target)
        spec = _named(mf.rgspecs, "rely-guarantee spec", args.spec)
        if isinstance(target, ParallelEventSystem):
            v = check_validity_pes(ctx, target, spec, budget=args.budget, init_mode=args.init_mode)
        else:
            v = check_validity(ctx, target, spec, budget=args.budget, init_mode=args.init_mode)
        rep.emit(v, args.target)
    elif args.what == "prove":
        target = _target(mf, args.target)
        spec = _named(mf.rgspecs, "rely-guarantee spec", args.spec)
        outline = _named(mf.outlines, "outline", args.outline)
        graph = None
        if args.universe == "full":
            try:
                universe = full_universe(ctx, args.budget)
            except DomainOverflow as e:
                v = diag("prove", "state-explosion", detail={"cause": str(e)})
            else:
                v = prove(ctx, target, spec, outline, universe=universe, budget=args.budget)
        else:
            try:
                graph = build_graph(ctx, target, spec.pre, spec.rely,
                                    budget=args.budget, init_mode=args.init_mode)
            except Exception as e:  # noqa: BLE001
                v = graph_diag("prove", e)
            else:
                universe = reachable_universe(graph)
                v = prove(ctx, target, spec, outline, universe=universe, budget=args.budget)
        rep.emit(v, args.target)
        if args.crosscheck:
            v2 = soundness_crosscheck(ctx, target, spec, outline, budget=args.budget,
                                      init_mode=args.init_mode, graph=graph, proof=v)
            rep.emit(v2, args.target)
    elif args.what == "inv":
        target = _target(mf, args.target)
        if not isinstance(target, ParallelEventSystem):
            raise LoadError("invariant checking expects a parallel system target")
        outline = _named(mf.outlines, "outline", args.outline) if args.outline else None
        v = check_invariant(
            ctx,
            target,
            _named(mf.sets, "set", args.init),
            _named(mf.rels, "relation", args.rely),
            _named(mf.rels, "relation", args.guar),
            _named(mf.sets, "set", args.inv),
            outline=outline,
            budget=args.budget,
            init_mode=args.init_mode,
        )
        rep.emit(v, args.target)
    elif args.what == "equiv-cpts":
        target = _target(mf, args.target)
        if isinstance(target, ParallelEventSystem):
            raise LoadError("computation equivalence expects an event system target")
        pre = _named(mf.sets, "set", args.pre)
        universe_rel = _named(mf.rels, "relation", args.universe_rel)
        disabled = frozenset(args.disable or [])
        unknown = sorted(disabled - set(MODULAR_RULES))
        if unknown:
            raise LoadError(f"unknown modular rule {unknown[0]!r}")
        v = check_linear_modular_equiv(
            ctx, target, pre, universe_rel, args.max_len,
            init_mode=args.init_mode, disabled=disabled,
        )
        if disabled:
            v.detail["disabled"] = sorted(disabled)
        rep.emit(v, args.target)
    elif args.what == "loop-variant":
        prog = _named(mf.programs, "program", args.prog)
        b = _named(mf.sets, "set", args.cond)
        rely = _named(mf.rels, "relation", args.rely)
        guar = _named(mf.rels, "relation", args.guar)
        fam = {}
        for a in range(args.alpha_max + 1):
            name = f"{args.loopinv}_{a}"
            if name not in mf.sets:
                raise LoadError(f"missing loop-invariant set {name!r}")
            fam[a] = mf.sets[name]
        try:
            universe = full_universe(ctx, args.budget)
        except DomainOverflow as e:
            rep.emit(diag("loop-variant", "state-explosion", detail={"cause": str(e)}), args.prog)
            return
        v = check_loop_variant(
            ctx, prog, b, rely, guar, lambda a: fam[a],
            range(args.alpha_max + 1), universe, budget=args.budget,
        )
        rep.emit(v, args.prog)
    else:
        raise LoadError(f"unknown check {args.what!r}")


def cmd_graph_dump(args, rep: Reporter) -> None:
    mf = _load_pcm(args.model)
    ctx = mf.ctx()
    target = _target(mf, args.target)
    pre = _named(mf.sets, "set", args.pre)
    rely = _named(mf.rels, "relation", args.rely)
    try:
        g = build_graph(ctx, target, pre, rely, budget=args.budget, init_mode=args.init_mode)
    except Exception as e:  # noqa: BLE001
        rep.emit(graph_diag("graph-dump", e), args.target)
        return
    text = dump_graph(ctx, g)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            f.write(text)
    else:
        sys.stdout.write(text)
    rep.emit(
        Verdict("PASS", "graph-dump", node_count=g.node_count,
                detail={"comp_edges": len(g.comp_edges), "env_edges": len(g.env_edges)}),
        args.target,
    )


def cmd_bpel(args, rep: Reporter) -> None:
    from . import bpel as bp

    bf = _load_bpc(args.model)
    bctx = bf.bctx
    if args.activity:
        _named(bf.activities, "activity", args.activity)
    names = [args.activity] if args.activity else list(bf.activities)
    memo: dict = {}  # translations shared by the checks; `inject` starts one per mutation

    if args.what == "compile":
        for name in names:
            act = bf.activities[name]
            img = bp.compile_activity(bctx, act, memo=memo)
            rep.emit_raw({"record": "compiled", "activity": name, "image": render_system(img)})
        acts = [bf.activities[n] for n in names]
        if args.generate:
            acts = acts + bp.generate_activities(bctx, args.generate, seed=args.seed)
        v = bp.check_compile_injective(bctx, acts, memo=memo)
        v.detail["activities"] = len(acts)
        rep.emit(v, bf.name)
    elif args.what == "bisim":
        s0 = bctx.schema.initial_state()
        rely = _tick_rely(bf)
        for name in names:
            act = bf.activities[name]
            v = bp.check_bisim(bctx, act, s0, budget=args.budget, env_rel=rely, memo=memo)
            rep.emit(v, name)
            v2 = bp.check_trace_equiv(bctx, act, s0, rely, args.max_len, memo=memo)
            rep.emit(v2, name)
    elif args.what == "inject":
        s0 = bctx.schema.initial_state()
        rely = _tick_rely(bf)
        mutations = [args.mutation] if args.mutation else sorted(bp.MUTATIONS)
        acts = [bf.activities[n] for n in names]
        for mutation in mutations:
            memo = {}
            vi = bp.check_compile_injective(bctx, acts, mutation=mutation, memo=memo)
            for name, act in zip(names, acts):
                vb = bp.check_bisim(bctx, act, s0, mutation=mutation, budget=args.budget,
                                    env_rel=rely, memo=memo)
                vt = bp.check_trace_equiv(bctx, act, s0, rely, args.max_len, mutation=mutation,
                                          memo=memo)
                detected = vb.failed or vt.failed or vi.failed
                v = Verdict(
                    "PASS" if detected else "FAIL",
                    "bpel-inject",
                    clause=None if detected else "mutation-not-detected",
                    detail={
                        "mutation": mutation,
                        "bisim": vb.result,
                        "trace_equiv": vt.result,
                        "injective": vi.result,
                    },
                )
                rep.emit(v, name)
    else:
        raise LoadError(f"unknown bpel command {args.what!r}")


def _tick_rely(bf: BpelFile):
    from .exprs import Arith, Cmp, Lit, Var
    from .relations import RelDesc, RelRule, StateSet

    schema = bf.bctx.schema
    return RelDesc(
        schema,
        "rules",
        rules=(
            RelRule(
                StateSet(schema, Cmp("<", Var("tick"), Lit(bf.tick_max))),
                (("tick", Arith("+", Var("tick"), Lit(1))),),
            ),
        ),
        name="clock-advance",
    )


def cmd_demo_buddy(args, rep: Reporter) -> None:
    from .buddy import BuddyDims
    from .buddy_checks import run_buddy_demo

    dims = BuddyDims(
        threads=tuple(args.threads.split(",")),
        tick_max=args.tick_max,
    )
    run_buddy_demo(rep, dims, budget=args.budget, workers=args.workers)


def cmd_oracle(args, rep: Reporter) -> None:
    from .buddy import BuddyDims, partition_theorem_oracle

    dims = BuddyDims(n_max=args.n_max, n_levels=args.n_levels,
                     max_sz=args.max_sz if args.max_sz else 4 * 4**args.n_levels)
    if not dims.consistent():
        raise LoadError(f"inconsistent pool configuration: {dims}")
    v = partition_theorem_oracle(dims, drop_premise=args.drop, workers=args.workers)
    rep.emit(v, f"pool({dims.n_max},{dims.n_levels})")


def cmd_fmt(args, rep: Reporter) -> None:
    mf = load(args.model)
    text = serialize(mf) if isinstance(mf, ModelFile) else serialize_bpel(mf)
    sys.stdout.write(text)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: `parse_args` makes a fresh
    namespace (and fresh `--disable` list) on every call, so calls share
    no state through it."""
    ap = argparse.ArgumentParser(prog="rgkit", description=__doc__)
    ap.add_argument("--seed", type=int, default=0, help="seed for generated corpora")
    ap.add_argument("--workers", type=int, default=1)
    sub = ap.add_subparsers(dest="cmd", required=True)

    def common(p):
        p.add_argument("--budget", type=int, default=1_000_000)
        p.add_argument("--init-mode", default="default", choices=["default", "pre-free", "declared"])

    pc = sub.add_parser("check", help="semantic and proof-rule checks on a model")
    pc.add_argument("what", choices=["validity", "prove", "inv", "equiv-cpts", "loop-variant"])
    pc.add_argument("model")
    pc.add_argument("--target")
    pc.add_argument("--spec")
    pc.add_argument("--outline")
    pc.add_argument("--crosscheck", action="store_true")
    pc.add_argument("--init")
    pc.add_argument("--rely")
    pc.add_argument("--guar")
    pc.add_argument("--inv")
    pc.add_argument("--pre")
    pc.add_argument("--universe", default="reachable", choices=["reachable", "full"])
    pc.add_argument("--universe-rel")
    pc.add_argument("--max-len", type=int, default=5)
    pc.add_argument("--disable", action="append")
    pc.add_argument("--prog")
    pc.add_argument("--cond")
    pc.add_argument("--loopinv")
    pc.add_argument("--alpha-max", type=int, default=3)
    common(pc)
    pc.set_defaults(fn=cmd_check)

    pg = sub.add_parser("graph", help="configuration graph operations")
    pg.add_argument("what", choices=["dump"])
    pg.add_argument("model")
    pg.add_argument("--target", required=True)
    pg.add_argument("--pre", required=True)
    pg.add_argument("--rely", required=True)
    pg.add_argument("--out")
    common(pg)
    pg.set_defaults(fn=cmd_graph_dump)

    pb = sub.add_parser("bpel", help="translation checks on a BPEL file")
    pb.add_argument("what", choices=["compile", "bisim", "inject"])
    pb.add_argument("model")
    pb.add_argument("--activity")
    pb.add_argument("--mutation")
    pb.add_argument("--generate", type=int, default=0,
                    help="also check injectivity over N seeded random activities")
    pb.add_argument("--max-len", type=int, default=4)
    pb.add_argument("--budget", type=int, default=200_000)
    pb.set_defaults(fn=cmd_bpel)

    pd = sub.add_parser("demo", help="built-in corpus demonstrations")
    pdd = pd.add_subparsers(dest="what", required=True)
    pb2 = pdd.add_parser("buddy")
    pb2.add_argument("--threads", default="t1,t2")
    pb2.add_argument("--tick-max", type=int, default=1)
    pb2.add_argument("--budget", type=int, default=2_000_000)
    pb2.set_defaults(fn=cmd_demo_buddy)

    po = sub.add_parser("oracle", help="memory-partition brute-force oracle")
    po.add_argument("--n-max", type=int, default=1)
    po.add_argument("--n-levels", type=int, default=2)
    po.add_argument("--max-sz", type=int, default=0)
    po.add_argument("--drop", default=None)
    po.set_defaults(fn=cmd_oracle)

    pf = sub.add_parser("fmt", help="parse and re-serialize a model file")
    pf.add_argument("model")
    pf.set_defaults(fn=cmd_fmt)
    return ap


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code else 0
    rep = Reporter()
    if args.cmd != "fmt":
        rep.header(argv)
    try:
        args.fn(args, rep)
    except (LoadError, OSError) as e:
        return _usage_error(str(e))
    except Exception as e:  # noqa: BLE001 - anything else is a fault in rgkit
        return _internal_error(e)
    return rep.exit_code()


if __name__ == "__main__":
    raise SystemExit(main())
