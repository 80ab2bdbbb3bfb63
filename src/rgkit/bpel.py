"""Abstract BPEL subset: syntax, small-step semantics, translation into
event systems, and the translation-correctness checkers.

Both sides share one state shape: ordinary store variables, a `links`
record of fired flags, and a `tick` clock.  Clock advance is an
environment concern (the harness rely provides tick+1), so component
steps never change tick on either side.

Every basic activity translates to an atomic event guarded by its
targets' satisfaction and firing its source links in the body; structured
activities map onto sequence, choice, join and iteration.  The guard
direction for Wait (`t < tick`) and OnAlarm (`t > tick`) is implemented
exactly as specified on both sides, asymmetry included.

Named translation mutations are kept here so the checkers can demonstrate
they detect a broken translation.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from typing import Any

from .adapters import Basic, Ctx, PSeq, compile_assigns
from .events import (
    EsAtomic,
    EsChoice,
    EsIter,
    EsJoin,
    EsSeq,
    EventSet,
    EventSpec,
    EventSystem,
    FIN,
    render_system,
)
from .exprs import (
    BOOL,
    BoolOp,
    Cmp,
    CondE,
    Expr,
    Field,
    Lit,
    NotE,
    RecWith,
    Var,
    _compiled,
    _node,
    compile_expr,
    render_expr,
)
from .relations import RelDesc, StateSet
from .semantics import step_es
from .computations import cpts_linear
from .values import BoolType, IntType, LoadError, RecType, Schema
from .verdicts import Verdict, diag, fail, ok


@_node
class FlowEle:
    # targets: None | (join_cond: Expr|None, (link, ...))
    # sources: None | ((link, trans_cond: Expr), ...)
    targets: Any
    sources: Any


EMPTY_FE = FlowEle(None, None)


@_node
class Invoke:
    fe: FlowEle
    ptlink: str
    pttype: str
    op: str
    spec: tuple  # ((var, Expr), ...) deterministic state mapping
    catches: tuple  # ((fault_name, Activity), ...)
    catchall: "Activity"


@_node
class Receive:
    fe: FlowEle
    ptlink: str
    pttype: str
    op: str
    spec: tuple


@_node
class Reply:
    fe: FlowEle
    ptlink: str
    pttype: str
    op: str


@_node
class Assign:
    fe: FlowEle
    spec: tuple


@_node
class Wait:
    fe: FlowEle
    time: int


@_node
class Empty:
    fe: FlowEle


@_node
class ASeq:
    a: "Activity"
    b: "Activity"


@_node
class AIf:
    cond: Expr
    a: "Activity"
    b: "Activity"


@_node
class AWhile:
    cond: Expr
    a: "Activity"


@_node
class AFlow:
    a: "Activity"
    b: "Activity"


@_node
class OnMessage:
    ptlink: str
    pttype: str
    op: str
    spec: tuple
    body: "Activity"


@_node
class OnAlarm:
    time: int
    body: "Activity"


EventHandler = OnMessage | OnAlarm


@_node
class APick:
    h1: EventHandler
    h2: EventHandler


@_node
class ActFin:
    pass


Activity = (
    Invoke | Receive | Reply | Assign | Wait | Empty | ASeq | AIf | AWhile
    | AFlow | APick | ActFin
)

ACT_FIN = ActFin()


def repeat_until(cond: Expr, a: Activity) -> Activity:
    """repeatUntil c P == Seq P (While c P)  (derived form)."""
    return ASeq(a, AWhile(cond, a))


def for_each(m: int, n: int, a: Activity) -> Activity:
    """Sequential forEach: the enclosed activity n - m + 1 times."""
    if m == n:
        return a
    if m > n:
        return ACT_FIN
    return ASeq(a, for_each(m + 1, n, a))


@dataclass(frozen=True)
class BpelCtx:
    ctx: Ctx  # event-layer context (schema + IMP adapter)
    links: tuple[str, ...]
    links_var: str = "links"
    tick_var: str = "tick"

    @property
    def schema(self) -> Schema:
        return self.ctx.schema


def make_bpel_schema(
    store: list[tuple[str, Any, Any]], links: list[str], tick_max: int = 3
) -> Schema:
    """Store variables plus the fired-flag record and the clock."""
    link_rec = RecType(tuple((l, BoolType()) for l in links))
    decls = list(store)
    decls.append(("links", link_rec, tuple(False for _ in links)))
    decls.append(("tick", IntType(0, tick_max), 0))
    return Schema(decls)


MUTATIONS = {
    "drop-fire-sources": "translated bodies do not fire source links",
    "wait-guard-flip": "Wait translates with guard t > tick instead of t < tick",
    "if-else-overlap": "the Else branch event keeps the If guard instead of its negation",
    "seq-drop-left": "Seq translates to its second activity only",
    "name-no-separator": "event names concatenate without the '@' separator",
}


# ----------------------------------------------------------------------
# Well-formedness.
# ----------------------------------------------------------------------


def check_activity(bctx: BpelCtx, a: Activity, top: bool = True) -> None:
    schema = bctx.schema

    def chk_fe(fe: FlowEle) -> None:
        if fe.targets is not None:
            jc, links = fe.targets
            if not links and jc is None:
                raise LoadError("targets with no links and no explicit join condition")
            for l in links:
                if l not in bctx.links:
                    raise LoadError(f"undeclared link {l!r}")
            if len(set(links)) != len(links):
                raise LoadError("duplicate link names in targets")
            if jc is not None:
                _compiled(jc, "_guard", schema, _compile_guard)
        if fe.sources is not None:
            names = [l for l, _ in fe.sources]
            if len(set(names)) != len(names):
                raise LoadError("duplicate link names in sources")
            for l, tc in fe.sources:
                if l not in bctx.links:
                    raise LoadError(f"undeclared link {l!r}")
                _compiled(tc, "_guard", schema, _compile_guard)

    def chk_spec(node) -> None:
        _compiled(node, "_apply", schema, _compile_spec)
        for v, _ in node.spec:
            if v in (bctx.links_var, bctx.tick_var):
                raise LoadError(f"state mapping may not assign {v!r}")

    def rec(a: Activity, top: bool) -> None:
        if isinstance(a, ActFin):
            if not top:
                raise LoadError("the terminator cannot appear inside an activity")
            return
        if isinstance(a, (Invoke, Receive, Reply, Assign, Wait, Empty)):
            chk_fe(a.fe)
            if isinstance(a, (Invoke, Receive, Assign)):
                chk_spec(a)
            if isinstance(a, Invoke):
                names = [n for n, _ in a.catches]
                if len(set(names)) != len(names):
                    raise LoadError("duplicate fault names in catches")
                for _, h in a.catches:
                    rec(h, False)
                rec(a.catchall, False)
            return
        if isinstance(a, ASeq):
            rec(a.a, False)
            rec(a.b, False)
            return
        if isinstance(a, (AIf, AWhile)):
            _compiled(a.cond, "_guard", schema, _compile_guard)
            rec(a.a, False)
            if isinstance(a, AIf):
                rec(a.b, False)
            return
        if isinstance(a, AFlow):
            rec(a.a, False)
            rec(a.b, False)
            return
        if isinstance(a, APick):
            for h in (a.h1, a.h2):
                if isinstance(h, OnMessage):
                    chk_spec(h)
                rec(h.body, False)
            return
        raise LoadError(f"not an activity: {a!r}")

    rec(a, top)


# ----------------------------------------------------------------------
# Semantics.
# ----------------------------------------------------------------------


def targets_sat(bctx: BpelCtx, fe: FlowEle, s: tuple) -> bool:
    """True when targets are absent; otherwise the join condition holds
    (default: disjunction of the listed links) and all listed links are
    fired (the activity blocks until then)."""
    if fe.targets is None:
        return True
    jc, links = fe.targets
    fired = _links_value(bctx, s)
    if jc is None:
        cond = any(fired[l] for l in links)
    else:
        cond = _holds(bctx, jc, s)
    return cond and all(fired[l] for l in links)


def _links_value(bctx: BpelCtx, s: tuple) -> dict[str, bool]:
    rec = bctx.schema.get(s, bctx.links_var)
    return dict(zip(bctx.links, rec))


def fire_sources(bctx: BpelCtx, sources, s: tuple) -> tuple:
    """Sets fired := true for each source link whose transition condition
    holds in the input state; store and tick unchanged."""
    if not sources:
        return s
    schema = bctx.schema
    rec = list(schema.get(s, bctx.links_var))
    for l, tc in sources:
        if _holds(bctx, tc, s):
            rec[bctx.links.index(l)] = True
    return schema.set(s, bctx.links_var, tuple(rec))


def _holds(bctx: BpelCtx, e: Expr, s: tuple) -> bool:
    """The guard `e` (a join, transition, If or While condition) in `s`,
    compiled once per expression node and schema by `exprs._compiled`."""
    return bool(_compiled(e, "_guard", bctx.schema, _compile_guard)(s, []))


def _compile_guard(e: Expr, schema: Schema):
    return compile_expr(e, schema, BOOL)


def _compile_spec(node, schema: Schema):
    return compile_assigns(schema, node.spec)


def _apply_spec(bctx: BpelCtx, node, s: tuple) -> tuple:
    """`node.spec` applied to `s`, compiled once per activity or handler
    node and schema by `exprs._compiled`."""
    if not node.spec:
        return s
    return _compiled(node, "_apply", bctx.schema, _compile_spec)(s)


def handler_step(bctx: BpelCtx, h: EventHandler, s: tuple) -> list[tuple[Activity, tuple]]:
    if isinstance(h, OnMessage):
        return [(h.body, _apply_spec(bctx, h, s))]
    if isinstance(h, OnAlarm):
        tick = bctx.schema.get(s, bctx.tick_var)
        if h.time > tick:
            return [(h.body, s)]
        return []
    raise AssertionError(h)


def bpel_step(bctx: BpelCtx, b: Activity, s: tuple) -> list[tuple[Activity, tuple]]:
    """The full nondeterministic successor set.  The terminator has none."""
    schema = bctx.schema
    out: list[tuple[Activity, tuple]] = []
    if isinstance(b, ActFin):
        return []
    if isinstance(b, Invoke):
        if targets_sat(bctx, b.fe, s):
            out.append((ACT_FIN, fire_sources(bctx, b.fe.sources, _apply_spec(bctx, b, s))))
            faulted = fire_sources(bctx, b.fe.sources, s)
            out.append((b.catchall, faulted))
            for _, h in b.catches:
                out.append((h, faulted))
    elif isinstance(b, Receive):
        if targets_sat(bctx, b.fe, s):
            out.append((ACT_FIN, fire_sources(bctx, b.fe.sources, _apply_spec(bctx, b, s))))
    elif isinstance(b, Reply):
        if targets_sat(bctx, b.fe, s):
            out.append((ACT_FIN, fire_sources(bctx, b.fe.sources, s)))
    elif isinstance(b, Assign):
        if targets_sat(bctx, b.fe, s):
            out.append((ACT_FIN, fire_sources(bctx, b.fe.sources, _apply_spec(bctx, b, s))))
    elif isinstance(b, Wait):
        tick = schema.get(s, bctx.tick_var)
        if b.time < tick and targets_sat(bctx, b.fe, s):
            out.append((ACT_FIN, fire_sources(bctx, b.fe.sources, s)))
    elif isinstance(b, Empty):
        if targets_sat(bctx, b.fe, s):
            out.append((ACT_FIN, fire_sources(bctx, b.fe.sources, s)))
    elif isinstance(b, ASeq):
        for b2, t in bpel_step(bctx, b.a, s):
            if isinstance(b2, ActFin):
                out.append((b.b, t))
            else:
                out.append((ASeq(b2, b.b), t))
    elif isinstance(b, AIf):
        if _holds(bctx, b.cond, s):
            out.append((b.a, s))
        else:
            out.append((b.b, s))
    elif isinstance(b, AWhile):
        if _holds(bctx, b.cond, s):
            if not isinstance(b.a, ActFin):
                out.append((ASeq(b.a, b), s))
        else:
            out.append((ACT_FIN, s))
    elif isinstance(b, AFlow):
        if isinstance(b.a, ActFin) and isinstance(b.b, ActFin):
            out.append((ACT_FIN, s))
        else:
            for a2, t in bpel_step(bctx, b.a, s):
                out.append((AFlow(a2, b.b), t))
            for b2, t in bpel_step(bctx, b.b, s):
                out.append((AFlow(b.a, b2), t))
    elif isinstance(b, APick):
        for h in (b.h1, b.h2):
            for body, t in handler_step(bctx, h, s):
                out.append((body, t))
    else:
        raise AssertionError(f"not an activity: {b!r}")
    seen, dedup = set(), []
    for item in out:
        if item not in seen:
            seen.add(item)
            dedup.append(item)
    return dedup


# ----------------------------------------------------------------------
# Translation.
# ----------------------------------------------------------------------


def _event_name(kind: str, *parts: str, mutation: str | None) -> str:
    sep = "" if mutation == "name-no-separator" else "@"
    return sep.join((kind,) + parts)


def _targets_expr(bctx: BpelCtx, fe: FlowEle) -> Expr:
    if fe.targets is None:
        return Lit(True)
    jc, links = fe.targets
    fired = [Cmp("=", Field(Var(bctx.links_var), l), Lit(True)) for l in links]
    if jc is None:
        cond: Expr = fired[0]
        for f in fired[1:]:
            cond = BoolOp("OR", cond, f)
    else:
        cond = jc
    for f in fired:
        cond = BoolOp("AND", cond, f)
    return cond


def _fire_assign(bctx: BpelCtx, fe: FlowEle) -> Basic:
    if not fe.sources:
        return Basic(())
    e: Expr = Var(bctx.links_var)
    for l, tc in fe.sources:
        e = RecWith(e, l, CondE(tc, Lit(True), Field(Var(bctx.links_var), l)))
    return Basic(((bctx.links_var, e),))


def fold_choice(items: list[EventSystem]) -> EventSystem:
    """Right-nested choice of a list; the empty list is the finished system."""
    if not items:
        return FIN
    if len(items) == 1:
        return items[0]
    return EsChoice(items[0], fold_choice(items[1:]))


def compile_activity(
    bctx: BpelCtx, b: Activity, mutation: str | None = None, memo: dict | None = None
) -> EventSystem:
    """Structurally recursive translation of an activity into an event
    system.  Total; output size is linear in input size times (1 + number
    of catch handlers).  `memo` maps activities to their images under this
    `bctx` and `mutation`; calls that pass the same dict share them."""
    if mutation is not None and mutation not in MUTATIONS:
        raise LoadError(f"unknown mutation {mutation!r}")
    if memo is None:
        memo = {}
    key = b
    hit = memo.get(key)
    if hit is not None:
        return hit

    schema = bctx.schema

    def atomic(name: str, guard: Expr, body) -> EventSystem:
        return EsAtomic(EventSet((EventSpec(name, StateSet(schema, guard), body),)))

    def body_with_spec(spec: tuple, fe: FlowEle):
        fire = _fire_assign(bctx, fe)
        if mutation == "drop-fire-sources":
            fire = Basic(())
        if spec:
            return PSeq(Basic(tuple(spec)), fire)
        return PSeq(Basic(()), fire)

    def body_fire_only(fe: FlowEle):
        fire = _fire_assign(bctx, fe)
        if mutation == "drop-fire-sources":
            fire = Basic(())
        return fire

    rec = lambda x: compile_activity(bctx, x, mutation, memo)

    if isinstance(b, ActFin):
        out: EventSystem = FIN
    elif isinstance(b, Invoke):
        name = _event_name("Invoke", b.ptlink, b.pttype, b.op, mutation=mutation)
        guard = _targets_expr(bctx, b.fe)
        ev_suc = atomic(name, guard, body_with_spec(b.spec, b.fe))
        ev_fail_body = body_fire_only(b.fe)
        fail_branches = [EsSeq(atomic(name, guard, ev_fail_body), rec(b.catchall))]
        for _, h in b.catches:
            fail_branches.append(EsSeq(atomic(name, guard, ev_fail_body), rec(h)))
        out = EsChoice(ev_suc, fold_choice(fail_branches))
    elif isinstance(b, Receive):
        name = _event_name("Receive", b.ptlink, b.pttype, b.op, mutation=mutation)
        out = atomic(name, _targets_expr(bctx, b.fe), body_with_spec(b.spec, b.fe))
    elif isinstance(b, Reply):
        name = _event_name("Reply", b.ptlink, b.pttype, b.op, mutation=mutation)
        out = atomic(name, _targets_expr(bctx, b.fe), body_fire_only(b.fe))
    elif isinstance(b, Assign):
        out = atomic("Assign", _targets_expr(bctx, b.fe), body_with_spec(b.spec, b.fe))
    elif isinstance(b, Wait):
        op = "<" if mutation != "wait-guard-flip" else ">"
        guard = BoolOp("AND", Cmp(op, Lit(b.time), Var(bctx.tick_var)), _targets_expr(bctx, b.fe))
        out = atomic("Wait", guard, body_fire_only(b.fe))
    elif isinstance(b, Empty):
        out = atomic("Empty", _targets_expr(bctx, b.fe), body_fire_only(b.fe))
    elif isinstance(b, ASeq):
        if mutation == "seq-drop-left":
            out = rec(b.b)
        else:
            out = EsSeq(rec(b.a), rec(b.b))
    elif isinstance(b, AIf):
        then_g = b.cond
        else_g = b.cond if mutation == "if-else-overlap" else NotE(b.cond)
        out = EsChoice(
            EsSeq(atomic("If", then_g, Basic(())), rec(b.a)),
            EsSeq(atomic("Else", else_g, Basic(())), rec(b.b)),
        )
    elif isinstance(b, AWhile):
        out = EsIter(StateSet(schema, b.cond), rec(b.a))
    elif isinstance(b, AFlow):
        out = EsJoin(rec(b.a), rec(b.b))
    elif isinstance(b, APick):
        out = EsChoice(_compile_handler(bctx, b.h1, mutation, memo), _compile_handler(bctx, b.h2, mutation, memo))
    else:
        raise LoadError(f"cannot translate {b!r}")
    memo[key] = out
    return out


def _compile_handler(bctx: BpelCtx, h: EventHandler, mutation, memo) -> EventSystem:
    schema = bctx.schema
    if isinstance(h, OnMessage):
        name = _event_name("OnMessage", h.ptlink, h.pttype, h.op, mutation=mutation)
        body = Basic(tuple(h.spec)) if h.spec else Basic(())
        ev = EsAtomic(EventSet((EventSpec(name, StateSet(schema, Lit(True)), body),)))
        return EsSeq(ev, compile_activity(bctx, h.body, mutation, memo))
    if isinstance(h, OnAlarm):
        guard = Cmp(">", Lit(h.time), Var(bctx.tick_var))
        ev = EsAtomic(EventSet((EventSpec("OnAlarm", StateSet(schema, guard), Basic(())),)))
        return EsSeq(ev, compile_activity(bctx, h.body, mutation, memo))
    raise AssertionError(h)


# ----------------------------------------------------------------------
# Checkers.
# ----------------------------------------------------------------------


def check_compile_injective(
    bctx: BpelCtx, activities: list[Activity], mutation: str | None = None,
    memo: dict | None = None,
) -> Verdict:
    """PASS iff translation images of pairwise-distinct activities are
    pairwise distinct (equal inputs exempt).  `memo` is as in
    `compile_activity`."""
    check = "compile-injective"
    memo = {} if memo is None else memo
    images: dict[EventSystem, int] = {}
    for i, a in enumerate(activities):
        img = compile_activity(bctx, a, mutation, memo)
        j = images.get(img)
        if j is not None and activities[j] != a:
            return fail(
                check,
                "collision",
                witness={
                    "first": render_activity(activities[j]),
                    "second": render_activity(a),
                    "image": render_system(img),
                },
                detail={"indices": [j, i]},
            )
        images.setdefault(img, i)
    return ok(check, detail={"activities": len(activities), "distinct_images": len(images)})


def check_bisim(
    bctx: BpelCtx,
    b0: Activity,
    s0: tuple,
    mutation: str | None = None,
    budget: int = 200_000,
    env_rel: RelDesc | None = None,
    memo: dict | None = None,
) -> Verdict:
    """Greatest-fixpoint bisimulation check on the finite product of
    activity derivatives and their translations, from (b0, compile(b0), s0).

    At each pair: every BPEL step must be matched by an event-system step
    to the same state whose target is the translation of the BPEL target
    (clause 1 + the compile linkage clause 3), and conversely every
    event-system step must correspond to some BPEL step (clause 2).
    `env_rel` (the shared clock-advance rely) closes the explored pairs
    under environment moves, which are identical on both sides.  `memo`
    is as in `compile_activity`."""
    check = "bisim"
    memo = {} if memo is None else memo
    comp = lambda a: compile_activity(bctx, a, mutation, memo)
    k = "bpel"
    start = (b0, s0)
    seen = {start}
    work: deque = deque([start])
    pairs = 0
    while work:
        b, s = work.popleft()
        pairs += 1
        if pairs > budget:
            return diag(check, "product-budget-exceeded", detail={"pairs": pairs})
        es = comp(b)
        bsteps = bpel_step(bctx, b, s)
        esteps = step_es(bctx.ctx, es, s, k)
        if env_rel is not None:
            for t in env_rel.successors(s):
                if (b, t) not in seen:
                    seen.add((b, t))
                    work.append((b, t))
        es_confs = {(s2, t) for _, s2, t in esteps}
        for b2, t in bsteps:
            img = comp(b2)
            if (img, t) not in es_confs:
                return fail(
                    check,
                    "bpel-step-unmatched",
                    witness={
                        "activity": render_activity(b),
                        "state": bctx.schema.state_to_dict(s),
                        "bpel_target": render_activity(b2),
                        "target_state": bctx.schema.state_to_dict(t),
                        "expected_image": render_system(img),
                        "es_steps": [
                            {"spec": render_system(s2), "state": bctx.schema.state_to_dict(t2)}
                            for _, s2, t2 in esteps
                        ],
                    },
                    node_count=pairs,
                )
            if (b2, t) not in seen:
                seen.add((b2, t))
                work.append((b2, t))
        bpel_images = {(comp(b2), t) for b2, t in bsteps}
        for lbl, s2, t in esteps:
            if (s2, t) not in bpel_images:
                return fail(
                    check,
                    "es-step-unmatched",
                    witness={
                        "activity": render_activity(b),
                        "state": bctx.schema.state_to_dict(s),
                        "es_target": render_system(s2),
                        "target_state": bctx.schema.state_to_dict(t),
                        "label": lbl.render(),
                    },
                    node_count=pairs,
                )
    return ok(check, node_count=pairs)


def bpel_computations(
    bctx: BpelCtx, b: Activity, s: tuple, rely_universe: RelDesc, max_len: int
) -> frozenset:
    """Linear-style computations of a BPEL activity: component steps from
    the BPEL semantics, environment steps from the same universe device
    used on the event-system side."""
    out = set()
    stack = [((b, s),)]
    while stack:
        trace = stack.pop()
        out.add(trace)
        if len(trace) >= max_len:
            continue
        bb, ss = trace[-1]
        for t in rely_universe.successors(ss):
            stack.append(trace + ((bb, t),))
        for b2, t in bpel_step(bctx, bb, ss):
            stack.append(trace + ((b2, t),))
    return frozenset(out)


def check_trace_equiv(
    bctx: BpelCtx,
    b0: Activity,
    s0: tuple,
    rely_universe: RelDesc,
    max_len: int,
    mutation: str | None = None,
    memo: dict | None = None,
) -> Verdict:
    """Bounded check of both inclusions of the trace-equivalence
    definition: the translation images of the BPEL computations must be
    exactly the configuration sequences of the event-system computations.
    `memo` is as in `compile_activity`."""
    check = "trace-equiv"
    memo = {} if memo is None else memo
    comp = lambda a: compile_activity(bctx, a, mutation, memo)
    btraces = bpel_computations(bctx, b0, s0, rely_universe, max_len)
    bimg = {tuple((comp(bi), si) for bi, si in tr) for tr in btraces}
    es0 = comp(b0)
    etraces = cpts_linear(bctx.ctx, es0, s0, rely_universe, max_len, k="bpel")
    eimg = etraces.conf_sequences()
    if bimg == eimg:
        return ok(check, detail={"bpel_traces": len(bimg), "es_traces": len(eimg)})
    only_b = bimg - eimg
    side = "bpel-only" if only_b else "es-only"
    w = min(only_b or eimg - bimg, key=_trace_key(bctx))
    return fail(
        check,
        side,
        witness={
            "trace": [
                {"spec": render_system(sp), "state": bctx.schema.state_to_dict(st)}
                for sp, st in w
            ]
        },
        detail={"bpel_traces": len(bimg), "es_traces": len(eimg)},
    )


def _trace_key(bctx: BpelCtx):
    def key(tr):
        return tuple((render_system(sp), repr(bctx.schema.state_to_dict(st))) for sp, st in tr)

    return key


# ----------------------------------------------------------------------
# Rendering and a seeded activity generator for injectivity experiments.
# ----------------------------------------------------------------------


def render_fe(fe: FlowEle) -> str:
    parts = []
    if fe.targets is not None:
        jc, links = fe.targets
        jcs = render_expr(jc) if jc is not None else "-"
        parts.append("TARGETS(%s; %s)" % (jcs, ", ".join(links)))
    if fe.sources is not None:
        parts.append(
            "SOURCES(%s)" % ", ".join(f"{l}: {render_expr(tc)}" for l, tc in fe.sources)
        )
    return " ".join(parts)


def _render_spec(spec: tuple) -> str:
    return "SPEC {%s}" % ", ".join(f"{v} := {render_expr(e)}" for v, e in spec)


def render_activity(a: Activity) -> str:
    if isinstance(a, ActFin):
        return "FIN"
    if isinstance(a, Invoke):
        parts = [f"INVOKE({a.ptlink}, {a.pttype}, {a.op})"]
        fe = render_fe(a.fe)
        if fe:
            parts.append(fe)
        if a.spec:
            parts.append(_render_spec(a.spec))
        for name, h in a.catches:
            parts.append(f"CATCH {name} {{ {render_activity(h)} }}")
        parts.append(f"CATCHALL {{ {render_activity(a.catchall)} }}")
        return " ".join(parts)
    if isinstance(a, Receive):
        parts = [f"RECEIVE({a.ptlink}, {a.pttype}, {a.op})"]
        fe = render_fe(a.fe)
        if fe:
            parts.append(fe)
        if a.spec:
            parts.append(_render_spec(a.spec))
        return " ".join(parts)
    if isinstance(a, Reply):
        parts = [f"REPLY({a.ptlink}, {a.pttype}, {a.op})"]
        fe = render_fe(a.fe)
        if fe:
            parts.append(fe)
        return " ".join(parts)
    if isinstance(a, Assign):
        parts = ["ASSIGN"]
        fe = render_fe(a.fe)
        if fe:
            parts.append(fe)
        parts.append(_render_spec(a.spec))
        return " ".join(parts)
    if isinstance(a, Wait):
        parts = [f"WAIT {a.time}"]
        fe = render_fe(a.fe)
        if fe:
            parts.append(fe)
        return " ".join(parts)
    if isinstance(a, Empty):
        parts = ["EMPTY"]
        fe = render_fe(a.fe)
        if fe:
            parts.append(fe)
        return " ".join(parts)
    if isinstance(a, ASeq):
        return f"SEQ {{ {render_activity(a.a)} }} {{ {render_activity(a.b)} }}"
    if isinstance(a, AIf):
        return f"IF {render_expr(a.cond)} {{ {render_activity(a.a)} }} {{ {render_activity(a.b)} }}"
    if isinstance(a, AWhile):
        return f"WHILE {render_expr(a.cond)} {{ {render_activity(a.a)} }}"
    if isinstance(a, AFlow):
        return f"FLOW {{ {render_activity(a.a)} }} {{ {render_activity(a.b)} }}"
    if isinstance(a, APick):
        return f"PICK {{ {render_handler(a.h1)} }} {{ {render_handler(a.h2)} }}"
    raise AssertionError(a)


def render_handler(h: EventHandler) -> str:
    if isinstance(h, OnMessage):
        s = f"ONMESSAGE({h.ptlink}, {h.pttype}, {h.op})"
        if h.spec:
            s += " " + _render_spec(h.spec)
        return f"{s} {{ {render_activity(h.body)} }}"
    return f"ONALARM {h.time} {{ {render_activity(h.body)} }}"


def generate_activities(
    bctx: BpelCtx, count: int, seed: int, max_depth: int = 3
) -> list[Activity]:
    """Deterministic corpus of structurally distinct activities."""
    rng = random.Random(seed)
    schema = bctx.schema
    int_vars = [
        n for n, t in zip(schema.names, schema.types)
        if isinstance(t, IntType) and n != bctx.tick_var
    ]
    assert int_vars, "generator needs at least one integer store variable"

    def gen_expr() -> Expr:
        v = rng.choice(int_vars)
        return Cmp(rng.choice(["<", "<=", "=", ">"]), Var(v), Lit(rng.randint(0, 3)))

    def gen_spec() -> tuple:
        v = rng.choice(int_vars)
        t = schema.var_type(v)
        return ((v, Lit(rng.randint(t.lo, t.hi))),)

    def gen_fe() -> FlowEle:
        targets = sources = None
        if bctx.links and rng.random() < 0.3:
            targets = (None, (rng.choice(bctx.links),))
        if bctx.links and rng.random() < 0.3:
            sources = ((rng.choice(bctx.links), Lit(True)),)
        return FlowEle(targets, sources)

    names = ["svc", "cb", "io"]
    types_ = ["Port", "Query"]
    ops = ["run", "get", "put"]

    def gen(depth: int) -> Activity:
        basic = [
            lambda: Assign(gen_fe(), gen_spec()),
            lambda: Empty(gen_fe()),
            lambda: Wait(gen_fe(), rng.randint(0, 3)),
            lambda: Reply(gen_fe(), rng.choice(names), rng.choice(types_), rng.choice(ops)),
            lambda: Receive(gen_fe(), rng.choice(names), rng.choice(types_), rng.choice(ops), gen_spec()),
        ]
        if depth <= 0:
            return rng.choice(basic)()
        structured = [
            lambda: ASeq(gen(depth - 1), gen(depth - 1)),
            lambda: AIf(gen_expr(), gen(depth - 1), gen(depth - 1)),
            lambda: AWhile(gen_expr(), gen(depth - 1)),
            lambda: AFlow(gen(depth - 1), gen(depth - 1)),
            lambda: APick(
                OnMessage(rng.choice(names), rng.choice(types_), rng.choice(ops), gen_spec(), gen(depth - 1)),
                OnAlarm(rng.randint(0, 3), gen(depth - 1)),
            ),
            lambda: Invoke(
                gen_fe(), rng.choice(names), rng.choice(types_), rng.choice(ops),
                gen_spec(),
                (("fault0", gen(depth - 1)),) if rng.random() < 0.5 else (),
                gen(depth - 1),
            ),
        ]
        return rng.choice(basic + structured)()

    out: list[Activity] = []
    seen = set()
    guard = 0
    while len(out) < count and guard < count * 50:
        guard += 1
        a = gen(max_depth)
        if a not in seen:
            try:
                check_activity(bctx, a, top=False)
            except LoadError:
                continue
            seen.add(a)
            out.append(a)
    return out
