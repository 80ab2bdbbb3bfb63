"""Rely-guarantee validity, the proof-rule engine, and invariant checks.

Validity is decided exactly on finite instances: computations are the
prefix-closed paths of the configuration graph, so it suffices that every
component edge lies in the guarantee and every finished configuration
satisfies the postcondition.  FAIL verdicts carry a shortest violating
path that replays step-by-step under the semantics.

The proof-rule engine discharges one rule per outline node.  `_RULES`
gives each outline node class its rule name, the target class it needs
and a generator of its premises, program obligations and sub-proofs in
rule order; one loop, `_prove_es`, returns the first that fails.  Set and
relation premises are instantiated over a recorded universe of states
(default: the reachable states of the outer graph, which is sound for the
soundness cross-check because replay only ever visits reachable states;
`full` enumerates the schema product).  Failure reports name the rule and
premise; the engine never claims disproof, only an undischarged premise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable

from .adapters import Ctx, prog_validity
from .computations import ENV, Computation, comp_kind
from .events import (
    AtomEvtNode,
    BasicEvtNode,
    ChoiceNode,
    ConseqNode,
    EsAtomic,
    EsBasic,
    EsChoice,
    EsIter,
    EsJoin,
    EsSeq,
    EsTriggered,
    EventSystem,
    IterNode,
    JoinNode,
    Outline,
    ParallelEventSystem,
    ParNode,
    SeqNode,
    TrgEvtNode,
    is_fin,
    render_system,
)
from .relations import (
    NotGenerative,
    RGSpec,
    RelDesc,
    StateSet,
    complement,
    identity_rel,
    intersect,
    true_set,
    univ_rel,
)
from .semantics import ConfigGraph, build_graph, first_bad_edge, first_bad_node, graph_diag
from .verdicts import Verdict, diag, fail, ok


def _conf_finished(spec) -> bool:
    if isinstance(spec, ParallelEventSystem):
        return spec.all_fin()
    return is_fin(spec)


# ----------------------------------------------------------------------
# Exact validity on the configuration graph.
# ----------------------------------------------------------------------


def _witness_path(ctx: Ctx, g: ConfigGraph, idx: int, extra=None) -> Computation:
    path = g.path_to(idx)
    confs = [g.nodes[i] for i, _, _ in path]
    kinds = []
    for i, kind, lbl in path[1:]:
        kinds.append(ENV if kind == "env" else comp_kind(lbl))
    if extra is not None:
        conf, lbl = extra
        confs.append(conf)
        kinds.append(comp_kind(lbl))
    return Computation(tuple(confs), tuple(kinds))


def check_validity(
    ctx: Ctx,
    target: EventSystem | ParallelEventSystem,
    spec: RGSpec,
    init_states: list[tuple] | None = None,
    budget: int = 1_000_000,
    init_mode: str = "default",
    graph: ConfigGraph | None = None,
) -> Verdict:
    """PASS iff on the graph from (target, pre) under rely: every component
    edge's state pair is in guar, and every finished node's state is in
    post.  Exact for finite instances (computations are prefix-closed
    graph paths).  FAIL returns a shortest violating computation."""
    check = "validity"
    try:
        if graph is None:
            graph = build_graph(
                ctx, target, spec.pre, spec.rely,
                init_states=init_states, budget=budget, init_mode=init_mode,
            )
    except Exception as e:  # noqa: BLE001 - converted to typed diagnostics
        return graph_diag(check, e)

    # Both scans keep edge and node order, so the first violation and its
    # witness are those of a scan that asks at every edge and node.
    bad, _ = first_bad_edge(graph, [spec.guar.contains] * len(graph.labels))
    if bad is not None:
        src, lbl, dst = graph.comp_edges[bad]
        pre, post = graph.nodes[src], graph.nodes[dst]
        w = _witness_path(ctx, graph, src, extra=(post, lbl))
        return fail(
            check,
            "guar-violation",
            witness={
                "computation": w.render(ctx.schema),
                "pair": [ctx.schema.state_to_dict(pre[1]), ctx.schema.state_to_dict(post[1])],
                "label": lbl.render(),
            },
            node_count=graph.node_count,
            detail={"_computation": w},
        )
    finished = [_conf_finished(spec_c) for spec_c in graph.specs]  # spec id -> finished
    bad, _ = first_bad_node(graph, spec.post.holds, finished)
    if bad is not None:
        w = _witness_path(ctx, graph, bad)
        return fail(
            check,
            "post-violation",
            witness={
                "computation": w.render(ctx.schema),
                "final_state": ctx.schema.state_to_dict(graph.nodes[bad][1]),
            },
            node_count=graph.node_count,
            detail={"_computation": w},
        )
    return ok(check, node_count=graph.node_count)


def check_validity_pes(ctx: Ctx, target: ParallelEventSystem, spec: RGSpec, **kw) -> Verdict:
    """Validity over parallel-system steps; finished = every system FIN."""
    assert isinstance(target, ParallelEventSystem)
    v = check_validity(ctx, target, spec, **kw)
    v.check = "validity-pes"
    return v


# ----------------------------------------------------------------------
# Universes and the premise toolbox.
# ----------------------------------------------------------------------


@dataclass
class Universe:
    name: str
    states: list


def reachable_universe(graph: ConfigGraph) -> Universe:
    """The distinct states of the graph, in node order."""
    return Universe("reachable", [graph.states[si] for si in dict.fromkeys(graph.node_state)])


def full_universe(ctx: Ctx, budget: int = 200_000) -> Universe:
    return Universe("full", ctx.schema.all_states(budget))


def set_subset(f: StateSet, g: StateSet, u: Universe) -> tuple[bool, Any]:
    for s in u.states:
        if f.holds(s) and not g.holds(s):
            return False, s
    return True, None


def stable(f: StateSet, g: RelDesc, u: Universe) -> tuple[bool, Any]:
    """stable(f, g): f is closed under g-successors (over the universe)."""
    if not g.generative:
        raise NotGenerative(f"stability against {g.name or g.kind} needs a generator")
    for s in u.states:
        if f.holds(s):
            for t in g.successors(s):
                if not f.holds(t):
                    return False, (s, t)
    return True, None


def rel_subset(r1: RelDesc, r2: RelDesc, u: Universe) -> tuple[bool, Any]:
    """R1 <= R2 checked by generator: every successor pair of R1 is a member
    of R2.  Universal right sides short-circuit."""
    if r2.kind in ("univ", "full"):
        return True, None
    if r1.kind == "univ":
        return False, "UNIV on the left of an inclusion against a non-universal relation"
    if not r1.generative:
        raise NotGenerative(f"inclusion from {r1.name or r1.kind} needs a generator")
    for s in u.states:
        for t in r1.successors(s):
            if not r2.contains(s, t):
                return False, (s, t)
    return True, None


def id_subset(guar: RelDesc, u: Universe) -> tuple[bool, Any]:
    if guar.kind in ("univ", "full"):
        return True, None
    if guar.kind == "rules":
        return (True, None) if guar.includes_identity else (False, "includes_identity is false")
    for s in u.states:
        if not guar.contains(s, s):
            return False, s
    return True, None


@dataclass
class _ProveState:
    ctx: Ctx
    universe: Universe
    budget: int


def _prog_obligation(ps: _ProveState, prog, spec: RGSpec, where: str) -> Verdict | None:
    """Discharge a leaf program obligation with the exact semantic checker."""
    inits = [s for s in ps.universe.states if spec.pre.holds(s)]
    v = prog_validity(ps.ctx.actx, ps.ctx.adapter, prog, spec, init_states=inits, budget=ps.budget)
    if v.failed:
        return fail("prove", f"{where}:prog-validity", witness=v.witness)
    return v if v.diagnostic else None


def _check_bool(rule: str, premise: str, res: tuple[bool, Any], ctx: Ctx) -> Verdict | None:
    good, w = res
    if good:
        return None
    n = len(ctx.schema)

    def is_state(v) -> bool:
        return isinstance(v, tuple) and len(v) == n

    if isinstance(w, tuple) and len(w) == 2 and is_state(w[0]) and is_state(w[1]):
        w = [ctx.schema.state_to_dict(w[0]), ctx.schema.state_to_dict(w[1])]
    elif is_state(w):
        w = ctx.schema.state_to_dict(w)
    return fail("prove", f"{rule}:{premise}", witness=w)


# Each rule yields its premises in rule order: a `(name, (holds, witness))`
# pair for a set or relation premise, and the verdict (None when it holds)
# of a program obligation or a sub-proof.  A premise is computed only once
# every earlier one holds.


def _conseq(ps: _ProveState, target, spec: RGSpec, outline: ConseqNode):
    inner, u = outline.inner, ps.universe
    yield "pre-subset", set_subset(spec.pre, inner.pre, u)
    yield "post-subset", set_subset(inner.post, spec.post, u)
    yield "rely-subset", rel_subset(spec.rely, inner.rely, u)
    yield "guar-subset", rel_subset(inner.guar, spec.guar, u)
    yield _prove_es(ps, target, inner, outline.child)


def _basic_evt(ps: _ProveState, target: EsBasic, spec: RGSpec, outline: BasicEvtNode):
    u = ps.universe
    yield "stable(pre,rely)", stable(spec.pre, spec.rely, u)
    yield "Id-subset-guar", id_subset(spec.guar, u)
    for inst in target.events.instances:
        sub = RGSpec(intersect(spec.pre, inst.guard), spec.rely, spec.guar, spec.post)
        yield _prog_obligation(ps, inst.body, sub, f"RG-BasicEvt[{inst.label}]")


def _atom_evt(ps: _ProveState, target: EsAtomic, spec: RGSpec, outline: AtomEvtNode):
    u, schema = ps.universe, ps.ctx.schema
    yield "stable(pre,rely)", stable(spec.pre, spec.rely, u)
    yield "stable(post,rely)", stable(spec.post, spec.rely, u)
    for inst in target.events.instances:
        for v0 in [s for s in u.states if spec.pre.holds(s) and inst.guard.holds(s)]:

            def post_fn(s, v0=v0):
                return spec.guar.contains(v0, s) and spec.post.holds(s)

            sub = RGSpec(
                StateSet(schema, native=lambda s, v0=v0: s == v0, name="{V}"),
                identity_rel(schema),
                univ_rel(schema),
                StateSet(schema, native=post_fn, name="guar-image-and-post"),
            )
            yield _prog_obligation(ps, inst.body, sub, f"RG-AtomEvt[{inst.label}]")


def _trg_evt(ps: _ProveState, target: EsTriggered, spec: RGSpec, outline: TrgEvtNode):
    if target.prog is None:
        yield _shape("RG-TrgEvt", target)
    else:
        yield _prog_obligation(ps, target.prog, spec, "RG-TrgEvt")


def _seq(ps: _ProveState, target: EsSeq, spec: RGSpec, outline: SeqNode):
    yield _prove_es(ps, target.a, RGSpec(spec.pre, spec.rely, spec.guar, outline.mid), outline.left)
    yield _prove_es(ps, target.b, RGSpec(outline.mid, spec.rely, spec.guar, spec.post), outline.right)


def _choice(ps: _ProveState, target: EsChoice, spec: RGSpec, outline: ChoiceNode):
    yield _prove_es(ps, target.a, spec, outline.left)
    yield _prove_es(ps, target.b, spec, outline.right)


def _join(ps: _ProveState, target: EsJoin, spec: RGSpec, outline: JoinNode):
    sp1, sp2, u = outline.spec1, outline.spec2, ps.universe
    yield "pre-subset", set_subset(spec.pre, intersect(sp1.pre, sp2.pre), u)
    yield "post-subset", set_subset(intersect(sp1.post, sp2.post), spec.post, u)
    yield "(3) guar1-subset-guar", rel_subset(sp1.guar, spec.guar, u)
    yield "(3) guar2-subset-guar", rel_subset(sp2.guar, spec.guar, u)
    yield "(4) rely-subset-rely1", rel_subset(spec.rely, sp1.rely, u)
    yield "(4) guar2-subset-rely1", rel_subset(sp2.guar, sp1.rely, u)
    yield "(5) rely-subset-rely2", rel_subset(spec.rely, sp2.rely, u)
    yield "(5) guar1-subset-rely2", rel_subset(sp1.guar, sp2.rely, u)
    yield "(6) Id-subset-guar", id_subset(spec.guar, u)
    yield _prove_es(ps, target.a, sp1, outline.left)
    yield _prove_es(ps, target.b, sp2, outline.right)


def _iter(ps: _ProveState, target: EsIter, spec: RGSpec, outline: IterNode):
    inv, u = outline.inv, ps.universe
    yield "pre-subset-inv", set_subset(spec.pre, inv, u)
    yield "inv-outside-b-subset-post", set_subset(intersect(inv, complement(target.cond)), spec.post, u)
    yield "Id-subset-guar", id_subset(spec.guar, u)
    yield "stable(inv,rely)", stable(inv, spec.rely, u)
    yield "stable(post,rely)", stable(spec.post, spec.rely, u)
    body_spec = RGSpec(intersect(inv, target.cond), spec.rely, spec.guar, inv)
    yield _prove_es(ps, target.body, body_spec, outline.body)


def _par(ps: _ProveState, target: ParallelEventSystem, spec: RGSpec, outline: ParNode):
    specs, children, keys, u = dict(outline.specs), dict(outline.children), target.keys, ps.universe
    for k in keys:
        yield f"pre-subset-Pre({k})", set_subset(spec.pre, specs[k].pre, u)
    for k in keys:
        yield f"rely-subset-Rely({k})", rel_subset(spec.rely, specs[k].rely, u)
        yield f"Guar({k})-subset-guar", rel_subset(specs[k].guar, spec.guar, u)
    for k1 in keys:
        for k2 in keys:
            if k1 != k2:
                yield f"Guar({k1})-subset-Rely({k2})", rel_subset(specs[k1].guar, specs[k2].rely, u)

    def inter_post(s):
        return all(specs[k].post.holds(s) for k in keys)

    inter = StateSet(ps.ctx.schema, native=inter_post, name="inter-post")
    yield "inter-Post-subset-post", set_subset(inter, spec.post, u)
    for k in keys:
        yield _prove_es(ps, target.get(k), specs[k], children[k])


# Outline node class -> (rule name, the target class it needs, its premises).
_RULES: dict[type, tuple[str, Any, Callable]] = {
    ConseqNode: ("RG-Conseq", EventSystem, _conseq),
    BasicEvtNode: ("RG-BasicEvt", EsBasic, _basic_evt),
    AtomEvtNode: ("RG-AtomEvt", EsAtomic, _atom_evt),
    TrgEvtNode: ("RG-TrgEvt", EsTriggered, _trg_evt),
    SeqNode: ("RG-Seq", EsSeq, _seq),
    ChoiceNode: ("RG-Choice", EsChoice, _choice),
    JoinNode: ("RG-Join", EsJoin, _join),
    IterNode: ("RG-Iter", EsIter, _iter),
    ParNode: ("RG-ParEvtSys", ParallelEventSystem, _par),
}


def _prove_es(ps: _ProveState, target, spec: RGSpec, outline: Outline) -> Verdict | None:
    """Discharge the outline's rule on the target: the first premise,
    obligation or sub-proof that does not hold, or None."""
    rule, needs, premises = _RULES[outline.__class__]
    if not isinstance(target, needs):
        return _shape(rule, target)
    try:
        for item in premises(ps, target, spec, outline):
            v = _check_bool(rule, *item, ps.ctx) if isinstance(item, tuple) else item
            if v is not None:
                return v
    except NotGenerative as e:
        return graph_diag("prove", e)
    return None


def _shape(rule: str, target) -> Verdict:
    return diag("prove", "outline-shape", detail={"rule": rule, "target": render_system(target)})


def prove(
    ctx: Ctx,
    target: EventSystem | ParallelEventSystem,
    spec: RGSpec,
    outline: Outline,
    universe: Universe | None = None,
    budget: int = 1_000_000,
    init_mode: str = "default",
) -> Verdict:
    """Apply the outline's rule at every node and discharge the generated
    premises over the recorded universe.  PASS, or the first failed premise
    with rule name and witness.  A parallel target needs a PAR outline over
    its keys; the two diagnostics for that name no universe."""
    try:
        if universe is None:
            universe = reachable_universe(build_graph(
                ctx, target, spec.pre, spec.rely, budget=budget, init_mode=init_mode,
            ))
    except Exception as e:  # noqa: BLE001
        return graph_diag("prove", e)
    if isinstance(target, ParallelEventSystem):
        if not isinstance(outline, ParNode):
            return _shape("RG-ParEvtSys", target)
        keys = set(target.keys)
        if set(dict(outline.specs)) != keys or set(dict(outline.children)) != keys:
            return diag("prove", "outline-shape", detail={"rule": "RG-ParEvtSys", "expected": target.keys})
    v = _prove_es(_ProveState(ctx, universe, budget), target, spec, outline)
    if v is None:
        v = ok("prove")
    v.check, v.universe = "prove", universe.name
    return v


def soundness_crosscheck(
    ctx: Ctx,
    target,
    spec: RGSpec,
    outline: Outline,
    budget: int = 1_000_000,
    init_mode: str = "default",
    graph: ConfigGraph | None = None,
    proof: Verdict | None = None,
) -> Verdict:
    """prove = PASS must imply semantic validity = PASS; a FAIL here is an
    engine bug, never a model bug.  Vacuous PASS when prove fails.
    `proof` is the caller's verdict of `prove`; without it the outline is
    proved over the reachable universe of the graph.  Validity is checked
    on the graph of (target, spec.pre, spec.rely): `graph` when given,
    else one built here."""
    check = "soundness-crosscheck"
    if graph is None and (proof is None or proof.passed):
        try:
            graph = build_graph(ctx, target, spec.pre, spec.rely, budget=budget, init_mode=init_mode)
        except Exception as e:  # noqa: BLE001
            return ok(check, detail={"prove": graph_diag("prove", e).result, "vacuous": True})
    if proof is None:
        proof = prove(ctx, target, spec, outline, universe=reachable_universe(graph), budget=budget)
    if not proof.passed:
        return ok(check, detail={"prove": proof.result, "vacuous": True})
    vv = check_validity(ctx, target, spec, graph=graph)
    if vv.passed:
        return ok(check, detail={"prove": "PASS", "validity": "PASS"})
    return fail(
        check,
        "prove-passes-but-validity-fails",
        witness=vv.witness,
        detail={"validity_clause": vv.clause},
    )


def check_invariant(
    ctx: Ctx,
    target: ParallelEventSystem,
    init: StateSet,
    rely: RelDesc,
    guar: RelDesc,
    inv: StateSet,
    outline: Outline | None = None,
    post: StateSet | None = None,
    budget: int = 1_000_000,
    init_mode: str = "default",
) -> Verdict:
    """The three invariant-verification premises, plus a redundant direct
    search of the reachable graph for inv-violating states."""
    check = "invariant"
    post = post if post is not None else true_set(ctx.schema)
    spec = RGSpec(init, rely, guar, post)
    premises: dict[str, str] = {}

    try:
        graph = build_graph(ctx, target, init, rely, budget=budget, init_mode=init_mode)
    except Exception as e:  # noqa: BLE001
        return graph_diag(check, e)
    u = reachable_universe(graph)

    if outline is not None:
        p1 = prove(ctx, target, spec, outline, universe=u, budget=budget)
    else:
        p1 = check_validity(ctx, target, spec, graph=graph)
    premises["spec-satisfaction"] = p1.result

    init_states = [graph.nodes[i][1] for i in graph.initials]
    bad_init = next((s for s in init_states if not inv.holds(s)), None)
    premises["init-subset-inv"] = "FAIL" if bad_init is not None else "PASS"

    try:
        st_rely, w_rely = stable(inv, rely, u)
        st_guar, w_guar = stable(inv, guar, u)
    except NotGenerative as e:
        return graph_diag(check, e)
    premises["stable(inv,rely)"] = "PASS" if st_rely else "FAIL"
    premises["stable(inv,guar)"] = "PASS" if st_guar else "FAIL"

    direct_bad, _ = first_bad_node(graph, inv.holds)
    premises["direct-reachability"] = "FAIL" if direct_bad is not None else "PASS"

    all_premises = all(
        premises[k] == "PASS"
        for k in ("spec-satisfaction", "init-subset-inv", "stable(inv,rely)", "stable(inv,guar)")
    )
    detail = {"premises": premises, "universe": u.name, "nodes": graph.node_count}
    if all_premises:
        if direct_bad is not None:
            # Theorem premises held but a reachable state violates inv:
            # that is an engine bug by the invariant theorem.
            w = _witness_path(ctx, graph, direct_bad)
            return fail(check, "premises-pass-but-state-violates", witness={"computation": w.render(ctx.schema)}, detail=detail)
        return ok(check, node_count=graph.node_count, detail=detail)
    first_bad = next(
        k for k in ("spec-satisfaction", "init-subset-inv", "stable(inv,rely)", "stable(inv,guar)")
        if premises[k] != "PASS"
    )
    witness: Any = None
    if first_bad == "init-subset-inv" and bad_init is not None:
        witness = ctx.schema.state_to_dict(bad_init)
    elif first_bad == "stable(inv,rely)" and not st_rely:
        witness = [ctx.schema.state_to_dict(w_rely[0]), ctx.schema.state_to_dict(w_rely[1])]
    elif first_bad == "stable(inv,guar)" and not st_guar:
        witness = [ctx.schema.state_to_dict(w_guar[0]), ctx.schema.state_to_dict(w_guar[1])]
    elif first_bad == "spec-satisfaction":
        witness = p1.witness
    detail["note"] = (
        "direct reachability check passed (theorem premises are sufficient, not necessary)"
        if direct_bad is None
        else "direct reachability check also fails"
    )
    return fail(check, f"premise:{first_bad}", witness=witness, detail=detail)


def check_loop_variant(
    ctx: Ctx,
    prog,
    b: StateSet,
    rely: RelDesc,
    guar: RelDesc,
    loopinv: Callable[[int], StateSet],
    alpha_domain: Iterable[int],
    universe: Universe,
    budget: int = 1_000_000,
) -> Verdict:
    """Variant-indexed loop-invariant termination conditions:

    (1) from loopinv(a), a > 0, the body ends in some loopinv(b), b < a;
    (2) loopinv(a), a > 0 entails the loop condition;
    (3) loopinv(0) entails its negation;
    (4) rely maps loopinv(a) into the union of loopinv(b), b <= a."""
    check = "loop-variant"
    alphas = sorted(set(alpha_domain))
    schema = ctx.schema
    inv_sets = {a: loopinv(a) for a in alphas}

    for a in alphas:
        states_a = [s for s in universe.states if inv_sets[a].holds(s)]
        if a > 0:
            smaller = [inv_sets[x] for x in alphas if x < a]

            def post_fn(s, smaller=smaller):
                return any(f.holds(s) for f in smaller)

            spec = RGSpec(
                inv_sets[a],
                rely,
                guar,
                StateSet(schema, native=post_fn, name=f"exists-beta<{a}"),
            )
            v = prog_validity(ctx.actx, ctx.adapter, prog, spec, init_states=states_a, budget=budget)
            if v.diagnostic:
                return v
            if v.failed:
                return fail(check, f"condition-1[alpha={a}]", witness=v.witness, universe=universe.name)
            for s in states_a:
                if not b.holds(s):
                    return fail(
                        check, f"condition-2[alpha={a}]",
                        witness=ctx.schema.state_to_dict(s), universe=universe.name,
                    )
        else:
            for s in states_a:
                if b.holds(s):
                    return fail(
                        check, "condition-3[alpha=0]",
                        witness=ctx.schema.state_to_dict(s), universe=universe.name,
                    )
        # condition 4
        not_smaller_eq = [inv_sets[x] for x in alphas if x <= a]
        try:
            bad = next(((s, t) for s in states_a for t in rely.successors(s)
                        if not any(f.holds(t) for f in not_smaller_eq)), None)
        except NotGenerative as e:
            return graph_diag(check, e)
        if bad is not None:
            return fail(
                check, f"condition-4[alpha={a}]",
                witness=[ctx.schema.state_to_dict(w) for w in bad], universe=universe.name,
            )
    return ok(check, universe=universe.name, detail={"alphas": alphas})
