"""Reachability analysis of the buddy kernel corpus model.

Explores the closed parallel system from the well-formed initial state
(all-FREE roots, empty wait queue) under the clock-advance rely and checks:

  * every reachable state satisfies the structural invariants;
  * every quiescent reachable state (no thread holding an ALLOCATING or
    FREEING marker) has no four FREE partners and consistent free lists;
  * every component step of a thread system lies in that thread's
    guarantee relation;
  * at every configuration where a thread system has returned to its
    iteration head, the last completed service's postcondition holds
    (allocation posts per timeout mode; FOREVER instances are checked for
    invariants only since they need not terminate).
"""

from __future__ import annotations

from dataclasses import dataclass

from .buddy import (
    BuddyDims,
    BuddyModel,
    FOREVER,
    alloc_post,
    build_kernel_model,
    free_post,
    partition_theorem_oracle,
)
from .semantics import build_graph, graph_diag
from .values import LoadError
from .verdicts import Verdict, fail, ok


@dataclass
class KernelAnalysis:
    model: BuddyModel
    node_count: int
    verdicts: list[tuple[str, Verdict]]

    @property
    def passed(self) -> bool:
        return all(v.passed for _, v in self.verdicts)


def analyze_kernel(model: BuddyModel, budget: int = 1_000_000) -> KernelAnalysis:
    layout = model.layout
    schema = layout.schema
    verdicts: list[tuple[str, Verdict]] = []

    try:
        graph = build_graph(
            model.ctx,
            model.pes,
            None,
            model.rely,
            init_states=[model.initial_state()],
            budget=budget,
        )
    except Exception as e:  # noqa: BLE001
        v = graph_diag("kernel-reachability", e)
        return KernelAnalysis(model, 0, [("kernel", v)])

    inv = model.invariants["inv"]
    quiescent = model.invariants["quiescent"]
    frag = model.invariants["no_partner_fragmentation"]
    flv = model.invariants["free_list_valid"]

    states, labels = graph.states, graph.labels
    node_spec, node_state = graph.node_spec, graph.node_state

    def state_witness(idx: int) -> dict:
        return {"state": schema.state_to_dict(states[node_state[idx]])}

    # Equal states share one state id, so the predicates are memoised by
    # state id (and spec id); the scans keep node and edge order, so the
    # first failure and its witness are those of a full scan.
    inv_ok: set = set()
    bad = None
    for i, si in enumerate(node_state):
        if si not in inv_ok:
            if not inv(states[si]):
                bad = i
                break
            inv_ok.add(si)
    verdicts.append(
        (
            "structural-invariants",
            ok("kernel-inv", node_count=graph.node_count)
            if bad is None
            else fail("kernel-inv", "invariant-violated", witness=state_witness(bad)),
        )
    )

    bad = None
    quiescent_count = 0
    is_quiescent: dict = {}  # state id -> quiescent(state)
    for i, si in enumerate(node_state):
        q = is_quiescent.get(si)
        if q is None:
            s = states[si]
            q = is_quiescent[si] = quiescent(s)
            if q and (not frag(s) or not flv(s)):
                quiescent_count += 1
                bad = i
                break
        if q:
            quiescent_count += 1
    verdicts.append(
        (
            "quiescent-properties",
            ok("kernel-quiescent", detail={"quiescent_states": quiescent_count})
            if bad is None
            else fail("kernel-quiescent", "quiescent-property-violated", witness=state_witness(bad)),
        )
    )

    guar_bad = None
    checked_edges = 0
    in_guar = {t: set() for t in model.guarantees}  # thread -> pre << 32 | post state ids
    # label id -> (its thread's guarantee, the pairs already found in it)
    label_guar = [(model.guarantees.get(lbl.k), in_guar.get(lbl.k)) for lbl in labels]
    for li, src, dst in zip(graph.comp_label, graph.comp_src, graph.comp_dst):
        g, seen = label_guar[li]
        if g is None:
            continue
        checked_edges += 1
        si, ri = node_state[src], node_state[dst]
        key = si << 32 | ri
        if key not in seen:
            if not g.contains(states[si], states[ri]):
                guar_bad = (labels[li], src, dst)
                break
            seen.add(key)
    verdicts.append(
        (
            "thread-guarantees",
            ok("kernel-guarantee", detail={"thread_steps": checked_edges})
            if guar_bad is None
            else fail(
                "kernel-guarantee",
                "step-outside-guarantee",
                witness={
                    "thread": guar_bad[0].k,
                    "label": guar_bad[0].render(),
                    "pre": schema.state_to_dict(states[node_state[guar_bad[1]]]),
                    "post": schema.state_to_dict(states[node_state[guar_bad[2]]]),
                },
            ),
        )
    )

    posts = {}
    for t in model.dims.threads:
        for sz, tmo in model.alloc_instances[t]:
            posts[(t, "alloc", sz, tmo)] = alloc_post(layout, t, sz, tmo)
        posts[(t, "free")] = free_post(layout, t)

    # A service completes exactly on the step that returns the thread's
    # event system to its iteration head; the step's source state still
    # carries ret/mempoolalloc_ret and the ghost instance markers.
    heads = {t: model.thread_systems[t] for t in model.dims.threads}
    label_thread = [lbl.k if lbl.k in heads else None for lbl in labels]
    at_head: dict = {}  # spec id -> threads whose sub-system is at its head

    def threads_at_head(p: int) -> frozenset:
        out = at_head.get(p)
        if out is None:
            spec = graph.specs[p]
            out = at_head[p] = frozenset(t for t, h in heads.items() if spec.get(t) == h)
        return out

    post_bad = None
    head_hits = {"alloc": 0, "free": 0}
    for li, src, dst in zip(graph.comp_label, graph.comp_src, graph.comp_dst):
        t = label_thread[li]
        if t is None:
            continue
        if t not in threads_at_head(node_spec[dst]) or t in threads_at_head(node_spec[src]):
            continue
        s = states[node_state[src]]
        op = layout.lvar(s, "cur_op", t)
        if op == "none":
            continue
        if op == "alloc":
            sz = layout.lvar(s, "cur_sz", t)
            tmo = layout.lvar(s, "cur_tmo", t)
            if tmo == FOREVER:
                continue  # non-termination mode: invariants only
            head_hits["alloc"] += 1
            if not posts[(t, "alloc", sz, tmo)].holds(s):
                post_bad = (t, op, sz, tmo, src)
                break
        else:
            head_hits["free"] += 1
            if not posts[(t, "free")].holds(s):
                post_bad = (t, op, None, None, src)
                break
    verdicts.append(
        (
            "service-postconditions",
            ok("kernel-post", detail=dict(head_hits))
            if post_bad is None
            else fail(
                "kernel-post",
                "postcondition-violated",
                witness={
                    "thread": post_bad[0],
                    "service": post_bad[1],
                    "size": post_bad[2],
                    "timeout": post_bad[3],
                    **state_witness(post_bad[4]),
                },
            ),
        )
    )

    return KernelAnalysis(model, graph.node_count, verdicts)


def run_buddy_demo(rep, dims: BuddyDims, budget: int = 1_000_000, workers: int = 1) -> None:
    """CLI entry: oracle first, then the full reachability analysis."""
    oracle = partition_theorem_oracle(
        BuddyDims(n_max=dims.n_max, n_levels=dims.n_levels, max_sz=dims.max_sz),
        workers=workers,
    )
    rep.emit(oracle, f"pool({dims.n_max},{dims.n_levels})")

    try:
        model = build_kernel_model(dims)
    except ValueError as e:  # dimensions the kernel model does not accept
        raise LoadError(str(e)) from e
    analysis = analyze_kernel(model, budget=budget)
    for name, v in analysis.verdicts:
        v.node_count = v.node_count or analysis.node_count
        rep.emit(v, name)
