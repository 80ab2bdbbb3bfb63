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
from .semantics import build_graph, first_bad_edge, first_bad_node, graph_diag
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

    states, labels, node_state = graph.states, graph.labels, graph.node_state

    def state_of(idx: int) -> dict:
        return schema.state_to_dict(states[node_state[idx]])

    # The scans keep node and edge order, so the first failure and its
    # witness are those of a scan that asks at every node and edge.
    bad, _ = first_bad_node(graph, inv)
    verdicts.append(
        (
            "structural-invariants",
            ok("kernel-inv", node_count=graph.node_count)
            if bad is None
            else fail("kernel-inv", "invariant-violated", witness={"state": state_of(bad)}),
        )
    )

    def quiescent_ok(s: tuple):
        return (frag(s) and flv(s) and "quiescent") if quiescent(s) else "busy"

    bad, counts = first_bad_node(graph, quiescent_ok)
    verdicts.append(
        (
            "quiescent-properties",
            ok("kernel-quiescent", detail={"quiescent_states": counts["quiescent"]})
            if bad is None
            else fail("kernel-quiescent", "quiescent-property-violated", witness={"state": state_of(bad)}),
        )
    )

    guars = {t: g.contains for t, g in model.guarantees.items()}
    bad, counts = first_bad_edge(graph, [guars.get(lbl.k) for lbl in labels])
    if bad is None:
        v = ok("kernel-guarantee", detail={"thread_steps": sum(counts.values())})
    else:
        src, lbl, dst = graph.comp_edges[bad]
        v = fail("kernel-guarantee", "step-outside-guarantee", witness={
            "thread": lbl.k, "label": lbl.render(), "pre": state_of(src), "post": state_of(dst)})
    verdicts.append(("thread-guarantees", v))

    posts = {}  # (thread, op, size, timeout) -> postcondition
    for t in model.dims.threads:
        for sz, tmo in model.alloc_instances[t]:
            posts[(t, "alloc", sz, tmo)] = alloc_post(layout, t, sz, tmo)
        posts[(t, "free", None, None)] = free_post(layout, t)

    def service(t: str, s: tuple) -> tuple:
        """The (op, size, timeout) of thread t's last service in `s`."""
        op = layout.lvar(s, "cur_op", t)
        if op == "alloc":
            return op, layout.lvar(s, "cur_sz", t), layout.lvar(s, "cur_tmo", t)
        return op, None, None

    def post_test(t: str):
        """Thread t's test of a step that completes a service: the
        service's postcondition at the step's source state."""

        def test(s: tuple, _: tuple):
            op, sz, tmo = service(t, s)
            if op == "none" or tmo == FOREVER:  # FOREVER: invariants only
                return "skip"
            return posts[(t, op, sz, tmo)].holds(s) and op

        return test

    # A service completes exactly on the step that returns the thread's
    # event system to its iteration head; the step's source state still
    # carries ret/mempoolalloc_ret and the ghost instance markers.
    heads = {t: model.thread_systems[t] for t in model.dims.threads}
    post_tests = {t: post_test(t) for t in heads}

    def returns_to_head(li: int, p: int, q: int) -> bool:
        t, specs = labels[li].k, graph.specs
        return specs[q].get(t) == heads[t] != specs[p].get(t)

    bad, counts = first_bad_edge(graph, [post_tests.get(lbl.k) for lbl in labels], returns_to_head)
    if bad is None:
        v = ok("kernel-post", detail={"alloc": counts["alloc"], "free": counts["free"]})
    else:
        src, lbl, _ = graph.comp_edges[bad]
        op, sz, tmo = service(lbl.k, states[node_state[src]])
        v = fail("kernel-post", "postcondition-violated", witness={
            "thread": lbl.k, "service": op, "size": sz, "timeout": tmo, "state": state_of(src)})
    verdicts.append(("service-postconditions", v))

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
