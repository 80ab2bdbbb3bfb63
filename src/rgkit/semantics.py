"""Small-step semantics of event systems and finite configuration graphs.

`step_es` is the exact union over the transition rules: basic events
trigger without changing the state; atomic events run their body to
termination in a single labelled step; triggered events lift the adapter's
program steps; sequence, choice, join and iteration compose structurally.
`build_graph` closes a root configuration under component steps and
environment steps drawn from a constructive rely, producing the finite
quotient every semantic check in the toolkit works on.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any

from .adapters import AdapterContext, AwaitDivergence, ProgramAdapter, terminal_states
from .events import (
    ActionLabel,
    EsAtomic,
    EsBasic,
    EsChoice,
    EsIter,
    EsJoin,
    EsSeq,
    EsTriggered,
    EventSystem,
    FIN,
    ParallelEventSystem,
    is_fin,
    render_system,
    tau,
)
from .relations import RelDesc, StateSet, solve_states
from .values import DomainOverflow
from .verdicts import Verdict, diag


class AtomDivergence(Exception):
    """An atomic event's body has a cycle with no terminal in its graph."""

    def __init__(self, label: str):
        self.label = label
        super().__init__(f"atom-divergence in {label}")


@dataclass(frozen=True)
class Ctx:
    """Static configuration shared by all checks on one model."""

    actx: AdapterContext
    adapter: ProgramAdapter

    @property
    def schema(self):
        return self.actx.schema


def step_es(
    ctx: Ctx, s_sys: EventSystem, s: tuple, k: Any
) -> list[tuple[ActionLabel, EventSystem, tuple]]:
    """All component steps of an event system at state `s` in context `k`.

    Deterministic as a set: rule order, then instance order, then adapter
    successor order; duplicates removed preserving first occurrence."""
    out: list[tuple[ActionLabel, EventSystem, tuple]] = []

    if isinstance(s_sys, EsBasic):
        for inst in s_sys.events.instances:
            if inst.guard.holds(s):
                out.append((ActionLabel("evt", inst.label, k), EsTriggered(inst.body), s))
    elif isinstance(s_sys, EsAtomic):
        for inst in s_sys.events.instances:
            if inst.guard.holds(s):
                try:
                    terms = terminal_states(
                        ctx.actx, ctx.adapter.step, inst.body, s, where=inst.label
                    )
                except AwaitDivergence as d:
                    raise AtomDivergence(inst.label) from d
                for t in terms:
                    out.append((ActionLabel("aevt", inst.label, k), FIN, t))
    elif isinstance(s_sys, EsTriggered):
        if s_sys.prog is not None:
            for q, t in ctx.adapter.step(ctx.actx, s_sys.prog, s):
                out.append((tau(k), EsTriggered(q), t))
    elif isinstance(s_sys, EsSeq):
        for lbl, a2, t in step_es(ctx, s_sys.a, s, k):
            if is_fin(a2):
                out.append((lbl, s_sys.b, t))
            else:
                out.append((lbl, EsSeq(a2, s_sys.b), t))
    elif isinstance(s_sys, EsChoice):
        for lbl, a2, t in step_es(ctx, s_sys.a, s, k):
            out.append((lbl, a2, t))
        for lbl, b2, t in step_es(ctx, s_sys.b, s, k):
            out.append((lbl, b2, t))
    elif isinstance(s_sys, EsJoin):
        if is_fin(s_sys.a) and is_fin(s_sys.b):
            out.append((tau(k), FIN, s))
        else:
            for lbl, a2, t in step_es(ctx, s_sys.a, s, k):
                out.append((lbl, EsJoin(a2, s_sys.b), t))
            for lbl, b2, t in step_es(ctx, s_sys.b, s, k):
                out.append((lbl, EsJoin(s_sys.a, b2), t))
    elif isinstance(s_sys, EsIter):
        if s_sys.cond.holds(s):
            if not is_fin(s_sys.body):
                out.append((tau(k), EsSeq(s_sys.body, s_sys), s))
        else:
            out.append((tau(k), FIN, s))
    else:
        raise AssertionError(f"not an event system: {s_sys!r}")

    seen, dedup = set(), []
    for item in out:
        if item not in seen:
            seen.add(item)
            dedup.append(item)
    return dedup


def step_pes(
    ctx: Ctx,
    ps: ParallelEventSystem,
    s: tuple,
    steps: dict | None = None,
    updates: dict | None = None,
) -> list[tuple[ActionLabel, ParallelEventSystem, tuple]]:
    """Union over system identifiers of the per-system steps, with the map
    updated at the stepping identifier.

    `steps` memoises `(k, sub, s) -> step_es(ctx, sub, s, k)` and `updates`
    memoises `(ps, k, sub2) -> ps.update(k, sub2)`; `build_graph` passes
    the same two dicts to every call of one build (see its docstring).
    Without them each call starts from empty ones."""
    if steps is None:
        steps = {}
    if updates is None:
        updates = {}
    out = []
    for k, sub in ps.systems:
        key = (k, sub, s)
        sub_steps = steps.get(key)
        if sub_steps is None:
            sub_steps = steps[key] = step_es(ctx, sub, s, k)
        for lbl, sub2, t in sub_steps:
            ukey = (ps, k, sub2)
            ps2 = updates.get(ukey)
            if ps2 is None:
                ps2 = updates[ukey] = ps.update(k, sub2)
            out.append((lbl, ps2, t))
    return out


Spec = Any  # EventSystem | ParallelEventSystem | program configurations


@dataclass
class ConfigGraph:
    """Finite closure of configurations under component and env steps."""

    node_index: dict  # (spec, state) -> int, insertion = BFS order
    nodes: list  # idx -> (spec, state)
    comp_edges: list  # (src_idx, ActionLabel, dst_idx)
    env_edges: list  # (src_idx, dst_idx)
    initials: list  # node indices
    parents: dict = field(default_factory=dict)  # idx -> (parent_idx, kind, label)

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    def path_to(self, idx: int) -> list[tuple[int, str | None, Any]]:
        """BFS-shortest derivation from an initial node: [(node, kind, label)]."""
        out = []
        cur: int | None = idx
        while cur is not None:
            parent = self.parents.get(cur)
            if parent is None:
                out.append((cur, None, None))
                cur = None
            else:
                p, kind, lbl = parent
                out.append((cur, kind, lbl))
                cur = p
        out.reverse()
        return out


def build_graph(
    ctx: Ctx,
    root: Spec,
    pre: StateSet | None,
    rely: RelDesc,
    init_states: list[tuple] | None = None,
    budget: int = 1_000_000,
    init_mode: str = "default",
) -> ConfigGraph:
    """Least fixed point of {initials} under comp and env edges.

    Raises DomainOverflow (wrapped by callers into a state-explosion
    diagnostic) when the node budget is exceeded.

    For a parallel root, per-system steps and map updates are memoised in
    two dicts that live for this call only (`step_pes`).  A thread's steps
    depend on its own sub-system and the shared state, not on the other
    threads, so many configurations repeat a (k, sub-system, state) key.
    The memo changes no node, edge, parent or exception:
      * within one build `ctx` is fixed and `step_es` is a pure function
        of (sub-system, state, k);
      * the memo keys are never looser than the `node_index` keys: two
        sub-systems or states that compare equal already make the same
        configuration;
      * a `step_es` call that raises stores nothing, so the build stops
        at the same node with the same exception.
    Each distinct update (ps, k, sub-system) builds its successor
    `ParallelEventSystem` once, and every configuration it reaches shares
    that object."""
    if init_states is None:
        assert pre is not None
        init_states = solve_states(pre, mode=init_mode)

    is_pes = isinstance(root, ParallelEventSystem)

    node_index: dict = {}
    nodes: list = []
    comp_edges: list = []
    env_edges: list = []
    parents: dict = {}
    initials: list = []

    def intern(conf) -> tuple[int, bool]:
        idx = node_index.get(conf)
        if idx is not None:
            return idx, False
        idx = len(nodes)
        if idx >= budget:
            raise DomainOverflow("<node budget>", idx + 1)
        node_index[conf] = idx
        nodes.append(conf)
        return idx, True

    steps: dict = {}
    updates: dict = {}
    work: deque = deque()
    for s in init_states:
        idx, new = intern((root, s))
        initials.append(idx)
        if new:
            work.append(idx)

    while work:
        idx = work.popleft()
        spec, s = nodes[idx]
        if is_pes:
            succs = step_pes(ctx, spec, s, steps, updates)
        else:
            succs = step_es(ctx, spec, s, "es")
        for lbl, spec2, t in succs:
            jdx, new = intern((spec2, t))
            comp_edges.append((idx, lbl, jdx))
            if new:
                parents[jdx] = (idx, "comp", lbl)
                work.append(jdx)
        for t in rely.successors(s):
            jdx, new = intern((spec, t))
            env_edges.append((idx, jdx))
            if new:
                parents[jdx] = (idx, "env", None)
                work.append(jdx)

    return ConfigGraph(node_index, nodes, comp_edges, env_edges, initials, parents)


def render_conf(ctx: Ctx, conf) -> str:
    spec, s = conf
    return f"({render_system(spec)}, {ctx.schema.render_state(s)})"


def dump_graph(ctx: Ctx, g: ConfigGraph) -> str:
    """One node/edge per line, lexicographic by serialized configuration."""
    names = {i: render_conf(ctx, c) for i, c in enumerate(g.nodes)}
    lines = [f"node {names[i]}" for i in sorted(names, key=lambda i: names[i])]
    lines += sorted(
        f"comp {names[a]} -[{lbl.render()}]-> {names[b]}" for a, lbl, b in g.comp_edges
    )
    lines += sorted(f"env {names[a]} -> {names[b]}" for a, b in g.env_edges)
    lines += sorted(f"init {names[i]}" for i in g.initials)
    return "\n".join(lines) + "\n"


def graph_diag(check: str, exc: Exception) -> Verdict:
    if isinstance(exc, AtomDivergence):
        return diag(check, "atom-divergence", detail={"label": exc.label})
    if isinstance(exc, AwaitDivergence):
        return diag(check, "await-divergence", detail={"where": exc.where})
    if isinstance(exc, DomainOverflow):
        if exc.var == "<node budget>":
            return diag(check, "state-explosion", detail={"nodes": exc.value})
        return diag(check, "domain-overflow", detail={"assignment": f"{exc.var} <- {exc.value!r}"})
    raise exc
