"""Small-step semantics of event systems and finite configuration graphs.

`step_es` is the exact union over the transition rules: basic events
trigger without changing the state; atomic events run their body to
termination in a single labelled step; triggered events lift the adapter's
program steps; sequence, choice, join and iteration compose structurally.
`build_graph` closes a root configuration under component steps and
environment steps drawn from a constructive rely, producing the finite
quotient every semantic check in the toolkit works on.  The checks scan
it through `first_bad_node` and `first_bad_edge`, which find the first
node or comp edge, in graph order, that fails a test, asking the test
once per state id or pair of state ids; or they observe the build and
stop it at the first failure, as the program obligations do.
"""

from __future__ import annotations

from array import array
from collections import Counter, defaultdict
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from itertools import compress, count
from typing import Any

from .adapters import AwaitDivergence, Ctx, terminal_states
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
from .exprs import _memo
from .relations import NotGenerative, RelDesc, StateSet, solve_states
from .values import DomainOverflow
from .verdicts import Verdict, diag

if array("i").itemsize < 4:  # the graph columns hold ids up to 2**31 - 1
    raise RuntimeError("internal error: array('i') items are narrower than 32 bits")


class AtomDivergence(Exception):
    """An atomic event's body has a cycle with no terminal in its graph."""

    def __init__(self, label: str):
        self.label = label
        super().__init__(f"atom-divergence in {label}")


def _evt_succs(sys: EsBasic, k: Any) -> list[tuple[ActionLabel, EsTriggered]]:
    """Per instance of a basic event set, its `evt` label in context `k` and
    its triggered system."""
    memo = _memo(sys)
    out = memo.get(k)
    if out is None:
        out = memo[k] = [
            (ActionLabel("evt", inst.label, k), EsTriggered(inst.body))
            for inst in sys.events.instances
        ]
    return out


def _aevt_labels(sys: EsAtomic, k: Any) -> list[ActionLabel]:
    """Per instance of an atomic event set, its `aevt` label in context `k`."""
    memo = _memo(sys)
    out = memo.get(k)
    if out is None:
        out = memo[k] = [ActionLabel("aevt", inst.label, k) for inst in sys.events.instances]
    return out


def _trg_succ(sys: EsTriggered, k: Any, q: Any) -> tuple[ActionLabel, EsTriggered]:
    """The label and system of a triggered program's step to `q`."""
    memo = _memo(sys)
    key = (k, q)
    out = memo.get(key)
    if out is None:
        out = memo[key] = (tau(k), EsTriggered(q))
    return out


def _seq_succ(sys: EsSeq, a2: EventSystem) -> EsSeq:
    """`a2 ;; sys.b`, the sequence after its head stepped to `a2`."""
    memo = _memo(sys)
    out = memo.get(a2)
    if out is None:
        out = memo[a2] = EsSeq(a2, sys.b)
    return out


def _join_succ(sys: EsJoin, a2: EventSystem, b2: EventSystem) -> EsJoin:
    """`a2 JOIN b2`, the join after one of its sides stepped."""
    memo = _memo(sys)
    key = (a2, b2)
    out = memo.get(key)
    if out is None:
        out = memo[key] = EsJoin(a2, b2)
    return out


def _join_tau(sys: EsJoin, k: Any) -> ActionLabel:
    """The label of a finished join's step to FIN in context `k`."""
    memo = _memo(sys)
    out = memo.get(k)
    if out is None:
        out = memo[k] = tau(k)
    return out


def _iter_succ(sys: EsIter, k: Any) -> tuple[ActionLabel, EsSeq]:
    """The label of an iteration's head step in context `k`, and its
    unrolling `body ;; sys`."""
    memo = _memo(sys)
    out = memo.get(k)
    if out is None:
        out = memo[k] = (tau(k), EsSeq(sys.body, sys))
    return out


def step_es(
    ctx: Ctx, s_sys: EventSystem, s: tuple, k: Any
) -> list[tuple[ActionLabel, EventSystem, tuple]]:
    """All component steps of an event system at state `s` in context `k`.

    Deterministic as a set: rule order, then instance order, then adapter
    successor order; duplicates removed preserving first occurrence.  A
    list of fewer than two steps has no duplicates and is returned as is.

    Labels and successor systems are hash-consed on the node that builds
    them (`_evt_succs`, ..., `_iter_succ`, through `exprs._memo`), so each
    distinct successor is built and hashed once.  Nothing observable
    changes: a cached successor is the same constructor with the same
    fields as the fresh one, so it is equal and renders alike; the caches
    are keyed only by syntax and `k`, never by the state or `ctx`, so they
    hold across builds; and the rules run, and raise, in the same order.
    Graphs, dumps and witnesses keep the first object of each equality
    class, so they are unchanged."""
    out: list[tuple[ActionLabel, EventSystem, tuple]] = []

    if isinstance(s_sys, EsBasic):
        for inst, (lbl, trg) in zip(s_sys.events.instances, _evt_succs(s_sys, k)):
            if inst.guard.holds(s):
                out.append((lbl, trg, s))
    elif isinstance(s_sys, EsAtomic):
        for inst, lbl in zip(s_sys.events.instances, _aevt_labels(s_sys, k)):
            if inst.guard.holds(s):
                try:
                    terms = terminal_states(
                        ctx.actx, ctx.adapter.step, inst.body, s, where=inst.label
                    )
                except AwaitDivergence as d:
                    raise AtomDivergence(inst.label) from d
                for t in terms:
                    out.append((lbl, FIN, t))
    elif isinstance(s_sys, EsTriggered):
        if s_sys.prog is not None:
            for q, t in ctx.adapter.step(ctx.actx, s_sys.prog, s):
                lbl, trg = _trg_succ(s_sys, k, q)
                out.append((lbl, trg, t))
    elif isinstance(s_sys, EsSeq):
        for lbl, a2, t in step_es(ctx, s_sys.a, s, k):
            if is_fin(a2):
                out.append((lbl, s_sys.b, t))
            else:
                out.append((lbl, _seq_succ(s_sys, a2), t))
    elif isinstance(s_sys, EsChoice):
        out = step_es(ctx, s_sys.a, s, k) + step_es(ctx, s_sys.b, s, k)
    elif isinstance(s_sys, EsJoin):
        if is_fin(s_sys.a) and is_fin(s_sys.b):
            out.append((_join_tau(s_sys, k), FIN, s))
        else:
            for lbl, a2, t in step_es(ctx, s_sys.a, s, k):
                out.append((lbl, _join_succ(s_sys, a2, s_sys.b), t))
            for lbl, b2, t in step_es(ctx, s_sys.b, s, k):
                out.append((lbl, _join_succ(s_sys, s_sys.a, b2), t))
    elif isinstance(s_sys, EsIter):
        if s_sys.cond.holds(s):
            if not is_fin(s_sys.body):
                lbl, unrolled = _iter_succ(s_sys, k)
                out.append((lbl, unrolled, s))
        else:
            out.append((_iter_succ(s_sys, k)[0], FIN, s))
    else:
        raise AssertionError(f"not an event system: {s_sys!r}")

    if len(out) < 2:
        return out
    seen, dedup = set(), []
    for item in out:
        if item not in seen:
            seen.add(item)
            dedup.append(item)
    return dedup


class _Intern:
    """Hash-consing table: equal values get one small int, in order of
    first appearance, and share the first object seen."""

    __slots__ = ("ids", "objs")

    def __init__(self):
        self.ids: dict = {}
        self.objs: list = []

    def __call__(self, x) -> int:
        i = self.ids.get(x)
        if i is None:
            i = self.ids[x] = len(self.objs)
            self.objs.append(x)
        return i


class _Tables:
    """Intern tables and step memos of one `build_graph` call.  A step memo
    key is one int (`hi << 32 | lo`, lo < 2**32), and its value one flat
    tuple of ids or one id."""

    __slots__ = ("state", "spec", "sub", "label", "thread", "threads", "systems", "steps", "updates")

    def __init__(self):
        self.state = _Intern()
        self.spec = _Intern()
        self.sub = _Intern()
        self.label = _Intern()
        self.thread = _Intern()  # (k, sub id) -> thread id
        self.threads: dict = {}  # spec id -> (thread id, ...), in `ps.systems` order
        self.systems: dict = {}  # (thread id, ...) -> spec id
        self.steps: dict = {}  # thread id << 32 | state id -> (label id, thread2 id, t id, ...)
        self.updates: dict = {}  # spec id << 32 | thread2 id -> spec2 id


def _updated(tables: _Tables, ps: ParallelEventSystem, threads: tuple, j2: int) -> int:
    """Spec id of `ps` with the thread (k, q2) of thread id `j2` put in
    place of its system `k`.  Equal systems have equal thread-id vectors,
    so `ps.update` runs once per distinct successor system."""
    objs = tables.thread.objs
    k, q2 = objs[j2]
    vec = tuple(j2 if objs[j][0] == k else j for j in threads)
    p2 = tables.systems.get(vec)
    if p2 is None:
        p2 = tables.systems[vec] = tables.spec(ps.update(k, tables.sub.objs[q2]))
        tables.threads[p2] = vec
    return p2


def step_pes(
    ctx: Ctx,
    ps: ParallelEventSystem,
    s: tuple,
    tables: _Tables | None = None,
    p: int = 0,
    si: int = 0,
) -> list[tuple[Any, Any, Any]]:
    """Union over system identifiers of the per-system steps, with the map
    updated at the stepping identifier.

    `build_graph` passes its `tables` with `p` and `si`, the ids of `ps`
    and `s` in them, and gets back (label id, spec2 id, t id) triples.
    For the whole build the tables memoise `step_es` per thread id (the
    interned (k, sub id) pair) and state id, as one flat tuple of
    (label id, thread2 id, t id) triples, and the successor spec per
    (spec id, thread2 id) (see `build_graph`).  Without tables the call
    uses fresh ones and returns (label, system, state) triples.  Every
    system's step list is computed before the caller sees any successor."""
    fresh = tables is None
    if fresh:
        tables = _Tables()
        p, si = tables.spec(ps), tables.state(s)
    steps, updates = tables.steps, tables.updates
    sub_id, thread_id = tables.sub, tables.thread
    threads = tables.threads.get(p)
    if threads is None:
        threads = tables.threads[p] = tuple(thread_id((k, sub_id(sub))) for k, sub in ps.systems)
        tables.systems[threads] = p
    pk, out = p << 32, []
    for j in threads:
        key = j << 32 | si
        sub_steps = steps.get(key)
        if sub_steps is None:
            k, q = thread_id.objs[j]
            label_id, state_id = tables.label, tables.state
            sub_steps = steps[key] = tuple(
                i for lbl, sub2, t in step_es(ctx, sub_id.objs[q], s, k)
                for i in (label_id(lbl), thread_id((k, sub_id(sub2))), state_id(t))
            )
        it = iter(sub_steps)
        for lbl, j2, t in zip(it, it, it):
            p2 = updates.get(pk | j2)
            if p2 is None:
                p2 = updates[pk | j2] = _updated(tables, ps, threads, j2)
            out.append((lbl, p2, t))
    if fresh:
        labels, specs, states = tables.label.objs, tables.spec.objs, tables.state.objs
        return [(labels[lbl], specs[p2], states[t]) for lbl, p2, t in out]
    return out


Spec = Any  # EventSystem | ParallelEventSystem | program configurations


class Rows(Sequence):
    """Read-only rows of parallel columns: row i is the tuple of each
    column's i-th entry, looked up in the column's table where it has one.
    Rows are built on access and never stored."""

    __slots__ = ("_cols",)

    def __init__(self, *cols: tuple[array, list | None]):
        self._cols = cols  # (column, table or None), ...

    def __len__(self) -> int:
        return len(self._cols[0][0])

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        return tuple(col[i] if table is None else table[col[i]] for col, table in self._cols)

    def __iter__(self):
        return zip(*(col if table is None else map(table.__getitem__, col)
                     for col, table in self._cols))


@dataclass
class ConfigGraph:
    """Finite closure of configurations under component and env steps,
    stored as `array('i')` columns of ids into three tables.

    Node i, in BFS order, is (specs[node_spec[i]], states[node_state[i]]).
    Comp edge e is (comp_src[e], labels[comp_label[e]], comp_dst[e]) and
    env edge e is (env_src[e], env_dst[e]), in the order the search added
    them.  A node's BFS parent is `parent[i]` (-1 at a root), reached by
    the comp step labelled labels[via[i]], or by an env step if via[i] is
    -1.  Equal states, specs and labels share one id and one object.
    `nodes`, `comp_edges` and `env_edges` are read-only row views."""

    specs: list  # spec id -> spec
    states: list  # state id -> state
    labels: list  # label id -> ActionLabel
    node_spec: array
    node_state: array
    comp_src: array
    comp_label: array
    comp_dst: array
    env_src: array
    env_dst: array
    initials: array  # node indices, one per initial state
    parent: array
    via: array

    @property
    def nodes(self) -> Rows:
        return Rows((self.node_spec, self.specs), (self.node_state, self.states))

    @property
    def comp_edges(self) -> Rows:
        return Rows((self.comp_src, None), (self.comp_label, self.labels), (self.comp_dst, None))

    @property
    def env_edges(self) -> Rows:
        return Rows((self.env_src, None), (self.env_dst, None))

    @property
    def node_count(self) -> int:
        return len(self.node_spec)

    def path_to(self, idx: int) -> list[tuple[int, str | None, Any]]:
        """BFS-shortest derivation from an initial node: [(node, kind, label)]."""
        out = []
        while idx >= 0:
            p, lbl = self.parent[idx], self.via[idx]
            if p < 0:
                out.append((idx, None, None))
            elif lbl < 0:
                out.append((idx, "env", None))
            else:
                out.append((idx, "comp", self.labels[lbl]))
            idx = p
        out.reverse()
        return out


def first_bad_node(
    graph: ConfigGraph, test: Callable[[tuple], Any], finished: Sequence[bool] | None = None
) -> tuple[int | None, Counter | None]:
    """The first node, in graph order, whose state fails `test`.

    `test(state)` is asked once per state id, and a falsy value is a
    failure.  With `finished`, a flag per spec id, only the nodes of
    flagged specs are scanned.  Returns (the node's index, None), or
    (None, a Counter of the test's values over the scanned nodes)."""
    states, node_state = graph.states, graph.node_state

    def scanned(column):
        if finished is None:
            return column
        return compress(column, map(finished.__getitem__, graph.node_spec))

    counts: Counter = Counter()
    nodes_of = Counter(scanned(node_state))  # state id -> its scanned nodes, in node order
    for si, n in nodes_of.items():
        v = test(states[si])
        if not v:  # the first node of the first failing state fails first
            return next(i for i, sj in scanned(enumerate(node_state)) if sj == si), None
        counts[v] += n
    return None, counts


def first_bad_edge(
    graph: ConfigGraph,
    tests_by_label: Sequence[Callable[[tuple, tuple], Any] | None],
    edge_filter: Callable[[int, int, int], Any] | None = None,
) -> tuple[int | None, Counter | None]:
    """The first comp edge, in graph order, whose (pre, post) state pair
    fails the test of its label.

    `tests_by_label[label id]` is a test `(pre, post) -> value`, or None
    to skip the label's edges.  Each distinct test is asked once per pair
    of state ids, and a falsy value is a failure.  `edge_filter(label id,
    pre spec id, post spec id)`, if given, is asked once per such triple,
    and the edges where it is falsy are skipped.  Returns (the edge's
    index, None), or (None, a Counter of the test's values over the
    checked edges)."""
    states, node_state, node_spec = graph.states, graph.node_state, graph.node_spec
    memos: dict = {}  # test -> {pre state id << 32 | post state id: count cell of its value}
    memo_of = [None if f is None else memos.setdefault(f, {}) for f in tests_by_label]
    kept_of = [{} for _ in tests_by_label]  # label id -> {pre spec id << 32 | post spec id: filter}
    cells: dict = {}  # test value -> [number of checked edges with that value]
    for e, li, src, dst in zip(count(), graph.comp_label, graph.comp_src, graph.comp_dst):
        memo = memo_of[li]
        if memo is None:
            continue
        if edge_filter is not None:
            kept, p, q = kept_of[li], node_spec[src], node_spec[dst]
            f = kept.get(p << 32 | q)
            if f is None:
                f = kept[p << 32 | q] = edge_filter(li, p, q)
            if not f:
                continue
        si, ti = node_state[src], node_state[dst]
        cell = memo.get(si << 32 | ti)
        if cell is None:
            v = tests_by_label[li](states[si], states[ti])
            if not v:
                return e, None
            cell = memo[si << 32 | ti] = cells.setdefault(v, [0])
        cell[0] += 1
    return None, Counter({v: cell[0] for v, cell in cells.items()})


class _Stop(Exception):
    """An observer of `build_graph` stopped the build."""


def build_graph(
    ctx: Ctx,
    root: Spec,
    pre: StateSet | None,
    rely: RelDesc,
    init_states: list[tuple] | None = None,
    budget: int = 1_000_000,
    init_mode: str = "default",
    *,
    on_expand: Callable[[int, int, Spec, tuple], Any] | None = None,
    on_comp: Callable[[int, tuple, Spec, tuple], Any] | None = None,
) -> ConfigGraph:
    """Least fixed point of {initials} under comp and env edges.

    Raises DomainOverflow (wrapped by callers into a state-explosion
    diagnostic) when the node budget is exceeded.

    A check can run inside the search as an observer.  `on_expand(idx, n,
    spec, s)` runs when node idx, (spec, s), is popped, with n nodes so
    far; `on_comp(idx, s, spec2, t)` runs before each comp successor of
    node idx is added.  A truthy return stops the build and returns the
    graph built so far, without that successor; `path_to` works on it.

    The build hash-conses states, specs, labels, a parallel root's
    sub-systems and its threads, the (k, sub id) pairs, to small ints in
    tables that live for this call only (`_Tables`); a configuration is the
    pair (spec id, state id), indexed per spec id by a dict from state id
    to node.  Every id names a node's spec, state or step, so it stays far
    below 2**31 and fits the columns and the low half of a packed memo
    key.  The ids change no node, edge, parent or exception:
      * an id is the equality class of a value, and configurations were
        already told apart by equality, so (spec id, state id) pairs name
        the same configurations in the same BFS order;
      * the graph keeps the first object of each class, and equal objects
        render alike, so dumps and witnesses do not change.
    Every step is a pure function of what its memo key names, within one
    build where `ctx` and `rely` are fixed:
      * `rely.successors` runs once per state id;
      * `step_es` runs once per (thread id, state id): a thread's steps
        depend on its own sub-system and the shared state, not on the
        other threads;
      * the successor spec is memoised per (spec id, thread2 id), and
        `ps.update` runs once per distinct vector of thread ids, so equal
        successor systems are one object;
      * a call that raises stores nothing.
    Raise order: for one configuration every thread's step list is
    computed before any successor is added, then the comp successors are
    added, then the rely is stepped and the env successors added.  So a
    thread's divergence or domain overflow is never hidden behind the node
    budget, and the build stops at the same node with the same exception
    as a plain search.

    Nodes are added in the order the search discovers them and expanded
    in the same order, so the node columns are the BFS queue itself."""
    if init_states is None:
        assert pre is not None
        init_states = solve_states(pre, mode=init_mode)

    is_pes = isinstance(root, ParallelEventSystem)
    tables = _Tables()
    state_id, spec_id, label_id = tables.state, tables.spec, tables.label
    states, specs = state_id.objs, spec_id.objs

    index: defaultdict = defaultdict(dict)  # spec id -> {state id -> node idx}
    node_spec, node_state, parent, via = array("i"), array("i"), array("i"), array("i")
    comp_src, comp_label, comp_dst = array("i"), array("i"), array("i")
    env_src, env_dst, initials = array("i"), array("i"), array("i")
    env_succs: dict = {}  # state id -> [t id]

    def add(p: int, si: int, src: int, lbl: int) -> int:
        """Add the new configuration (p, si), reached from node `src` by
        label id `lbl` (-1: env step or root)."""
        idx = len(node_spec)
        if idx >= budget:
            raise DomainOverflow("<node budget>", idx + 1)
        index[p][si] = idx
        node_spec.append(p)
        node_state.append(si)
        parent.append(src)
        via.append(lbl)
        return idx

    p0 = spec_id(root)
    for s in init_states:
        si = state_id(s)
        idx = index[p0].get(si)
        initials.append(add(p0, si, -1, -1) if idx is None else idx)

    idx = 0
    try:
        while idx < len(node_spec):
            p, si = node_spec[idx], node_state[idx]
            spec, s = specs[p], states[si]
            if on_expand is not None and on_expand(idx, len(node_spec), spec, s):
                raise _Stop
            if is_pes:
                succs = step_pes(ctx, spec, s, tables, p, si)
            else:
                succs = [(label_id(lbl), spec_id(spec2), state_id(t))
                         for lbl, spec2, t in step_es(ctx, spec, s, "es")]
            for lbl, p2, t in succs:
                if on_comp is not None and on_comp(idx, s, specs[p2], states[t]):
                    raise _Stop
                jdx = index[p2].get(t)
                if jdx is None:
                    jdx = add(p2, t, idx, lbl)
                comp_src.append(idx)
                comp_label.append(lbl)
                comp_dst.append(jdx)
            env = env_succs.get(si)
            if env is None:
                env = env_succs[si] = [state_id(t) for t in rely.successors(s)]
            part = index[p]
            for t in env:
                jdx = part.get(t)
                if jdx is None:
                    jdx = add(p, t, idx, -1)
                env_src.append(idx)
                env_dst.append(jdx)
            idx += 1
    except _Stop:
        pass

    return ConfigGraph(specs, states, tables.label.objs, node_spec, node_state,
                       comp_src, comp_label, comp_dst, env_src, env_dst, initials, parent, via)


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
    if isinstance(exc, NotGenerative):
        return diag(check, "relation-not-generative", detail={"where": str(exc)})
    raise exc
