import contextlib
import functools
import glob
import os
from array import array
from collections import Counter, deque
from collections.abc import Sequence
from dataclasses import fields
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from conftest import CORPUS
from rgkit.adapters import (
    AdapterContext,
    AwaitDivergence,
    Basic,
    IMP_ADAPTER,
    PSeq,
    While,
    terminal_states,
)
from rgkit.buddy import BuddyDims, build_kernel_model
from rgkit.events import (
    ActionLabel,
    EsBasic,
    EsChoice,
    EsAtomic,
    EsIter,
    EsJoin,
    EsSeq,
    EsTriggered,
    EventSet,
    EventSpec,
    FIN,
    ParallelEventSystem,
    is_fin,
    tau,
)
from rgkit.exprs import Arith, Cmp, Lit, Var
from rgkit.modelfile import load
from rgkit.relations import RelDesc, RelRule, StateSet, identity_rel, true_set
from rgkit.semantics import (
    AtomDivergence,
    Ctx,
    _Tables,
    build_graph,
    dump_graph,
    first_bad_edge,
    first_bad_node,
    step_es,
    step_pes,
)
from rgkit.values import DomainOverflow, IntType, Schema


def mk():
    schema = Schema([("x", IntType(0, 3), 0)])
    return schema, Ctx(AdapterContext(schema), IMP_ADAPTER)


def ev(schema, label="e", guard=None, body=None):
    return EventSet(
        (
            EventSpec(
                label,
                guard if guard is not None else true_set(schema),
                body if body is not None else Basic((("x", Lit(1)),)),
            ),
        )
    )


def test_basic_event_triggers_without_state_change():
    schema, ctx = mk()
    es = EsBasic(ev(schema))
    s = schema.state(x=0)
    steps = step_es(ctx, es, s, "k")
    assert steps == [
        (ActionLabel("evt", "e", "k"), EsTriggered(Basic((("x", Lit(1)),))), s)
    ]


def test_basic_event_guard_false_no_steps():
    schema, ctx = mk()
    es = EsBasic(ev(schema, guard=StateSet(schema, Lit(False))))
    assert step_es(ctx, es, schema.state(x=0), "k") == []


def test_atomic_event_runs_to_termination():
    schema, ctx = mk()
    body = PSeq(Basic((("x", Lit(1)),)), Basic((("x", Arith("+", Var("x"), Lit(1))),)))
    es = EsAtomic(ev(schema, body=body))
    steps = step_es(ctx, es, schema.state(x=0), "k")
    assert steps == [(ActionLabel("aevt", "e", "k"), FIN, schema.state(x=2))]


def test_iter_false_guard_finishes_state_unchanged():
    schema, ctx = mk()
    it = EsIter(StateSet(schema, Cmp("<", Var("x"), Lit(2))), EsBasic(ev(schema)))
    s = schema.state(x=2)
    assert step_es(ctx, it, s, "k") == [(tau("k"), FIN, s)]


def test_iter_true_guard_unfolds_to_sequence():
    schema, ctx = mk()
    body = EsBasic(ev(schema))
    it = EsIter(StateSet(schema, Cmp("<", Var("x"), Lit(2))), body)
    s = schema.state(x=0)
    assert step_es(ctx, it, s, "k") == [(tau("k"), EsSeq(body, it), s)]


def test_join_fin_fin_stutters_state():
    schema, ctx = mk()
    s = schema.state(x=1)
    assert step_es(ctx, EsJoin(FIN, FIN), s, "k") == [(tau("k"), FIN, s)]


def test_no_steps_out_of_fin():
    schema, ctx = mk()
    for s in schema.all_states():
        assert step_es(ctx, FIN, s, "k") == []


def test_seq_fin_promotes_right_component():
    schema, ctx = mk()
    left = EsBasic(ev(schema))
    right = EsBasic(ev(schema, label="f"))
    seq = EsSeq(left, right)
    s = schema.state(x=0)
    # step the left into triggered, finish the body, then the composite
    [(_, mid, _)] = step_es(ctx, seq, s, "k")
    [( _, done, t)] = step_es(ctx, mid, s, "k")
    assert done == right and t == schema.state(x=1)


def test_choice_union_of_both_sides():
    schema, ctx = mk()
    ch = EsChoice(EsBasic(ev(schema, label="a")), EsBasic(ev(schema, label="b")))
    labels = {lbl.label for lbl, _, _ in step_es(ctx, ch, schema.state(x=0), "k")}
    assert labels == {"a", "b"}


def test_state_preserving_rules():
    schema, ctx = mk()
    body = EsBasic(ev(schema))
    it = EsIter(StateSet(schema, Cmp("<", Var("x"), Lit(2))), body)
    for s in schema.all_states():
        for sys_ in (it, EsJoin(FIN, FIN), body):
            for lbl, _, t in step_es(ctx, sys_, s, "k"):
                if lbl.kind in ("tau", "evt") and not isinstance(sys_, EsTriggered):
                    # BasicEvt, EvtIterT/F, EvtJoinFin leave the state alone
                    assert t == s


def test_step_set_deterministic():
    schema, ctx = mk()
    ch = EsChoice(EsBasic(ev(schema, label="a")), EsBasic(ev(schema, label="b")))
    s = schema.state(x=0)
    assert step_es(ctx, ch, s, "k") == step_es(ctx, ch, s, "k")


def test_step_pes_tags_by_system():
    schema, ctx = mk()
    ps = ParallelEventSystem(
        (("k1", EsBasic(ev(schema, label="a"))), ("k2", EsBasic(ev(schema, label="b"))))
    )
    steps = step_pes(ctx, ps, schema.state(x=0))
    assert {(lbl.label, lbl.k) for lbl, _, _ in steps} == {("a", "k1"), ("b", "k2")}
    for lbl, ps2, _ in steps:
        changed = [k for k, s2 in ps2.systems if s2 != ps.get(k)]
        assert changed == [lbl.k]


def test_step_pes_blocked_everywhere_empty():
    schema, ctx = mk()
    ps = ParallelEventSystem((("k1", FIN), ("k2", FIN)))
    assert step_pes(ctx, ps, schema.state(x=0)) == []


def test_build_graph_fin_root():
    schema, ctx = mk()
    pre = StateSet(schema, Cmp("<", Var("x"), Lit(2)))
    g = build_graph(ctx, FIN, pre, identity_rel(schema))
    assert g.node_count == 2 and not g.comp_edges


def test_build_graph_single_event_three_specs():
    schema, ctx = mk()
    es = EsBasic(ev(schema))
    pre = StateSet(schema, Cmp("=", Var("x"), Lit(0)))
    g = build_graph(ctx, es, pre, identity_rel(schema))
    specs = {spec for spec, _ in g.nodes}
    assert len(specs) == 3  # pending, triggered, finished


def test_env_edges_toggle_closure_and_spec_preserved():
    schema, ctx = mk()
    rely = RelDesc(
        schema, "rules",
        rules=(
            RelRule(StateSet(schema, Cmp("=", Var("x"), Lit(0))), (("x", Lit(1)),)),
            RelRule(StateSet(schema, Cmp("=", Var("x"), Lit(1))), (("x", Lit(0)),)),
        ),
    )
    es = EsBasic(ev(schema))
    pre = StateSet(schema, Cmp("=", Var("x"), Lit(0)))
    g = build_graph(ctx, es, pre, rely)
    for a, b in g.env_edges:
        assert g.nodes[a][0] == g.nodes[b][0]
    states_of_root = {s for spec, s in g.nodes if spec == es}
    assert states_of_root == {schema.state(x=0), schema.state(x=1)}


def test_node_budget_exceeded():
    schema, ctx = mk()
    es = EsBasic(ev(schema))
    pre = StateSet(schema, Cmp("=", Var("x"), Lit(0)))
    with pytest.raises(DomainOverflow):
        build_graph(ctx, es, pre, identity_rel(schema), budget=2)


def observer_cases():
    """(ctx, root, pre, rely, full graph) for an event system and a
    parallel one, both with comp and env edges."""
    m = load(os.path.join(CORPUS, "prove_suite.pcm"))
    ctx = m.ctx()
    for root in (m.esystems["s_join"], m.pes["par_xy"]):
        args = (ctx, root, m.sets["x0y0"], m.rels["rely_y"])
        yield args, build_graph(*args)


def assert_prefix_of(g, full):
    n = g.node_count
    assert list(g.nodes) == list(full.nodes)[:n]
    assert list(g.comp_edges) == list(full.comp_edges)[:len(g.comp_edges)]
    assert list(g.env_edges) == list(full.env_edges)[:len(g.env_edges)]
    assert list(g.initials) == list(full.initials)
    assert [g.path_to(i) for i in range(n)] == [full.path_to(i) for i in range(n)]


def test_build_graph_observers_that_never_stop_change_nothing():
    for args, full in observer_cases():
        expanded, comps = [], []
        g = build_graph(*args, on_expand=lambda *a: expanded.append(a),
                        on_comp=lambda *a: comps.append(a))
        assert_prefix_of(g, full)
        assert (g.node_count, len(g.comp_edges), len(g.env_edges)) == (
            full.node_count, len(full.comp_edges), len(full.env_edges))
        assert [(i, spec, s) for i, _, spec, s in expanded] == [(i, *c) for i, c in enumerate(full.nodes)]
        # node i is popped after the nodes of the parents before it are added
        assert [n for _, n, _, _ in expanded] == [
            sum(p < i for p in full.parent) for i in range(full.node_count)]
        assert comps == [(a, full.nodes[a][1], *full.nodes[b]) for a, _, b in full.comp_edges]


def test_build_graph_stops_at_on_expand():
    for args, full in observer_cases():
        for k in range(full.node_count):
            seen = []

            def on_expand(idx, n, spec, s):
                seen.append(n)
                return idx == k

            g = build_graph(*args, on_expand=on_expand)
            assert g.node_count == seen[-1] and len(seen) == k + 1
            assert all(src < k for src, _, _ in g.comp_edges)
            assert all(src < k for src, _ in g.env_edges)
            assert_prefix_of(g, full)


def test_build_graph_stops_at_on_comp_without_adding_the_successor():
    for args, full in observer_cases():
        for e in range(len(full.comp_edges)):
            calls = []
            g = build_graph(*args, on_comp=lambda *a: calls.append(a) or len(calls) > e)
            assert len(g.comp_edges) == e and len(calls) == e + 1
            src = full.comp_src[e]
            # the nodes found before edge e: the roots, the nodes that
            # earlier-expanded nodes found, and those that earlier comp
            # edges of `src` found; not the one edge e found, if any
            before = [j for j in range(full.node_count)
                      if full.parent[j] < src
                      or (full.parent[j] == src and full.via[j] >= 0
                          and any(full.comp_edges[f][::2] == (src, j) for f in range(e)))]
            assert g.node_count == len(before) and before == list(range(len(before)))
            assert_prefix_of(g, full)


def test_dump_graph_deterministic():
    schema, ctx = mk()
    es = EsBasic(ev(schema))
    pre = StateSet(schema, Cmp("=", Var("x"), Lit(0)))
    d1 = dump_graph(ctx, build_graph(ctx, es, pre, identity_rel(schema)))
    d2 = dump_graph(ctx, build_graph(ctx, es, pre, identity_rel(schema)))
    assert d1 == d2
    assert d1.splitlines()[0].startswith("node ")


# -- differential tests of step_es's and build_graph's memos ----------------


def reference_step_es(ctx, s_sys, s, k):
    """`step_es` as the rules are written: fresh labels and systems at every
    call, and the duplicate filter on every list.  A test oracle."""
    out = []
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
        for lbl, a2, t in reference_step_es(ctx, s_sys.a, s, k):
            out.append((lbl, s_sys.b if is_fin(a2) else EsSeq(a2, s_sys.b), t))
    elif isinstance(s_sys, EsChoice):
        out += reference_step_es(ctx, s_sys.a, s, k)
        out += reference_step_es(ctx, s_sys.b, s, k)
    elif isinstance(s_sys, EsJoin):
        if is_fin(s_sys.a) and is_fin(s_sys.b):
            out.append((tau(k), FIN, s))
        else:
            for lbl, a2, t in reference_step_es(ctx, s_sys.a, s, k):
                out.append((lbl, EsJoin(a2, s_sys.b), t))
            for lbl, b2, t in reference_step_es(ctx, s_sys.b, s, k):
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


def reference_build(ctx, root, init_states, rely, budget=1_000_000):
    """The plain BFS: `reference_step_es` per system and `ps.update` on
    every step, with no memo.  A test oracle for `build_graph`: returns
    plain lists (nodes, comp edges, env edges, initials) and the parent
    dict node -> (parent, kind, label)."""
    index, nodes, comp_edges, env_edges, parents, initials = {}, [], [], [], {}, []

    def intern(conf):
        if conf in index:
            return index[conf], False
        if len(nodes) >= budget:
            raise DomainOverflow("<node budget>", len(nodes) + 1)
        index[conf] = len(nodes)
        nodes.append(conf)
        return len(nodes) - 1, True

    work = deque()
    for s in init_states:
        idx, new = intern((root, s))
        initials.append(idx)
        if new:
            work.append(idx)
    while work:
        idx = work.popleft()
        spec, s = nodes[idx]
        if isinstance(spec, ParallelEventSystem):
            succs = [(lbl, spec.update(k, sub2), t) for k, sub in spec.systems
                     for lbl, sub2, t in reference_step_es(ctx, sub, s, k)]
        else:
            succs = reference_step_es(ctx, spec, s, "es")
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
    return nodes, comp_edges, env_edges, initials, parents


def reference_path(parents, idx):
    """BFS-shortest derivation of node `idx` through a parent dict."""
    out = []
    while idx in parents:
        p, kind, lbl = parents[idx]
        out.append((idx, kind, lbl))
        idx = p
    out.append((idx, None, None))
    out.reverse()
    return out


def parent_rows(g):
    """(node, parent, kind, label) of every node with a parent, read from
    the graph's parent and via columns."""
    return [(i, p, "env" if v < 0 else "comp", None if v < 0 else g.labels[v])
            for i, (p, v) in enumerate(zip(g.parent, g.via)) if p >= 0]


def outcome(build):
    """The graph (or step list), or the type and text of the exception that
    ended the build."""
    try:
        return build()
    except (AtomDivergence, AwaitDivergence, DomainOverflow) as e:
        return type(e), str(e)


def assert_same_outcome(ctx, root, init_states, rely, budget=1_000_000, dump=True):
    """Same graph, row by row through the column views, and as `dump_graph`
    text, or the same exception.  Every node's `path_to` is the
    reference's.  `dump=False` skips the text, which is a function of the
    nodes, edges and initials compared before it."""
    g = outcome(lambda: build_graph(ctx, root, None, rely, init_states=init_states, budget=budget))
    ref = outcome(lambda: reference_build(ctx, root, init_states, rely, budget))
    if isinstance(g, tuple) or len(ref) == 2:  # an (exception type, text) outcome
        assert g == ref
        return g
    nodes, comp_edges, env_edges, initials, parents = ref
    assert list(g.nodes) == nodes
    assert list(g.comp_edges) == comp_edges
    assert list(g.env_edges) == env_edges
    assert list(g.initials) == initials
    assert parent_rows(g) == [(i, *row) for i, row in parents.items()]
    assert all(g.via[i] == -1 for i in range(g.node_count) if g.parent[i] < 0)
    for i in range(g.node_count):
        assert g.path_to(i) == reference_path(parents, i), i
    if dump:
        # dump_graph reads only these four fields, so the plain lists stand in
        plain = SimpleNamespace(nodes=nodes, comp_edges=comp_edges, env_edges=env_edges,
                                initials=initials)
        assert dump_graph(ctx, g) == dump_graph(ctx, plain)
    return g


def corpus_cases():
    """(path, target, relation names) for every parallel and plain
    event-system target of the corpus: under every relation of its file,
    from every state; the BUDDY models from their initial state under
    their clock.
    The desk kernel is left out: it takes minutes to explore."""
    for path in sorted(glob.glob(os.path.join(CORPUS, "*.pcm"))):
        mf = load(path)
        name = os.path.basename(path)
        targets = {**mf.esystems, **mf.pes}
        if mf.buddy is not None:
            for tname in targets:
                if (name, tname) != ("buddy_desk.pcm", "kernel"):
                    yield pytest.param(path, tname, None, id=f"{name}:{tname}")
        else:
            for tname in targets:
                yield pytest.param(path, tname, sorted(mf.rels), id=f"{name}:{tname}")


def load_case(path, tname, rels):
    """(ctx, target, initial states, relies) of a `corpus_cases` entry."""
    mf = load(path)
    target = {**mf.esystems, **mf.pes}[tname]
    if mf.buddy is not None:
        return mf.buddy.ctx, target, [mf.buddy.initial_state()], [mf.buddy.rely]
    return mf.ctx(), target, mf.schema.all_states(), [mf.rels[r] for r in rels]


@pytest.mark.parametrize("path, tname, rels", list(corpus_cases()))
def test_build_graph_matches_reference_on_corpus(path, tname, rels):
    ctx, target, inits, relies = load_case(path, tname, rels)
    for rely in relies:
        # the buddy_single kernel's dump would be about a gigabyte of text
        assert_same_outcome(ctx, target, inits, rely, dump=rels is not None)


KERNEL_2T = os.path.join(os.path.dirname(__file__), "..", "perfbench", "kernel_2t.pcm")


def step_cases():
    """`corpus_cases` and the targets of the two-thread benchmark kernel."""
    yield from corpus_cases()
    mf = load(KERNEL_2T)
    for tname in sorted({**mf.esystems, **mf.pes}):
        yield pytest.param(KERNEL_2T, tname, None, id=f"kernel_2t.pcm:{tname}")


def thread_configs(ctx, root, inits, rely):
    """Every distinct (k, sub-system, state) of the configurations reachable
    from `inits` by `reference_step_es` and `rely`, in BFS order.  A
    configuration whose steps or rely raise is kept but not expanded, so
    builds that end in an exception are covered up to and past it."""
    seen, work, out, keys = set(), deque(), [], set()
    for s in inits:
        if (root, s) not in seen:
            seen.add((root, s))
            work.append((root, s))
    while work:
        spec, s = work.popleft()
        pes = isinstance(spec, ParallelEventSystem)
        threads = spec.systems if pes else (("es", spec),)
        succs = []
        for k, sub in threads:
            if (k, sub, s) not in keys:
                keys.add((k, sub, s))
                out.append((k, sub, s))
            try:
                succs += [(spec.update(k, sub2) if pes else sub2, t)
                          for _, sub2, t in reference_step_es(ctx, sub, s, k)]
            except (AtomDivergence, AwaitDivergence, DomainOverflow):
                pass
        try:
            succs += [(spec, t) for t in rely.successors(s)]
        except DomainOverflow:
            pass
        for conf in succs:
            if conf not in seen:
                seen.add(conf)
                work.append(conf)
    return out


@pytest.mark.parametrize("path, tname, rels", list(step_cases()))
def test_step_es_matches_reference(path, tname, rels):
    """At every reachable thread configuration, `step_es` gives the steps
    of the rules as written, in the same order, or the same exception; and
    asked again it gives the same label and successor objects."""
    ctx, target, inits, relies = load_case(path, tname, rels)
    for rely in relies:
        for k, sub, s in thread_configs(ctx, target, inits, rely):
            got = outcome(lambda: step_es(ctx, sub, s, k))
            assert got == outcome(lambda: reference_step_es(ctx, sub, s, k))
            if isinstance(got, list):
                again = step_es(ctx, sub, s, k)
                assert again == got
                assert all(a[0] is b[0] and a[1] is b[1] for a, b in zip(again, got))


def two_thread_kernel():
    """A small two-thread buddy-pool model (1,138 configurations)."""
    dims = BuddyDims(n_levels=1, max_sz=16, threads=("t1", "t2"), alloc_sizes=(4,),
                     timeouts=(0,), free_blocks=(), tick_max=0)
    return build_kernel_model(dims)


def test_build_graph_matches_reference_on_two_thread_kernel():
    m = two_thread_kernel()
    g = assert_same_outcome(m.ctx, m.pes, [m.initial_state()], m.rely)
    assert g.node_count == 1138
    # the build hash-conses: equal states, and equal specs, are one object
    assert len({id(s) for _, s in g.nodes}) == len({s for _, s in g.nodes})
    assert len({id(p) for p, _ in g.nodes}) == len({p for p, _ in g.nodes})


def test_graph_views_are_read_only_sequences():
    """`nodes`, `comp_edges` and `env_edges` are sequences of rows built
    from the columns: length, indexing from either end, slices as lists,
    and iteration in index order."""
    schema, ctx = mk()
    g = build_graph(ctx, twin_threads(schema, 2), None, identity_rel(schema),
                    init_states=schema.all_states())
    assert g.nodes[0] == (g.specs[g.node_spec[0]], g.states[g.node_state[0]])
    assert g.comp_edges[0] == (g.comp_src[0], g.labels[g.comp_label[0]], g.comp_dst[0])
    assert g.env_edges[0] == (g.env_src[0], g.env_dst[0])
    for view, n in ((g.nodes, g.node_count), (g.comp_edges, len(g.comp_src)),
                    (g.env_edges, len(g.env_src))):
        assert isinstance(view, Sequence)
        rows = list(view)
        assert len(view) == n == len(rows) > 2
        assert [view[i] for i in range(n)] == rows
        assert view[-1] == rows[-1] and view[-n] == rows[0]
        assert view[1:3] == rows[1:3] and view[::-2] == rows[::-2] and view[n:] == []
        assert list(reversed(view)) == rows[::-1]
        assert rows[1] in view and view.index(rows[1]) == rows.index(rows[1])
        for i in (n, -n - 1):
            with pytest.raises(IndexError):
                view[i]
        with pytest.raises(TypeError):
            view[0] = rows[0]


def twin_threads(schema, bound, n=2):
    """`n` identical threads k1, k2, ... that each repeat x := x + 1 while
    x < bound."""
    inc = Basic((("x", Arith("+", Var("x"), Lit(1))),))
    bump = EsIter(StateSet(schema, Cmp("<", Var("x"), Lit(bound))), EsBasic(ev(schema, body=inc)))
    return ParallelEventSystem(tuple((f"k{i}", bump) for i in range(1, n + 1)))


def test_build_graph_matches_reference_on_identical_threads():
    schema, ctx = mk()
    g = assert_same_outcome(ctx, twin_threads(schema, 2), schema.all_states(), identity_rel(schema))
    assert {lbl.k for _, lbl, _ in g.comp_edges} == {"k1", "k2"}


def test_build_graph_matches_reference_on_three_identical_threads():
    """Three threads over one sub-system share its sub id but not their
    thread ids, so their steps and successor specs stay apart."""
    schema, ctx = mk()
    ps = twin_threads(schema, 1, n=3)
    g = assert_same_outcome(ctx, ps, schema.all_states(), identity_rel(schema))
    assert {lbl.k for _, lbl, _ in g.comp_edges} == {"k1", "k2", "k3"}
    rely = RelDesc(schema, "rules", rules=(
        RelRule(StateSet(schema, Cmp("=", Var("x"), Lit(0))), (("x", Lit(1)),)),
    ))
    assert_same_outcome(ctx, ps, [schema.state(x=0)], rely)
    budget = g.node_count // 2
    result = assert_same_outcome(ctx, ps, schema.all_states(), identity_rel(schema), budget)
    assert result == (DomainOverflow, f"domain-overflow: <node budget> <- {budget + 1}")


def test_graph_columns_are_32_bit_int_arrays():
    schema, ctx = mk()
    g = build_graph(ctx, twin_threads(schema, 2), None, identity_rel(schema),
                    init_states=schema.all_states())
    columns = [f.name for f in fields(g) if isinstance(getattr(g, f.name), array)]
    assert len(columns) == 10
    assert all(getattr(g, c).typecode == "i" for c in columns)


def test_step_pes_tabled_maps_back_to_untabled():
    """At every configuration of the small two-thread kernel, the id
    triples from one set of tables shared by all calls, read back through
    the tables, are the (label, system, state) triples of a fresh call."""
    m = two_thread_kernel()
    g = build_graph(m.ctx, m.pes, None, m.rely, init_states=[m.initial_state()])
    tables = _Tables()
    labels, specs, states = tables.label.objs, tables.spec.objs, tables.state.objs
    for spec, s in g.nodes:
        p, si = tables.spec(spec), tables.state(s)
        for _ in range(2):  # the second call reads the memos
            got = step_pes(m.ctx, spec, s, tables, p, si)
            assert [(labels[lbl], specs[p2], states[t]) for lbl, p2, t in got] == \
                step_pes(m.ctx, spec, s)


@pytest.mark.parametrize("budget, message", [
    (1_000_000, "domain-overflow: x <- 4"),
    (7, "domain-overflow: <node budget> <- 8"),
])
def test_build_graph_raises_like_reference(budget, message):
    schema, ctx = mk()
    ps = twin_threads(schema, 9)
    result = assert_same_outcome(ctx, ps, [schema.state(x=0)], identity_rel(schema), budget)
    assert result == (DomainOverflow, message)


@pytest.mark.parametrize("budget, message", [
    (1_000_000, "domain-overflow: x <- 7"),
    (20, "domain-overflow: <node budget> <- 21"),
])
def test_build_graph_rely_raises_like_reference(budget, message):
    """The rely is stepped once per distinct state.  One that overflows at
    x = 2, a state first reached after 21 nodes (several of them sharing a
    state), ends the build at the same node as a plain search."""
    schema, ctx = mk()
    x_is = lambda v: StateSet(schema, Cmp("=", Var("x"), Lit(v)))  # noqa: E731
    rely = RelDesc(schema, "rules", rules=(
        RelRule(x_is(0), (("x", Lit(1)),)),
        RelRule(x_is(2), (("x", Arith("+", Var("x"), Lit(5))),)),
    ))
    ps = twin_threads(schema, 3)
    result = assert_same_outcome(ctx, ps, [schema.state(x=0)], rely, budget)
    assert result == (DomainOverflow, message)


def test_build_graph_steps_every_thread_before_adding_successors():
    """At the root, thread k1's step would go over a budget of one node and
    thread k2's atomic event diverges.  Every thread's steps are computed
    before any successor is added, so the divergence is what ends the
    build, as in a plain search."""
    schema, ctx = mk()
    spin = EsAtomic(ev(schema, label="spin", body=While(true_set(schema), Basic(()))))
    ps = ParallelEventSystem((("k1", EsBasic(ev(schema))), ("k2", spin)))
    result = assert_same_outcome(ctx, ps, [schema.state(x=0)], identity_rel(schema), budget=1)
    assert result == (AtomDivergence, "atom-divergence in spin")


@functools.cache
def scan_graphs():
    """The graph of every corpus case under each of its relations that
    builds, and the small two-thread kernel's."""
    graphs = []
    for case in corpus_cases():
        path, tname, rels = case.values
        if rels is None:  # a BUDDY model; the two-thread kernel stands for them
            continue
        ctx, target, inits, relies = load_case(path, tname, rels)
        for rely in relies:
            with contextlib.suppress(AtomDivergence, AwaitDivergence, DomainOverflow):
                graphs.append(build_graph(ctx, target, None, rely, init_states=inits))
    m = two_thread_kernel()
    graphs.append(build_graph(m.ctx, m.pes, None, m.rely, init_states=[m.initial_state()]))
    return graphs


class Asked:
    """A test that answers from a table and records what it was asked."""

    def __init__(self, answer):
        self.answer, self.asked = answer, []

    def __call__(self, *args):
        self.asked.append(args)
        return self.answer(*args)


def reference_first_bad_node(graph, test, finished=None):
    """`first_bad_node` as a plain scan that asks at every node."""
    counts = Counter()
    for i, (p, si) in enumerate(zip(graph.node_spec, graph.node_state)):
        if finished is None or finished[p]:
            v = test(graph.states[si])
            if not v:
                return i, None
            counts[v] += 1
    return None, counts


def reference_first_bad_edge(graph, tests_by_label, edge_filter=None):
    """`first_bad_edge` as a plain scan that asks at every comp edge."""
    counts = Counter()
    spec, state = graph.node_spec, graph.node_state
    for e, (src, li, dst) in enumerate(zip(graph.comp_src, graph.comp_label, graph.comp_dst)):
        test = tests_by_label[li]
        if test is None or edge_filter and not edge_filter(li, spec[src], spec[dst]):
            continue
        v = test(graph.states[state[src]], graph.states[state[dst]])
        if not v:
            return e, None
        counts[v] += 1
    return None, counts


SCAN_GRAPHS = st.deferred(lambda: st.sampled_from(scan_graphs()) | st.just(scan_graphs()[-1]))
PALETTES = st.lists(st.sampled_from([True, "a", "b", 1]), min_size=1, max_size=3)  # passing values
FALSY = st.sampled_from([False, None, 0, ""])


@settings(deadline=None, max_examples=150)
@given(data=st.data())
def test_first_bad_node_matches_plain_scan(data):
    """The first failing node and the counts are those of a scan that asks
    at every node; the test is asked once per state id it reaches."""
    g = data.draw(SCAN_GRAPHS)  # the two-thread kernel in about half the examples
    palette = data.draw(PALETTES)
    values = [palette[si % len(palette)] for si in range(len(g.states))]
    for si in data.draw(st.sets(st.integers(0, len(g.states) - 1), max_size=3)):
        values[si] = data.draw(FALSY)
    answer = dict(zip(g.states, values))
    finished = data.draw(st.none() | st.lists(st.booleans(), min_size=len(g.specs),
                                              max_size=len(g.specs)))
    test, plain = Asked(answer.__getitem__), Asked(answer.__getitem__)
    got = first_bad_node(g, test, finished)
    assert got == reference_first_bad_node(g, plain, finished)
    assert len(test.asked) == len(set(test.asked)) and set(test.asked) == set(plain.asked)


@settings(deadline=None, max_examples=150)
@given(data=st.data())
def test_first_bad_edge_matches_plain_scan(data):
    """The first failing comp edge and the counts are those of a scan that
    asks at every edge; each test is asked once per pair of states, and
    the filter once per (label id, pre spec id, post spec id)."""
    g = data.draw(SCAN_GRAPHS)  # the two-thread kernel in about half the examples
    pairs = sorted({(g.node_state[a], g.node_state[b]) for a, b in zip(g.comp_src, g.comp_dst)})
    tables = []
    for _ in range(2):  # two relations, each with its own failing pairs
        palette = data.draw(PALETTES)
        answer = {(g.states[si], g.states[ti]): palette[(si + 2 * ti) % len(palette)]
                  for si, ti in pairs}
        for si, ti in data.draw(st.lists(st.sampled_from(pairs), max_size=4) if pairs
                                else st.just([])):
            answer[g.states[si], g.states[ti]] = data.draw(FALSY)
        tables.append(answer)
    which = data.draw(st.lists(st.sampled_from([None, 0, 1]), min_size=len(g.labels),
                               max_size=len(g.labels)))
    dropped = data.draw(st.sets(st.integers(0, len(g.specs) - 1), max_size=3))
    use_filter = data.draw(st.booleans())

    def run(scan):
        tests = [Asked(lambda s, t, a=a: a[s, t]) for a in tables]
        keep = Asked(lambda li, p, q: p not in dropped and (q + li) % 3 and "kept")
        got = scan(g, [None if w is None else tests[w] for w in which], keep if use_filter else None)
        return got, tests, keep

    (got, tests, keep), (want, plain, plain_keep) = run(first_bad_edge), run(reference_first_bad_edge)
    assert got == want
    for asked, plain_asked in zip(tests + [keep], plain + [plain_keep]):
        assert len(asked.asked) == len(set(asked.asked)) and set(asked.asked) == set(plain_asked.asked)
