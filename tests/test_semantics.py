import glob
import os
from collections import deque

import pytest

from conftest import CORPUS
from rgkit.adapters import AdapterContext, AwaitDivergence, Basic, IMP_ADAPTER, PSeq, While
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
    ConfigGraph,
    Ctx,
    build_graph,
    dump_graph,
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


def test_dump_graph_deterministic():
    schema, ctx = mk()
    es = EsBasic(ev(schema))
    pre = StateSet(schema, Cmp("=", Var("x"), Lit(0)))
    d1 = dump_graph(ctx, build_graph(ctx, es, pre, identity_rel(schema)))
    d2 = dump_graph(ctx, build_graph(ctx, es, pre, identity_rel(schema)))
    assert d1 == d2
    assert d1.splitlines()[0].startswith("node ")


# -- differential test of build_graph's step memo ---------------------------


def reference_build(ctx, root, init_states, rely, budget=1_000_000) -> ConfigGraph:
    """The plain BFS: `step_es` per system and `ps.update` on every step,
    with no memo.  A test oracle for `build_graph`."""
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
            succs = [(lbl, spec.update(k, sub2), t)
                     for k, sub in spec.systems for lbl, sub2, t in step_es(ctx, sub, s, k)]
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
    return ConfigGraph(nodes, comp_edges, env_edges, initials, parents)


def outcome(build):
    """The graph, or the type and text of the exception that ended the build."""
    try:
        return build()
    except (AtomDivergence, AwaitDivergence, DomainOverflow) as e:
        return type(e), str(e)


def assert_same_outcome(ctx, root, init_states, rely, budget=1_000_000, dump=True):
    """Same graph, field by field and as `dump_graph` text, or the same
    exception.  `dump=False` skips the text, which is a function of the
    nodes, edges and initials compared before it."""
    g = outcome(lambda: build_graph(ctx, root, None, rely, init_states=init_states, budget=budget))
    ref = outcome(lambda: reference_build(ctx, root, init_states, rely, budget))
    if isinstance(g, tuple) or isinstance(ref, tuple):
        assert g == ref
        return g
    assert g.nodes == ref.nodes
    assert g.comp_edges == ref.comp_edges
    assert g.env_edges == ref.env_edges
    assert g.initials == ref.initials
    assert list(g.parents.items()) == list(ref.parents.items())
    if dump:
        assert dump_graph(ctx, g) == dump_graph(ctx, ref)
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


@pytest.mark.parametrize("path, tname, rels", list(corpus_cases()))
def test_build_graph_matches_reference_on_corpus(path, tname, rels):
    mf = load(path)
    target = {**mf.esystems, **mf.pes}[tname]
    if mf.buddy is not None:
        ctx, inits, relies = mf.buddy.ctx, [mf.buddy.initial_state()], [mf.buddy.rely]
    else:
        ctx, inits, relies = mf.ctx(), mf.schema.all_states(), [mf.rels[r] for r in rels]
    for rely in relies:
        # the buddy_single kernel's dump would be about a gigabyte of text
        assert_same_outcome(ctx, target, inits, rely, dump=mf.buddy is None)


def test_build_graph_matches_reference_on_two_thread_kernel():
    dims = BuddyDims(n_levels=1, max_sz=16, threads=("t1", "t2"), alloc_sizes=(4,),
                     timeouts=(0,), free_blocks=(), tick_max=0)
    m = build_kernel_model(dims)
    g = assert_same_outcome(m.ctx, m.pes, [m.initial_state()], m.rely)
    assert g.node_count == 1138
    # the build hash-conses: equal states, and equal specs, are one object
    assert len({id(s) for _, s in g.nodes}) == len({s for _, s in g.nodes})
    assert len({id(p) for p, _ in g.nodes}) == len({p for p, _ in g.nodes})


def twin_threads(schema, bound):
    """Two identical threads that each repeat x := x + 1 while x < bound."""
    inc = Basic((("x", Arith("+", Var("x"), Lit(1))),))
    bump = EsIter(StateSet(schema, Cmp("<", Var("x"), Lit(bound))), EsBasic(ev(schema, body=inc)))
    return ParallelEventSystem((("k1", bump), ("k2", bump)))


def test_build_graph_matches_reference_on_identical_threads():
    schema, ctx = mk()
    g = assert_same_outcome(ctx, twin_threads(schema, 2), schema.all_states(), identity_rel(schema))
    assert {lbl.k for _, lbl, _ in g.comp_edges} == {"k1", "k2"}


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
