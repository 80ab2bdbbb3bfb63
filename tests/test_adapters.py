import glob
import os

import pytest

from conftest import CORPUS
from prog_validity_oracle import prog_validity as reference_prog_validity
from rgkit import adapters, semantics
from rgkit.adapters import (
    AdapterContext,
    Await,
    AwaitDivergence,
    Basic,
    Cond,
    IMP_ADAPTER,
    PSeq,
    ProgramAdapter,
    REL_ADAPTER,
    RelAt,
    While,
    conformance_suite,
    imp_step,
    make_rel_machine,
    prog_validity,
    rel_step,
    render_program,
    terminal_states,
)
from rgkit.events import EsAtomic, EsBasic, EsIter, EsTriggered, ParallelEventSystem
from rgkit.exprs import Arith, Cmp, Lit, Var
from rgkit.modelfile import load
from rgkit.relations import RGSpec, RelDesc, RelRule, StateSet, identity_rel, solve_states, true_set
from rgkit.semantics import build_graph
from rgkit.values import DomainOverflow, IntType, LoadError, Schema

KERNEL_2T = os.path.join(os.path.dirname(__file__), "..", "perfbench", "kernel_2t.pcm")


def schema():
    return Schema([("x", IntType(0, 4), 0)])


def ctx():
    return AdapterContext(schema())


def xset(op, n, s):
    return StateSet(s, Cmp(op, Var("x"), Lit(n)))


def test_basic_single_assignment():
    s = schema()
    p = Basic((("x", Lit(1)),))
    assert imp_step(ctx(), p, s.state(x=0)) == [(None, s.state(x=1))]


@pytest.mark.parametrize("run", [
    lambda c, p, st: imp_step(c, p, st)[0][1],
    lambda c, p, st: terminal_states(c, imp_step, p, st, where="body")[0],
], ids=["imp_step", "terminal_states"])
def test_compiled_code_is_per_schema(run):
    """One IMP node run under two schemas that order the variables
    differently writes `x` where each schema puts it."""
    p = Basic((("x", Lit(1)),))
    xy = Schema([("x", IntType(0, 1), 0), ("y", IntType(0, 1), 0)])
    yx = Schema([("y", IntType(0, 1), 0), ("x", IntType(0, 1), 0)])
    for sch in (xy, yx, xy):
        assert run(AdapterContext(sch), p, sch.initial_state()) == sch.state(x=1)


def test_while_false_guard_exits_unchanged():
    s = schema()
    p = While(xset("<", 0, s), Basic((("x", Lit(1)),)))
    assert imp_step(ctx(), p, s.state(x=0)) == [(None, s.state(x=0))]


def test_while_true_unfolds_without_state_change():
    s = schema()
    body = Basic((("x", Arith("+", Var("x"), Lit(1))),))
    p = While(xset("<", 2, s), body)
    [(q, t)] = imp_step(ctx(), p, s.state(x=0))
    assert t == s.state(x=0) and q == PSeq(body, p)


def test_cond_never_changes_state():
    s = schema()
    p = Cond(xset("=", 0, s), Basic((("x", Lit(1)),)), Basic(()))
    [(q, t)] = imp_step(ctx(), p, s.state(x=3))
    assert t == s.state(x=3) and q == Basic(())


def test_await_blocked():
    s = schema()
    p = Await(xset("=", 0, s), Basic((("x", Lit(2)),)))
    assert imp_step(ctx(), p, s.state(x=1)) == []


def test_await_runs_body_atomically():
    s = schema()
    body = PSeq(Basic((("x", Lit(2)),)), Basic((("x", Arith("+", Var("x"), Lit(1))),)))
    p = Await(xset("=", 0, s), body)
    assert imp_step(ctx(), p, s.state(x=0)) == [(None, s.state(x=3))]


def test_await_divergence_detected():
    s = schema()
    body = While(true_set(s), Basic((("x", Lit(1)),)))
    p = Await(true_set(s), body)
    with pytest.raises(AwaitDivergence):
        imp_step(ctx(), p, s.state(x=0))


def test_terminal_states_with_and_without_while():
    s = schema()
    c = ctx()
    inc = Basic((("x", Arith("+", Var("x"), Lit(1))),))
    branchy = PSeq(Cond(xset("=", 0, s), inc, Basic(())), inc)
    assert terminal_states(c, imp_step, branchy, s.state(x=0), "branchy") == [s.state(x=2)]
    assert terminal_states(c, imp_step, branchy, s.state(x=1), "branchy") == [s.state(x=2)]
    count = While(xset("<", 3, s), inc)
    assert terminal_states(c, imp_step, count, s.state(x=0), "count") == [s.state(x=3)]
    # a While whose guard stays true makes the body's step graph cyclic,
    # also behind a loop-free prefix
    spin = PSeq(inc, Cond(xset("<", 4, s), While(true_set(s), Basic(())), Basic(())))
    with pytest.raises(AwaitDivergence):
        terminal_states(c, imp_step, spin, s.state(x=0), "spin")
    assert terminal_states(c, imp_step, spin, s.state(x=3), "spin") == [s.state(x=4)]


def test_multi_assignment_pre_state_semantics():
    s = Schema([("x", IntType(0, 4), 1), ("y", IntType(0, 4), 2)])
    p = Basic((("x", Var("y")), ("y", Var("x"))))
    [(q, t)] = imp_step(AdapterContext(s), p, s.initial_state())
    assert t == s.state(x=2, y=1)  # swap: both read the pre-state


def test_step_preserves_schema_conformance():
    s = schema()
    c = ctx()
    seen = [(Basic((("x", Arith("+", Var("x"), Lit(1))),)), s.state(x=0))]
    for p, st0 in seen:
        for _, t in imp_step(c, p, st0):
            assert all(
                0 <= v <= 4 for v in t
            )


def test_conformance_imp_and_rel_pass():
    for adapter in (IMP_ADAPTER, REL_ADAPTER):
        rep = conformance_suite(adapter, ctx())
        assert rep.passed, rep.violations()


def test_rel_machine_compiles_each_edge_once(monkeypatch):
    """`make_rel_machine` compiles an edge's assignments, checking them;
    stepping the machine, however often, compiles nothing."""
    s = schema()
    compiled = []
    real = adapters.compile_assigns

    def counting(schema, assigns):
        compiled.append(assigns)
        return real(schema, assigns)

    monkeypatch.setattr(adapters, "compile_assigns", counting)
    edges = [("a", true_set(s), (("x", Arith("+", Var("x"), Lit(1))),), "b"),
             ("b", true_set(s), (("x", Lit(0)),), "a"), ("b", true_set(s), (), "end")]
    m = make_rel_machine(s, "loop", edges, "end")
    assert compiled == [e[2] for e in edges]
    c, p, t = AdapterContext(s), RelAt(m, "a"), s.initial_state()
    for _ in range(4):
        [(p, t)] = rel_step(c, p, t)
        [(p, t), _] = rel_step(c, p, t)
    assert (p, t) == (RelAt(m, "a"), s.initial_state()) and len(compiled) == len(edges)
    with pytest.raises(LoadError, match="duplicate assignment target 'x'"):
        make_rel_machine(s, "dup", [("a", true_set(s), (("x", Lit(0)), ("x", Lit(1))), "end")], "end")


def test_self_loop_machine_a2_violation():
    s = schema()
    m = make_rel_machine(
        s, "bad",
        [("a", true_set(s), (), "a"), ("a", true_set(s), (), "end")],
        "end",
        allow_self_loops=True,
    )
    rep = conformance_suite(
        REL_ADAPTER, AdapterContext(s), samples=[(RelAt(m, "a"), s.initial_state())]
    )
    bad = [e for e in rep.violations() if e.assumption == "A2"]
    assert bad and bad[0].witness is not None


def test_self_loop_rejected_at_construction():
    s = schema()
    with pytest.raises(LoadError):
        make_rel_machine(s, "bad", [("a", true_set(s), (), "a")], "end")


def test_terminal_step_mutation_a1_violation():
    base = IMP_ADAPTER

    def bad_step(c, p, s):
        if p is None:
            return [(Basic(()), s)]
        return base.step(c, p, s)

    mutant = ProgramAdapter("bad-imp", bad_step, base.samples)
    rep = conformance_suite(mutant, ctx())
    assert any(e.assumption == "A1" and not e.passed for e in rep.entries)


def test_prog_validity_pass():
    s = schema()
    c = ctx()
    guar = RelDesc(
        s, "rules",
        rules=(RelRule(true_set(s), (("x", Lit(1)),)),),
        includes_identity=True,
    )
    spec = RGSpec(xset("=", 0, s), identity_rel(s), guar, xset("=", 1, s))
    v = prog_validity(c, IMP_ADAPTER, Basic((("x", Lit(1)),)), spec)
    assert v.passed


def test_prog_validity_env_breaks_post():
    s = schema()
    c = ctx()
    guar = RelDesc(
        s, "rules", rules=(RelRule(true_set(s), (("x", Lit(1)),)),), includes_identity=True
    )
    rely = RelDesc(
        s, "rules", rules=(RelRule(true_set(s), (("x", Lit(2)),)),), includes_identity=True
    )
    spec = RGSpec(xset("=", 0, s), rely, guar, xset("=", 1, s))
    v = prog_validity(c, IMP_ADAPTER, Basic((("x", Lit(1)),)), spec)
    assert v.failed and v.clause == "post-violation"
    assert v.witness["final_state"]["x"] == 2


def test_prog_validity_vacuous_unsatisfiable_pre():
    s = schema()
    spec = RGSpec(
        StateSet(s, Lit(False)), identity_rel(s), identity_rel(s), xset("=", 1, s)
    )
    v = prog_validity(ctx(), IMP_ADAPTER, Basic((("x", Lit(1)),)), spec)
    assert v.passed and v.node_count == 0


def test_rel_machine_steps():
    s = schema()
    m = make_rel_machine(
        s, "two",
        [
            ("a", true_set(s), (("x", Lit(1)),), "b"),
            ("b", xset("=", 1, s), (("x", Lit(2)),), "end"),
        ],
        "end",
    )
    c = AdapterContext(s)
    [(q1, t1)] = rel_step(c, RelAt(m, "a"), s.state(x=0))
    assert q1 == RelAt(m, "b") and t1 == s.state(x=1)
    [(q2, t2)] = rel_step(c, q1, t1)
    assert q2 is None and t2 == s.state(x=2)


# ----------------------------------------------------------------------
# prog_validity on build_graph against its old private search.
# ----------------------------------------------------------------------


def corpus_programs(m) -> list:
    """The PROGRAMs of a model, the bodies of the expanded instances of its
    basic and atomic events, and its TRG programs, without repeats."""
    out = list(m.programs.values())

    def walk(es):
        if isinstance(es, ParallelEventSystem):
            for _, sub in es.systems:
                walk(sub)
        elif isinstance(es, (EsBasic, EsAtomic)):
            out.extend(inst.body for inst in es.events.instances)
        elif isinstance(es, EsTriggered):
            if es.prog is not None:
                out.append(es.prog)
        elif isinstance(es, EsIter):
            walk(es.body)
        else:  # EsSeq, EsChoice, EsJoin
            walk(es.a)
            walk(es.b)

    for es in [*m.esystems.values(), *m.pes.values()]:
        walk(es)
    return list(dict.fromkeys(out))


def assert_matches_reference(c, adapter, p, spec) -> list:
    """prog_validity equals the reference on every field, for budgets 0-29
    and the default, with the initial states in solver order and reversed.
    Returns the verdicts."""
    try:
        inits = solve_states(spec.pre)
    except DomainOverflow:
        orders = [None]
    else:
        orders = [None, inits[::-1]]
    budgets = [{"budget": b} for b in range(30)] + [{}]
    verdicts = []
    for init_states in orders:
        for kw in budgets:
            v = prog_validity(c, adapter, p, spec, init_states=init_states, **kw)
            assert v == reference_prog_validity(c, adapter, p, spec, init_states=init_states, **kw)
            verdicts.append(v)
    return verdicts


@pytest.mark.parametrize("path", sorted(glob.glob(os.path.join(CORPUS, "*.pcm"))),
                         ids=os.path.basename)
def test_prog_validity_matches_reference_on_corpus(path):
    m = load(path)
    c = m.ctx()
    kinds = set()
    for p in corpus_programs(m):
        for spec in m.rgspecs.values():
            kinds |= {(v.result, v.clause) for v in assert_matches_reference(c.actx, c.adapter, p, spec)}
    if m.rgspecs:  # the corpus reaches every verdict but the exceptional ones
        assert kinds == {("PASS", None), ("FAIL", "guar-violation"), ("FAIL", "post-violation"),
                         ("DIAGNOSTIC", "state-explosion")}


def guar_rules(s, *values):
    """The guarantee: x may be set to any of `values`, or stay."""
    return RelDesc(s, "rules", rules=tuple(RelRule(true_set(s), (("x", Lit(v)),)) for v in values),
                   includes_identity=True)


def test_prog_validity_matches_reference_off_corpus():
    s = schema()
    c = ctx()
    x0, any_x = xset("=", 0, s), true_set(s)

    def rel_prog(*edges):
        return RelAt(make_rel_machine(s, "m", edges, "end"), "a")

    # the second successor fails guar after the first added a node
    fork = rel_prog(("a", any_x, (("x", Lit(1)),), "b"), ("a", any_x, (("x", Lit(2)),), "end"),
                    ("b", any_x, (("x", Lit(3)),), "end"))
    spec = RGSpec(x0, identity_rel(s), guar_rules(s, 1, 3), any_x)
    [*_, v] = assert_matches_reference(c, REL_ADAPTER, fork, spec)
    assert v.clause == "guar-violation" and v.node_count == 2
    assert [e["via"] for e in v.witness["trace"]] == [None, "comp"]
    # duplicate successors, passing and failing guar
    twice = rel_prog(("a", any_x, (("x", Lit(1)),), "end"), ("a", any_x, (("x", Lit(1)),), "end"))
    for guar, want in [(guar_rules(s, 1), "PASS"), (identity_rel(s), "FAIL")]:
        [*_, v] = assert_matches_reference(c, REL_ADAPTER, twice, RGSpec(x0, identity_rel(s), guar, any_x))
        assert v.result == want
    # AWAIT divergence, and an assignment out of its domain after an env step
    spin = Await(any_x, While(any_x, Basic((("x", Lit(1)),))))
    inc = Basic((("x", Arith("+", Var("x"), Lit(1))),))
    env4 = RelDesc(s, "rules", rules=(RelRule(any_x, (("x", Lit(4)),)),), includes_identity=True)
    for p, rely, want in [(spin, identity_rel(s), "await-divergence"), (inc, env4, "domain-overflow")]:
        vs = assert_matches_reference(c, IMP_ADAPTER, p, RGSpec(x0, rely, guar_rules(s, 1, 2, 3, 4), any_x))
        assert {v.clause for v in vs} == {want, "state-explosion"} and vs[-1].clause == want
    # a precondition too large to solve
    big = Schema([("x", IntType(0, 4), 0), ("y", IntType(0, 300_000), 0)])
    pre = StateSet(big, Cmp(">=", Var("y"), Lit(0)))
    [*_, v] = assert_matches_reference(AdapterContext(big), IMP_ADAPTER, Basic(()),
                                       RGSpec(pre, identity_rel(big), identity_rel(big), true_set(big)))
    assert v.clause == "state-explosion" and "cause" in v.detail


# ----------------------------------------------------------------------
# The big-step runner against the small-step search it replaced for IMP.
# ----------------------------------------------------------------------


def reference_step(c, p, s):
    """`imp_step`, except that an Await's body is run by the small-step
    search of `terminal_states` (which it takes for any step function that
    is not `imp_step`) instead of the big-step runner."""
    if isinstance(p, Await):
        if not p.cond.holds(s):
            return []
        return [(None, t) for t in terminal_states(c, reference_step, p.body, s, "AWAIT body")]
    if isinstance(p, PSeq):
        return [(p.b if q is None else PSeq(q, p.b), t) for q, t in reference_step(c, p.a, s)]
    return imp_step(c, p, s)


def outcome(fn):
    try:
        return ("ok", fn())
    except (AwaitDivergence, DomainOverflow, LoadError) as e:
        return (type(e).__name__, str(e), getattr(e, "where", None))


def successors(c, p, s) -> list:
    """`imp_step(c, p, s)`, or [] where it raises (the search stops there)."""
    res = outcome(lambda: imp_step(c, p, s))
    return res[1] if res[0] == "ok" else []


def run_both(c, p, s, where):
    """(big-step outcome, small-step outcome, configurations the small-step
    search stepped) of the body `p` from `s`."""
    visited = []

    def recording_step(c2, q, t):
        visited.append((q, t))
        return reference_step(c2, q, t)

    new = outcome(lambda: terminal_states(c, imp_step, p, s, where))
    ref = outcome(lambda: terminal_states(c, recording_step, p, s, where))
    return new, ref, visited


def corpus_bodies():
    """(adapter context, body, state, where) of every `terminal_states`
    call with `imp_step` made while exploring the corpus targets (as in
    `test_semantics.corpus_cases`, without the desk kernel) and the
    two-thread buddy benchmark model: every IMP atomic-event body and every
    Await body of a triggered program, at every state the build reaches."""
    calls: dict = {}
    orig = adapters.terminal_states

    def recording(c, step, p, s, where):
        if step is imp_step:
            calls.setdefault((p, s, where), c)
        return orig(c, step, p, s, where)

    adapters.terminal_states = semantics.terminal_states = recording
    try:
        paths = sorted(glob.glob(os.path.join(CORPUS, "*.pcm"))) + [KERNEL_2T]
        for path in paths:
            mf = load(path)
            for tname, target in {**mf.esystems, **mf.pes}.items():
                if (os.path.basename(path), tname) == ("buddy_desk.pcm", "kernel"):
                    continue
                if mf.buddy is not None:
                    ctx, inits, relies = mf.buddy.ctx, [mf.buddy.initial_state()], [mf.buddy.rely]
                else:
                    ctx, inits, relies = mf.ctx(), mf.schema.all_states(), list(mf.rels.values())
                for rely in relies:
                    try:
                        build_graph(ctx, target, None, rely, init_states=inits)
                    except (AwaitDivergence, DomainOverflow, semantics.AtomDivergence):
                        pass
    finally:
        adapters.terminal_states = semantics.terminal_states = orig
    return [(c, p, s, where) for (p, s, where), c in calls.items()]


@pytest.fixture(scope="module")
def compared():
    """Both outcomes of every corpus body, and every configuration the
    small-step searches stepped."""
    results, configs = [], []
    for c, p, s, where in corpus_bodies():
        new, ref, visited = run_both(c, p, s, where)
        results.append((p, s, new, ref))
        configs += [(c, q, t) for q, t in visited]
    return results, configs


def test_runner_matches_small_step_on_corpus(compared):
    results, _ = compared
    assert len(results) > 13_000  # 8,168 of them from the two-thread kernel
    kinds = set()
    for p, s, new, ref in results:
        assert new == ref, (render_program(p), s)
        kinds.add(new[0])
    assert "ok" in kinds


def test_imp_is_deterministic(compared):
    """The property the runner relies on: `imp_step` has at most one
    successor, at every configuration of every corpus body's search."""
    _, configs = compared
    assert len(configs) > 50_000
    for c, q, t in configs:
        assert len(successors(c, q, t)) <= 1, (render_program(q), t)


def hand_made_cases():
    """(where, body, state, expected outcome)."""
    s = schema()
    inc = Basic((("x", Arith("+", Var("x"), Lit(1))),))
    zero = Basic((("x", Lit(0)),))
    spin = While(true_set(s), Basic(()))
    relat = RelAt(make_rel_machine(s, "m", [("a", true_set(s), (), "end")], "end"), "a")

    def div(where):
        return ("AwaitDivergence", f"await-divergence in {where}", where)

    return [
        # a While that terminates, and ones that diverge
        ("count", While(xset("<", 3, s), inc), s.state(x=0), ("ok", [(3,)])),
        ("spin", PSeq(inc, spin), s.state(x=0), div("spin")),
        ("reset", While(true_set(s), Basic((("x", Lit(1)),))), s.state(x=3), div("reset")),
        ("flip", While(true_set(s), Cond(xset("=", 0, s), Basic((("x", Lit(1)),)), zero)),
         s.state(x=0), div("flip")),
        # nested loops; in the last two, inner activations repeat a head
        # state across outer iterations
        ("nested", While(xset("<", 4, s), PSeq(inc, While(xset("=", 2, s), inc))),
         s.state(x=0), ("ok", [(4,)])),
        ("nested-reset", While(xset("<", 4, s), PSeq(While(xset(">", 2, s), zero), inc)),
         s.state(x=0), div("nested-reset")),
        ("nested-spin", While(true_set(s), PSeq(While(xset("<", 2, s), inc), zero)),
         s.state(x=0), div("nested-spin")),
        # a blocking Await inside an atomic body gives no terminal
        ("blocks", PSeq(inc, Await(xset("=", 0, s), inc)), s.state(x=0), ("ok", [])),
        ("passes", PSeq(inc, Await(xset("=", 1, s), inc)), s.state(x=0), ("ok", [(2,)])),
        # a While inside an Await: the divergence is the Await's
        ("await-spin", PSeq(inc, Await(true_set(s), spin)), s.state(x=0), div("AWAIT body")),
        # the loop body overflows before the head repeats
        ("overflow", While(true_set(s), inc), s.state(x=0),
         ("DomainOverflow", "domain-overflow: x <- 5", None)),
        # a non-IMP node raises only when execution reaches it
        ("relat-untaken", Cond(xset("=", 0, s), inc, relat), s.state(x=0), ("ok", [(1,)])),
        ("relat-taken", Cond(xset("=", 0, s), inc, relat), s.state(x=1),
         ("LoadError", f"not an IMP program: {relat!r}", None)),
        # the terminal as a sequence head or a loop body has no step
        ("empty-head", PSeq(None, inc), s.state(x=0), ("ok", [])),
        ("empty-body", While(true_set(s), None), s.state(x=0), ("ok", [])),
    ]


@pytest.mark.parametrize(
    "where, p, st, expected", hand_made_cases(), ids=[c[0] for c in hand_made_cases()]
)
def test_runner_matches_small_step_on_hand_made_cases(where, p, st, expected):
    c = ctx()
    new, ref, visited = run_both(c, p, st, where)
    assert new == ref == expected
    for q, t in visited:
        assert len(successors(c, q, t)) <= 1


def test_await_divergence_in_triggered_program_names_the_await():
    """A While inside an Await of a triggered program: `imp_step` raises
    with `where == "AWAIT body"`, as the small-step search does."""
    s = schema()
    c = ctx()
    p = PSeq(Basic(()), Await(true_set(s), While(xset("<", 4, s), Basic(()))))
    [(q, t)] = imp_step(c, p, s.state(x=0))
    new = outcome(lambda: imp_step(c, q, t))
    assert new == outcome(lambda: reference_step(c, q, t))
    assert new == ("AwaitDivergence", "await-divergence in AWAIT body", "AWAIT body")
    assert imp_step(c, q, s.state(x=4)) == [(None, s.state(x=4))]
