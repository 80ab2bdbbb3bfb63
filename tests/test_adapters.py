import pytest

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
    terminal_states,
)
from rgkit.exprs import Arith, Cmp, Lit, Var
from rgkit.relations import RGSpec, RelDesc, RelRule, StateSet, identity_rel, true_set
from rgkit.values import IntType, LoadError, Schema


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
