import pytest

import rgkit.bpel as bp
from rgkit.adapters import AdapterContext, IMP_ADAPTER
from rgkit.events import EsChoice, EsIter, EsJoin, EsSeq, FIN, is_fin
from rgkit.exprs import Arith, Cmp, Lit, Var
from rgkit.relations import RelDesc, RelRule, StateSet
from rgkit.semantics import Ctx
from rgkit.values import IntType, LoadError, Schema


def mk(links=("l1", "l2"), tick_max=3, store=("x", "y")):
    schema = bp.make_bpel_schema(
        [(v, IntType(0, 3), 0) for v in store], list(links), tick_max
    )
    return bp.BpelCtx(Ctx(AdapterContext(schema), IMP_ADAPTER), tuple(links))


def tick_rely(bctx, tick_max=3):
    schema = bctx.schema
    return RelDesc(
        schema, "rules",
        rules=(
            RelRule(
                StateSet(schema, Cmp("<", Var("tick"), Lit(tick_max))),
                (("tick", Arith("+", Var("tick"), Lit(1))),),
            ),
        ),
    )


def with_links(s, bctx, **flags):
    rec = list(bctx.schema.get(s, "links"))
    for l, v in flags.items():
        rec[bctx.links.index(l)] = v
    return bctx.schema.set(s, "links", tuple(rec))


def test_targets_sat_absent_is_true():
    bctx = mk()
    assert bp.targets_sat(bctx, bp.EMPTY_FE, bctx.schema.initial_state())


def test_targets_explicit_cond_still_blocks_on_links():
    bctx = mk()
    fe = bp.FlowEle((Lit(True), ("l1",)), None)
    s = bctx.schema.initial_state()
    assert not bp.targets_sat(bctx, fe, s)  # l1 unfired blocks despite cond true
    assert bp.targets_sat(bctx, fe, with_links(s, bctx, l1=True))


def test_targets_default_cond_disjunction_and_all_fired():
    bctx = mk()
    fe = bp.FlowEle((None, ("l1", "l2")), None)
    s = bctx.schema.initial_state()
    assert not bp.targets_sat(bctx, fe, s)
    s1 = with_links(s, bctx, l1=True)
    assert not bp.targets_sat(bctx, fe, s1)  # default cond true, but l2 unfired
    assert bp.targets_sat(bctx, fe, with_links(s, bctx, l1=True, l2=True))


def test_fire_sources():
    bctx = mk()
    s = bctx.schema.initial_state()
    assert bp.fire_sources(bctx, None, s) == s
    src = (("l1", Lit(True)),)
    assert bctx.schema.get(bp.fire_sources(bctx, src, s), "links") == (True, False)
    both = (("l1", Lit(True)), ("l2", Lit(False)))
    assert bctx.schema.get(bp.fire_sources(bctx, both, s), "links") == (True, False)


X_IS_1 = Cmp("=", Var("x"), Lit(1))


def test_explicit_join_condition_reads_the_state():
    bctx = mk()
    act = bp.Empty(bp.FlowEle((X_IS_1, ("l1", "l2")), None))
    fired = with_links(bctx.schema.initial_state(), bctx, l1=True, l2=True)
    s1 = bctx.schema.set(fired, "x", 1)
    assert not bp.targets_sat(bctx, act.fe, fired)  # every link fired, x = 0
    assert bp.bpel_step(bctx, act, fired) == []
    assert bp.targets_sat(bctx, act.fe, s1)
    assert bp.bpel_step(bctx, act, s1) == [(bp.ACT_FIN, s1)]
    for s in (fired, s1):
        assert bp.check_bisim(bctx, act, s, env_rel=tick_rely(bctx)).passed


def test_false_transition_condition_leaves_its_link_unfired():
    bctx = mk()
    src = (("l1", X_IS_1), ("l2", Lit(True)))
    s0 = bctx.schema.initial_state()
    assert bctx.schema.get(bp.fire_sources(bctx, src, s0), "links") == (False, True)
    s1 = bctx.schema.set(s0, "x", 1)
    assert bctx.schema.get(bp.fire_sources(bctx, src, s1), "links") == (True, True)


GUARD_SITES = {
    "join": lambda g: bp.Empty(bp.FlowEle((g, ("l1",)), None)),
    "transition": lambda g: bp.Empty(bp.FlowEle(None, (("l2", g),))),
    "if": lambda g: bp.AIf(g, bp.Empty(bp.EMPTY_FE), bp.Reply(bp.EMPTY_FE, "svc", "Port", "op")),
    "while": lambda g: bp.AWhile(g, bp.Empty(bp.EMPTY_FE)),
}


@pytest.mark.parametrize("site", sorted(GUARD_SITES))
def test_guard_cache_is_per_schema(site):
    """One activity node stepped under two schemas that put `x` at
    different indices reads `x` where each schema puts it."""
    xy, yx = mk(store=("x", "y")), mk(store=("y", "x"))
    s = with_links(xy.schema.state(x=1), xy, l1=True)  # x = 0 under yx

    def fresh(bctx):  # new nodes, so nothing compiled is cached on them
        return bp.bpel_step(bctx, GUARD_SITES[site](Cmp("=", Var("x"), Lit(1))), s)

    want_xy, want_yx = fresh(xy), fresh(yx)
    assert want_xy != want_yx
    act = GUARD_SITES[site](X_IS_1)
    assert bp.bpel_step(xy, act, s) == want_xy
    assert bp.bpel_step(yx, act, s) == want_yx
    assert bp.bpel_step(xy, act, s) == want_xy


def test_invoke_successor_count():
    bctx = mk()
    inv = bp.Invoke(
        bp.EMPTY_FE, "svc", "Port", "run", (("x", Lit(1)),),
        (("f1", bp.Assign(bp.EMPTY_FE, (("y", Lit(1)),))),),
        bp.Empty(bp.EMPTY_FE),
    )
    steps = bp.bpel_step(bctx, inv, bctx.schema.initial_state())
    assert len(steps) == 3  # success + catchall + one custom handler
    (b_suc, t_suc) = steps[0]
    assert isinstance(b_suc, bp.ActFin) and bctx.schema.get(t_suc, "x") == 1


def test_flow_fin_fin():
    bctx = mk()
    s = bctx.schema.initial_state()
    assert bp.bpel_step(bctx, bp.AFlow(bp.ACT_FIN, bp.ACT_FIN), s) == [(bp.ACT_FIN, s)]


def test_onalarm_future_deadline_fires():
    bctx = mk()
    h = bp.OnAlarm(5, bp.Empty(bp.EMPTY_FE))
    s = bctx.schema.set(bctx.schema.initial_state(), "tick", 3)
    # time > tick s, exactly as written
    assert bp.handler_step(bctx, h, s) == [(bp.Empty(bp.EMPTY_FE), s)]
    s7 = bctx.schema.set(s, "tick", 3)
    h2 = bp.OnAlarm(2, bp.Empty(bp.EMPTY_FE))
    assert bp.handler_step(bctx, h2, s7) == []


def test_wait_guard_direction_verbatim():
    bctx = mk()
    w = bp.Wait(bp.EMPTY_FE, 1)
    s0 = bctx.schema.initial_state()
    assert bp.bpel_step(bctx, w, s0) == []  # 1 < tick=0 is false
    s2 = bctx.schema.set(s0, "tick", 2)
    assert bp.bpel_step(bctx, w, s2) != []


def test_actfin_has_no_successors():
    bctx = mk()
    assert bp.bpel_step(bctx, bp.ACT_FIN, bctx.schema.initial_state()) == []


def test_compile_structural_rows():
    bctx = mk()
    a = bp.Assign(bp.EMPTY_FE, (("x", Lit(1)),))
    b = bp.Empty(bp.EMPTY_FE)
    assert bp.compile_activity(bctx, bp.ACT_FIN) == FIN
    assert bp.compile_activity(bctx, bp.ASeq(a, b)) == EsSeq(
        bp.compile_activity(bctx, a), bp.compile_activity(bctx, b)
    )
    w = bp.AWhile(Cmp("<", Var("x"), Lit(2)), a)
    img = bp.compile_activity(bctx, w)
    assert isinstance(img, EsIter) and img.body == bp.compile_activity(bctx, a)
    assert isinstance(bp.compile_activity(bctx, bp.AFlow(a, b)), EsJoin)
    pick = bp.APick(
        bp.OnMessage("svc", "P", "op", (), a), bp.OnAlarm(1, b)
    )
    assert isinstance(bp.compile_activity(bctx, pick), EsChoice)


def test_compile_event_names_carry_service_triple():
    bctx = mk()
    r = bp.Receive(bp.EMPTY_FE, "svc", "Port", "get", ())
    img = bp.compile_activity(bctx, r)
    assert img.events.instances[0].label == "Receive@svc@Port@get"


def test_compile_links_monotone():
    # a translated basic step only ever sets fired flags to true
    bctx = mk()
    act = bp.Assign(bp.FlowEle(None, (("l1", Lit(True)),)), (("x", Lit(1)),))
    from rgkit.semantics import step_es

    img = bp.compile_activity(bctx, act)
    s = bctx.schema.initial_state()
    for _, _, t in step_es(bctx.ctx, img, s, "bpel"):
        before = bctx.schema.get(s, "links")
        after = bctx.schema.get(t, "links")
        assert all((not b) or a for b, a in zip(before, after))


def test_injectivity_on_generated_corpus():
    bctx = mk()
    acts = bp.generate_activities(bctx, 200, seed=0)
    assert len(acts) == 200
    v = bp.check_compile_injective(bctx, acts)
    assert v.passed and v.detail["distinct_images"] == 200


def test_injectivity_duplicate_inputs_exempt():
    bctx = mk()
    a = bp.Assign(bp.EMPTY_FE, (("x", Lit(1)),))
    v = bp.check_compile_injective(bctx, [a, a])
    assert v.passed


def test_name_separator_mutation_breaks_injectivity():
    bctx = mk()
    # 'Receive' + ab + c  vs  'Receive' + a + bc collide without separators
    a1 = bp.Receive(bp.EMPTY_FE, "ab", "c", "op", ())
    a2 = bp.Receive(bp.EMPTY_FE, "a", "bc", "op", ())
    assert bp.check_compile_injective(bctx, [a1, a2]).passed
    v = bp.check_compile_injective(bctx, [a1, a2], mutation="name-no-separator")
    assert v.failed and v.clause == "collision"


def test_bisim_and_trace_on_small_activities():
    bctx = mk()
    s0 = bctx.schema.initial_state()
    rely = tick_rely(bctx)
    acts = [
        bp.ACT_FIN,
        bp.Assign(bp.EMPTY_FE, (("x", Lit(1)),)),
        bp.AIf(Cmp("=", Var("x"), Lit(0)),
               bp.Assign(bp.EMPTY_FE, (("x", Lit(1)),)), bp.Empty(bp.EMPTY_FE)),
        bp.AWhile(Cmp("<", Var("x"), Lit(2)),
                  bp.Assign(bp.EMPTY_FE, (("x", Arith("+", Var("x"), Lit(1))),))),
    ]
    for a in acts:
        vb = bp.check_bisim(bctx, a, s0, env_rel=rely)
        vt = bp.check_trace_equiv(bctx, a, s0, rely, 4)
        assert vb.passed and vt.passed, (a, vb.clause, vt.clause)


def test_trace_equiv_len1_always_passes():
    bctx = mk()
    a = bp.Assign(bp.EMPTY_FE, (("x", Lit(1)),))
    v = bp.check_trace_equiv(bctx, a, bctx.schema.initial_state(), tick_rely(bctx), 1)
    assert v.passed


def test_drop_fire_sources_mutation_detected_by_both():
    bctx = mk()
    s0 = bctx.schema.initial_state()
    rely = tick_rely(bctx)
    act = bp.AFlow(
        bp.Assign(bp.FlowEle(None, (("l1", Lit(True)),)), (("x", Lit(1)),)),
        bp.Empty(bp.FlowEle((None, ("l1",)), None)),
    )
    assert bp.check_bisim(bctx, act, s0, env_rel=rely).passed
    vb = bp.check_bisim(bctx, act, s0, mutation="drop-fire-sources", env_rel=rely)
    vt = bp.check_trace_equiv(bctx, act, s0, rely, 4, mutation="drop-fire-sources")
    assert vb.failed and vt.failed


def test_nested_terminator_rejected():
    bctx = mk()
    with pytest.raises(LoadError):
        bp.check_activity(bctx, bp.ASeq(bp.ACT_FIN, bp.Empty(bp.EMPTY_FE)))


def test_targets_without_links_or_cond_rejected():
    bctx = mk()
    bad = bp.Assign(bp.FlowEle((None, ()), None), (("x", Lit(1)),))
    with pytest.raises(LoadError):
        bp.check_activity(bctx, bad)


def test_undeclared_link_rejected():
    bctx = mk(links=("l1",))
    bad = bp.Assign(bp.FlowEle(None, (("l9", Lit(True)),)), ())
    with pytest.raises(LoadError):
        bp.check_activity(bctx, bad)


def test_derived_forms():
    c = Cmp("<", Var("x"), Lit(2))
    a = bp.Empty(bp.EMPTY_FE)
    r = bp.repeat_until(c, a)
    assert r == bp.ASeq(a, bp.AWhile(c, a))
    assert bp.for_each(2, 2, a) == a
    assert bp.for_each(3, 2, a) == bp.ACT_FIN
    assert bp.for_each(1, 3, a) == bp.ASeq(a, bp.ASeq(a, a))
