import functools
import json

import pytest

import record_prove_sweep
from conftest import corpus_path
from paper_defs import computation_valid, in_assume, in_commit
from rgkit import checker
from rgkit.adapters import AdapterContext, Basic, IMP_ADAPTER
from rgkit.checker import (
    BasicEvtNode,
    ChoiceNode,
    ConseqNode,
    IterNode,
    JoinNode,
    ParNode,
    SeqNode,
    Universe,
    check_invariant,
    check_loop_variant,
    check_validity,
    check_validity_pes,
    full_universe,
    prove,
    soundness_crosscheck,
    stable,
)
from rgkit.computations import Computation
from rgkit.events import (
    EsBasic,
    EsIter,
    EsJoin,
    EsSeq,
    EventSet,
    EventSpec,
    FIN,
    ParallelEventSystem,
)
from rgkit.exprs import Arith, BoolOp, Cmp, Lit, Var
from rgkit.relations import (
    RGSpec,
    RelDesc,
    RelRule,
    StateSet,
    identity_rel,
    true_set,
)
from rgkit.modelfile import load
from rgkit.semantics import Ctx, build_graph
from rgkit.values import IntType, Schema


def mk():
    schema = Schema([("x", IntType(0, 4), 0), ("y", IntType(0, 4), 0)])
    return schema, Ctx(AdapterContext(schema), IMP_ADAPTER)


def sset(schema, op, var, n):
    return StateSet(schema, Cmp(op, Var(var), Lit(n)))


def rel(schema, assigns, guard=None, identity=True):
    return RelDesc(
        schema,
        "rules",
        rules=tuple(RelRule(g or true_set(schema), a) for g, a in [(guard, assigns)]),
        includes_identity=identity,
    )


def event(schema, label, body):
    return EsBasic(EventSet((EventSpec(label, true_set(schema), body),)))


def set1_event(schema):
    return event(schema, "e", Basic((("x", Lit(1)),)))


def test_in_assume_and_commit():
    schema, ctx = mk()
    es = set1_event(schema)
    s0, s2 = schema.state(x=0), schema.state(x=2)
    pre = sset(schema, "=", "x", 0)
    rely = identity_rel(schema)
    single = Computation(((es, s0),), ())
    assert in_assume(single, pre, rely)
    assert not in_assume(Computation(((es, s2),), ()), pre, rely)
    env_bad = Computation(((es, s0), (es, s2)), (("env",),))
    assert not in_assume(env_bad, pre, rely)
    # component-only computation: rely is irrelevant
    from rgkit.semantics import step_es

    [(lbl, es2, t)] = step_es(ctx, es, s0, "es")
    [(lbl2, es3, t2)] = step_es(ctx, es2, t, "es")  # body runs: x becomes 1
    comp_only = Computation(
        ((es, s0), (es2, t), (es3, t2)), (("comp", lbl), ("comp", lbl2))
    )
    assert in_assume(comp_only, pre, rely)
    guar = rel(schema, (("x", Lit(1)),))
    post = sset(schema, "=", "x", 1)
    assert in_commit(ctx, comp_only, guar, post)
    # the body step changes the state, so an identity guarantee rejects it
    assert not in_commit(ctx, comp_only, identity_rel(schema), post)
    fin_bad = Computation(((FIN, s2),), ())
    assert not in_commit(ctx, fin_bad, guar, post)


def test_check_validity_pass():
    schema, ctx = mk()
    spec = RGSpec(
        sset(schema, "=", "x", 0),
        identity_rel(schema),
        rel(schema, (("x", Lit(1)),)),
        sset(schema, "=", "x", 1),
    )
    v = check_validity(ctx, set1_event(schema), spec)
    assert v.passed


def test_check_validity_env_to_fail_with_replayable_witness():
    schema, ctx = mk()
    rely = rel(schema, (("x", Lit(2)),))
    spec = RGSpec(
        sset(schema, "=", "x", 0),
        rely,
        rel(schema, (("x", Lit(1)),)),
        sset(schema, "=", "x", 1),
    )
    v = check_validity(ctx, set1_event(schema), spec)
    assert v.failed and v.clause == "post-violation"
    assert v.witness["final_state"]["x"] == 2
    w = v.detail["_computation"]
    good, why = computation_valid(ctx, w)
    assert good, why
    assert in_assume(w, spec.pre, spec.rely)
    assert not spec.post.holds(w.confs[-1][1])


def test_check_validity_vacuous_pre():
    schema, ctx = mk()
    spec = RGSpec(
        StateSet(schema, Lit(False)), identity_rel(schema), identity_rel(schema),
        sset(schema, "=", "x", 1),
    )
    v = check_validity(ctx, set1_event(schema), spec)
    assert v.passed and v.node_count == 0


def test_check_validity_monotone_in_rely():
    schema, ctx = mk()
    guar = rel(schema, (("x", Lit(1)),))
    post = sset(schema, "<=", "x", 1)
    small = RGSpec(sset(schema, "=", "x", 0), identity_rel(schema), guar, post)
    big = RGSpec(sset(schema, "=", "x", 0), rel(schema, (("x", Lit(3)),)), guar, post)
    assert check_validity(ctx, set1_event(schema), small).passed
    assert check_validity(ctx, set1_event(schema), big).failed


def test_check_validity_pes_degenerate_matches_es():
    schema, ctx = mk()
    es = set1_event(schema)
    ps = ParallelEventSystem((("k1", es),))
    spec = RGSpec(
        sset(schema, "=", "x", 0),
        identity_rel(schema),
        rel(schema, (("x", Lit(1)),)),
        sset(schema, "=", "x", 1),
    )
    assert check_validity_pes(ctx, ps, spec).passed is check_validity(ctx, es, spec).passed


def test_check_validity_pes_disjoint_counters():
    schema, ctx = mk()
    guar = RelDesc(
        schema, "rules",
        rules=(
            RelRule(true_set(schema), (("x", Lit(1)),)),
            RelRule(true_set(schema), (("y", Lit(1)),)),
        ),
        includes_identity=True,
    )
    ps = ParallelEventSystem(
        (("k1", set1_event(schema)), ("k2", event(schema, "f", Basic((("y", Lit(1)),)))))
    )
    spec = RGSpec(
        StateSet(schema, BoolOp("AND", Cmp("=", Var("x"), Lit(0)), Cmp("=", Var("y"), Lit(0)))),
        identity_rel(schema),
        guar,
        StateSet(schema, BoolOp("AND", Cmp("=", Var("x"), Lit(1)), Cmp("=", Var("y"), Lit(1)))),
    )
    assert check_validity_pes(ctx, ps, spec).passed
    # racing unguarded writes violating a too-small guarantee
    small_guar = rel(schema, (("x", Lit(1)),))
    spec2 = RGSpec(spec.pre, spec.rely, small_guar, spec.post)
    v = check_validity_pes(ctx, ps, spec2)
    assert v.failed and v.clause == "guar-violation"


def test_stable():
    schema, ctx = mk()
    u = full_universe(ctx)
    f = sset(schema, "=", "x", 0)
    assert stable(f, identity_rel(schema), u) == (True, None)
    g = rel(schema, (("x", Lit(1)),))
    good, w = stable(f, g, u)
    assert not good and w[0][0] == 0 and w[1][0] == 1


def test_prove_counting_loop_and_crosscheck(build_calls):
    schema, ctx = mk()
    inc = event(schema, "inc", Basic((("x", Arith("+", Var("x"), Lit(1))),)))
    # guard inside the event: x < 3
    inc = EsBasic(
        EventSet(
            (EventSpec("inc", sset(schema, "<", "x", 3), Basic((("x", Arith("+", Var("x"), Lit(1))),))),)
        )
    )
    it = EsIter(sset(schema, "<", "x", 3), inc)
    inv = sset(schema, "<=", "x", 3)
    guar = RelDesc(
        schema, "rules",
        rules=(RelRule(sset(schema, "<=", "x", 2), (("x", Arith("+", Var("x"), Lit(1))),)),),
        includes_identity=True,
    )
    spec = RGSpec(sset(schema, "=", "x", 0), identity_rel(schema), guar, sset(schema, "=", "x", 3))
    outline = IterNode(inv, BasicEvtNode())
    v = prove(ctx, it, spec, outline)
    assert v.passed, (v.clause, v.witness)
    build_calls.clear()
    assert soundness_crosscheck(ctx, it, spec, outline).passed
    assert len(build_calls) == 1


def test_prove_conseq_reflexive_reduces_to_child():
    schema, ctx = mk()
    spec = RGSpec(
        sset(schema, "=", "x", 0),
        identity_rel(schema),
        rel(schema, (("x", Lit(1)),)),
        sset(schema, "=", "x", 1),
    )
    v = prove(ctx, set1_event(schema), spec, ConseqNode(spec, BasicEvtNode()))
    assert v.passed


def test_prove_join_premise4_failure_named():
    schema, ctx = mk()
    ev_x = set1_event(schema)
    ev_y = event(schema, "f", Basic((("y", Lit(1)),)))
    jn = EsJoin(ev_x, ev_y)
    guar_x = rel(schema, (("x", Lit(1)),))
    guar_y = rel(schema, (("y", Lit(1)),))
    guar_xy = RelDesc(
        schema, "rules",
        rules=(
            RelRule(true_set(schema), (("x", Lit(1)),)),
            RelRule(true_set(schema), (("y", Lit(1)),)),
        ),
        includes_identity=True,
    )
    pre = StateSet(schema, BoolOp("AND", Cmp("=", Var("x"), Lit(0)), Cmp("=", Var("y"), Lit(0))))
    post = StateSet(schema, BoolOp("AND", Cmp("=", Var("x"), Lit(1)), Cmp("=", Var("y"), Lit(1))))
    # rely1 = Id only: guar2 (y := 1) is not included -> premise (4) fails
    spec1 = RGSpec(sset(schema, "=", "x", 0), identity_rel(schema), guar_x, sset(schema, "=", "x", 1))
    spec2 = RGSpec(sset(schema, "=", "y", 0), identity_rel(schema), guar_y, sset(schema, "=", "y", 1))
    spec = RGSpec(pre, identity_rel(schema), guar_xy, post)
    v = prove(ctx, jn, spec, JoinNode(spec1, spec2, BasicEvtNode(), BasicEvtNode()))
    assert v.failed
    assert "(4)" in v.clause and "RG-Join" in v.clause


def test_prove_premises_run_lazily_in_rule_order():
    """Each premise is computed only once the earlier ones hold: a JOIN
    whose (3) guar1-subset-guar fails reports it, although the next
    premise, guar2-subset-guar, has a `pred` guarantee with no generator
    on its left.  Shape diagnostics at a parallel root name no universe;
    those below the root do."""
    mf = load(corpus_path("prove_suite.pcm"))
    ctx, rels, specs, outlines = mf.ctx(), mf.rels, mf.rgspecs, mf.outlines
    join, sp2, outer = outlines["o06_join"], specs["spec_join2"], specs["spec_join"]
    y_only = RelDesc(mf.schema, "pred", pair_pred=lambda s, t: s[0] == t[0], name="y-only")
    outline = JoinNode(join.spec1, RGSpec(sp2.pre, sp2.rely, y_only, sp2.post), join.left, join.right)
    spec = RGSpec(outer.pre, outer.rely, rels["guar_y1"], outer.post)
    v = prove(ctx, mf.esystems["s_join"], spec, outline)
    assert (v.result, v.clause, v.universe) == ("FAIL", "RG-Join:(3) guar1-subset-guar", "reachable")

    par, par_spec = mf.pes["par_xy"], specs["spec_par"]
    one_key = ParNode(outlines["o09_par"].specs[:1], outlines["o09_par"].children[:1])
    for outline, detail in [
        (outlines["o01_basic"], {"rule": "RG-ParEvtSys", "target": "{k1: EVT{set1}, k2: EVT{sety1free}}"}),
        (one_key, {"rule": "RG-ParEvtSys", "expected": ["k1", "k2"]}),
    ]:
        v = prove(ctx, par, par_spec, outline)
        assert (v.result, v.clause, v.universe, v.detail) == ("DIAGNOSTIC", "outline-shape", None, detail)
    v = prove(ctx, mf.esystems["s_basic"], specs["spec_basic"], outlines["o09_par"])
    assert (v.result, v.clause, v.universe) == ("DIAGNOSTIC", "outline-shape", "reachable")
    assert v.detail == {"rule": "RG-ParEvtSys", "target": "EVT{set1}"}


def test_prove_shape_mismatch_is_diagnostic():
    schema, ctx = mk()
    spec = RGSpec(
        sset(schema, "=", "x", 0), identity_rel(schema), identity_rel(schema), true_set(schema)
    )
    v = prove(ctx, set1_event(schema), spec, IterNode(true_set(schema), BasicEvtNode()))
    assert v.diagnostic and v.clause == "outline-shape"


def test_soundness_crosscheck_vacuous_on_unprovable():
    schema, ctx = mk()
    bad = RGSpec(
        sset(schema, "=", "x", 0), identity_rel(schema), identity_rel(schema),
        sset(schema, "=", "x", 1),
    )
    v = soundness_crosscheck(ctx, set1_event(schema), bad, BasicEvtNode())
    assert v.passed and v.detail.get("vacuous") is True


def counters_pes(schema):
    bump_x = EsBasic(
        EventSet(
            (EventSpec("bx", sset(schema, "<", "x", 2), Basic((("x", Arith("+", Var("x"), Lit(1))),))),)
        )
    )
    bump_y = EsBasic(
        EventSet(
            (EventSpec("by", sset(schema, "<", "y", 2), Basic((("y", Arith("+", Var("y"), Lit(1))),))),)
        )
    )
    return ParallelEventSystem(
        (("k1", EsIter(sset(schema, "<", "x", 2), bump_x)),
         ("k2", EsIter(sset(schema, "<", "y", 2), bump_y)))
    )


def test_check_invariant_premises_imply_clean_graph():
    schema, ctx = mk()
    ps = counters_pes(schema)
    init = StateSet(schema, BoolOp("AND", Cmp("=", Var("x"), Lit(0)), Cmp("=", Var("y"), Lit(0))))
    guar = RelDesc(
        schema, "rules",
        rules=(
            RelRule(sset(schema, "<=", "x", 1), (("x", Arith("+", Var("x"), Lit(1))),)),
            RelRule(sset(schema, "<=", "y", 1), (("y", Arith("+", Var("y"), Lit(1))),)),
        ),
        includes_identity=True,
    )
    inv = StateSet(schema, BoolOp("AND", Cmp("<=", Var("x"), Lit(2)), Cmp("<=", Var("y"), Lit(2))))
    v = check_invariant(ctx, ps, init, identity_rel(schema), guar, inv)
    assert v.passed
    assert v.detail["premises"]["direct-reachability"] == "PASS"


def test_check_invariant_init_outside_inv_fails_premise2():
    schema, ctx = mk()
    ps = counters_pes(schema)
    init = sset(schema, "<=", "x", 3)  # includes x = 3 outside inv
    inv = sset(schema, "<=", "x", 2)
    guar = RelDesc(
        schema, "rules",
        rules=(
            RelRule(sset(schema, "<=", "x", 3), (("x", Arith("+", Var("x"), Lit(1))),)),
            RelRule(sset(schema, "<=", "y", 1), (("y", Arith("+", Var("y"), Lit(1))),)),
        ),
        includes_identity=True,
    )
    v = check_invariant(ctx, ps, init, identity_rel(schema), guar, inv)
    assert v.failed and v.clause == "premise:init-subset-inv"
    assert v.witness == {"x": 3, "y": 0}


def test_check_invariant_unstable_guar_but_clean_graph():
    schema, ctx = mk()
    ps = counters_pes(schema)
    init = StateSet(schema, BoolOp("AND", Cmp("=", Var("x"), Lit(0)), Cmp("=", Var("y"), Lit(0))))
    # guarantee admits x := x + 1 without a bound: not inv-stable, although
    # the guarded events never actually leave the invariant
    guar = RelDesc(
        schema, "rules",
        rules=(
            RelRule(sset(schema, "<=", "x", 2), (("x", Arith("+", Var("x"), Lit(1))),)),
            RelRule(sset(schema, "<=", "y", 1), (("y", Arith("+", Var("y"), Lit(1))),)),
        ),
        includes_identity=True,
    )
    inv = StateSet(schema, BoolOp("AND", Cmp("<=", Var("x"), Lit(2)), Cmp("<=", Var("y"), Lit(2))))
    v = check_invariant(ctx, ps, init, identity_rel(schema), guar, inv)
    assert v.failed and v.clause == "premise:stable(inv,guar)"
    assert "direct reachability check passed" in v.detail["note"]


def test_check_invariant_asks_inv_once_per_state(monkeypatch):
    """The direct-reachability scan asks inv once per distinct state, in
    node order: on m1_counters (64 nodes, 9 states) the verdict is the
    same, and with the other premises forced to pass, the witness is the
    path to the first bad node of a scan that asks at every node."""
    mf = load(corpus_path("inv_suite.pcm"))
    ctx, target, init = mf.ctx(), mf.pes["m1_counters"], mf.sets["all0"]
    rely, guar, inv = mf.rels["id"], mf.rels["guar_xy_bounded"], mf.sets["inv_xy"]
    expected = check_invariant(ctx, target, init, rely, guar, inv)
    calls, counting, holds, stable_ = [], [True], inv.holds, checker.stable

    def counted(s):
        if counting[0]:
            calls.append(s)
        return holds(s)

    def uncounted_stable(*a):
        counting[0] = False
        try:
            return stable_(*a)
        finally:
            counting[0] = True

    monkeypatch.setattr(inv, "holds", counted)
    monkeypatch.setattr(checker, "stable", uncounted_stable)
    v = check_invariant(ctx, target, init, rely, guar, inv)
    assert v == expected and v.passed and v.detail["nodes"] == 64
    # calls[0] is the initial-state premise; the rest are the direct scan
    assert len(calls[1:]) == len(set(calls[1:])) == 9

    monkeypatch.setattr(checker, "stable", lambda *a: (True, None))
    x_le_1 = sset(ctx.schema, "<=", "x", 1)
    v = check_invariant(ctx, target, init, rely, guar, x_le_1)
    graph = build_graph(ctx, target, init, rely)
    first_bad = next(i for i, (_, s) in enumerate(graph.nodes) if not x_le_1.holds(s))
    w = checker._witness_path(ctx, graph, first_bad)
    assert v.clause == "premises-pass-but-state-violates"
    assert v.witness == {"computation": w.render(ctx.schema)}


def test_check_loop_variant_counting():
    from rgkit.relations import univ_rel

    schema, ctx = mk()
    body = Basic((("x", Arith("-", Var("x"), Lit(1))),))
    b = sset(schema, ">", "x", 0)
    fam = {a: sset(schema, "=", "x", a) for a in range(4)}
    u = full_universe(ctx)
    v = check_loop_variant(
        ctx, body, b, identity_rel(schema), univ_rel(schema),
        lambda a: fam[a], range(4), u,
    )
    assert v.passed

    stuck = Basic((("x", Var("x")),))
    v2 = check_loop_variant(
        ctx, stuck, b, identity_rel(schema), univ_rel(schema),
        lambda a: fam[a], range(4), u,
    )
    assert v2.failed and v2.clause.startswith("condition-1")


def test_check_loop_variant_rely_condition4():
    from rgkit.relations import univ_rel

    schema, ctx = mk()
    body = Basic((("x", Arith("-", Var("x"), Lit(1))),))
    b = sset(schema, ">", "x", 0)
    fam = {a: sset(schema, "=", "x", a) for a in range(4)}
    bumping = rel(schema, (("x", Arith("+", Var("x"), Lit(1))),), guard=sset(schema, "<=", "x", 2), identity=True)
    u = full_universe(ctx)
    v = check_loop_variant(
        ctx, body, b, bumping, univ_rel(schema), lambda a: fam[a], range(4), u
    )
    assert v.failed and v.clause.startswith("condition-4")


def test_validity_exact_vs_computation_enumeration():
    """Exactness: the graph-based verdict agrees with direct enumeration of
    bounded computations (every computation admitted by the assumption is
    in the commitment iff check_validity passes), and program-level
    validity agrees with the event-level wrap of the same program."""
    from rgkit.adapters import prog_validity
    from rgkit.computations import cpts_linear
    from rgkit.events import EsTriggered
    from rgkit.relations import solve_states

    schema, ctx = mk()
    prog = Basic((("x", Lit(1)),))
    trg = EsTriggered(prog)
    guar = rel(schema, (("x", Lit(1)),))
    cases = [
        RGSpec(sset(schema, "=", "x", 0), identity_rel(schema), guar, sset(schema, "=", "x", 1)),
        RGSpec(sset(schema, "=", "x", 0), rel(schema, (("x", Lit(2)),)), guar, sset(schema, "=", "x", 1)),
        RGSpec(sset(schema, "=", "x", 0), identity_rel(schema), identity_rel(schema), sset(schema, "=", "x", 1)),
    ]
    for spec in cases:
        verdict = check_validity(ctx, trg, spec)
        enumerated_ok = True
        for s in solve_states(spec.pre):
            for c in cpts_linear(ctx, trg, s, spec.rely, 6):
                assert in_assume(c, spec.pre, spec.rely)  # by construction
                if not in_commit(ctx, c, spec.guar, spec.post):
                    enumerated_ok = False
        assert verdict.passed == enumerated_ok
        pv = prog_validity(ctx.actx, ctx.adapter, prog, spec)
        assert pv.passed == verdict.passed


@functools.cache
def _prove_golden() -> dict:
    with open(record_prove_sweep.GOLDEN, encoding="utf-8") as f:
        return json.load(f)


@pytest.mark.parametrize(
    "name,outline",
    [(n, o) for n in record_prove_sweep.FILES for o in record_prove_sweep.outlines(n)],
)
def test_prove_sweep_matches_golden(name, outline):
    """Every `check prove --crosscheck` request of the outline, over every
    target x spec and both universes, gives the recorded exit code, result
    and clause per record, and the recorded report digest (see
    tests/record_prove_sweep.py)."""
    assert record_prove_sweep.sweep(name, outline) == _prove_golden()[name][outline]
