import gc
import json
import os

import pytest

from conftest import corpus_path
from paper_defs import computation_valid, dump_computations, lift_seq_cpt
from rgkit import relations
from rgkit.adapters import (
    AdapterContext,
    AwaitDivergence,
    Basic,
    IMP_ADAPTER,
    While,
    terminal_states,
)
from rgkit.computations import (
    ENV,
    Computation,
    ComputationSet,
    MODULAR_RULES,
    _Table,
    check_linear_modular_equiv,
    comp_kind,
    cpts_linear,
    cpts_modular,
)
from rgkit.events import (
    ActionLabel,
    EsAtomic,
    EsBasic,
    EsChoice,
    EsIter,
    EsJoin,
    EsSeq,
    EsTriggered,
    EventSet,
    EventSpec,
    FIN,
    is_fin,
    tau,
)
from rgkit.exprs import Cmp, Lit, Var
from rgkit.modelfile import load
from rgkit.relations import StateSet, full_rel, identity_rel, solve_states, true_set
from rgkit.semantics import AtomDivergence, Ctx, build_graph, step_es
from rgkit.values import IntType, Schema


# ----------------------------------------------------------------------
# Reference enumerators: the rules as written, over `Computation` objects
# with no intern table or memo other than the modular rules' own.  The
# differential tests below hold `cpts_linear`, `cpts_modular` and
# `check_linear_modular_equiv` to them.
# ----------------------------------------------------------------------


def reference_linear(ctx, s_sys, s, rely_universe, max_len, k="es"):
    out = set()
    stack = [Computation(((s_sys, s),), ())]
    while stack:
        c = stack.pop()
        out.add(c)
        if len(c) >= max_len:
            continue
        spec, st = c.confs[-1]
        for t in rely_universe.successors(st):
            stack.append(Computation(c.confs + ((spec, t),), c.kinds + (ENV,)))
        for lbl, spec2, t in step_es(ctx, spec, st, k):
            stack.append(Computation(c.confs + ((spec2, t),), c.kinds + (comp_kind(lbl),)))
    return frozenset(out)


def reference_modular(ctx, s_sys, s, rely_universe, max_len, k="es", disabled=frozenset(), memo=None):
    """`memo` may be shared by calls with the same ctx, universe, k and
    disabled rules."""
    memo = {} if memo is None else memo

    def on(rule):
        return rule not in disabled

    def gen(spec, st, budget):
        key = (spec, st, budget)
        hit = memo.get(key)
        if hit is not None:
            return hit
        out = set()
        me = (spec, st)
        if on("CptsMOne"):
            out.add(Computation((me,), ()))
        if budget >= 2:
            if on("CptsMEnv"):
                for t in rely_universe.successors(st):
                    for c in gen(spec, t, budget - 1):
                        out.add(c.prepend(me, ENV))
            if isinstance(spec, EsTriggered) and spec.prog is not None:
                for q, t in ctx.adapter.step(ctx.actx, spec.prog, st):
                    if on("CptsMTrgEvtFin" if q is None else "CptsMTrgEvt"):
                        for c in gen(EsTriggered(q), t, budget - 1):
                            out.add(c.prepend(me, comp_kind(tau(k))))
            elif isinstance(spec, EsBasic):
                if on("CptsMBasicEvt"):
                    for inst in spec.events.instances:
                        if inst.guard.holds(st):
                            lbl = comp_kind(ActionLabel("evt", inst.label, k))
                            for c in gen(EsTriggered(inst.body), st, budget - 1):
                                out.add(c.prepend(me, lbl))
            elif isinstance(spec, EsAtomic):
                if on("CptsMAtomEvt"):
                    for inst in spec.events.instances:
                        if inst.guard.holds(st):
                            try:
                                terms = terminal_states(
                                    ctx.actx, ctx.adapter.step, inst.body, st, inst.label
                                )
                            except AwaitDivergence as d:
                                raise AtomDivergence(inst.label) from d
                            lbl = comp_kind(ActionLabel("aevt", inst.label, k))
                            for t in terms:
                                for c in gen(FIN, t, budget - 1):
                                    out.add(c.prepend(me, lbl))
            elif isinstance(spec, EsSeq):
                for lbl, a2, t in step_es(ctx, spec.a, st, k):
                    if is_fin(a2):
                        if on("CptsMSeqFin"):
                            for c in gen(spec.b, t, budget - 1):
                                out.add(c.prepend(me, comp_kind(lbl)))
                    elif on("CptsMSeq"):
                        for c in gen(EsSeq(a2, spec.b), t, budget - 1):
                            out.add(c.prepend(me, comp_kind(lbl)))
            elif isinstance(spec, EsChoice):
                for rule, side in (("CptsMChc1", spec.a), ("CptsMChc2", spec.b)):
                    if on(rule):
                        for lbl, x2, t in step_es(ctx, side, st, k):
                            for c in gen(x2, t, budget - 1):
                                out.add(c.prepend(me, comp_kind(lbl)))
            elif isinstance(spec, EsJoin):
                if is_fin(spec.a) and is_fin(spec.b) and on("CptsMJoinFin"):
                    for c in gen(FIN, st, budget - 1):
                        out.add(c.prepend(me, comp_kind(tau(k))))
                if on("CptsMJoin1"):
                    for lbl, a2, t in step_es(ctx, spec.a, st, k):
                        for c in gen(EsJoin(a2, spec.b), t, budget - 1):
                            out.add(c.prepend(me, comp_kind(lbl)))
                if on("CptsMJoin2"):
                    for lbl, b2, t in step_es(ctx, spec.b, st, k):
                        for c in gen(EsJoin(spec.a, b2), t, budget - 1):
                            out.add(c.prepend(me, comp_kind(lbl)))
            elif isinstance(spec, EsIter):
                if not spec.cond.holds(st):
                    if on("CptsMIterF"):
                        for c in gen(FIN, st, budget - 1):
                            out.add(c.prepend(me, comp_kind(tau(k))))
                else:
                    head_kind = comp_kind(tau(k))
                    for c in gen(spec.body, st, budget - 1):
                        if any(is_fin(sp) for sp, _ in c.confs):
                            continue
                        lifted = lift_seq_cpt(c, spec)
                        if on("CptsMIterTOne"):
                            out.add(lifted.prepend(me, head_kind))
                        rem = budget - 1 - len(c)
                        if on("CptsMIterTMore") and rem >= 1:
                            last_spec, last_st = c.confs[-1]
                            for lbl, s2, t in step_es(ctx, last_spec, last_st, k):
                                if not is_fin(s2):
                                    continue
                                for c2 in gen(spec, t, rem):
                                    out.add(
                                        Computation(
                                            (me,) + lifted.confs + c2.confs,
                                            (head_kind,) + lifted.kinds + (comp_kind(lbl),) + c2.kinds,
                                        )
                                    )
        memo[key] = result = frozenset(out)
        return result

    return gen(s_sys, s, max_len)


def reference_equiv(ctx, s_sys, pre, rely_universe, max_len, disabled=frozenset(), sets=None):
    """(result, clause, witness, detail) of the linear/modular comparison
    as `check_linear_modular_equiv` defines it; `sets(s)` may supply the
    reference (linear, modular) pair for initial state `s`."""
    total = 0
    memo: dict = {}
    for s in solve_states(pre):
        if sets is None:
            lin = reference_linear(ctx, s_sys, s, rely_universe, max_len)
            mod = reference_modular(
                ctx, s_sys, s, rely_universe, max_len, disabled=disabled, memo=memo
            )
        else:
            lin, mod = sets(s)
        total += len(lin)
        if lin != mod:
            key = lambda c: c.sort_key(ctx.schema)  # noqa: E731
            only = sorted(lin - mod, key=key) or sorted(mod - lin, key=key)
            witness = {
                "computation": only[0].render(ctx.schema),
                "linear_count": len(lin),
                "modular_count": len(mod),
            }
            side = "linear-only" if lin - mod else "modular-only"
            return ("FAIL", side, witness, {"initial_state": ctx.schema.state_to_dict(s)})
    return ("PASS", None, None, {"computations": total})


def pairs(comps):
    return {(c.confs, c.kinds) for c in comps}


def mk():
    schema = Schema([("x", IntType(0, 2), 0)])
    return schema, Ctx(AdapterContext(schema), IMP_ADAPTER)


def one_event(schema, label="e", body=None):
    return EsBasic(
        EventSet(
            (
                EventSpec(
                    label,
                    true_set(schema),
                    body if body is not None else Basic((("x", Lit(1)),)),
                ),
            )
        )
    )


def test_singleton_at_len_one():
    schema, ctx = mk()
    es = one_event(schema)
    s = schema.state(x=0)
    assert cpts_linear(ctx, es, s, identity_rel(schema), 1) == frozenset(
        {Computation(((es, s),), ())}
    )


def test_fin_with_identity_universe_stutters_only():
    schema, ctx = mk()
    s = schema.state(x=0)
    cs = cpts_linear(ctx, FIN, s, identity_rel(schema), 3)
    assert len(cs) == 3  # lengths 1..3, pure env stutter chains
    for c in cs:
        assert all(k == ("env",) for k in c.kinds)
        assert all(conf == (FIN, s) for conf in c.confs)


def test_one_event_count_hand_enumerated():
    # One event (e, true, x := 1) from x = 0 under the identity universe:
    # configurations B -> triggered -> finished.  At every prefix length
    # each computation extends by one env stutter plus one component step
    # while the component is live: 1 + 2 + 4 computations at max_len 3.
    schema, ctx = mk()
    es = one_event(schema)
    cs = cpts_linear(ctx, es, schema.state(x=0), identity_rel(schema), 3)
    assert len(cs) == 7


def test_lift_seq_cpt_wraps_every_spec():
    schema, ctx = mk()
    es = one_event(schema)
    s = schema.state(x=0)
    c = Computation(((es, s), (es, s)), (("env",),))
    lifted = lift_seq_cpt(c, FIN)
    assert all(isinstance(spec, EsSeq) and spec.b == FIN for spec, _ in lifted.confs)
    assert lifted.kinds == c.kinds
    # projecting the left component back recovers the original
    back = Computation(tuple((sp.a, st) for sp, st in lifted.confs), lifted.kinds)
    assert back == c


def corpus_systems(schema):
    from rgkit.adapters import PSeq
    from rgkit.events import EsAtomic

    e = one_event(schema)
    f = one_event(schema, label="f", body=Basic((("x", Lit(2)),)))
    twostep_body = PSeq(Basic((("x", Lit(1)),)), Basic((("x", Lit(2)),)))
    two = one_event(schema, label="g", body=twostep_body)
    atom = EsAtomic(EventSet((EventSpec("h", true_set(schema), twostep_body),)))
    xlt2 = StateSet(schema, Cmp("<", Var("x"), Lit(2)))
    return [
        e,
        two,
        atom,
        EsSeq(e, f),
        EsChoice(e, f),
        EsJoin(e, f),
        EsIter(xlt2, e),
        EsSeq(EsChoice(e, f), two),
        EsJoin(EsIter(xlt2, e), f),
    ]


def test_linear_equals_modular_on_systems():
    schema, ctx = mk()
    u = full_rel(schema)
    s = schema.state(x=0)
    for es in corpus_systems(schema):
        for ml in (1, 2, 4, 5):
            lin = cpts_linear(ctx, es, s, u, ml)
            mod = cpts_modular(ctx, es, s, u, ml)
            assert lin == mod, (es, ml)


def test_prefix_closure_and_monotone_lengths():
    schema, ctx = mk()
    u = full_rel(schema)
    s = schema.state(x=0)
    es = EsIter(StateSet(schema, Cmp("<", Var("x"), Lit(2))), one_event(schema))
    c4 = cpts_linear(ctx, es, s, u, 4)
    c5 = cpts_linear(ctx, es, s, u, 5)
    assert {c for c in c5 if len(c) <= 4} == c4
    for c in c5:
        for k in range(1, len(c)):
            assert Computation(c.confs[:k], c.kinds[: k - 1]) in c5


def test_every_graph_path_is_a_computation_and_back():
    schema, ctx = mk()
    es = one_event(schema)
    pre = StateSet(schema, Cmp("=", Var("x"), Lit(0)))
    rely = identity_rel(schema)
    g = build_graph(ctx, es, pre, rely)
    cs = cpts_linear(ctx, es, schema.state(x=0), rely, 4)
    edges = {(g.nodes[a], g.nodes[b]) for a, _, b in g.comp_edges}
    for c in cs:
        for i, kind in enumerate(c.kinds):
            if kind != ("env",):
                assert (c.confs[i], c.confs[i + 1]) in edges


@pytest.mark.parametrize("rule", MODULAR_RULES)
def test_disabling_any_rule_is_detected(rule):
    schema, ctx = mk()
    u = full_rel(schema)
    s = schema.state(x=0)
    found = False
    for es in corpus_systems(schema):
        lin = cpts_linear(ctx, es, s, u, 5)
        mod = cpts_modular(ctx, es, s, u, 5, disabled=frozenset([rule]))
        if lin != mod:
            found = True
            break
    assert found, f"disabling {rule} went unnoticed"


def test_equiv_verdict_and_witness():
    schema, ctx = mk()
    u = full_rel(schema)
    pre = StateSet(schema, Cmp("=", Var("x"), Lit(0)))
    es = EsSeq(one_event(schema), one_event(schema, label="f"))
    v = check_linear_modular_equiv(ctx, es, pre, u, 5)
    assert v.passed
    v2 = check_linear_modular_equiv(ctx, es, pre, u, 5, disabled=frozenset(["CptsMSeqFin"]))
    assert v2.failed and v2.clause == "linear-only"


def test_computation_replay():
    schema, ctx = mk()
    es = one_event(schema)
    s = schema.state(x=0)
    for c in cpts_linear(ctx, es, s, identity_rel(schema), 3):
        good, why = computation_valid(ctx, c)
        assert good, why
    # a corrupted computation does not replay
    bad = Computation(((es, s), (FIN, s)), (("env",),))
    good, why = computation_valid(ctx, bad)
    assert not good


def test_dump_computations_deterministic():
    schema, ctx = mk()
    es = one_event(schema)
    s = schema.state(x=0)
    cs = cpts_linear(ctx, es, s, identity_rel(schema), 3)
    d1 = dump_computations(ctx, cs)
    d2 = dump_computations(ctx, set(cs))
    assert d1 == d2 and len(d1) == len(cs)


CPTS_SUITE = load(corpus_path("cpts_suite.pcm"))


def schema_states(mf):
    """The init0 states and two more states of the schema."""
    return solve_states(mf.sets["init0"]) + [
        mf.schema.state(x=1, p=True),
        mf.schema.state(x=2, p=False),
    ]


@pytest.mark.parametrize("name", sorted(CPTS_SUITE.esystems))
def test_enumerators_match_reference(name):
    mf = CPTS_SUITE
    ctx, full, es = mf.ctx(), mf.rels["full"], mf.esystems[name]
    ref: dict = {}  # (state, max_len, disabled) -> reference (linear, modular)
    memos: dict = {}  # disabled -> reference modular memo
    for s in schema_states(mf):
        for ml in range(1, 6):
            lin = reference_linear(ctx, es, s, full, ml)
            assert pairs(cpts_linear(ctx, es, s, full, ml)) == pairs(lin), (s, ml)
            for rule in (None,) + MODULAR_RULES:
                disabled = frozenset([rule] if rule else [])
                memo = memos.setdefault(disabled, {})
                mod = reference_modular(ctx, es, s, full, ml, disabled=disabled, memo=memo)
                got = cpts_modular(ctx, es, s, full, ml, disabled=disabled)
                assert pairs(got) == pairs(mod), (s, ml, rule)
                ref[(s, ml, disabled)] = (lin, mod)
    # The check's verdict, clause, witness and detail, from the reference
    # sets at max_len 5 for every disabled rule and recomputed at 6.
    for ml, rules in ((5, (None,) + MODULAR_RULES), (6, (None,))):
        for rule in rules:
            disabled = frozenset([rule] if rule else [])
            sets = (lambda s: ref[(s, ml, disabled)]) if ml == 5 else None
            want = reference_equiv(ctx, es, mf.sets["init0"], full, ml, disabled, sets)
            v = check_linear_modular_equiv(ctx, es, mf.sets["init0"], full, ml, disabled=disabled)
            assert (v.result, v.clause, v.witness, v.detail) == want, (ml, rule)


def test_pinned_initial_values_compile_once(monkeypatch):
    """`solve_states` compiles the value `pre` pins a variable to once per
    node and schema: a second check of the same system compiles it no
    more."""
    mf = load(corpus_path("cpts_suite.pcm"))
    ctx, e04, init0, full = mf.ctx(), mf.esystems["e04"], mf.sets["init0"], mf.rels["full"]
    pin = init0.expr.b  # the 0 of `x = 0`
    compiled = []
    real = relations.compile_expr

    def counting(e, schema, expected=None):
        compiled.append(e)
        return real(e, schema, expected)

    monkeypatch.setattr(relations, "compile_expr", counting)
    assert not check_linear_modular_equiv(ctx, e04, init0, full, 5).failed
    assert any(e is pin for e in compiled)
    compiled.clear()
    assert not check_linear_modular_equiv(ctx, e04, init0, full, 5).failed
    assert not any(e is pin for e in compiled)


def test_cpts_modular_leaves_no_cyclic_garbage():
    """Building, counting, comparing, probing and iterating the sets, and a
    failing check with its witness, free everything by reference count."""
    mf = CPTS_SUITE
    ctx, full, es = mf.ctx(), mf.rels["full"], mf.esystems["e14"]
    s0 = mf.schema.initial_state()
    e04, init0, no_seq_fin = mf.esystems["e04"], mf.sets["init0"], frozenset(["CptsMSeqFin"])

    def use():
        lin = cpts_linear(ctx, es, s0, full, 4)
        mod = cpts_modular(ctx, es, s0, full, 4)
        assert len(lin) == len(mod) and lin == mod and not lin != mod
        assert all(c in mod for c in lin) and len(list(mod)) == len(mod)
        assert check_linear_modular_equiv(ctx, e04, init0, full, 5, disabled=no_seq_fin).failed

    use()  # warm up lazily built caches
    gc.collect()
    gc.disable()
    try:
        use()
        assert gc.collect() == 0
    finally:
        gc.enable()


def spin(schema, label, guard=None):
    """An atomic event whose body never terminates."""
    guard = guard if guard is not None else true_set(schema)
    return EsAtomic(EventSet((EventSpec(label, guard, While(true_set(schema), Basic(()))),)))


def first_divergence(build):
    try:
        build()
    except AtomDivergence as e:
        return str(e)
    return None


def test_first_exception_matches_reference():
    """Two atomic events labelled a and b diverge.  The linear rules step
    the last move first and the modular rules the first rule first, so
    the two constructions can stop at different events; each stops where
    its reference does."""
    schema, ctx = mk()
    e, f = one_event(schema), one_event(schema, label="f", body=Basic((("x", Lit(2)),)))
    x_is = lambda v: StateSet(schema, Cmp("=", Var("x"), Lit(v)))  # noqa: E731
    a, b = spin(schema, "a"), spin(schema, "b")
    systems = [
        EsChoice(EsSeq(e, a), EsSeq(f, b)),
        EsJoin(EsSeq(e, a), EsSeq(f, b)),
        EsChoice(spin(schema, "a", x_is(2)), spin(schema, "b", x_is(1))),
        EsSeq(EsChoice(e, f), EsChoice(spin(schema, "a", x_is(1)), spin(schema, "b", x_is(2)))),
    ]
    seen = set()
    for es in systems:
        for u in (full_rel(schema), identity_rel(schema)):
            for x in range(3):
                s = schema.state(x=x)
                for ml in range(2, 6):
                    lin = first_divergence(lambda: reference_linear(ctx, es, s, u, ml))
                    mod = first_divergence(lambda: reference_modular(ctx, es, s, u, ml))
                    assert first_divergence(lambda: cpts_linear(ctx, es, s, u, ml)) == lin
                    assert first_divergence(lambda: cpts_modular(ctx, es, s, u, ml)) == mod
                    seen.add((lin, mod))
    assert ("atom-divergence in b", "atom-divergence in a") in seen


def materialise(nodes):
    """Each node's paths, as flat (conf, kind, conf, ...) id tuples, from
    the node's definition: `(c,)` if a member, and `c` and each kid's
    kind before each path of the kid's node, which must come earlier."""
    out = []
    for c, member, kids in nodes:
        paths = {(c,)} if member else set()
        for kd, x, y in kids:
            assert 0 <= y < len(out) and nodes[y][0] == x
            paths.update((c, kd) + p for p in out[y])
        out.append(frozenset(paths))
    return out


@pytest.mark.parametrize("rule", (None,) + MODULAR_RULES)
def test_node_ids_are_canonical(rule):
    """In one table shared by every suite system, both constructions and
    lengths 1-5, no node is empty and no two nodes hold the same paths, so
    two node ids are equal exactly when their paths are."""
    mf = CPTS_SUITE
    ctx, full, s0 = mf.ctx(), mf.rels["full"], mf.schema.initial_state()
    table = _Table(ctx, full, "es", frozenset([rule] if rule else []))
    for name in sorted(mf.esystems):
        c0 = table.conf(mf.esystems[name], s0)
        for ml in range(1, 6):
            table.linear(c0, ml)
            table.modular(c0, ml)
    sets = materialise(table.nodes)
    assert all(sets) and len(set(sets)) == len(sets)


def walk_count(ctx, spec, st, rely, max_len, memo):
    """The number of computations of length <= max_len from (spec, st) by
    the linear rules: one, and the walks after each distinct move."""
    key = (spec, st, max_len)
    if key not in memo:
        n = 1
        if max_len >= 2:
            for t in set(rely.successors(st)):
                n += walk_count(ctx, spec, t, rely, max_len - 1, memo)
            for _, spec2, t in set(step_es(ctx, spec, st, "es")):
                n += walk_count(ctx, spec2, t, rely, max_len - 1, memo)
        memo[key] = n
    return memo[key]


def test_counts_match_walk_count_at_length_40():
    """At a length no enumeration reaches, both views count what the
    walk-count recurrence gives; `len` cannot hold such a count, so the
    check takes its total from `count`."""
    mf = CPTS_SUITE
    ctx, full, init0 = mf.ctx(), mf.rels["full"], mf.sets["init0"]
    for name in sorted(mf.esystems):
        es, memo, total = mf.esystems[name], {}, 0
        for s in solve_states(init0):
            want = walk_count(ctx, es, s, full, 40, memo)
            lin, mod = cpts_linear(ctx, es, s, full, 40), cpts_modular(ctx, es, s, full, 40)
            assert lin.count() == mod.count() == want, name
            total += want
        v = check_linear_modular_equiv(ctx, es, init0, full, 40)
        assert v.passed and v.detail == {"computations": total}, name
    assert total == 7_911_548_520_976_511_048_115_188_671_570_520  # e14, as in CI
    with pytest.raises(OverflowError):
        len(lin)


# ----------------------------------------------------------------------
# The set view: `len`, `==`, `!=` and `in` run on interned ids, so each
# answer is held to the one its materialised frozenset gives.
# ----------------------------------------------------------------------

KNOWN_ANSWERS = os.path.join(os.path.dirname(__file__), "..", "perfbench", "known_answers.json")
with open(KNOWN_ANSWERS, encoding="utf-8") as f:
    PROBES = [tuple(p) for p in json.load(f)["cpts-equiv"]["full"]["probes"]]


def kind_swapped(comps, other_kind):
    """Each computation with a step, its first step kind swapped for ENV,
    or for `other_kind` when it was ENV."""
    return [
        Computation(c.confs, ((other_kind if c.kinds[0] == ENV else ENV),) + c.kinds[1:])
        for c in comps
        if c.kinds
    ]


def check_alone(view, probes) -> frozenset:
    """`view` answers `len`, `hash` and `in` as its materialised frozenset
    does, for every member and for each computation in `probes`; returns
    that frozenset."""
    assert type(view) is ComputationSet
    f = frozenset(view)
    assert len(view) == len(f)
    assert hash(view) == hash(f)
    assert all(c in view for c in f)
    assert [c in view for c in probes] == [c in f for c in probes]
    assert None not in view
    return f


def check_pair(v, w, f, g, mixed_ops=True):
    """Views `v` and `w`, whose frozensets are `f` and `g`, compare as the
    frozensets do, in both orders, with each other and with the other's
    frozenset, and combine as they do: as views and, if `mixed_ops`, with
    a frozenset on either side."""
    eq = f == g
    for a, b in ((v, w), (v, g), (f, w)):
        assert (a == b) is eq and (b == a) is eq
        assert (a != b) is not eq and (b != a) is not eq
        assert (a <= b) == (f <= g) and (b <= a) == (g <= f)
        if mixed_ops or a is v and b is w:
            for got, want in ((a - b, f - g), (a & b, f & g), (a | b, f | g)):
                assert type(got) is frozenset and got == want


def test_view_matches_frozenset_on_probe_pairs():
    mf = CPTS_SUITE
    ctx, full, s0 = mf.ctx(), mf.rels["full"], mf.schema.initial_state()
    tau_kind = comp_kind(tau("es"))
    lins: dict = {}  # system -> (linear view, its frozenset)
    for rule, name in PROBES:
        es = mf.esystems[name]
        if name not in lins:
            lin = cpts_linear(ctx, es, s0, full, 5)
            lins[name] = lin, check_alone(lin, kind_swapped(lin, tau_kind))
        lin, f = lins[name]
        mod = cpts_modular(ctx, es, s0, full, 5, disabled=frozenset([rule]))
        g = check_alone(mod, list(f ^ frozenset(mod)) + kind_swapped(mod, tau_kind))
        check_pair(lin, mod, f, g, mixed_ops=False)


def test_view_matches_frozenset_on_suite():
    mf = CPTS_SUITE
    ctx, full, s0 = mf.ctx(), mf.rels["full"], mf.schema.initial_state()
    tau_kind = comp_kind(tau("es"))
    names = sorted(mf.esystems)
    lins = {name: cpts_linear(ctx, mf.esystems[name], s0, full, 1) for name in names}
    for ml in range(1, 6):
        longer = {name: cpts_linear(ctx, mf.esystems[name], s0, full, ml + 1) for name in names}
        frozen = {}
        for name in names:
            # The computations of length ml + 1 are not members, though
            # every prefix of them is.
            near = [c for c in longer[name] if len(c) > ml] + kind_swapped(lins[name], tau_kind)
            frozen[name] = check_alone(lins[name], near)
        for i, name in enumerate(names):
            lin, f = lins[name], frozen[name]
            mod = cpts_modular(ctx, mf.esystems[name], s0, full, ml)
            check_pair(lin, mod, f, check_alone(mod, kind_swapped(mod, tau_kind)))
            nxt = names[(i + 1) % len(names)]
            check_pair(lin, lins[nxt], f, frozen[nxt])
        lins = longer


def test_view_across_tables_with_a_configuration_one_lacks():
    # At max_len 1 every set holds one computation, its initial
    # configuration, so the sizes agree and only the ids tell them apart.
    schema, ctx = mk()
    u, s = full_rel(schema), schema.state(x=0)
    e, f = one_event(schema), one_event(schema, label="f")
    a, b = cpts_linear(ctx, e, s, u, 1), cpts_linear(ctx, f, s, u, 1)
    assert len(a) == len(b) == 1 and a != b and not a == b
    assert a == cpts_modular(ctx, e, s, u, 1)
    check_pair(a, b, check_alone(a, list(b)), check_alone(b, list(a)))


def test_view_keeps_no_memo_of_its_table():
    mf = CPTS_SUITE
    ctx, full, s0 = mf.ctx(), mf.rels["full"], mf.schema.initial_state()
    table = _Table(ctx, full, "es")
    root = table.modular(table.conf(mf.esystems["e14"], s0), 4)
    view = ComputationSet(table, root)
    assert not hasattr(view, "__dict__")
    kept = {id(x) for x in gc.get_referents(view)}
    allowed = (root, table.nodes, table.confs, table.ids, table.kind.objs, table.kind.ids,
               ComputationSet, None)
    assert kept <= {id(x) for x in allowed}
    memos = (table, table.node_ids, table.env, table.steps, table.moves, table.lin,
             table.paths, table.lifts, table.unions)
    for memo in memos:
        assert id(memo) not in kept
