import dataclasses
import itertools
import os

import pytest
from conftest import corpus_path
from hypothesis import given, strategies as st

from rgkit import bpel, cli, relations
from rgkit.exprs import Arith, BoolOp, Cmp, Lit, Var, compile_expr
from rgkit.modelfile import ModelFile, load
from rgkit.relations import (
    RelDesc,
    RelRule,
    StateSet,
    compile_assigns,
    full_rel,
    identity_rel,
    solve_states,
    true_set,
    univ_rel,
)
from rgkit.values import BoolType, DomainOverflow, IntType, Schema


def schema2():
    return Schema([("x", IntType(0, 2), 0), ("p", BoolType(), False)])


def test_identity_only_successors():
    s = schema2()
    r = identity_rel(s)
    st0 = s.initial_state()
    assert r.successors(st0) == [st0]
    assert r.contains(st0, st0)


def test_rule_successor():
    s = schema2()
    r = RelDesc(
        s, "rules",
        rules=(RelRule(true_set(s), (("x", Arith("+", Var("x"), Lit(1))),)),),
    )
    assert r.successors(s.state(x=0)) == [s.state(x=1)]
    assert not r.contains(s.state(x=0), s.state(x=0))


def test_false_guard_empty():
    s = schema2()
    r = RelDesc(s, "rules", rules=(RelRule(StateSet(s, Lit(False)), (("x", Lit(1)),)),))
    assert r.successors(s.initial_state()) == []


def test_membership_generator_agreement_exhaustive():
    s = schema2()
    r = RelDesc(
        s, "rules",
        rules=(
            RelRule(StateSet(s, Cmp("<", Var("x"), Lit(2))), (("x", Arith("+", Var("x"), Lit(1))),)),
            RelRule(StateSet(s, Var("p")), (("p", Lit(False)),)),
        ),
        includes_identity=True,
    )
    states = s.all_states()
    for a, b in itertools.product(states, states):
        assert r.contains(a, b) == (b in r.successors(a))


def test_includes_identity_reflexive():
    s = schema2()
    r = RelDesc(s, "rules", rules=(), includes_identity=True)
    for st0 in s.all_states():
        assert r.contains(st0, st0)


def test_univ_and_full():
    s = schema2()
    u = univ_rel(s)
    assert u.contains(s.state(x=0), s.state(x=2))
    with pytest.raises(Exception):
        u.successors(s.initial_state())
    f = full_rel(s)
    assert len(f.successors(s.initial_state())) == 6


def test_solve_states_equality_binding():
    s = schema2()
    pre = StateSet(s, Cmp("=", Var("x"), Lit(2)))
    assert solve_states(pre) == [s.state(x=2)]


def test_solve_states_computed_pin():
    s = schema2()
    pre = StateSet(s, Cmp("=", Var("x"), Arith("+", Lit(1), Lit(1))))
    assert solve_states(pre) == [s.state(x=2)]


def test_solve_states_reversed_pin():
    s = schema2()
    assert solve_states(StateSet(s, Cmp("=", Lit(2), Var("x")))) == [s.state(x=2)]


def test_solve_states_pin_outside_domain():
    s = schema2()
    assert solve_states(StateSet(s, Cmp("=", Var("x"), Lit(3)))) == []


def test_solve_states_conflicting_pins():
    s = schema2()
    pre = StateSet(s, BoolOp("AND", Cmp("=", Var("x"), Lit(1)), Cmp("=", Var("x"), Lit(2))))
    assert solve_states(pre) == []


def test_solve_states_enumerates_mentioned():
    s = schema2()
    pre = StateSet(s, Cmp("<", Var("x"), Lit(2)))
    assert solve_states(pre) == [s.state(x=0), s.state(x=1)]


def test_solve_states_pre_free():
    s = schema2()
    pre = StateSet(s, Var("p"))
    assert solve_states(pre, mode="pre-free") == [s.state(x=0, p=True), s.state(x=1, p=True), s.state(x=2, p=True)]


def test_solve_states_declared():
    s = schema2()
    assert solve_states(true_set(s), mode="declared") == [s.initial_state()]
    assert solve_states(StateSet(s, Var("p")), mode="declared") == []


def test_domain_overflow_on_assignment():
    s = schema2()
    r = RelDesc(s, "rules", rules=(RelRule(true_set(s), (("x", Lit(9)),)),))
    with pytest.raises(DomainOverflow):
        r.successors(s.initial_state())


@given(x=st.integers(0, 2), p=st.booleans())
def test_pred_relation_membership(x, p):
    s = schema2()
    r = RelDesc(s, "pred", pair_pred=lambda a, b: a[0] <= b[0], name="mono")
    assert r.contains(s.state(x=0), s.state(x=x)) is True
    assert r.contains(s.state(x=2), s.state(x=x)) == (2 <= x)
    assert not r.generative


# ----------------------------------------------------------------------
# State sets and rules keep the code their load-time walk built: using
# them compiles nothing more, and they answer as the code `compile_expr`
# and `compile_assigns` build for them directly.
# ----------------------------------------------------------------------

CORPUS_FILES = sorted(os.listdir(os.path.join(os.path.dirname(__file__), "..", "corpus")))


def _counting(monkeypatch, module, name, calls):
    orig = getattr(module, name)

    def counted(*a, **kw):
        calls.append(name)
        return orig(*a, **kw)

    monkeypatch.setattr(module, name, counted)


def _loaded_roots(name):
    """The schema of corpus file `name` and the objects its sets and rules
    are reachable from: the model, or for a BPEL file, whose sets are made
    by translation, the tick rely and each activity's translation."""
    loaded = load(corpus_path(name))
    if isinstance(loaded, ModelFile):
        return loaded.schema, [loaded]
    return loaded.bctx.schema, [cli._tick_rely(loaded)] + [
        bpel.compile_activity(loaded.bctx, a) for a in loaded.activities.values()]


@pytest.mark.parametrize("name", CORPUS_FILES)
def test_loading_compiles_no_set_or_rule(monkeypatch, name):
    """Loading leaves no set or rule to compile: using every one reachable
    from the model calls neither `compile_expr` nor `compile_assigns`."""
    schema, roots = _loaded_roots(name)
    sets, rels = [], []
    _sets_and_rels(roots, set(), sets, rels)
    assert sets
    calls: list = []
    _counting(monkeypatch, relations, "compile_expr", calls)
    _counting(monkeypatch, relations, "compile_assigns", calls)
    s0 = schema.initial_state()
    for ss in sets:
        ss.holds(s0)
    for rel in rels:
        _outcome(rel.successors, s0)
        for r in rel.rules:
            _outcome(r._apply, s0)
    assert calls == []
    # The patched names are the ones a set and a rule compile through.
    RelRule(true_set(schema), ())
    assert calls == ["compile_expr", "compile_assigns"]


def _sets_and_rels(obj, seen, sets, rels):
    """Every `StateSet` and rule `RelDesc` reachable from `obj` through
    dataclass fields, tuples, lists and dict values."""
    if id(obj) in seen:
        return
    seen.add(id(obj))
    if isinstance(obj, StateSet):
        sets.append(obj)
    elif isinstance(obj, RelDesc):
        if obj.kind == "rules":
            rels.append(obj)
        for r in obj.rules:
            _sets_and_rels(r.guard, seen, sets, rels)
    elif isinstance(obj, (tuple, list)):
        for x in obj:
            _sets_and_rels(x, seen, sets, rels)
    elif isinstance(obj, dict):
        for x in obj.values():
            _sets_and_rels(x, seen, sets, rels)
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, (type, Schema)):
        for f in dataclasses.fields(obj):
            _sets_and_rels(getattr(obj, f.name), seen, sets, rels)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except DomainOverflow as e:
        return ("DomainOverflow", e.args)


def _eager_successors(rel, compiled, s):
    out = [s] if rel.includes_identity else []
    for guard, apply in compiled:
        if guard(s, []):
            t = apply(s)
            if t not in out:
                out.append(t)
    return out


SMALL_SCHEMA = 256  # states of the largest corpus schema but the two buddy models


@pytest.mark.parametrize("name", [n for n in CORPUS_FILES if not n.startswith("buddy_")])
def test_lazy_sets_and_rules_answer_as_eager_compiles(name):
    schema, roots = _loaded_roots(name)
    assert schema.product_size() <= SMALL_SCHEMA
    sets, rels = [], []
    _sets_and_rels(roots, set(), sets, rels)
    sets = [ss for ss in sets if ss.expr is not None]
    assert sets
    states = schema.all_states(SMALL_SCHEMA)
    for ss in sets:
        eager = compile_expr(ss.expr, schema)
        assert [ss.holds(s) for s in states] == [bool(eager(s, [])) for s in states]
    for rel in rels:
        compiled = [(compile_expr(r.guard.expr, schema), compile_assigns(schema, r.assigns))
                    for r in rel.rules]
        for s in states:
            want = _outcome(_eager_successors, rel, compiled, s)
            assert _outcome(rel.successors, s) == want
            for t in states:
                assert _outcome(rel.contains, s, t) == _outcome(
                    lambda: t == s and rel.includes_identity or any(
                        g(s, []) and a(s) == t for g, a in compiled))
