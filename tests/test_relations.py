import itertools

import pytest
from hypothesis import given, strategies as st

from rgkit.exprs import Arith, BoolOp, Cmp, Lit, Var
from rgkit.relations import (
    RelDesc,
    RelRule,
    StateSet,
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
