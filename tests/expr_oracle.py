"""Reference interpreter for `rgkit.exprs`, kept with the tests as the
oracle that `compile_expr`, the package's one evaluator, is
property-tested against.  It walks the tree at each call and derives the
types it needs (record layouts, totalised defaults) only on the path it
takes, so it shares no compile-time decision with `compile_expr`."""

from __future__ import annotations

from typing import Any

from rgkit.exprs import (
    ANYINT,
    BOOL,
    AppendE,
    Arith,
    BoolOp,
    Cmp,
    CondE,
    ContainsE,
    ExistsLt,
    Expr,
    Field,
    FieldDyn,
    ForallLt,
    HeadE,
    Index,
    IsSome,
    Len,
    Lit,
    MkRec,
    MkSeq,
    MkSome,
    Neg,
    NoneLit,
    NotE,
    RecWith,
    RecWithDyn,
    RemoveE,
    TailE,
    TheOpt,
    UpdateE,
    Var,
    _div,
    _mod,
    check_expr,
)
from rgkit.values import LoadError, RecType, Schema, SeqType, SymType, Type, default_value


def eval_expr(e: Expr, schema: Schema, s: tuple, binds: dict[str, Any] | None = None) -> Any:
    """Reference interpreter; pure and total on type-checked input."""
    binds = binds or {}

    def ev(e: Expr) -> Any:
        if isinstance(e, Lit):
            return e.value
        if isinstance(e, Var):
            if e.name in binds:
                return binds[e.name]
            return s[schema.index[e.name]]
        if isinstance(e, Field):
            rt = _rec_type_of(e.rec, schema, binds)
            return ev(e.rec)[rt.field_index(e.name)]
        if isinstance(e, FieldDyn):
            rt = _rec_type_of(e.rec, schema, binds)
            return ev(e.rec)[rt.field_index(ev(e.key))]
        if isinstance(e, Index):
            seq, i = ev(e.seq), ev(e.idx)
            if 0 <= i < len(seq):
                return seq[i]
            return _elem_default(e.seq, schema, binds)
        if isinstance(e, Len):
            return len(ev(e.seq))
        if isinstance(e, AppendE):
            return ev(e.seq) + (ev(e.elem),)
        if isinstance(e, UpdateE):
            seq, i, v = ev(e.seq), ev(e.idx), ev(e.val)
            if 0 <= i < len(seq):
                return seq[:i] + (v,) + seq[i + 1 :]
            return seq
        if isinstance(e, RemoveE):
            seq, v = ev(e.seq), ev(e.elem)
            for i, x in enumerate(seq):
                if x == v:
                    return seq[:i] + seq[i + 1 :]
            return seq
        if isinstance(e, HeadE):
            seq = ev(e.seq)
            return seq[0] if seq else _elem_default(e.seq, schema, binds)
        if isinstance(e, TailE):
            return ev(e.seq)[1:]
        if isinstance(e, ContainsE):
            return ev(e.elem) in ev(e.seq)
        if isinstance(e, RecWith):
            rt = _rec_type_of(e.rec, schema, binds)
            r, i = ev(e.rec), rt.field_index(e.name)
            return r[:i] + (ev(e.val),) + r[i + 1 :]
        if isinstance(e, RecWithDyn):
            rt = _rec_type_of(e.rec, schema, binds)
            r, i = ev(e.rec), rt.field_index(ev(e.key))
            return r[:i] + (ev(e.val),) + r[i + 1 :]
        if isinstance(e, MkSeq):
            return tuple(ev(x) for x in e.items)
        if isinstance(e, MkRec):
            return tuple(ev(x) for _, x in e.items)
        if isinstance(e, MkSome):
            return (ev(e.inner),)
        if isinstance(e, NoneLit):
            return None
        if isinstance(e, IsSome):
            return ev(e.opt) is not None
        if isinstance(e, TheOpt):
            v = ev(e.opt)
            if v is not None:
                return v[0]
            t = _type_of(e.opt, schema, binds)
            return default_value(t.inner)
        if isinstance(e, Arith):
            a, b = ev(e.a), ev(e.b)
            if e.op == "+":
                return a + b
            if e.op == "-":
                return a - b
            if e.op == "*":
                return a * b
            if e.op == "DIV":
                return _div(a, b)
            if e.op == "MOD":
                return _mod(a, b)
            if e.op == "^":
                return a ** max(b, 0)
            raise AssertionError(e.op)
        if isinstance(e, Neg):
            return -ev(e.a)
        if isinstance(e, Cmp):
            a, b = ev(e.a), ev(e.b)
            if e.op == "=":
                return a == b
            if e.op == "!=":
                return a != b
            if e.op == "<":
                return a < b
            if e.op == "<=":
                return a <= b
            if e.op == ">":
                return a > b
            if e.op == ">=":
                return a >= b
            raise AssertionError(e.op)
        if isinstance(e, BoolOp):
            if e.op == "AND":
                return ev(e.a) and ev(e.b)
            if e.op == "OR":
                return ev(e.a) or ev(e.b)
            if e.op == "IMPLIES":
                return (not ev(e.a)) or ev(e.b)
            raise AssertionError(e.op)
        if isinstance(e, NotE):
            return not ev(e.a)
        if isinstance(e, CondE):
            return ev(e.then) if ev(e.cond) else ev(e.other)
        if isinstance(e, (ForallLt, ExistsLt)):
            n = ev(e.bound)
            want_all = isinstance(e, ForallLt)
            for i in range(n):
                binds[e.var] = i
                r = eval_expr(e.body, schema, s, binds)
                if want_all and not r:
                    del binds[e.var]
                    return False
                if not want_all and r:
                    del binds[e.var]
                    return True
            binds.pop(e.var, None)
            return want_all
        raise AssertionError(f"unknown node {e!r}")

    return ev(e)


def _type_of(e: Expr, schema: Schema, binds: dict[str, Any]) -> Type:
    bind_types = {k: _value_type(v) for k, v in binds.items()}
    return check_expr(e, schema, None, bind_types)


def _value_type(v: Any) -> Type:
    if isinstance(v, bool):
        return BOOL
    if isinstance(v, int):
        return ANYINT
    if isinstance(v, str):
        return SymType((v,))
    raise LoadError(f"cannot type runtime binding {v!r}")


def _rec_type_of(e: Expr, schema: Schema, binds) -> RecType:
    t = _type_of(e, schema, binds)
    assert isinstance(t, RecType)
    return t


def _elem_default(seq_expr: Expr, schema: Schema, binds) -> Any:
    t = _type_of(seq_expr, schema, binds)
    assert isinstance(t, SeqType)
    return default_value(t.elem)
