import dataclasses
import typing

import pytest
from hypothesis import example, given, strategies as st

from expr_oracle import eval_expr
from rgkit import exprs
from rgkit.exprs import (
    AppendE,
    Arith,
    BoolOp,
    Cmp,
    CondE,
    ContainsE,
    ExistsLt,
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
    check_expr,
    compile_expr,
    render_expr,
)
from rgkit.modelfile import Parser
from rgkit.values import (
    BoolType,
    IntType,
    LoadError,
    OptType,
    RecType,
    Schema,
    SeqType,
    SymType,
)


def ev(e, schema, s):
    return compile_expr(e, schema)(s, [])


def test_arithmetic_identities(xschema):
    s = xschema.initial_state()
    assert ev(Arith("+", Lit(1), Lit(1)), xschema, s) == 2
    assert ev(Arith("^", Lit(4), Lit(2)), xschema, s) == 16
    assert ev(Arith("DIV", Lit(7), Lit(2)), xschema, s) == 3
    assert ev(Arith("MOD", Lit(7), Lit(2)), xschema, s) == 1


def test_div_mod_by_zero_totalised(xschema):
    s = xschema.initial_state()
    assert ev(Arith("DIV", Lit(5), Lit(0)), xschema, s) == 0
    assert ev(Arith("MOD", Lit(5), Lit(0)), xschema, s) == 5


def test_forall_over_bits():
    schema = Schema(
        [("bits", SeqType(SymType(("FREE", "USED")), 3), ("FREE", "FREE", "FREE"))]
    )
    q = ForallLt("i", Lit(3), Cmp("=", Index(Var("bits"), Var("i")), Lit("FREE")))
    assert ev(q, schema, schema.initial_state()) is True
    s2 = schema.state(bits=("FREE", "USED", "FREE"))
    assert ev(q, schema, s2) is False
    assert ev(ExistsLt("i", Lit(3), Cmp("=", Index(Var("bits"), Var("i")), Lit("USED"))), schema, s2) is True


def test_sequence_ops(xschema):
    schema = Schema([("xs", SeqType(IntType(0, 9), 4), (1, 2, 3))])
    s = schema.initial_state()
    assert ev(Len(Var("xs")), schema, s) == 3
    assert ev(AppendE(Var("xs"), Lit(7)), schema, s) == (1, 2, 3, 7)
    assert ev(UpdateE(Var("xs"), Lit(1), Lit(9)), schema, s) == (1, 9, 3)
    assert ev(RemoveE(Var("xs"), Lit(2)), schema, s) == (1, 3)
    assert ev(RemoveE(Var("xs"), Lit(5)), schema, s) == (1, 2, 3)
    assert ev(HeadE(Var("xs")), schema, s) == 1
    assert ev(TailE(Var("xs")), schema, s) == (2, 3)
    # totalised partial operations
    empty = schema.state(xs=())
    assert ev(HeadE(Var("xs")), schema, empty) == 0
    assert ev(TailE(Var("xs")), schema, empty) == ()
    assert ev(Index(Var("xs"), Lit(5)), schema, s) == 0


def test_record_and_option():
    rec_t = RecType((("a", IntType(0, 5)), ("b", BoolType())))
    schema = Schema([("r", rec_t, (1, True)), ("o", OptType(IntType(0, 5)), None)])
    s = schema.initial_state()
    assert ev(Field(Var("r"), "a"), schema, s) == 1
    assert ev(RecWith(Var("r"), "a", Lit(4)), schema, s) == (4, True)
    assert ev(IsSome(Var("o")), schema, s) is False
    assert ev(TheOpt(Var("o")), schema, s) == 0  # totalised extraction
    s2 = schema.state(o=(3,))
    assert ev(TheOpt(Var("o")), schema, s2) == 3
    assert ev(MkSome(Lit(2)), schema, s) == (2,)
    assert ev(NoneLit(), schema, s) is None


def test_dynamic_record_access():
    rec_t = RecType((("t1", IntType(0, 5)), ("t2", IntType(0, 5))))
    schema = Schema([("m", rec_t, (1, 2)), ("k", SymType(("t1", "t2")), "t2")])
    s = schema.initial_state()
    assert ev(FieldDyn(Var("m"), Var("k")), schema, s) == 2
    assert ev(RecWithDyn(Var("m"), Var("k"), Lit(5)), schema, s) == (1, 5)


def test_typecheck_rejections(xschema):
    with pytest.raises(LoadError):
        check_expr(Arith("+", Lit(1), Lit(True)), xschema)
    with pytest.raises(LoadError):
        check_expr(Var("nope"), xschema)
    with pytest.raises(LoadError):
        check_expr(Len(Var("x")), xschema)
    with pytest.raises(LoadError):
        check_expr(BoolOp("AND", Lit(1), Lit(True)), xschema)


EXPRS = [
    Arith("+", Var("x"), Lit(1)),
    Arith("-", Arith("*", Var("x"), Lit(3)), Lit(1)),
    Arith("DIV", Var("x"), Lit(2)),
    Arith("^", Lit(2), Var("x")),
    Cmp("<", Var("x"), Lit(2)),
    BoolOp("AND", Var("flag"), Cmp("=", Var("x"), Lit(1))),
    BoolOp("IMPLIES", Var("flag"), Cmp(">", Var("x"), Lit(0))),
    NotE(Var("flag")),
    CondE(Var("flag"), Var("x"), Arith("+", Var("x"), Lit(1))),
    ForallLt("i", Var("x"), Cmp("<", Var("i"), Lit(3))),
    ExistsLt("i", Var("x"), Cmp("=", Var("i"), Lit(2))),
]


@given(x=st.integers(0, 3), flag=st.booleans())
def test_compiled_agrees_with_interpreter(x, flag):
    schema = Schema([("x", IntType(0, 3), 0), ("flag", BoolType(), False)])
    s = schema.state(x=x, flag=flag)
    for e in EXPRS:
        check_expr(e, schema)
        assert compile_expr(e, schema)(s, []) == eval_expr(e, schema, s)


@given(x=st.integers(0, 3), flag=st.booleans())
def test_eval_is_pure(x, flag):
    """A compiled expression gives the same value on every call and
    leaves the env list it is handed as it was."""
    schema = Schema([("x", IntType(0, 3), 0), ("flag", BoolType(), False)])
    s = schema.state(x=x, flag=flag)
    for e in EXPRS:
        f, env = compile_expr(e, schema), []
        assert f(s, env) == f(s, env)
        assert env == []


# Every node class, with each totalised edge case and every operator,
# against the test oracle.  Element, field and option defaults are not 0,
# so a wrong default shows.
_ELEM = IntType(1, 3)
_REC = RecType((("a", _ELEM), ("b", _ELEM)))
ORACLE_SCHEMA = Schema([
    ("x", IntType(0, 3), 0),
    ("flag", BoolType(), False),
    ("xs", SeqType(_ELEM, 3), ()),
    ("r", _REC, (1, 1)),
    ("k", SymType(("a", "b")), "a"),
    ("o", OptType(IntType(2, 3)), None),
    ("rs", SeqType(_REC, 2), ()),
])
x, flag, xs, r, k, o, rs = (Var(n) for n in ORACLE_SCHEMA.names)
PAIR = MkSeq((Lit(1), Lit(2)))
ARITH_OPS = ("+", "-", "*", "DIV", "MOD", "^")
CMP_OPS = ("=", "!=", "<", "<=", ">", ">=")
BOOL_OPS = ("AND", "OR", "IMPLIES")

ORACLE_EXPRS = [
    Lit(2),
    Lit(True),
    Lit("b", SymType(("a", "b"))),
    x,
    Field(r, "b"),
    FieldDyn(r, k),
    Field(HeadE(rs), "a"),  # HEAD [] of records: the record default
    Index(xs, x),  # out of range whenever x >= LEN(xs)
    Index(xs, Neg(Lit(1))),
    Index(PAIR, Lit(2)),
    Len(xs),
    AppendE(xs, x),
    UpdateE(xs, x, Lit(3)),  # out of range whenever x >= LEN(xs)
    UpdateE(PAIR, Lit(-1), Lit(9)),
    RemoveE(xs, x),  # x = 0 is never an element
    RemoveE(PAIR, Lit(3)),
    HeadE(xs),
    HeadE(TailE(MkSeq((Lit(4),)))),  # always empty
    TailE(xs),
    ContainsE(xs, x),
    RecWith(r, "a", x),
    RecWithDyn(r, k, Lit(3)),
    MkSeq((x, Lit(1))),
    MkRec((("a", x), ("b", Lit(2)))),
    MkSome(x),
    NoneLit(),
    IsSome(o),
    TheOpt(o),  # THE NONE: the inner default
    TheOpt(NoneLit()),
    *(Arith(op, x, Lit(2)) for op in ARITH_OPS),
    Arith("DIV", Lit(5), x),  # by 0 when x = 0
    Arith("MOD", Lit(5), x),
    Arith("DIV", Neg(x), Lit(2)),  # mixed signs
    Arith("MOD", Neg(x), Lit(2)),
    Arith("^", Lit(2), Neg(x)),
    *(Cmp(op, x, Lit(2)) for op in CMP_OPS),
    Cmp("=", r, MkRec((("a", Lit(1)), ("b", Lit(1))))),
    Cmp("!=", o, NoneLit()),
    *(BoolOp(op, flag, Cmp("<", x, Lit(2))) for op in BOOL_OPS),
    NotE(flag),
    CondE(flag, x, Len(xs)),
    ForallLt("i", Len(xs), ExistsLt("j", Lit(4), Cmp("=", Index(xs, Var("i")), Var("j")))),
    ExistsLt("x", Lit(2), Cmp("=", Var("x"), Lit(1))),  # binder shadows a state variable
]

ORACLE_STATES = st.builds(
    lambda x, flag, xs, r, k, o, rs: ORACLE_SCHEMA.state(x=x, flag=flag, xs=xs, r=r, k=k, o=o, rs=rs),
    st.integers(0, 3),
    st.booleans(),
    st.lists(st.integers(1, 3), max_size=3).map(tuple),
    st.tuples(st.integers(1, 3), st.integers(1, 3)),
    st.sampled_from(("a", "b")),
    st.none() | st.integers(2, 3).map(lambda v: (v,)),
    st.lists(st.tuples(st.integers(1, 3), st.integers(1, 3)), max_size=2).map(tuple),
)


NODE_CLASSES = typing.get_args(exprs.Expr)


def _subterms(e):
    yield e
    for f in dataclasses.fields(e):
        v = getattr(e, f.name)
        for item in v if isinstance(v, tuple) else (v,):
            item = item[1] if isinstance(item, tuple) else item  # MkRec fields
            if isinstance(item, NODE_CLASSES):
                yield from _subterms(item)


def test_oracle_exprs_cover_every_node_class_and_operator():
    subterms = [t for e in ORACLE_EXPRS for t in _subterms(e)]
    assert {type(t) for t in subterms} == set(NODE_CLASSES)
    for cls, ops in ((Arith, ARITH_OPS), (Cmp, CMP_OPS), (BoolOp, BOOL_OPS)):
        assert {t.op for t in subterms if isinstance(t, cls)} == set(ops)


@given(s=ORACLE_STATES)
@example(s=ORACLE_SCHEMA.initial_state())
def test_compiled_agrees_with_oracle_on_every_node(s):
    for e in ORACLE_EXPRS:
        check_expr(e, ORACLE_SCHEMA)
        got = compile_expr(e, ORACLE_SCHEMA)(s, [])
        assert repr(got) == repr(eval_expr(e, ORACLE_SCHEMA, s)), render_expr(e)


def _as_parsed(e):
    """`e` as the parser builds it from `render_expr(e)`: a literal has no
    explicit type, a symbol literal reads as a name, and minus before a
    non-negative integer literal reads as a negative literal."""
    if isinstance(e, Lit):
        return Var(e.value) if isinstance(e.value, str) else Lit(e.value)
    if isinstance(e, Neg) and isinstance(e.a, Lit) and type(e.a.value) is int and e.a.value >= 0:
        return Lit(-e.a.value)
    kids = {}
    for f in dataclasses.fields(e):
        v = getattr(e, f.name)
        if isinstance(v, NODE_CLASSES):
            kids[f.name] = _as_parsed(v)
        elif isinstance(v, tuple):  # MkSeq items, MkRec (name, value) fields
            kids[f.name] = tuple(
                (i[0], _as_parsed(i[1])) if isinstance(i, tuple) else _as_parsed(i) for i in v
            )
    return dataclasses.replace(e, **kids)


def test_render_parses_back():
    for e in EXPRS + ORACLE_EXPRS:
        text = render_expr(e)
        assert Parser(text).parse_expr() == _as_parsed(e), text


_OPERANDS = st.sampled_from([x, flag, xs]) | st.integers(-3, 3).map(Lit)
OPERATOR_TREES = st.recursive(
    _OPERANDS,
    lambda kids: st.one_of(
        st.builds(Arith, st.sampled_from(ARITH_OPS), kids, kids),
        st.builds(Cmp, st.sampled_from(CMP_OPS), kids, kids),
        st.builds(BoolOp, st.sampled_from(BOOL_OPS), kids, kids),
        st.builds(ContainsE, kids, kids),
        st.builds(NotE, kids),
        st.builds(Neg, kids),
    ),
    max_leaves=12,
)


@given(e=OPERATOR_TREES)
@example(e=BoolOp("IMPLIES", BoolOp("IMPLIES", x, flag), x))
@example(e=Arith("^", Arith("^", x, Lit(2)), Lit(3)))
@example(e=NotE(Cmp("=", Cmp("<", x, Lit(1)), flag)))
@example(e=Neg(Arith("^", Neg(x), Lit(2))))
def test_operator_trees_parse_back(e):
    """Precedence and associativity: rendering any tree of operators and
    parsing the text back gives the tree."""
    text = render_expr(e)
    assert Parser(text).parse_expr() == _as_parsed(e), text


# ----------------------------------------------------------------------
# The type walk, pinned: the exact text and position of each load error
# `check_expr` raises, and the type it gives every sub-term of
# `ORACLE_EXPRS` (`tests/expr_oracle.py` takes its defaults from these
# types, so the oracle alone cannot catch a wrong one).
# ----------------------------------------------------------------------

_MIXED = RecType((("a", _ELEM), ("b", BoolType())))
ERR_SCHEMA = Schema([
    *zip(ORACLE_SCHEMA.names, ORACLE_SCHEMA.types, ORACLE_SCHEMA.inits),
    ("m", _MIXED, (1, False)),
])
m = Var("m")
ERR_POS = (7, 9)
ANYINT_TEXT = str(exprs.ANYINT)

TYPE_ERRORS = [  # (expression, expected type or None, message, has the position)
    (Lit(5, IntType(0, 3)), None, "literal 5 does not conform to INT 0..3", True),
    (Lit("zz"), SymType(("a", "b")), "symbol 'zz' not in SYM {a, b}", True),
    (Lit(1.5), None, "unsupported literal 1.5", True),
    (Field(x, "a"), None, "field access on non-record: x.a", True),
    (FieldDyn(x, k), None, "dynamic field access on non-record: x.[k]", True),
    (FieldDyn(m, k), None, "dynamic field access requires uniform field types", True),
    (Index(x, Lit(0)), None, "indexing a non-sequence: x[0]", True),
    (Len(x), None, "LEN of a non-sequence", True),
    (AppendE(x, Lit(1)), None, "APPEND to a non-sequence", True),
    (UpdateE(x, Lit(0), Lit(1)), None, "UPDATE of a non-sequence", True),
    (RemoveE(x, Lit(1)), None, "REMOVE from a non-sequence", True),
    (HeadE(x), None, "HEAD of a non-sequence", True),
    (TailE(x), None, "TAIL of a non-sequence", True),
    (ContainsE(x, Lit(1)), None, "IN on a non-sequence", True),
    (RecWith(x, "a", Lit(1)), None, "record update of a non-record", True),
    (RecWithDyn(x, k, Lit(1)), None, "record update of a non-record", True),
    (RecWithDyn(m, k, Lit(1)), None, "dynamic record update requires uniform field types", True),
    (MkSeq(()), None, "cannot infer the type of an empty sequence literal here", True),
    (Cmp("=", r, MkRec((("b", Lit(1)), ("a", Lit(1))))), None,
     "record literal fields ['b', 'a'] do not match ['a', 'b']", True),
    (IsSome(x), None, "ISSOME of a non-optional", True),
    (TheOpt(x), None, "THE of a non-optional", True),
    ("x", None, "unknown expression node 'x'", True),
    (Arith("+", Lit(1), Lit(True)), None, f"expected {ANYINT_TEXT}, got BOOL in true", True),
    (Var("nope"), None, "undeclared variable 'nope'", False),
    (Field(r, "zz"), None, "unknown record field 'zz'", False),
    (RecWith(r, "zz", Lit(1)), None, "unknown record field 'zz'", False),
    # the first error in walk order wins, inside binders too
    (BoolOp("AND", Len(x), HeadE(x)), None, "LEN of a non-sequence", True),
    (Cmp("=", xs, x), None, "expected SEQ 3 OF INT 1..3, got INT 0..3 in x", True),
    (ForallLt("i", Lit(2), Var("i")), None, f"expected BOOL, got {ANYINT_TEXT} in i", True),
    (ExistsLt("i", Lit(2), Cmp("=", Len(Var("i")), Lit(0))), None, "LEN of a non-sequence", True),
    (CondE(flag, x, flag), None, "expected INT 0..3, got BOOL in flag", True),
    (MkSeq((Lit(1), flag)), None, f"expected {ANYINT_TEXT}, got BOOL in flag", True),
    (MkRec((("a", Lit(1)),)), _REC, "record literal fields ['a'] do not match ['a', 'b']", True),
    (MkSome(flag), OptType(_ELEM), "expected INT 1..3, got BOOL in flag", True),
    (NoneLit(), _ELEM, f"expected INT 1..3, got OPT {ANYINT_TEXT} in NONE", True),
]


def test_type_errors_are_pinned():
    for e, expected, msg, positioned in TYPE_ERRORS:
        with pytest.raises(LoadError) as info:
            check_expr(e, ERR_SCHEMA, expected, None, ERR_POS)
        assert (info.value.msg, info.value.pos) == (msg, ERR_POS if positioned else None), e


SUBTERM_TYPES = [  # (sub-term of ORACLE_EXPRS as rendered, its type), first occurrences
    ('2', 'ANYINT'),
    ('true', 'BOOL'),
    ('b', 'SYM {a, b}'),
    ('x', 'INT 0..3'),
    ('r.b', 'INT 1..3'),
    ('r', 'REC {a: INT 1..3, b: INT 1..3}'),
    ('r.[k]', 'INT 1..3'),
    ('k', 'SYM {a, b}'),
    ('HEAD(rs).a', 'INT 1..3'),
    ('HEAD(rs)', 'REC {a: INT 1..3, b: INT 1..3}'),
    ('rs', 'SEQ 2 OF REC {a: INT 1..3, b: INT 1..3}'),
    ('xs[x]', 'INT 1..3'),
    ('xs', 'SEQ 3 OF INT 1..3'),
    ('xs[-1]', 'INT 1..3'),
    ('-1', 'ANYINT'),
    ('1', 'ANYINT'),
    ('[1, 2][2]', 'ANYINT'),
    ('[1, 2]', 'SEQ 2 OF ANYINT'),
    ('LEN(xs)', 'ANYINT'),
    ('APPEND(xs, x)', 'SEQ 3 OF INT 1..3'),
    ('UPDATE(xs, x, 3)', 'SEQ 3 OF INT 1..3'),
    ('3', 'ANYINT'),
    ('UPDATE([1, 2], -1, 9)', 'SEQ 2 OF ANYINT'),
    ('9', 'ANYINT'),
    ('REMOVE(xs, x)', 'SEQ 3 OF INT 1..3'),
    ('REMOVE([1, 2], 3)', 'SEQ 2 OF ANYINT'),
    ('HEAD(xs)', 'INT 1..3'),
    ('HEAD(TAIL([4]))', 'ANYINT'),
    ('TAIL([4])', 'SEQ 1 OF ANYINT'),
    ('[4]', 'SEQ 1 OF ANYINT'),
    ('4', 'ANYINT'),
    ('TAIL(xs)', 'SEQ 3 OF INT 1..3'),
    ('x IN xs', 'BOOL'),
    ('SETFIELD(r, a, x)', 'REC {a: INT 1..3, b: INT 1..3}'),
    ('SETFIELDAT(r, k, 3)', 'REC {a: INT 1..3, b: INT 1..3}'),
    ('[x, 1]', 'SEQ 2 OF INT 0..3'),
    ('{a: x, b: 2}', 'REC {a: INT 0..3, b: ANYINT}'),
    ('SOME(x)', 'OPT INT 0..3'),
    ('NONE', 'OPT ANYINT'),
    ('ISSOME(o)', 'BOOL'),
    ('o', 'OPT INT 2..3'),
    ('THE(o)', 'INT 2..3'),
    ('THE(NONE)', 'ANYINT'),
    ('x + 2', 'ANYINT'),
    ('x - 2', 'ANYINT'),
    ('x * 2', 'ANYINT'),
    ('x DIV 2', 'ANYINT'),
    ('x MOD 2', 'ANYINT'),
    ('x ^ 2', 'ANYINT'),
    ('5 DIV x', 'ANYINT'),
    ('5', 'ANYINT'),
    ('5 MOD x', 'ANYINT'),
    ('-x DIV 2', 'ANYINT'),
    ('-x', 'ANYINT'),
    ('-x MOD 2', 'ANYINT'),
    ('2 ^ (-x)', 'ANYINT'),
    ('x = 2', 'BOOL'),
    ('x != 2', 'BOOL'),
    ('x < 2', 'BOOL'),
    ('x <= 2', 'BOOL'),
    ('x > 2', 'BOOL'),
    ('x >= 2', 'BOOL'),
    ('r = {a: 1, b: 1}', 'BOOL'),
    ('{a: 1, b: 1}', 'REC {a: ANYINT, b: ANYINT}'),
    ('o != NONE', 'BOOL'),
    ('flag AND x < 2', 'BOOL'),
    ('flag', 'BOOL'),
    ('flag OR x < 2', 'BOOL'),
    ('flag IMPLIES x < 2', 'BOOL'),
    ('NOT flag', 'BOOL'),
    ('COND(flag, x, LEN(xs))', 'INT 0..3'),
    ('ALL i < LEN(xs) : ANY j < 4 : xs[i] = j', 'BOOL'),
    ('ANY j < 4 : xs[i] = j', 'BOOL'),
    ('xs[i] = j', 'BOOL'),
    ('xs[i]', 'INT 1..3'),
    ('i', 'ANYINT'),
    ('j', 'ANYINT'),
    ('ANY x < 2 : x = 1', 'BOOL'),
    ('x = 1', 'BOOL'),
    ('x', 'ANYINT'),
]


def _typed_subterms(e, binds):
    yield e, binds
    if isinstance(e, (ForallLt, ExistsLt)):
        yield from _typed_subterms(e.bound, binds)
        yield from _typed_subterms(e.body, {**binds, e.var: exprs.ANYINT})
        return
    for f in dataclasses.fields(e):
        v = getattr(e, f.name)
        for item in v if isinstance(v, tuple) else (v,):
            item = item[1] if isinstance(item, tuple) else item  # MkRec fields
            if isinstance(item, NODE_CLASSES):
                yield from _typed_subterms(item, binds)


def test_subterm_types_are_pinned():
    got = {}
    for top in ORACLE_EXPRS:
        for e, binds in _typed_subterms(top, {}):
            text = str(check_expr(e, ORACLE_SCHEMA, None, binds)).replace(ANYINT_TEXT, "ANYINT")
            got.setdefault((render_expr(e), text), None)
    assert list(got) == SUBTERM_TYPES
