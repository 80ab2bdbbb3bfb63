"""Expression trees over schema states: guards, assertions, updates.

Evaluation in a type-correct state is total and deterministic; everything
that can go wrong is rejected at load time.  Partial operations are
totalised with conventional theorem-prover defaults (x div 0 = 0,
HEAD [] = element default, THE NONE = inner default) so that checking
never panics at runtime.

One walk over an expression (`_typed`) type-checks each node and turns
it into nested closures over a state and a list of bound quantifier
values.  `check_expr` keeps its type and `compile_expr`, the one
evaluator, its code.  The tests keep a plain recursive interpreter as
the oracle it is property-tested against.
"""

from __future__ import annotations

from dataclasses import MISSING, FrozenInstanceError, dataclass, fields
from functools import cache
from inspect import formatannotation
from operator import attrgetter
from types import FunctionType
from typing import Any, Callable

from .values import (
    BoolType,
    IntType,
    LoadError,
    OptType,
    RecType,
    Schema,
    SeqType,
    SymType,
    Type,
    conforms,
    default_value,
)

Pos = tuple[int, int] | None


@cache
def _node_methods(names: tuple, post_init: bool):
    """`__init__` and `__eq__` with the bodies `dataclass(frozen=True)`
    generates, compiled once per field-name tuple and `__post_init__` flag."""
    body = [f"    __node_set__(self, {n!r}, {n})" for n in names]
    if post_init:
        body.append("    self.__post_init__()")
    mine = "".join(f"self.{n}," for n in names)
    theirs = "".join(f"other.{n}," for n in names)
    src = "\n".join([
        f"def __init__(self{''.join(', ' + n for n in names)}):",
        *(body or ["    pass"]),
        "def __eq__(self, other):",
        "    if other.__class__ is self.__class__:",
        f"        return ({mine}) == ({theirs})",
        "    return NotImplemented",
    ])
    ns: dict = {}
    exec(src, {"__node_set__": object.__setattr__}, ns)
    return ns["__init__"], ns["__eq__"]


def _node_repr(self) -> str:
    # `__match_args__` lists every field of a node, in order.
    args = ", ".join(f"{n}={getattr(self, n)!r}" for n in self.__match_args__)
    return f"{self.__class__.__qualname__}({args})"


def _node_setattr(self, name, value):
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _node_delattr(self, name):
    raise FrozenInstanceError(f"cannot delete field {name!r}")


def _node(cls):
    """Frozen dataclass whose hash is computed once and cached on the
    instance; the syntax nodes of every language in the toolkit use it.
    `dataclass` builds only the field table here; the methods it would
    generate per class are shared (see `_node_methods`), except an
    `__eq__` the class defines itself.  The hash is
    `hash((class name,) + field values)`; an instance without one reads
    the class default `_h = None`, so no lookup ever raises, and the
    field values come from one `attrgetter` call."""
    if cls.__doc__ is None:  # what dataclass would write, without inspect.signature
        ann = cls.__dict__.get("__annotations__", {})
        params = [
            f"{n}: {formatannotation(a)}" + (f" = {cls.__dict__[n]!r}" if n in cls.__dict__ else "")
            for n, a in ann.items()
        ]
        cls.__doc__ = f"{cls.__name__}({', '.join(params)})"
    cls = dataclass(init=False, repr=False, eq=False)(cls)
    fs = fields(cls)
    names = tuple(f.name for f in fs)
    init, eq = _node_methods(names, hasattr(cls, "__post_init__"))
    defaults = tuple(f.default for f in fs if f.default is not MISSING)
    init = FunctionType(init.__code__, init.__globals__, "__init__", defaults or None)
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    init.__annotations__ = {**{f.name: f.type for f in fs}, "return": None}
    cls.__init__, cls.__repr__ = init, _node_repr
    cls.__eq__ = cls.__dict__.get("__eq__") or eq
    cls.__setattr__, cls.__delattr__ = _node_setattr, _node_delattr

    head = (cls.__name__,)
    if len(names) > 1:
        values = attrgetter(*names)
    elif names:
        values = lambda self, get=attrgetter(*names): (get(self),)  # noqa: E731
    else:
        values = lambda self: ()  # noqa: E731

    def __hash__(self):
        h = self._h
        if h is None:
            h = hash(head + values(self))
            object.__setattr__(self, "_h", h)
        return h

    cls.__hash__, cls._h = __hash__, None
    return cls


def _memo(node) -> dict:
    """The dict of successors `node` has built, created on first use and
    cached on the instance like its hash.  Its keys may name only syntax
    and system identifiers, never a state or a context, so every entry
    stays equal to what the step would build afresh."""
    memo = node.__dict__.get("_memo")
    if memo is None:
        memo = {}
        object.__setattr__(node, "_memo", memo)
    return memo


def _compiled(node, attr: str, schema, build):
    """`build(node, schema)`, cached on the syntax node under `attr`
    together with the schema it was compiled for.  A node used under
    another schema is compiled afresh: compiled code reads variables at
    the schema's indices.  Every language caches compiled code this way."""
    cached = node.__dict__.get(attr)
    if cached is None or cached[0] is not schema:
        cached = (schema, build(node, schema))
        object.__setattr__(node, attr, cached)
    return cached[1]


@_node
class Lit:
    value: Any
    vtype: Any = None  # explicit type for structured literals (expansion)

    def __eq__(self, other):
        # `1 == True` in Python, but the literals `1` and `true` are
        # different syntax: the values must also be of the same class.
        if other.__class__ is Lit:
            return (self.value.__class__ is other.value.__class__
                    and (self.value, self.vtype) == (other.value, other.vtype))
        return NotImplemented


@_node
class Var:
    name: str


@_node
class Field:
    rec: "Expr"
    name: str


@_node
class FieldDyn:
    rec: "Expr"
    key: "Expr"


@_node
class Index:
    seq: "Expr"
    idx: "Expr"


@_node
class Len:
    seq: "Expr"


@_node
class AppendE:
    seq: "Expr"
    elem: "Expr"


@_node
class UpdateE:
    seq: "Expr"
    idx: "Expr"
    val: "Expr"


@_node
class RemoveE:
    seq: "Expr"
    elem: "Expr"


@_node
class HeadE:
    seq: "Expr"


@_node
class TailE:
    seq: "Expr"


@_node
class ContainsE:
    seq: "Expr"
    elem: "Expr"


@_node
class RecWith:
    rec: "Expr"
    name: str
    val: "Expr"


@_node
class RecWithDyn:
    rec: "Expr"
    key: "Expr"
    val: "Expr"


@_node
class MkSeq:
    items: tuple


@_node
class MkRec:
    items: tuple  # ((field, Expr), ...)


@_node
class MkSome:
    inner: "Expr"


@_node
class NoneLit:
    pass


@_node
class IsSome:
    opt: "Expr"


@_node
class TheOpt:
    opt: "Expr"


@_node
class Arith:
    op: str  # + - * DIV MOD ^
    a: "Expr"
    b: "Expr"


@_node
class Neg:
    a: "Expr"


@_node
class Cmp:
    op: str  # = != < <= > >=
    a: "Expr"
    b: "Expr"


@_node
class BoolOp:
    op: str  # AND OR IMPLIES
    a: "Expr"
    b: "Expr"


@_node
class NotE:
    a: "Expr"


@_node
class CondE:
    cond: "Expr"
    then: "Expr"
    other: "Expr"


@_node
class ForallLt:
    var: str
    bound: "Expr"  # var ranges over [0, bound)
    body: "Expr"


@_node
class ExistsLt:
    var: str
    bound: "Expr"
    body: "Expr"


Expr = (
    Lit | Var | Field | FieldDyn | Index | Len | AppendE | UpdateE | RemoveE
    | HeadE | TailE | ContainsE | RecWith | RecWithDyn | MkSeq | MkRec
    | MkSome | NoneLit | IsSome | TheOpt | Arith | Neg | Cmp | BoolOp | NotE
    | CondE | ForallLt | ExistsLt
)

BOOL = BoolType()
# Unbounded intermediate integer results; bounds apply on state assignment.
ANYINT = IntType(-(2**62), 2**62)


def _compat(a: Type, b: Type) -> bool:
    """Structural compatibility for equality and merging (ints ignore bounds)."""
    if isinstance(a, IntType) and isinstance(b, IntType):
        return True
    if isinstance(a, SymType) and isinstance(b, SymType):
        return bool(set(a.values) & set(b.values)) or not a.values or not b.values
    if isinstance(a, SeqType) and isinstance(b, SeqType):
        return _compat(a.elem, b.elem)
    if isinstance(a, RecType) and isinstance(b, RecType):
        return tuple(f for f, _ in a.fields) == tuple(f for f, _ in b.fields) and all(
            _compat(x, y) for (_, x), (_, y) in zip(a.fields, b.fields)
        )
    if isinstance(a, OptType) and isinstance(b, OptType):
        return _compat(a.inner, b.inner)
    return type(a) is type(b)


def free_vars(e: Expr, bound: frozenset[str] = frozenset()) -> set[str]:
    if isinstance(e, Var):
        return set() if e.name in bound else {e.name}
    if isinstance(e, (Lit, NoneLit)):
        return set()
    if isinstance(e, (ForallLt, ExistsLt)):
        return free_vars(e.bound, bound) | free_vars(e.body, bound | {e.var})
    out: set[str] = set()
    for f in fields(e):
        v = getattr(e, f.name)
        if isinstance(v, tuple):
            for item in v:
                sub = item[1] if isinstance(item, tuple) else item
                if _is_expr(sub):
                    out |= free_vars(sub, bound)
        elif _is_expr(v):
            out |= free_vars(v, bound)
    return out


def _is_expr(v: Any) -> bool:
    return hasattr(v, "__dataclass_fields__") and not isinstance(v, Schema)


def substitute(e: Expr, env: dict[str, Expr]) -> Expr:
    """Capture-free substitution of variables by expressions (parameter
    expansion; bound quantifier variables shadow)."""
    if isinstance(e, Var):
        return env.get(e.name, e)
    if isinstance(e, (Lit, NoneLit)):
        return e
    if isinstance(e, (ForallLt, ExistsLt)):
        inner = {k: v for k, v in env.items() if k != e.var}
        return type(e)(e.var, substitute(e.bound, env), substitute(e.body, inner))
    kw = {}
    for f in fields(e):
        v = getattr(e, f.name)
        if isinstance(v, tuple) and v and isinstance(v[0], tuple):
            kw[f.name] = tuple((k, substitute(x, env)) for k, x in v)
        elif isinstance(v, tuple) and all(_is_expr(x) for x in v):
            kw[f.name] = tuple(substitute(x, env) for x in v)
        elif _is_expr(v):
            kw[f.name] = substitute(v, env)
        else:
            kw[f.name] = v
    return type(e)(**kw)


def _div(a: int, b: int) -> int:
    # Floor division: on mixed signs it rounds down, not towards zero.
    # Declared domains keep operands non-negative in practice, so only
    # determinism matters here.
    if b == 0:
        return 0
    return a // b


def _mod(a: int, b: int) -> int:
    if b == 0:
        return a
    return a % b


# ----------------------------------------------------------------------
# The type-and-compile walk: Expr -> (type, f(state, env)), with bound
# variables in a depth-indexed list `env`.  One walk checks every node
# and builds its code, so nothing needs a prior check.
# ----------------------------------------------------------------------

CompiledExpr = Callable[[tuple, list], Any]


def check_expr(
    e: Expr,
    schema: Schema,
    expected: Type | None = None,
    binds: dict[str, Type] | None = None,
    pos: Pos = None,
) -> Type:
    """Type-check `e`, returning its type.  Raises LoadError on any misuse."""
    depths = {n: (d, t) for d, (n, t) in enumerate((binds or {}).items())}
    return _typed(e, schema, expected, depths, pos)[0]


def compile_expr(e: Expr, schema: Schema, expected: Type | None = None) -> CompiledExpr:
    """`e` type-checked against `expected`, as `check_expr` does, and
    compiled.  Callers pass the type they check with: `[]` has a type
    only where one is expected."""
    return _typed(e, schema, expected, {}, None)[1]


_ORDER_OPS = ("<", "<=", ">", ">=")
# operator -> builder of its code from the operands' code
_CMP = {
    "=": lambda f, g: lambda s, env: f(s, env) == g(s, env),
    "!=": lambda f, g: lambda s, env: f(s, env) != g(s, env),
    "<": lambda f, g: lambda s, env: f(s, env) < g(s, env),
    "<=": lambda f, g: lambda s, env: f(s, env) <= g(s, env),
    ">": lambda f, g: lambda s, env: f(s, env) > g(s, env),
    ">=": lambda f, g: lambda s, env: f(s, env) >= g(s, env),
}
_ARITH = {
    "+": lambda f, g: lambda s, env: f(s, env) + g(s, env),
    "-": lambda f, g: lambda s, env: f(s, env) - g(s, env),
    "*": lambda f, g: lambda s, env: f(s, env) * g(s, env),
    "DIV": lambda f, g: lambda s, env: _div(f(s, env), g(s, env)),
    "MOD": lambda f, g: lambda s, env: _mod(f(s, env), g(s, env)),
    "^": lambda f, g: lambda s, env: f(s, env) ** max(g(s, env), 0),
}
_BOOL_OPS = {
    "AND": lambda f, g: lambda s, env: f(s, env) and g(s, env),
    "OR": lambda f, g: lambda s, env: f(s, env) or g(s, env),
    "IMPLIES": lambda f, g: lambda s, env: (not f(s, env)) or g(s, env),
}


def _typed(
    e: Expr, schema: Schema, expected: Type | None, binds: dict[str, tuple[int, Type]], pos: Pos
) -> tuple[Type, CompiledExpr]:
    """The type of `e` and its code, built in one walk.  A node's children
    are checked in a fixed order and the node before its code is made, so
    each LoadError has one place and text.  `binds` maps a bound variable
    to its `env` depth and type."""

    def err(msg: str) -> LoadError:
        return LoadError(msg, pos)

    def chk(e: Expr, expected: Type | None = None) -> tuple[Type, CompiledExpr]:
        t, f = walk(e, expected)
        if expected is not None and t is not expected and not _compat(t, expected):
            raise err(f"expected {expected}, got {t} in {render_expr(e)}")
        return t, f

    def chk_seq(e: Expr, msg: str) -> tuple[SeqType, CompiledExpr]:
        st, f = chk(e)
        if not isinstance(st, SeqType):
            raise err(msg)
        return st, f

    def dyn(rt: RecType, key: Expr, what: str):
        """The field type, field index by name, and key code of a dynamic
        field access or update; the key's type is a set of field names."""
        ftypes = [t for _, t in rt.fields]
        if not all(_compat(ftypes[0], t) for t in ftypes):
            raise err(f"dynamic {what} requires uniform field types")
        names = tuple(f for f, _ in rt.fields)
        kt, k = chk(key, SymType(names))
        if not set(kt.values) <= set(names):
            raise err(f"dynamic {what} key {render_expr(key)} of type {kt} "
                      f"may name a field not in {rt}")
        return ftypes[0], {n: i for i, n in enumerate(names)}, k

    def walk(e: Expr, expected: Type | None) -> tuple[Type, CompiledExpr]:
        # The six most frequent node classes come first: they are nearly
        # all the nodes a model load walks.
        cls = e.__class__
        if cls is Lit:
            v = e.value
            f = lambda s, env: v  # noqa: E731
            if e.vtype is not None:
                if not conforms(v, e.vtype):
                    raise err(f"literal {v!r} does not conform to {e.vtype}")
                return e.vtype, f
            if isinstance(v, bool):
                return BOOL, f
            if isinstance(v, int):
                return ANYINT, f
            if isinstance(v, str):
                if isinstance(expected, SymType):
                    if v not in expected.values:
                        raise err(f"symbol {v!r} not in {expected}")
                    return expected, f
                return SymType((v,)), f
            raise err(f"unsupported literal {v!r}")
        if cls is Var:
            if e.name in binds:
                d, t = binds[e.name]
                return t, lambda s, env: env[d]
            t = schema.var_type(e.name)
            i = schema.index[e.name]
            return t, lambda s, env: s[i]
        if cls is Cmp:
            if e.op in _ORDER_OPS:
                f, g = chk(e.a, ANYINT)[1], chk(e.b, ANYINT)[1]
            else:
                ta, f = chk(e.a)
                g = chk(e.b, ta)[1]
            return BOOL, _CMP[e.op](f, g)
        if cls is Field:
            rt, f = chk(e.rec)
            if not isinstance(rt, RecType):
                raise err(f"field access on non-record: {render_expr(e)}")
            i = rt.field_index(e.name)
            return rt.fields[i][1], lambda s, env: f(s, env)[i]
        if cls is Arith:
            f, g = chk(e.a, ANYINT)[1], chk(e.b, ANYINT)[1]
            return ANYINT, _ARITH[e.op](f, g)
        if cls is BoolOp:
            f, g = chk(e.a, BOOL)[1], chk(e.b, BOOL)[1]
            return BOOL, _BOOL_OPS[e.op](f, g)
        if cls is NotE:
            f = chk(e.a, BOOL)[1]
            return BOOL, lambda s, env: not f(s, env)
        if cls is Neg:
            f = chk(e.a, ANYINT)[1]
            return ANYINT, lambda s, env: -f(s, env)
        if cls is FieldDyn:
            rt, f = chk(e.rec)
            if not isinstance(rt, RecType) or not rt.fields:
                raise err(f"dynamic field access on non-record: {render_expr(e)}")
            ft, idx, k = dyn(rt, e.key, "field access")
            return ft, lambda s, env: f(s, env)[idx[k(s, env)]]
        if cls is Index:
            st, f = chk(e.seq)
            if not isinstance(st, SeqType):
                raise err(f"indexing a non-sequence: {render_expr(e)}")
            g = chk(e.idx, ANYINT)[1]

            def _index(s, env, f=f, g=g, dflt=default_value(st.elem)):
                seq, i = f(s, env), g(s, env)
                return seq[i] if 0 <= i < len(seq) else dflt

            return st.elem, _index
        if cls is Len:
            f = chk_seq(e.seq, "LEN of a non-sequence")[1]
            return ANYINT, lambda s, env: len(f(s, env))
        if cls is AppendE:
            st, f = chk_seq(e.seq, "APPEND to a non-sequence")
            g = chk(e.elem, st.elem)[1]
            return st, lambda s, env: f(s, env) + (g(s, env),)
        if cls is UpdateE:
            st, f = chk_seq(e.seq, "UPDATE of a non-sequence")
            g, h = chk(e.idx, ANYINT)[1], chk(e.val, st.elem)[1]

            def _upd(s, env, f=f, g=g, h=h):
                seq, i = f(s, env), g(s, env)
                if 0 <= i < len(seq):
                    return seq[:i] + (h(s, env),) + seq[i + 1 :]
                return seq

            return st, _upd
        if cls is RemoveE:
            st, f = chk_seq(e.seq, "REMOVE from a non-sequence")
            g = chk(e.elem, st.elem)[1]

            def _rm(s, env, f=f, g=g):
                seq, v = f(s, env), g(s, env)
                for i, x in enumerate(seq):
                    if x == v:
                        return seq[:i] + seq[i + 1 :]
                return seq

            return st, _rm
        if cls is HeadE:
            st, f = chk_seq(e.seq, "HEAD of a non-sequence")

            def _head(s, env, f=f, dflt=default_value(st.elem)):
                seq = f(s, env)
                return seq[0] if seq else dflt

            return st.elem, _head
        if cls is TailE:
            st, f = chk_seq(e.seq, "TAIL of a non-sequence")
            return st, lambda s, env: f(s, env)[1:]
        if cls is ContainsE:
            st, f = chk_seq(e.seq, "IN on a non-sequence")
            g = chk(e.elem, st.elem)[1]
            return BOOL, lambda s, env: g(s, env) in f(s, env)
        if cls is RecWith:
            rt, f = chk(e.rec)
            if not isinstance(rt, RecType):
                raise err("record update of a non-record")
            i = rt.field_index(e.name)
            g = chk(e.val, rt.fields[i][1])[1]

            def _rw(s, env, f=f, g=g, i=i):
                r = f(s, env)
                return r[:i] + (g(s, env),) + r[i + 1 :]

            return rt, _rw
        if cls is RecWithDyn:
            rt, f = chk(e.rec)
            if not isinstance(rt, RecType) or not rt.fields:
                raise err("record update of a non-record")
            ft, idx, k = dyn(rt, e.key, "record update")
            g = chk(e.val, ft)[1]

            def _rwd(s, env, f=f, k=k, g=g, idx=idx):
                r = f(s, env)
                i = idx[k(s, env)]
                return r[:i] + (g(s, env),) + r[i + 1 :]

            return rt, _rwd
        if cls is MkSeq:
            items, fs = e.items, []
            if isinstance(expected, SeqType):
                t = expected
            elif items:
                t0, f = chk(items[0])
                t, items, fs = SeqType(t0, len(items)), items[1:], [f]
            else:
                raise err("cannot infer the type of an empty sequence literal here")
            fs += [chk(it, t.elem)[1] for it in items]
            return t, lambda s, env: tuple(f(s, env) for f in fs)
        if cls is MkRec:
            if isinstance(expected, RecType):
                given = [name for name, _ in e.items]
                if given != [name for name, _ in expected.fields]:
                    declared = list(dict(expected.fields))
                    raise err(f"record literal fields {given} do not match {declared}")
                t = expected
                typed = [chk(x, ft) for (_, x), (_, ft) in zip(e.items, expected.fields)]
            else:
                typed = [chk(x) for _, x in e.items]
                t = RecType(tuple((name, ft) for (name, _), (ft, _) in zip(e.items, typed)))
            fs = [f for _, f in typed]
            return t, lambda s, env: tuple(f(s, env) for f in fs)
        if cls is MkSome:
            if isinstance(expected, OptType):
                t, f = expected, chk(e.inner, expected.inner)[1]
            else:
                it, f = chk(e.inner)
                t = OptType(it)
            return t, lambda s, env: (f(s, env),)
        if cls is NoneLit:
            t = expected if isinstance(expected, OptType) else OptType(ANYINT)
            return t, lambda s, env: None
        if cls is IsSome:
            t, f = chk(e.opt)
            if not isinstance(t, OptType):
                raise err("ISSOME of a non-optional")
            return BOOL, lambda s, env: f(s, env) is not None
        if cls is TheOpt:
            t, f = chk(e.opt)
            if not isinstance(t, OptType):
                raise err("THE of a non-optional")

            def _the(s, env, f=f, dflt=default_value(t.inner)):
                v = f(s, env)
                return v[0] if v is not None else dflt

            return t.inner, _the
        if cls is CondE:
            c = chk(e.cond, BOOL)[1]
            tt, f = chk(e.then, expected)
            g = chk(e.other, tt if expected is None else expected)[1]
            return tt, lambda s, env: f(s, env) if c(s, env) else g(s, env)
        if cls is ForallLt or cls is ExistsLt:
            bf = chk(e.bound, ANYINT)[1]
            depth = len(binds)
            body = _typed(e.body, schema, BOOL, {**binds, e.var: (depth, ANYINT)}, pos)[1]
            want_all = cls is ForallLt

            def _quant(s, env, bf=bf, body=body, want_all=want_all, depth=depth):
                n = bf(s, env)
                env = env + [None] * (depth + 1 - len(env))
                for i in range(n):
                    env[depth] = i
                    if body(s, env):
                        if not want_all:
                            return True
                    elif want_all:
                        return False
                return want_all

            return BOOL, _quant
        raise err(f"unknown expression node {e!r}")

    try:
        return chk(e, expected)
    finally:
        del walk  # `chk` holds it and it holds `chk`: free the cycle by reference count


_PREC = {
    "IMPLIES": 1, "OR": 2, "AND": 3,
    "=": 4, "!=": 4, "<": 4, "<=": 4, ">": 4, ">=": 4, "IN": 4,
    "+": 5, "-": 5, "*": 6, "DIV": 6, "MOD": 6, "^": 7,
}


def render_expr(e: Expr, prec: int = 0) -> str:
    """Concrete-syntax rendering; `parse(render(e)) == e` for parser output."""

    def wrap(s: str, p: int) -> str:
        return f"({s})" if p < prec else s

    if isinstance(e, Lit):
        v = e.value
        if isinstance(v, bool):
            return "true" if v else "false"
        return str(v)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Field):
        return f"{render_expr(e.rec, 8)}.{e.name}"
    if isinstance(e, FieldDyn):
        return f"{render_expr(e.rec, 8)}.[{render_expr(e.key)}]"
    if isinstance(e, Index):
        return f"{render_expr(e.seq, 8)}[{render_expr(e.idx)}]"
    if isinstance(e, Len):
        return f"LEN({render_expr(e.seq)})"
    if isinstance(e, AppendE):
        return f"APPEND({render_expr(e.seq)}, {render_expr(e.elem)})"
    if isinstance(e, UpdateE):
        return f"UPDATE({render_expr(e.seq)}, {render_expr(e.idx)}, {render_expr(e.val)})"
    if isinstance(e, RemoveE):
        return f"REMOVE({render_expr(e.seq)}, {render_expr(e.elem)})"
    if isinstance(e, HeadE):
        return f"HEAD({render_expr(e.seq)})"
    if isinstance(e, TailE):
        return f"TAIL({render_expr(e.seq)})"
    if isinstance(e, ContainsE):
        return wrap(f"{render_expr(e.elem, 5)} IN {render_expr(e.seq, 5)}", 4)
    if isinstance(e, RecWith):
        return f"SETFIELD({render_expr(e.rec)}, {e.name}, {render_expr(e.val)})"
    if isinstance(e, RecWithDyn):
        return f"SETFIELDAT({render_expr(e.rec)}, {render_expr(e.key)}, {render_expr(e.val)})"
    if isinstance(e, MkSeq):
        return "[%s]" % ", ".join(render_expr(x) for x in e.items)
    if isinstance(e, MkRec):
        return "{%s}" % ", ".join(f"{f}: {render_expr(x)}" for f, x in e.items)
    if isinstance(e, MkSome):
        return f"SOME({render_expr(e.inner)})"
    if isinstance(e, NoneLit):
        return "NONE"
    if isinstance(e, IsSome):
        return f"ISSOME({render_expr(e.opt)})"
    if isinstance(e, TheOpt):
        return f"THE({render_expr(e.opt)})"
    if isinstance(e, (Arith, BoolOp)):
        # IMPLIES and ^ associate to the right: a left operand at their
        # own precedence needs parentheses.
        p = _PREC[e.op]
        left = p + 1 if e.op in ("IMPLIES", "^") else p
        return wrap(f"{render_expr(e.a, left)} {e.op} {render_expr(e.b, p + 1)}", p)
    if isinstance(e, Neg):
        return wrap(f"-{render_expr(e.a, 8)}", 7)
    if isinstance(e, Cmp):
        return wrap(f"{render_expr(e.a, 5)} {e.op} {render_expr(e.b, 5)}", 4)
    if isinstance(e, NotE):
        return wrap(f"NOT {render_expr(e.a, 4)}", 3)
    if isinstance(e, CondE):
        return f"COND({render_expr(e.cond)}, {render_expr(e.then)}, {render_expr(e.other)})"
    if isinstance(e, ForallLt):
        return wrap(f"ALL {e.var} < {render_expr(e.bound, 5)} : {render_expr(e.body, 1)}", 1)
    if isinstance(e, ExistsLt):
        return wrap(f"ANY {e.var} < {render_expr(e.bound, 5)} : {render_expr(e.body, 1)}", 1)
    raise AssertionError(f"unknown node {e!r}")
