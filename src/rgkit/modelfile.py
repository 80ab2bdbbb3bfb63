"""Model files: concrete syntax, loading, and canonical serialization.

Two formats share one tokenizer:

  .pcm  -- schemas, state sets, relations, rely-guarantee quadruples,
           programs, parametrized events, event systems, parallel systems
           and proof outlines; or a BUDDY section that asks the builder to
           assemble the kernel corpus model at the declared dimensions.
  .bpc  -- a schema plus link declarations and named activities.

The parser works over the list of token strings; a token's line and
column are computed from its index only for an error message.  Parsing
produces positioned errors; `serialize(parse(text))` is canonical and
`parse . serialize` is the identity on the loaded model.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Any

from .adapters import (
    ADAPTERS,
    IMP_ADAPTER,
    AdapterContext,
    Await,
    Basic,
    Cond,
    Ctx,
    PSeq,
    While,
    check_program,
    render_program,
    subst_program,
)
from .events import (
    AtomEvtNode,
    BasicEvtNode,
    ChoiceNode,
    ConseqNode,
    EsAtomic,
    EsBasic,
    EsChoice,
    EsIter,
    EsJoin,
    EsSeq,
    EsTriggered,
    EventSystem,
    EventTemplate,
    FIN,
    IterNode,
    JoinNode,
    Outline,
    ParallelEventSystem,
    ParNode,
    SeqNode,
    TrgEvtNode,
    expand_events,
)
from .exprs import (
    AppendE,
    Arith,
    BoolOp,
    Cmp,
    CondE,
    ContainsE,
    Expr,
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
    _compiled,
    render_expr,
)
from .relations import RGSpec, RelDesc, RelRule, StateSet, full_rel, univ_rel
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
    render_value,
)

# One token: a name, an integer with an optional minus, or an operator.
# Where two alternatives can match at one character the longer comes
# first: an integer before "->" and "-", and each two-character operator
# before its first character.
_TOKEN = (
    r"[A-Za-z_][A-Za-z0-9_]*"  # a name
    r"|[()\[\]{},+*^@|]"  # an operator that starts no other token
    r"|-?\d+"  # an integer
    r"|:=|;;|\.\.|!=|<=|>=|->|[:;.=<>\-]"
)
# Every token as group 1; a comment matches with no group.
_TOKENS_RE = re.compile(rf"\#[^\n]*|({_TOKEN})")
# The longest prefix of a text that splits into whitespace, comments and
# tokens: nothing follows the loop, so it never backtracks.
_LEXABLE_RE = re.compile(rf"(?:\s+|\#[^\n]*|{_TOKEN})*")


def tokenize(text: str) -> list[str]:
    """The token strings of `text` followed by "", the end marker.  A
    character that starts no whitespace, comment or token is an error."""
    end = _LEXABLE_RE.match(text).end()
    if end < len(text):
        raise LoadError(f"unexpected character {text[end]!r}", _line_col(text, end))
    toks = list(filter(None, _TOKENS_RE.findall(text)))  # drop the comments
    toks.append("")
    return toks


def token_kind(t: str) -> str:
    """"id" for a name, "num" for an integer, "op" for an operator, and
    "eof" for the end marker.  Names start with a letter or "_", integers
    end with a digit and operators hold neither."""
    if not t:
        return "eof"
    if t[0] == "_" or t[0].isalpha():
        return "id"
    return "num" if t[-1].isdecimal() else "op"


def _line_col(text: str, offset: int) -> tuple[int, int]:
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


def token_position(text: str, k: int) -> tuple[int, int]:
    """(line, column) of token `k` of `tokenize(text)`; the end marker
    sits at the end of the text."""
    for m in _TOKENS_RE.finditer(text):
        if m.lastindex:
            if not k:
                return _line_col(text, m.start())
            k -= 1
    return _line_col(text, len(text))


@dataclass
class ModelFile:
    name: str
    adapter_name: str
    schema: Schema
    sets: dict[str, StateSet] = field(default_factory=dict)
    rels: dict[str, RelDesc] = field(default_factory=dict)
    rgspecs: dict[str, RGSpec] = field(default_factory=dict)
    programs: dict[str, Any] = field(default_factory=dict)
    events: dict[str, EventTemplate] = field(default_factory=dict)
    esystems: dict[str, EventSystem] = field(default_factory=dict)
    pes: dict[str, ParallelEventSystem] = field(default_factory=dict)
    outlines: dict[str, Outline] = field(default_factory=dict)
    buddy: Any = None  # BuddyModel when loaded from a BUDDY section
    source_order: list[tuple[str, str]] = field(default_factory=list)

    def ctx(self) -> Ctx:
        return Ctx(AdapterContext(self.schema), ADAPTERS[self.adapter_name])


@dataclass
class BpelFile:
    name: str
    bctx: bp.BpelCtx
    store_decls: list
    links: tuple[str, ...]
    tick_max: int
    activities: dict[str, bp.Activity] = field(default_factory=dict)


# Binary operators: (precedence, least precedence of the right operand,
# greatest precedence of an operator that may follow at the same level,
# tree builder).  IMPLIES and ^ associate to the right; a comparison or IN
# takes no chain.  Prefix NOT binds at 4 and prefix minus at 9.
_BINARY: dict[str, tuple] = {
    "IMPLIES": (1, 1, 0, BoolOp),
    "OR": (2, 3, 2, BoolOp),
    "AND": (3, 4, 3, BoolOp),
    **{op: (5, 6, 4, Cmp) for op in ("=", "!=", "<", "<=", ">", ">=")},
    "IN": (5, 6, 4, lambda _op, a, b: ContainsE(b, a)),
    "+": (6, 7, 6, Arith),
    "-": (6, 7, 6, Arith),
    "*": (7, 8, 7, Arith),
    "DIV": (7, 8, 7, Arith),
    "MOD": (7, 8, 7, Arith),
    "^": (8, 8, 7, Arith),
}

# Built-in calls with their node class and arity.
_CALLS = {
    "LEN": (Len, 1),
    "APPEND": (AppendE, 2),
    "UPDATE": (UpdateE, 3),
    "REMOVE": (RemoveE, 2),
    "HEAD": (HeadE, 1),
    "TAIL": (TailE, 1),
    "SETFIELDAT": (RecWithDyn, 3),
    "ISSOME": (IsSome, 1),
    "THE": (TheOpt, 1),
    "COND": (CondE, 3),
}


class _Located:
    """Gives a LoadError raised without a position inside the block (by
    the checks that run after parsing) the position of token `k`, where
    the parser started the construct.  A class, not a generator: models
    enter one such block per set, rule, program and event reference."""

    __slots__ = ("parser", "k")

    def __init__(self, parser: "Parser", k: int):
        self.parser, self.k = parser, k

    def __enter__(self) -> None:
        pass

    def __exit__(self, typ, e, tb) -> None:
        if isinstance(e, LoadError) and e.pos is None:
            raise LoadError(e.msg, self.parser.pos(self.k)) from e


class Parser:
    """Recursive descent over the token strings of one text.  `i` indexes
    the next token; a position is computed from a token index only when
    an error needs it."""

    def __init__(self, text: str):
        self.text = text
        self.toks = tokenize(text)
        self.i = 0
        self.event_at: dict[str, int] = {}  # event name -> index of its name token
        self.mf: ModelFile | None = None

    # -- token utilities --------------------------------------------------
    def pos(self, k: int) -> tuple[int, int]:
        return token_position(self.text, k)

    def at(self, text: str) -> bool:
        return self.toks[self.i] == text

    def take(self, text: str) -> bool:
        """Consume the next token if it is `text`."""
        if self.toks[self.i] == text:
            self.i += 1
            return True
        return False

    def next(self) -> str:
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect(self, text: str) -> str:
        t = self.toks[self.i]
        if t != text:
            raise self.err(f"expected {text!r}, found {t!r}")
        self.i += 1
        return t

    def ident(self) -> str:
        t = self.toks[self.i]
        if not t.isidentifier():  # of the tokens, exactly the names
            raise self.err(f"expected a name, found {t!r}")
        self.i += 1
        return t

    def err(self, msg: str, k: int | None = None) -> LoadError:
        """A LoadError at token `k`, by default the next one."""
        return LoadError(msg, self.pos(self.i if k is None else k))

    def located(self, k: int) -> _Located:
        return _Located(self, k)

    def _list(self, item, sep: str = ",") -> list:
        """One or more `item()`s separated by `sep`."""
        items = [item()]
        while self.take(sep):
            items.append(item())
        return items

    def _enclosed(self, open_: str, item, close: str):
        """`item()` between the tokens `open_` and `close`."""
        self.expect(open_)
        x = item()
        self.expect(close)
        return x

    # -- types and values -------------------------------------------------
    def parse_type(self) -> Type:
        t = self.next()
        if t == "INT":
            lo = self.parse_int()
            self.expect("..")
            return IntType(lo, self.parse_int())
        if t == "BOOL":
            return BoolType()
        if t == "SYM":
            self.expect("{")
            vals = self._list(self.ident)
            self.expect("}")
            return SymType(tuple(vals))
        if t == "SEQ":
            n = self.parse_int()
            self.expect("OF")
            return SeqType(self.parse_type(), n)
        if t == "REC":
            self.expect("{")
            fields_ = self._list(lambda: (self.ident(), self._field_type()))
            self.expect("}")
            return RecType(tuple(fields_))
        if t == "OPT":
            return OptType(self.parse_type())
        raise self.err(f"expected a type, found {t!r}", self.i - 1)

    def _field_type(self) -> Type:
        self.expect(":")
        return self.parse_type()

    def parse_int(self) -> int:
        t = self.toks[self.i]
        if token_kind(t) != "num":
            raise self.err(f"expected an integer, found {t!r}")
        self.i += 1
        return int(t)

    def parse_value(self, typ: Type):
        k = self.i
        if isinstance(typ, IntType):
            return self.parse_int()
        if isinstance(typ, BoolType):
            v = self.next()
            if v not in ("true", "false"):
                raise self.err(f"expected a boolean, found {v!r}", k)
            return v == "true"
        if isinstance(typ, SymType):
            v = self.ident()
            if v not in typ.values:
                raise self.err(f"symbol {v!r} not in {typ}", k)
            return v
        if isinstance(typ, SeqType):
            self.expect("[")
            items = []
            if not self.at("]"):
                items = self._list(lambda: self.parse_value(typ.elem))
            self.expect("]")
            return tuple(items)
        if isinstance(typ, RecType):
            self.expect("{")
            vals = []
            for j, (fname, ftype) in enumerate(typ.fields):
                if j:
                    self.expect(",")
                got = self.ident()
                if got != fname:
                    raise self.err(f"expected field {fname!r}, found {got!r}", k)
                self.expect(":")
                vals.append(self.parse_value(ftype))
            self.expect("}")
            return tuple(vals)
        if isinstance(typ, OptType):
            if self.take("NONE"):
                return None
            self.expect("SOME")
            return (self.parse_value(typ.inner),)
        raise AssertionError(typ)

    # -- expressions -------------------------------------------------------
    def parse_expr(self, lo: int = 1) -> Expr:
        """An expression whose binary operators bind at least at `lo`, by
        precedence climbing over `_BINARY` (Pratt, POPL 1973)."""
        toks = self.toks
        t = toks[self.i]
        if t == "NOT" and lo <= 4:  # above 4, NOT reads as a name
            self.i += 1
            a, hi = NotE(self.parse_expr(4)), 3  # then only AND, OR, IMPLIES
        elif t == "-":
            self.i += 1
            a, hi = Neg(self.parse_expr(9)), 8
        else:
            a, hi = self._postfix(), 8
        while True:
            op = toks[self.i]
            minus = op[:1] == "-" and op[1:2].isdecimal()  # "x-1" lexes as x, -1
            b = _BINARY.get("-" if minus else op)
            if b is None or not lo <= b[0] <= hi:
                return a
            if minus:  # a binary minus; its digits stay as the next token
                op, toks[self.i] = "-", op[1:]
            else:
                self.i += 1
            _, rlo, hi, build = b
            a = build(op, a, self.parse_expr(rlo))

    def _postfix(self) -> Expr:
        a = self._atom()
        while True:
            if self.take("["):
                a = Index(a, self.parse_expr())
                self.expect("]")
            elif self.take("."):
                if self.take("["):
                    a = FieldDyn(a, self.parse_expr())
                    self.expect("]")
                else:
                    a = Field(a, self.ident())
            else:
                return a

    def _call(self, name: str, n: int) -> list[Expr]:
        self.expect("(")
        args = self._list(self.parse_expr)
        self.expect(")")
        if len(args) != n:
            raise self.err(f"{name} takes {n} arguments, got {len(args)}")
        return args

    def _atom(self) -> Expr:
        t = self.toks[self.i]
        kind = token_kind(t)
        if kind == "num":
            self.i += 1
            return Lit(int(t))
        if t == "(":
            self.i += 1
            e = self.parse_expr()
            self.expect(")")
            return e
        if t == "[":
            self.i += 1
            items = [] if self.at("]") else self._list(self.parse_expr)
            self.expect("]")
            return MkSeq(tuple(items))
        if t == "{":
            self.i += 1
            items = self._list(lambda: (self.ident(), self._rec_field()))
            self.expect("}")
            return MkRec(tuple(items))
        if kind != "id":
            raise self.err(f"unexpected token {t!r} in expression")
        self.i += 1
        if t in _CALLS:
            cls, n = _CALLS[t]
            return cls(*self._call(t, n))
        if t == "true":
            return Lit(True)
        if t == "false":
            return Lit(False)
        if t == "NONE":
            return NoneLit()
        if t == "SOME":
            return MkSome(self._enclosed("(", self.parse_expr, ")"))
        if t in ("ALL", "ANY"):
            var = self.ident()
            self.expect("<")
            bound = self.parse_expr(6)  # arithmetic only
            self.expect(":")
            body = self.parse_expr()
            return (ForallLt if t == "ALL" else ExistsLt)(var, bound, body)
        if t == "SETFIELD":
            self.expect("(")
            rec = self.parse_expr()
            self.expect(",")
            fname = self.ident()
            self.expect(",")
            val = self.parse_expr()
            self.expect(")")
            return RecWith(rec, fname, val)
        return Var(t)

    def _rec_field(self) -> Expr:
        self.expect(":")
        return self.parse_expr()

    # -- programs ----------------------------------------------------------
    def parse_stmt(self):
        parts = self._list(self._stmt_atom, ";;")
        out = parts[-1]
        for p in reversed(parts[:-1]):
            out = PSeq(p, out)
        return out

    def _assign_list(self) -> tuple:
        if self.take("("):
            vars_ = self._list(self.ident)
            self.expect(")")
            self.expect(":=")
            self.expect("(")
            exprs = self._list(self.parse_expr)
            self.expect(")")
            if len(vars_) != len(exprs):
                raise self.err("multi-assignment arity mismatch")
            return tuple(zip(vars_, exprs))
        v = self.ident()
        self.expect(":=")
        return ((v, self.parse_expr()),)

    def _stmt_atom(self):
        t = self.toks[self.i]
        if t == "SKIP":
            self.i += 1
            return Basic(())
        if t == "IF":
            self.i += 1
            cond = self.parse_expr()
            self.expect("THEN")
            then = self.parse_stmt()
            other = self.parse_stmt() if self.take("ELSE") else Basic(())
            self.expect("FI")
            return Cond(cond, then, other)
        if t == "WHILE":
            self.i += 1
            cond = self.parse_expr()
            self.expect("DO")
            body = self.parse_stmt()
            self.expect("OD")
            return While(cond, body)
        if t == "AWAIT":
            self.i += 1
            cond = self.parse_expr()
            self.expect("THEN")
            body = self.parse_stmt()
            self.expect("END")
            return Await(cond, body)
        if t == "ATOM":
            self.i += 1
            body = self.parse_stmt()
            self.expect("END")
            return Await(Lit(True), body)
        if t == "FOR":
            self.i += 1
            init = Basic(self._assign_list())
            self.expect(";")
            cond = self.parse_expr()
            self.expect(";")
            inc = Basic(self._assign_list())
            self.expect("DO")
            body = self.parse_stmt()
            self.expect("ROF")
            return PSeq(init, While(cond, PSeq(body, inc)))
        if t == "(" or token_kind(t) == "id":
            return Basic(self._assign_list())
        raise self.err(f"unexpected token {t!r} in program")

    # -- whole files ---------------------------------------------------
    def parse_pcm(self) -> ModelFile:
        self.expect("MODEL")
        name = self.ident()
        adapter = "imp"
        while self.toks[self.i]:
            k = self.i
            kw = self.next()
            if kw == "ADAPTER":
                adapter = self.ident()
                if adapter not in ADAPTERS:
                    raise self.err(f"unknown adapter {adapter!r}", k)
                if self.mf is not None:
                    self.mf.adapter_name = adapter
            elif kw == "SCHEMA":
                self.mf = ModelFile(name, adapter, Schema(self._decls()))
            elif kw == "BUDDY":
                self.mf = self._parse_buddy_section(name)
            elif kw in self._SECTIONS:
                defined = self._SECTIONS[kw](self)
                self.mf.source_order.append((kw, defined))
            else:
                raise self.err(f"unexpected section {kw!r}", k)
        if self.mf is None:
            return ModelFile(name, adapter, Schema([]))
        return self.mf

    def _decls(self) -> list[tuple]:
        """`name : type INIT value` declarations up to END."""
        decls = []
        while not self.take("END"):
            vname = self.ident()
            self.expect(":")
            vtype = self.parse_type()
            self.expect("INIT")
            decls.append((vname, vtype, self.parse_value(vtype)))
        return decls

    def _model(self) -> ModelFile:
        if self.mf is None:
            raise self.err("SCHEMA (or BUDDY) must precede other sections")
        return self.mf

    def _defined(self, model_first: bool = False) -> tuple[str, ModelFile]:
        """The `name :=` that opens a section, and the model it defines the
        name in.  ESYS, PES and OUTLINE look for the model first."""
        m = self._model() if model_first else None
        name = self.ident()
        self.expect(":=")
        return name, m or self._model()

    def _set_section(self) -> str:
        name, m = self._defined()
        with self.located(self.i):
            m.sets[name] = StateSet(m.schema, self.parse_expr())
        return name

    def _rel_section(self) -> str:
        name, m = self._defined()
        m.rels[name] = self._parse_rel(m.schema)
        return name

    def _rgspec_section(self) -> str:
        name, m = self._defined()
        self.expect("PRE")
        pre = self._set_ref(m)
        self.expect("RELY")
        rely = self._ref(m.rels, "relation")
        self.expect("GUAR")
        guar = self._ref(m.rels, "relation")
        self.expect("POST")
        m.rgspecs[name] = RGSpec(pre, rely, guar, self._set_ref(m))
        return name

    def _program_section(self) -> str:
        name, m = self._defined()
        with self.located(self.i):
            prog = _bind_sets(self.parse_stmt(), m.schema)
            check_program(m.schema, prog)
        m.programs[name] = prog
        return name

    def _event_section(self) -> str:
        m = self._model()
        self.event_at[self.toks[self.i]] = self.i
        name = self.ident()
        params: list = []
        if self.take("("):
            if not self.at(")"):
                params = self._list(self._event_param)
            self.expect(")")
        self.expect("WHEN")
        guard = self.parse_expr()
        self.expect("THEN")
        # Bodies keep raw expression guards until parameter expansion;
        # each expanded instance is checked then.
        body = self.parse_stmt()
        self.expect("END")
        m.events[name] = EventTemplate(name, tuple(params), guard, body)
        return name

    def _esys_section(self) -> str:
        name, m = self._defined(model_first=True)
        m.esystems[name] = self._es_choice(m)
        return name

    def _pes_section(self) -> str:
        name, m = self._defined(model_first=True)
        self.expect("{")
        systems = self._list(lambda: self._pes_entry(m))
        self.expect("}")
        m.pes[name] = ParallelEventSystem(tuple(systems))
        return name

    def _outline_section(self) -> str:
        name, m = self._defined(model_first=True)
        m.outlines[name] = self._parse_outline(m)
        return name

    # The sections that define one name; each returns it for `source_order`.
    _SECTIONS = {
        "SET": _set_section,
        "REL": _rel_section,
        "RGSPEC": _rgspec_section,
        "PROGRAM": _program_section,
        "EVENT": _event_section,
        "ESYS": _esys_section,
        "PES": _pes_section,
        "OUTLINE": _outline_section,
    }

    def _event_param(self):
        pname = self.ident()
        self.expect(":")
        ptype = self.parse_type()
        values = None
        if self.take("VALUES"):
            values = tuple(self._list(lambda: self.parse_value(ptype)))
        return (pname, ptype, values)

    def _parse_buddy_section(self, name: str) -> ModelFile:
        from .buddy import BuddyDims, build_kernel_model

        kw: dict[str, Any] = {}
        while not self.take("END"):
            key = self.ident()
            if key in ("n_max", "n_levels", "max_sz", "tick_max"):
                kw[key] = self.parse_int()
            elif key == "threads":
                kw["threads"] = tuple(self._list(self.ident))
            elif key in ("alloc_sizes", "timeouts"):
                kw[key] = tuple(self._list(self.parse_int))
            elif key == "free_blocks":
                kw["free_blocks"] = tuple(self._list(self._pair))
            else:
                raise self.err(f"unknown BUDDY key {key!r}")
        model = build_kernel_model(BuddyDims(**kw))
        mf = ModelFile(name, "imp", model.layout.schema)
        mf.buddy = model
        mf.pes["kernel"] = model.pes
        for t, sysd in model.thread_systems.items():
            mf.esystems[t] = sysd
        mf.rels["clock"] = model.rely
        for t, g in model.guarantees.items():
            mf.rels[f"guarantee_{t}"] = g
        for iname, fn in model.invariants.items():
            mf.sets[iname] = StateSet(model.layout.schema, native=fn, name=iname)
        mf.source_order.append(("BUDDY", name))
        mf._buddy_kw = kw  # type: ignore[attr-defined]
        return mf

    def _pair(self) -> tuple[int, int]:
        self.expect("(")
        a = self.parse_int()
        self.expect(",")
        b = self.parse_int()
        self.expect(")")
        return (a, b)

    def _parse_rel(self, schema: Schema) -> RelDesc:
        if self.take("UNIV"):
            return univ_rel(schema)
        if self.take("FULL"):
            return full_rel(schema)
        includes_identity = False
        rules = []
        while not self.take("END"):
            if self.take("ID"):
                includes_identity = True
            elif self.take("RULE"):
                self.expect("WHEN")
                with self.located(self.i):
                    guard = StateSet(schema, self.parse_expr())
                self.expect("DO")
                with self.located(self.i):
                    assigns = sum(self._list(self._assign_list, ";"), ())
                    rule = RelRule(guard, assigns)
                self.expect("END")
                rules.append(rule)
            else:
                raise self.err("expected ID, RULE or END in relation")
        return RelDesc(schema, "rules", tuple(rules), includes_identity)

    def _ref(self, table: dict, what: str):
        """The entry of `table` named by the next token."""
        n = self.ident()
        if n not in table:
            raise self.err(f"unknown {what} {n!r}")
        return table[n]

    def _set_ref(self, m: ModelFile) -> StateSet:
        if self.take("["):
            with self.located(self.i):
                ss = StateSet(m.schema, self.parse_expr())
            self.expect("]")
            return ss
        return self._ref(m.sets, "set")

    def _es_choice(self, m: ModelFile) -> EventSystem:
        a = self._es_join(m)
        return EsChoice(a, self._es_choice(m)) if self.take("CHOICE") else a

    def _es_join(self, m: ModelFile) -> EventSystem:
        a = self._es_seq(m)
        return EsJoin(a, self._es_join(m)) if self.take("JOIN") else a

    def _es_seq(self, m: ModelFile) -> EventSystem:
        a = self._es_atom(m)
        return EsSeq(a, self._es_seq(m)) if self.take(";;") else a

    def _es_atom(self, m: ModelFile) -> EventSystem:
        t = self.toks[self.i]
        if t == "FIN":
            self.i += 1
            return FIN
        if t == "(":
            self.i += 1
            e = self._es_choice(m)
            self.expect(")")
            return e
        if t in ("EVT", "AEVT"):
            self.i += 1
            ename = self.ident()
            if ename not in m.events:
                raise self.err(f"unknown event {ename!r}")
            with self.located(self.event_at[ename]):
                evset = _expand_named(m, ename)
            return EsAtomic(evset) if t == "AEVT" else EsBasic(evset)
        if t == "TRG":
            self.i += 1
            return EsTriggered(self._ref(m.programs, "program"))
        if t == "LOOP":
            self.i += 1
            cond = self._set_ref(m)
            self.expect("(")
            body = self._es_choice(m)
            self.expect(")")
            return EsIter(cond, body)
        raise self.err("expected an event system")

    def _pes_entry(self, m: ModelFile) -> tuple[str, EventSystem]:
        key = self.ident()
        self.expect(":")
        return (key, self._ref(m.esystems, "event system"))

    def _spec_ref(self, m: ModelFile) -> RGSpec:
        return self._ref(m.rgspecs, "rely-guarantee spec")

    def _outline_pair(self, m: ModelFile) -> tuple[Outline, Outline]:
        """`(left, right)` of a binary outline node."""
        self.expect("(")
        left = self._parse_outline(m)
        self.expect(",")
        right = self._parse_outline(m)
        self.expect(")")
        return left, right

    def _parse_outline(self, m: ModelFile) -> Outline:
        t = self.next()
        if t == "BASICEVT":
            return BasicEvtNode()
        if t == "ATOMEVT":
            return AtomEvtNode()
        if t == "TRGEVT":
            return TrgEvtNode()
        if t == "SEQ":
            mid = self._enclosed("[", lambda: self._set_ref(m), "]")
            return SeqNode(mid, *self._outline_pair(m))
        if t == "CHOICE":
            return ChoiceNode(*self._outline_pair(m))
        if t == "JOIN":
            self.expect("[")
            s1 = self._spec_ref(m)
            self.expect(",")
            s2 = self._spec_ref(m)
            self.expect("]")
            return JoinNode(s1, s2, *self._outline_pair(m))
        if t == "ITER":
            inv = self._enclosed("[", lambda: self._set_ref(m), "]")
            return IterNode(inv, self._enclosed("(", lambda: self._parse_outline(m), ")"))
        if t == "CONSEQ":
            inner = self._enclosed("[", lambda: self._spec_ref(m), "]")
            return ConseqNode(inner, self._enclosed("(", lambda: self._parse_outline(m), ")"))
        if t == "PAR":
            self.expect("{")
            specs, children = [], []
            while True:
                key = self.ident()
                self.expect(":")
                specs.append((key, self._spec_ref(m)))
                children.append((key, self._enclosed("(", lambda: self._parse_outline(m), ")")))
                if not self.take(","):
                    break
            self.expect("}")
            return ParNode(tuple(specs), tuple(children))
        raise self.err(f"expected an outline, found {t!r}", self.i - 1)

    # -- BPEL files ---------------------------------------------------
    def parse_bpc(self) -> BpelFile:
        global bp  # the BPEL front-end, which a .pcm load never needs
        from . import bpel as bp

        self.expect("BPEL")
        name = self.ident()
        store: list = []
        links: tuple[str, ...] = ()
        tick_max = 3
        acts: list[tuple[str, int, Any]] = []
        while self.toks[self.i]:
            k = self.i
            kw = self.next()
            if kw == "SCHEMA":
                store += self._decls()
            elif kw == "LINKS":
                links = tuple(self._list(self.ident))
            elif kw == "TICKMAX":
                tick_max = self.parse_int()
            elif kw == "ACTIVITY":
                aname = self.ident()
                self.expect(":=")
                acts.append((aname, self.i, self._parse_activity()))
            else:
                raise self.err(f"unexpected section {kw!r}", k)
        schema = bp.make_bpel_schema(store, list(links), tick_max)
        bctx = bp.BpelCtx(Ctx(AdapterContext(schema), IMP_ADAPTER), links)
        bf = BpelFile(name, bctx, store, links, tick_max)
        for aname, k, a in acts:
            with self.located(k):
                bp.check_activity(bctx, a, top=True)
            bf.activities[aname] = a
        return bf

    def _parse_fe(self) -> bp.FlowEle:
        targets = sources = None
        if self.take("TARGETS"):
            self.expect("(")
            jc = None if self.take("-") else self.parse_expr()
            self.expect(";")
            links = [] if self.at(")") else self._list(self.ident)
            self.expect(")")
            targets = (jc, tuple(links))
        if self.take("SOURCES"):
            sources = tuple(self._enclosed("(", lambda: self._list(self._source), ")"))
        return bp.FlowEle(targets, sources)

    def _source(self) -> tuple[str, Expr]:
        link = self.ident()
        self.expect(":")
        return (link, self.parse_expr())

    def _parse_spec_map(self) -> tuple:
        if not self.take("SPEC"):
            return ()
        self.expect("{")
        out = self._list(self._spec_one)
        self.expect("}")
        return tuple(out)

    def _spec_one(self):
        v = self.ident()
        self.expect(":=")
        return (v, self.parse_expr())

    def _svc_triple(self) -> tuple[str, str, str]:
        self.expect("(")
        a = self.ident()
        self.expect(",")
        b = self.ident()
        self.expect(",")
        c = self.ident()
        self.expect(")")
        return a, b, c

    def _braced_activity(self) -> bp.Activity:
        return self._enclosed("{", self._parse_activity, "}")

    def _parse_activity(self) -> bp.Activity:
        t = self.next()
        if t == "FIN":
            return bp.ACT_FIN
        if t == "INVOKE":
            ptl, ptt, op = self._svc_triple()
            fe = self._parse_fe()
            spec = self._parse_spec_map()
            catches = []
            while self.take("CATCH"):
                fault = self.ident()
                catches.append((fault, self._braced_activity()))
            self.expect("CATCHALL")
            catchall = self._braced_activity()
            return bp.Invoke(fe, ptl, ptt, op, spec, tuple(catches), catchall)
        if t == "RECEIVE":
            ptl, ptt, op = self._svc_triple()
            fe = self._parse_fe()
            return bp.Receive(fe, ptl, ptt, op, self._parse_spec_map())
        if t == "REPLY":
            ptl, ptt, op = self._svc_triple()
            return bp.Reply(self._parse_fe(), ptl, ptt, op)
        if t == "ASSIGN":
            fe = self._parse_fe()
            return bp.Assign(fe, self._parse_spec_map())
        if t == "WAIT":
            time = self.parse_int()
            return bp.Wait(self._parse_fe(), time)
        if t == "EMPTY":
            return bp.Empty(self._parse_fe())
        if t == "SEQ":
            return bp.ASeq(self._braced_activity(), self._braced_activity())
        if t == "IF":
            cond = self.parse_expr()
            return bp.AIf(cond, self._braced_activity(), self._braced_activity())
        if t == "WHILE":
            cond = self.parse_expr()
            return bp.AWhile(cond, self._braced_activity())
        if t == "REPEATUNTIL":
            cond = self.parse_expr()
            return bp.repeat_until(cond, self._braced_activity())
        if t == "FOREACH":
            m = self.parse_int()
            n = self.parse_int()
            return bp.for_each(m, n, self._braced_activity())
        if t == "FLOW":
            return bp.AFlow(self._braced_activity(), self._braced_activity())
        if t == "PICK":
            h1 = self._enclosed("{", self._parse_handler, "}")
            return bp.APick(h1, self._enclosed("{", self._parse_handler, "}"))
        raise self.err(f"expected an activity, found {t!r}", self.i - 1)

    def _parse_handler(self) -> bp.EventHandler:
        if self.take("ONMESSAGE"):
            ptl, ptt, op = self._svc_triple()
            spec = self._parse_spec_map()
            return bp.OnMessage(ptl, ptt, op, spec, self._braced_activity())
        if self.take("ONALARM"):
            time = self.parse_int()
            return bp.OnAlarm(time, self._braced_activity())
        raise self.err("expected ONMESSAGE or ONALARM")


def _bind_sets(p, schema: Schema):
    """Program guards parse as raw expressions; wrap them in StateSets once
    the schema is known and all parameters are substituted."""
    if p is None or isinstance(p, Basic):
        return p
    if isinstance(p, PSeq):
        return PSeq(_bind_sets(p.a, schema), _bind_sets(p.b, schema))
    if isinstance(p, (Cond, While, Await)):
        c = p.cond
        cond = c if isinstance(c, StateSet) else StateSet(schema, c)
        if isinstance(p, Cond):
            return Cond(cond, _bind_sets(p.then, schema), _bind_sets(p.other, schema))
        if isinstance(p, While):
            return While(cond, _bind_sets(p.body, schema))
        return Await(cond, _bind_sets(p.body, schema))
    raise LoadError(f"not a program: {p!r}")


def _expand_event(template: EventTemplate, schema: Schema):
    evset = expand_events(
        template, schema, lambda body, env: _bind_sets(subst_program(body, env), schema)
    )
    for inst in evset.instances:
        check_program(schema, inst.body)
    return evset


def _expand_named(m: ModelFile, ename: str):
    """The checked event set of event `ename`, expanded once per event
    template and schema however often the model refers to it."""
    return _compiled(m.events[ename], "_expanded", m.schema, _expand_event)


def parse_pcm(text: str) -> ModelFile:
    return Parser(text).parse_pcm()


def parse_bpc(text: str) -> BpelFile:
    return Parser(text).parse_bpc()


def load(path: str):
    with open(path, "r", encoding="utf-8") as f:
        text = f.read()
    if path.endswith(".bpc"):
        return parse_bpc(text)
    return parse_pcm(text)


# ----------------------------------------------------------------------
# Canonical serialization.
# ----------------------------------------------------------------------


def render_type(t: Type) -> str:
    if isinstance(t, IntType):
        return f"INT {t.lo}..{t.hi}"
    if isinstance(t, BoolType):
        return "BOOL"
    if isinstance(t, SymType):
        return "SYM {%s}" % ", ".join(t.values)
    if isinstance(t, SeqType):
        return f"SEQ {t.max_len} OF {render_type(t.elem)}"
    if isinstance(t, RecType):
        return "REC {%s}" % ", ".join(f"{f} : {render_type(ft)}" for f, ft in t.fields)
    if isinstance(t, OptType):
        return f"OPT {render_type(t.inner)}"
    raise AssertionError(t)


def _render_rel(r: RelDesc) -> str:
    if r.kind == "univ":
        return "UNIV"
    if r.kind == "full":
        return "FULL"
    if r.kind == "pred":
        return f"BUILTIN {r.name}"
    parts = []
    if r.includes_identity:
        parts.append("ID")
    for rule in r.rules:
        assigns = ", ".join(f"{v} := {render_expr(e)}" for v, e in rule.assigns)
        if len(rule.assigns) > 1:
            vs = ", ".join(v for v, _ in rule.assigns)
            es = ", ".join(render_expr(e) for _, e in rule.assigns)
            assigns = f"({vs}) := ({es})"
        parts.append(f"RULE WHEN {rule.guard.render()} DO {assigns} END")
    parts.append("END")
    return " ".join(parts)


def render_stmt(p) -> str:
    return render_program(p)


def _render_outline(o: Outline, m: ModelFile) -> str:
    def sref(s: StateSet) -> str:
        for n, v in m.sets.items():
            if v is s or v == s:
                return n
        return f"[{s.render()}]"

    def gref(g: RGSpec) -> str:
        for n, v in m.rgspecs.items():
            if v is g:
                return n
        raise LoadError("outline references an unnamed rely-guarantee spec")

    if isinstance(o, BasicEvtNode):
        return "BASICEVT"
    if isinstance(o, AtomEvtNode):
        return "ATOMEVT"
    if isinstance(o, TrgEvtNode):
        return "TRGEVT"
    if isinstance(o, SeqNode):
        return f"SEQ [{sref(o.mid)}] ({_render_outline(o.left, m)}, {_render_outline(o.right, m)})"
    if isinstance(o, ChoiceNode):
        return f"CHOICE ({_render_outline(o.left, m)}, {_render_outline(o.right, m)})"
    if isinstance(o, JoinNode):
        return (
            f"JOIN [{gref(o.spec1)}, {gref(o.spec2)}] "
            f"({_render_outline(o.left, m)}, {_render_outline(o.right, m)})"
        )
    if isinstance(o, IterNode):
        return f"ITER [{sref(o.inv)}] ({_render_outline(o.body, m)})"
    if isinstance(o, ConseqNode):
        return f"CONSEQ [{gref(o.inner)}] ({_render_outline(o.child, m)})"
    if isinstance(o, ParNode):
        specs = dict(o.specs)
        kids = dict(o.children)
        inner = ", ".join(f"{k} : {gref(specs[k])} ({_render_outline(kids[k], m)})" for k in specs)
        return "PAR {%s}" % inner
    raise AssertionError(o)


def _render_esys(s: EventSystem, m: ModelFile) -> str:
    def ev_name(evset) -> str | None:
        for n in m.events:
            try:
                if _expand_named(m, n) == evset:
                    return n
            except LoadError:
                continue
        return None

    if isinstance(s, EsTriggered):
        if s.prog is None:
            return "FIN"
        for n, p in m.programs.items():
            if p == s.prog:
                return f"TRG {n}"
        raise LoadError("event system references an unnamed program")
    if isinstance(s, (EsBasic, EsAtomic)):
        n = ev_name(s.events)
        if n is None:
            raise LoadError("event system references an unnamed event")
        return ("AEVT " if isinstance(s, EsAtomic) else "EVT ") + n
    if isinstance(s, EsSeq):
        return f"({_render_esys(s.a, m)} ;; {_render_esys(s.b, m)})"
    if isinstance(s, EsChoice):
        return f"({_render_esys(s.a, m)} CHOICE {_render_esys(s.b, m)})"
    if isinstance(s, EsJoin):
        return f"({_render_esys(s.a, m)} JOIN {_render_esys(s.b, m)})"
    if isinstance(s, EsIter):

        def sref(ss: StateSet) -> str:
            for n, v in m.sets.items():
                if v is ss or v == ss:
                    return n
            return f"[{ss.render()}]"

        return f"LOOP {sref(s.cond)} ({_render_esys(s.body, m)})"
    raise AssertionError(s)


def serialize(mf: ModelFile) -> str:
    if mf.buddy is not None:
        kw = getattr(mf, "_buddy_kw", {})
        dims = mf.buddy.dims
        lines = [f"MODEL {mf.name}", "", "BUDDY"]
        lines.append(f"  n_max {dims.n_max}")
        lines.append(f"  n_levels {dims.n_levels}")
        lines.append(f"  max_sz {dims.max_sz}")
        lines.append("  threads %s" % ", ".join(dims.threads))
        lines.append("  alloc_sizes %s" % ", ".join(map(str, dims.alloc_sizes)))
        lines.append("  timeouts %s" % ", ".join(map(str, dims.timeouts)))
        lines.append(
            "  free_blocks %s" % ", ".join(f"({a}, {b})" for a, b in dims.free_blocks)
        )
        lines.append(f"  tick_max {dims.tick_max}")
        lines.append("END")
        return "\n".join(lines) + "\n"

    lines = [f"MODEL {mf.name}", "", f"ADAPTER {mf.adapter_name}", "", "SCHEMA"]
    for n, t, v in zip(mf.schema.names, mf.schema.types, mf.schema.inits):
        lines.append(f"  {n} : {render_type(t)} INIT {render_value(v, t)}")
    lines.append("END")
    for kind, name in mf.source_order:
        lines.append("")
        if kind == "SET":
            s = mf.sets[name]
            lines.append(f"SET {name} := {s.render()}")
        elif kind == "REL":
            lines.append(f"REL {name} := {_render_rel(mf.rels[name])}")
        elif kind == "RGSPEC":
            g = mf.rgspecs[name]

            def _sname(x):
                for n2, v2 in mf.sets.items():
                    if v2 is x:
                        return n2
                return f"[{x.render()}]"

            def _rname(x):
                for n2, v2 in mf.rels.items():
                    if v2 is x:
                        return n2
                raise LoadError(f"spec {name} references an unnamed relation")

            lines.append(
                f"RGSPEC {name} := PRE {_sname(g.pre)} RELY {_rname(g.rely)} "
                f"GUAR {_rname(g.guar)} POST {_sname(g.post)}"
            )
        elif kind == "PROGRAM":
            lines.append(f"PROGRAM {name} := {render_stmt(mf.programs[name])}")
        elif kind == "EVENT":
            t = mf.events[name]
            params = ""
            if t.params:
                parts = []
                for pname, ptype, values in t.params:
                    p = f"{pname} : {render_type(ptype)}"
                    if values is not None:
                        p += " VALUES " + ", ".join(render_value(v, ptype) for v in values)
                    parts.append(p)
                params = "(%s)" % ", ".join(parts)
            lines.append(
                f"EVENT {name}{params} WHEN {render_expr(t.guard)} THEN {render_stmt(t.body)} END"
            )
        elif kind == "ESYS":
            lines.append(f"ESYS {name} := {_render_esys(mf.esystems[name], mf)}")
        elif kind == "PES":
            entries = ", ".join(
                f"{k} : {_es_name(mf, s)}" for k, s in mf.pes[name].systems
            )
            lines.append(f"PES {name} := {{{entries}}}")
        elif kind == "OUTLINE":
            lines.append(f"OUTLINE {name} := {_render_outline(mf.outlines[name], mf)}")
    return "\n".join(lines) + "\n"


def _es_name(mf: ModelFile, s: EventSystem) -> str:
    for n, v in mf.esystems.items():
        if v is s or v == s:
            return n
    raise LoadError("parallel system references an unnamed event system")


def serialize_bpel(bf: BpelFile) -> str:
    from .bpel import render_activity

    lines = [f"BPEL {bf.name}", "", "SCHEMA"]
    for n, t, v in bf.store_decls:
        lines.append(f"  {n} : {render_type(t)} INIT {render_value(v, t)}")
    lines.append("END")
    if bf.links:
        lines.append("")
        lines.append("LINKS %s" % ", ".join(bf.links))
    lines.append("")
    lines.append(f"TICKMAX {bf.tick_max}")
    for name, a in bf.activities.items():
        lines.append("")
        lines.append(f"ACTIVITY {name} := {render_activity(a)}")
    return "\n".join(lines) + "\n"
