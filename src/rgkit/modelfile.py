"""Model files: concrete syntax, loading, and canonical serialization.

Two formats share one tokenizer:

  .pcm  -- schemas, state sets, relations, rely-guarantee quadruples,
           programs, parametrized events, event systems, parallel systems
           and proof outlines; or a BUDDY section that asks the builder to
           assemble the kernel corpus model at the declared dimensions.
  .bpc  -- a schema plus link declarations and named activities.

Parsing produces positioned errors; `serialize(parse(text))` is canonical
and `parse . serialize` is the identity on the loaded model.
"""

from __future__ import annotations

import re
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any

from . import bpel as bp
from .adapters import (
    ADAPTERS,
    IMP_ADAPTER,
    AdapterContext,
    Await,
    Basic,
    Cond,
    PSeq,
    While,
    check_program,
    render_program,
    subst_program,
)
from .checker import (
    AtomEvtNode,
    BasicEvtNode,
    ChoiceNode,
    ConseqNode,
    IterNode,
    JoinNode,
    Outline,
    ParNode,
    SeqNode,
    TrgEvtNode,
)
from .events import (
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
    ParallelEventSystem,
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
    render_expr,
)
from .relations import RGSpec, RelDesc, RelRule, StateSet, full_rel, univ_rel
from .semantics import Ctx
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

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>\#[^\n]*)
  | (?P<num>-?\d+)
  | (?P<id>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op>:=|;;|\.\.|!=|<=|>=|->|[()\[\]{}:,;.=<>+\-*^@|])
    """,
    re.VERBOSE,
)


@dataclass
class Tok:
    kind: str  # "num" | "id" | "op" | "eof"
    text: str
    line: int
    col: int


def tokenize(text: str) -> list[Tok]:
    toks: list[Tok] = []
    line, col, i = 1, 1, 0
    while i < len(text):
        m = _TOKEN_RE.match(text, i)
        if not m:
            raise LoadError(f"unexpected character {text[i]!r}", (line, col))
        kind = m.lastgroup
        t = m.group()
        if kind not in ("ws", "comment"):
            toks.append(Tok(kind, t, line, col))
        nl = t.count("\n")
        if nl:
            line += nl
            col = len(t) - t.rfind("\n")
        else:
            col += len(t)
        i = m.end()
    toks.append(Tok("eof", "", line, col))
    return toks


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


class Parser:
    def __init__(self, text: str):
        self.toks = tokenize(text)
        self.i = 0
        self.event_at: dict[str, Tok] = {}  # event name -> its name token

    # -- token utilities --------------------------------------------------
    def peek(self) -> Tok:
        return self.toks[self.i]

    def at(self, text: str) -> bool:
        return self.peek().text == text and self.peek().kind in ("id", "op")

    def next(self) -> Tok:
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect(self, text: str) -> Tok:
        t = self.next()
        if t.text != text:
            raise LoadError(f"expected {text!r}, found {t.text!r}", (t.line, t.col))
        return t

    def ident(self) -> str:
        t = self.next()
        if t.kind != "id":
            raise LoadError(f"expected a name, found {t.text!r}", (t.line, t.col))
        return t.text

    def err(self, msg: str) -> LoadError:
        t = self.peek()
        return LoadError(msg, (t.line, t.col))

    @contextmanager
    def located(self, t: Tok):
        """Give a LoadError raised without a position inside the block (by
        the checks that run after parsing) the position of `t`, the token
        where the parser started the construct."""
        try:
            yield
        except LoadError as e:
            if e.pos is not None:
                raise
            raise LoadError(e.msg, (t.line, t.col)) from e

    # -- types and values -------------------------------------------------
    def parse_type(self) -> Type:
        t = self.next()
        if t.text == "INT":
            lo = self.parse_int()
            self.expect("..")
            hi = self.parse_int()
            return IntType(lo, hi)
        if t.text == "BOOL":
            return BoolType()
        if t.text == "SYM":
            self.expect("{")
            vals = [self.ident()]
            while self.at(","):
                self.next()
                vals.append(self.ident())
            self.expect("}")
            return SymType(tuple(vals))
        if t.text == "SEQ":
            n = self.parse_int()
            self.expect("OF")
            return SeqType(self.parse_type(), n)
        if t.text == "REC":
            self.expect("{")
            fields_ = [(self.ident(), self._field_type())]
            while self.at(","):
                self.next()
                fields_.append((self.ident(), self._field_type()))
            self.expect("}")
            return RecType(tuple(fields_))
        if t.text == "OPT":
            return OptType(self.parse_type())
        raise LoadError(f"expected a type, found {t.text!r}", (t.line, t.col))

    def _field_type(self) -> Type:
        self.expect(":")
        return self.parse_type()

    def parse_int(self) -> int:
        t = self.next()
        if t.kind != "num":
            raise LoadError(f"expected an integer, found {t.text!r}", (t.line, t.col))
        return int(t.text)

    def parse_value(self, typ: Type):
        t = self.peek()
        if isinstance(typ, IntType):
            return self.parse_int()
        if isinstance(typ, BoolType):
            v = self.next().text
            if v not in ("true", "false"):
                raise LoadError(f"expected a boolean, found {v!r}", (t.line, t.col))
            return v == "true"
        if isinstance(typ, SymType):
            v = self.ident()
            if v not in typ.values:
                raise LoadError(f"symbol {v!r} not in {typ}", (t.line, t.col))
            return v
        if isinstance(typ, SeqType):
            self.expect("[")
            items = []
            if not self.at("]"):
                items.append(self.parse_value(typ.elem))
                while self.at(","):
                    self.next()
                    items.append(self.parse_value(typ.elem))
            self.expect("]")
            return tuple(items)
        if isinstance(typ, RecType):
            self.expect("{")
            vals = []
            for k, (fname, ftype) in enumerate(typ.fields):
                if k:
                    self.expect(",")
                got = self.ident()
                if got != fname:
                    raise LoadError(f"expected field {fname!r}, found {got!r}", (t.line, t.col))
                self.expect(":")
                vals.append(self.parse_value(ftype))
            self.expect("}")
            return tuple(vals)
        if isinstance(typ, OptType):
            if self.at("NONE"):
                self.next()
                return None
            self.expect("SOME")
            return (self.parse_value(typ.inner),)
        raise AssertionError(typ)

    # -- expressions -------------------------------------------------------
    def parse_expr(self) -> Expr:
        return self._implies()

    def _implies(self) -> Expr:
        a = self._or()
        if self.at("IMPLIES"):
            self.next()
            return BoolOp("IMPLIES", a, self._implies())
        return a

    def _or(self) -> Expr:
        a = self._and()
        while self.at("OR"):
            self.next()
            a = BoolOp("OR", a, self._and())
        return a

    def _and(self) -> Expr:
        a = self._not()
        while self.at("AND"):
            self.next()
            a = BoolOp("AND", a, self._not())
        return a

    def _not(self) -> Expr:
        if self.at("NOT"):
            self.next()
            return NotE(self._not())
        return self._cmp()

    def _cmp(self) -> Expr:
        a = self._arith()
        t = self.peek().text
        if t in ("=", "!=", "<", "<=", ">", ">="):
            self.next()
            return Cmp(t, a, self._arith())
        if t == "IN":
            self.next()
            return ContainsE(self._arith(), a)
        return a

    def _arith(self) -> Expr:
        a = self._term()
        while self.peek().text in ("+", "-"):
            op = self.next().text
            a = Arith(op, a, self._term())
        return a

    def _term(self) -> Expr:
        a = self._power()
        while self.peek().text in ("*", "DIV", "MOD"):
            op = self.next().text
            a = Arith(op, a, self._power())
        return a

    def _power(self) -> Expr:
        a = self._unary()
        if self.at("^"):
            self.next()
            return Arith("^", a, self._power())
        return a

    def _unary(self) -> Expr:
        if self.at("-"):
            self.next()
            return Neg(self._unary())
        return self._postfix()

    def _postfix(self) -> Expr:
        a = self._atom()
        while True:
            if self.at("["):
                self.next()
                idx = self.parse_expr()
                self.expect("]")
                a = Index(a, idx)
            elif self.at("."):
                self.next()
                if self.at("["):
                    self.next()
                    key = self.parse_expr()
                    self.expect("]")
                    a = FieldDyn(a, key)
                else:
                    a = Field(a, self.ident())
            else:
                return a

    def _call(self, name: str, n: int) -> list[Expr]:
        self.expect("(")
        args = [self.parse_expr()]
        while self.at(","):
            self.next()
            args.append(self.parse_expr())
        self.expect(")")
        if len(args) != n:
            raise self.err(f"{name} takes {n} arguments, got {len(args)}")
        return args

    def _atom(self) -> Expr:
        t = self.peek()
        if t.kind == "num":
            return Lit(int(self.next().text))
        if self.at("("):
            self.next()
            e = self.parse_expr()
            self.expect(")")
            return e
        if self.at("["):
            self.next()
            items = []
            if not self.at("]"):
                items.append(self.parse_expr())
                while self.at(","):
                    self.next()
                    items.append(self.parse_expr())
            self.expect("]")
            return MkSeq(tuple(items))
        if self.at("{"):
            self.next()
            items = [(self.ident(), self._rec_field())]
            while self.at(","):
                self.next()
                items.append((self.ident(), self._rec_field()))
            self.expect("}")
            return MkRec(tuple(items))
        if t.kind != "id":
            raise self.err(f"unexpected token {t.text!r} in expression")
        name = self.next().text
        if name == "true":
            return Lit(True)
        if name == "false":
            return Lit(False)
        if name == "NONE":
            return NoneLit()
        if name == "SOME":
            self.expect("(")
            e = self.parse_expr()
            self.expect(")")
            return MkSome(e)
        if name in ("ALL", "ANY"):
            var = self.ident()
            self.expect("<")
            bound = self._arith()
            self.expect(":")
            body = self._implies()
            return (ForallLt if name == "ALL" else ExistsLt)(var, bound, body)
        if name == "LEN":
            return Len(*self._call("LEN", 1))
        if name == "APPEND":
            return AppendE(*self._call("APPEND", 2))
        if name == "UPDATE":
            return UpdateE(*self._call("UPDATE", 3))
        if name == "REMOVE":
            return RemoveE(*self._call("REMOVE", 2))
        if name == "HEAD":
            return HeadE(*self._call("HEAD", 1))
        if name == "TAIL":
            return TailE(*self._call("TAIL", 1))
        if name == "SETFIELD":
            self.expect("(")
            rec = self.parse_expr()
            self.expect(",")
            fname = self.ident()
            self.expect(",")
            val = self.parse_expr()
            self.expect(")")
            return RecWith(rec, fname, val)
        if name == "SETFIELDAT":
            args = self._call("SETFIELDAT", 3)
            return RecWithDyn(*args)
        if name == "ISSOME":
            return IsSome(*self._call("ISSOME", 1))
        if name == "THE":
            return TheOpt(*self._call("THE", 1))
        if name == "COND":
            return CondE(*self._call("COND", 3))
        return Var(name)

    def _rec_field(self) -> Expr:
        self.expect(":")
        return self.parse_expr()

    # -- programs ----------------------------------------------------------
    def parse_stmt(self):
        parts = [self._stmt_atom()]
        while self.at(";;"):
            self.next()
            parts.append(self._stmt_atom())
        out = parts[-1]
        for p in reversed(parts[:-1]):
            out = PSeq(p, out)
        return out

    def _assign_list(self) -> tuple:
        if self.at("("):
            self.next()
            vars_ = [self.ident()]
            while self.at(","):
                self.next()
                vars_.append(self.ident())
            self.expect(")")
            self.expect(":=")
            self.expect("(")
            exprs = [self.parse_expr()]
            while self.at(","):
                self.next()
                exprs.append(self.parse_expr())
            self.expect(")")
            if len(vars_) != len(exprs):
                raise self.err("multi-assignment arity mismatch")
            return tuple(zip(vars_, exprs))
        v = self.ident()
        self.expect(":=")
        return ((v, self.parse_expr()),)

    def _stmt_atom(self):
        t = self.peek()
        if self.at("SKIP"):
            self.next()
            return Basic(())
        if self.at("IF"):
            self.next()
            cond = self.parse_expr()
            self.expect("THEN")
            then = self.parse_stmt()
            other = Basic(())
            if self.at("ELSE"):
                self.next()
                other = self.parse_stmt()
            self.expect("FI")
            return Cond(self._mkset(cond), then, other)
        if self.at("WHILE"):
            self.next()
            cond = self.parse_expr()
            self.expect("DO")
            body = self.parse_stmt()
            self.expect("OD")
            return While(self._mkset(cond), body)
        if self.at("AWAIT"):
            self.next()
            cond = self.parse_expr()
            self.expect("THEN")
            body = self.parse_stmt()
            self.expect("END")
            return Await(self._mkset(cond), body)
        if self.at("ATOM"):
            self.next()
            body = self.parse_stmt()
            self.expect("END")
            return Await(self._mkset(Lit(True)), body)
        if self.at("FOR"):
            self.next()
            init = Basic(self._assign_list())
            self.expect(";")
            cond = self.parse_expr()
            self.expect(";")
            inc = Basic(self._assign_list())
            self.expect("DO")
            body = self.parse_stmt()
            self.expect("ROF")
            return PSeq(init, While(self._mkset(cond), PSeq(body, inc)))
        if t.kind == "id" or self.at("("):
            return Basic(self._assign_list())
        raise self.err(f"unexpected token {t.text!r} in program")

    def _mkset(self, e: Expr) -> Expr:
        return e  # converted to a StateSet after the schema is known

    # -- whole files ---------------------------------------------------
    def parse_pcm(self) -> ModelFile:
        self.expect("MODEL")
        name = self.ident()
        adapter = "imp"
        schema: Schema | None = None
        mf: ModelFile | None = None
        pending: list[tuple] = []

        def need_mf() -> ModelFile:
            nonlocal mf
            if mf is None:
                raise self.err("SCHEMA (or BUDDY) must precede other sections")
            return mf

        while not self.peek().kind == "eof":
            t = self.peek()
            if self.at("ADAPTER"):
                self.next()
                adapter = self.ident()
                if adapter not in ADAPTERS:
                    raise LoadError(f"unknown adapter {adapter!r}", (t.line, t.col))
                if mf is not None:
                    mf.adapter_name = adapter
            elif self.at("SCHEMA"):
                self.next()
                decls = []
                while not self.at("END"):
                    vname = self.ident()
                    self.expect(":")
                    vtype = self.parse_type()
                    self.expect("INIT")
                    vinit = self.parse_value(vtype)
                    decls.append((vname, vtype, vinit))
                self.expect("END")
                schema = Schema(decls)
                mf = ModelFile(name, adapter, schema)
            elif self.at("BUDDY"):
                self.next()
                mf = self._parse_buddy_section(name)
            elif self.at("SET"):
                self.next()
                sname = self.ident()
                self.expect(":=")
                m = need_mf()
                with self.located(self.peek()):
                    m.sets[sname] = StateSet(m.schema, self.parse_expr())
                m.source_order.append(("SET", sname))
            elif self.at("REL"):
                self.next()
                rname = self.ident()
                self.expect(":=")
                m = need_mf()
                m.rels[rname] = self._parse_rel(m.schema)
                m.source_order.append(("REL", rname))
            elif self.at("RGSPEC"):
                self.next()
                gname = self.ident()
                self.expect(":=")
                m = need_mf()
                self.expect("PRE")
                pre = self._set_ref(m)
                self.expect("RELY")
                rely = self._rel_ref(m)
                self.expect("GUAR")
                guar = self._rel_ref(m)
                self.expect("POST")
                post = self._set_ref(m)
                m.rgspecs[gname] = RGSpec(pre, rely, guar, post)
                m.source_order.append(("RGSPEC", gname))
            elif self.at("PROGRAM"):
                self.next()
                pname = self.ident()
                self.expect(":=")
                m = need_mf()
                with self.located(self.peek()):
                    prog = self._finalize_prog(self.parse_stmt(), m.schema)
                m.programs[pname] = prog
                m.source_order.append(("PROGRAM", pname))
            elif self.at("EVENT"):
                self.next()
                m = need_mf()
                self.event_at[self.peek().text] = self.peek()
                ename = self.ident()
                params: list = []
                if self.at("("):
                    self.next()
                    if not self.at(")"):
                        params.append(self._event_param())
                        while self.at(","):
                            self.next()
                            params.append(self._event_param())
                    self.expect(")")
                self.expect("WHEN")
                guard = self.parse_expr()
                self.expect("THEN")
                # Bodies keep raw expression guards until parameter
                # expansion; each expanded instance is checked then.
                body = self.parse_stmt()
                self.expect("END")
                m.events[ename] = EventTemplate(ename, tuple(params), guard, body)
                m.source_order.append(("EVENT", ename))
            elif self.at("ESYS"):
                self.next()
                m = need_mf()
                sname = self.ident()
                self.expect(":=")
                m.esystems[sname] = self._parse_esys(m)
                m.source_order.append(("ESYS", sname))
            elif self.at("PES"):
                self.next()
                m = need_mf()
                pname = self.ident()
                self.expect(":=")
                self.expect("{")
                systems = []
                systems.append(self._pes_entry(m))
                while self.at(","):
                    self.next()
                    systems.append(self._pes_entry(m))
                self.expect("}")
                m.pes[pname] = ParallelEventSystem(tuple(systems))
                m.source_order.append(("PES", pname))
            elif self.at("OUTLINE"):
                self.next()
                m = need_mf()
                oname = self.ident()
                self.expect(":=")
                m.outlines[oname] = self._parse_outline(m)
                m.source_order.append(("OUTLINE", oname))
            else:
                raise self.err(f"unexpected section {t.text!r}")
        if mf is None:
            mf = ModelFile(name, adapter, Schema([]))
        return mf

    def _event_param(self):
        pname = self.ident()
        self.expect(":")
        ptype = self.parse_type()
        values = None
        if self.at("VALUES"):
            self.next()
            values = [self.parse_value(ptype)]
            while self.at(","):
                self.next()
                values.append(self.parse_value(ptype))
            values = tuple(values)
        return (pname, ptype, values)

    def _parse_buddy_section(self, name: str) -> ModelFile:
        from .buddy import BuddyDims, build_kernel_model

        kw: dict[str, Any] = {}
        while not self.at("END"):
            key = self.ident()
            if key in ("n_max", "n_levels", "max_sz", "tick_max"):
                kw[key] = self.parse_int()
            elif key == "threads":
                vals = [self.ident()]
                while self.at(","):
                    self.next()
                    vals.append(self.ident())
                kw["threads"] = tuple(vals)
            elif key in ("alloc_sizes", "timeouts"):
                vals = [self.parse_int()]
                while self.at(","):
                    self.next()
                    vals.append(self.parse_int())
                kw[key] = tuple(vals)
            elif key == "free_blocks":
                blocks = [self._pair()]
                while self.at(","):
                    self.next()
                    blocks.append(self._pair())
                kw["free_blocks"] = tuple(blocks)
            else:
                raise self.err(f"unknown BUDDY key {key!r}")
        self.expect("END")
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
        if self.at("UNIV"):
            self.next()
            return univ_rel(schema)
        if self.at("FULL"):
            self.next()
            return full_rel(schema)
        includes_identity = False
        rules = []
        while True:
            if self.at("ID"):
                self.next()
                includes_identity = True
            elif self.at("RULE"):
                self.next()
                self.expect("WHEN")
                with self.located(self.peek()):
                    guard = StateSet(schema, self.parse_expr())
                self.expect("DO")
                with self.located(self.peek()):
                    assigns = self._assign_list()
                    while self.at(";"):
                        self.next()
                        assigns = assigns + self._assign_list()
                    rule = RelRule(guard, assigns)
                self.expect("END")
                rules.append(rule)
            elif self.at("END"):
                self.next()
                break
            else:
                raise self.err("expected ID, RULE or END in relation")
        return RelDesc(schema, "rules", tuple(rules), includes_identity)

    def _set_ref(self, m: ModelFile) -> StateSet:
        if self.at("["):
            self.next()
            with self.located(self.peek()):
                ss = StateSet(m.schema, self.parse_expr())
            self.expect("]")
            return ss
        n = self.ident()
        if n not in m.sets:
            raise self.err(f"unknown set {n!r}")
        return m.sets[n]

    def _rel_ref(self, m: ModelFile) -> RelDesc:
        n = self.ident()
        if n not in m.rels:
            raise self.err(f"unknown relation {n!r}")
        return m.rels[n]

    def _spec_ref(self, m: ModelFile) -> RGSpec:
        n = self.ident()
        if n not in m.rgspecs:
            raise self.err(f"unknown rely-guarantee spec {n!r}")
        return m.rgspecs[n]

    def _finalize_prog(self, p, schema: Schema):
        out = _bind_sets(p, schema)
        check_program(schema, out)
        return out

    def _parse_esys(self, m: ModelFile) -> EventSystem:
        return self._es_choice(m)

    def _es_choice(self, m: ModelFile) -> EventSystem:
        a = self._es_join(m)
        if self.at("CHOICE"):
            self.next()
            return EsChoice(a, self._es_choice(m))
        return a

    def _es_join(self, m: ModelFile) -> EventSystem:
        a = self._es_seq(m)
        if self.at("JOIN"):
            self.next()
            return EsJoin(a, self._es_join(m))
        return a

    def _es_seq(self, m: ModelFile) -> EventSystem:
        a = self._es_atom(m)
        if self.at(";;"):
            self.next()
            return EsSeq(a, self._es_seq(m))
        return a

    def _es_atom(self, m: ModelFile) -> EventSystem:
        if self.at("FIN"):
            self.next()
            return FIN
        if self.at("("):
            self.next()
            e = self._es_choice(m)
            self.expect(")")
            return e
        if self.at("EVT") or self.at("AEVT"):
            atomic = self.at("AEVT")
            self.next()
            ename = self.ident()
            if ename not in m.events:
                raise self.err(f"unknown event {ename!r}")
            with self.located(self.event_at[ename]):
                evset = _expand_named(m, ename)
            return EsAtomic(evset) if atomic else EsBasic(evset)
        if self.at("TRG"):
            self.next()
            pname = self.ident()
            if pname not in m.programs:
                raise self.err(f"unknown program {pname!r}")
            return EsTriggered(m.programs[pname])
        if self.at("LOOP"):
            self.next()
            cond = self._set_ref(m)
            self.expect("(")
            body = self._es_choice(m)
            self.expect(")")
            return EsIter(cond, body)
        raise self.err("expected an event system")

    def _pes_entry(self, m: ModelFile) -> tuple[str, EventSystem]:
        key = self.ident()
        self.expect(":")
        sname = self.ident()
        if sname not in m.esystems:
            raise self.err(f"unknown event system {sname!r}")
        return (key, m.esystems[sname])

    def _parse_outline(self, m: ModelFile) -> Outline:
        t = self.peek()
        if self.at("BASICEVT"):
            self.next()
            return BasicEvtNode()
        if self.at("ATOMEVT"):
            self.next()
            return AtomEvtNode()
        if self.at("TRGEVT"):
            self.next()
            return TrgEvtNode()
        if self.at("SEQ"):
            self.next()
            self.expect("[")
            mid = self._set_ref(m)
            self.expect("]")
            self.expect("(")
            left = self._parse_outline(m)
            self.expect(",")
            right = self._parse_outline(m)
            self.expect(")")
            return SeqNode(mid, left, right)
        if self.at("CHOICE"):
            self.next()
            self.expect("(")
            left = self._parse_outline(m)
            self.expect(",")
            right = self._parse_outline(m)
            self.expect(")")
            return ChoiceNode(left, right)
        if self.at("JOIN"):
            self.next()
            self.expect("[")
            s1 = self._spec_ref(m)
            self.expect(",")
            s2 = self._spec_ref(m)
            self.expect("]")
            self.expect("(")
            left = self._parse_outline(m)
            self.expect(",")
            right = self._parse_outline(m)
            self.expect(")")
            return JoinNode(s1, s2, left, right)
        if self.at("ITER"):
            self.next()
            self.expect("[")
            inv = self._set_ref(m)
            self.expect("]")
            self.expect("(")
            body = self._parse_outline(m)
            self.expect(")")
            return IterNode(inv, body)
        if self.at("CONSEQ"):
            self.next()
            self.expect("[")
            inner = self._spec_ref(m)
            self.expect("]")
            self.expect("(")
            child = self._parse_outline(m)
            self.expect(")")
            return ConseqNode(inner, child)
        if self.at("PAR"):
            self.next()
            self.expect("{")
            specs, children = [], []
            while True:
                key = self.ident()
                self.expect(":")
                specs.append((key, self._spec_ref(m)))
                self.expect("(")
                children.append((key, self._parse_outline(m)))
                self.expect(")")
                if self.at(","):
                    self.next()
                    continue
                break
            self.expect("}")
            return ParNode(tuple(specs), tuple(children))
        raise LoadError(f"expected an outline, found {t.text!r}", (t.line, t.col))

    # -- BPEL files ---------------------------------------------------
    def parse_bpc(self) -> BpelFile:
        self.expect("BPEL")
        name = self.ident()
        store: list = []
        links: tuple[str, ...] = ()
        tick_max = 3
        acts: list[tuple[str, Any]] = []
        while self.peek().kind != "eof":
            if self.at("SCHEMA"):
                self.next()
                while not self.at("END"):
                    vname = self.ident()
                    self.expect(":")
                    vtype = self.parse_type()
                    self.expect("INIT")
                    vinit = self.parse_value(vtype)
                    store.append((vname, vtype, vinit))
                self.expect("END")
            elif self.at("LINKS"):
                self.next()
                ls = [self.ident()]
                while self.at(","):
                    self.next()
                    ls.append(self.ident())
                links = tuple(ls)
            elif self.at("TICKMAX"):
                self.next()
                tick_max = self.parse_int()
            elif self.at("ACTIVITY"):
                self.next()
                aname = self.ident()
                self.expect(":=")
                acts.append((aname, self.peek(), self._parse_activity()))
            else:
                raise self.err(f"unexpected section {self.peek().text!r}")
        schema = bp.make_bpel_schema(store, list(links), tick_max)
        bctx = bp.BpelCtx(Ctx(AdapterContext(schema), IMP_ADAPTER), links)
        bf = BpelFile(name, bctx, store, links, tick_max)
        for aname, t, a in acts:
            with self.located(t):
                bp.check_activity(bctx, a, top=True)
            bf.activities[aname] = a
        return bf

    def _parse_fe(self) -> bp.FlowEle:
        targets = sources = None
        if self.at("TARGETS"):
            self.next()
            self.expect("(")
            jc = None
            if self.at("-"):
                self.next()
            else:
                jc = self.parse_expr()
            self.expect(";")
            links = []
            if not self.at(")"):
                links.append(self.ident())
                while self.at(","):
                    self.next()
                    links.append(self.ident())
            self.expect(")")
            targets = (jc, tuple(links))
        if self.at("SOURCES"):
            self.next()
            self.expect("(")
            src = []
            l = self.ident()
            self.expect(":")
            src.append((l, self.parse_expr()))
            while self.at(","):
                self.next()
                l = self.ident()
                self.expect(":")
                src.append((l, self.parse_expr()))
            self.expect(")")
            sources = tuple(src)
        return bp.FlowEle(targets, sources)

    def _parse_spec_map(self) -> tuple:
        if not self.at("SPEC"):
            return ()
        self.next()
        self.expect("{")
        out = [self._spec_one()]
        while self.at(","):
            self.next()
            out.append(self._spec_one())
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
        self.expect("{")
        a = self._parse_activity()
        self.expect("}")
        return a

    def _parse_activity(self) -> bp.Activity:
        t = self.peek()
        if self.at("FIN"):
            self.next()
            return bp.ACT_FIN
        if self.at("INVOKE"):
            self.next()
            ptl, ptt, op = self._svc_triple()
            fe = self._parse_fe()
            spec = self._parse_spec_map()
            catches = []
            while self.at("CATCH"):
                self.next()
                fault = self.ident()
                catches.append((fault, self._braced_activity()))
            self.expect("CATCHALL")
            catchall = self._braced_activity()
            return bp.Invoke(fe, ptl, ptt, op, spec, tuple(catches), catchall)
        if self.at("RECEIVE"):
            self.next()
            ptl, ptt, op = self._svc_triple()
            fe = self._parse_fe()
            spec = self._parse_spec_map()
            return bp.Receive(fe, ptl, ptt, op, spec)
        if self.at("REPLY"):
            self.next()
            ptl, ptt, op = self._svc_triple()
            return bp.Reply(self._parse_fe(), ptl, ptt, op)
        if self.at("ASSIGN"):
            self.next()
            fe = self._parse_fe()
            return bp.Assign(fe, self._parse_spec_map())
        if self.at("WAIT"):
            self.next()
            time = self.parse_int()
            return bp.Wait(self._parse_fe(), time)
        if self.at("EMPTY"):
            self.next()
            return bp.Empty(self._parse_fe())
        if self.at("SEQ"):
            self.next()
            return bp.ASeq(self._braced_activity(), self._braced_activity())
        if self.at("IF"):
            self.next()
            cond = self.parse_expr()
            return bp.AIf(cond, self._braced_activity(), self._braced_activity())
        if self.at("WHILE"):
            self.next()
            cond = self.parse_expr()
            return bp.AWhile(cond, self._braced_activity())
        if self.at("REPEATUNTIL"):
            self.next()
            cond = self.parse_expr()
            return bp.repeat_until(cond, self._braced_activity())
        if self.at("FOREACH"):
            self.next()
            m = self.parse_int()
            n = self.parse_int()
            return bp.for_each(m, n, self._braced_activity())
        if self.at("FLOW"):
            self.next()
            return bp.AFlow(self._braced_activity(), self._braced_activity())
        if self.at("PICK"):
            self.next()
            self.expect("{")
            h1 = self._parse_handler()
            self.expect("}")
            self.expect("{")
            h2 = self._parse_handler()
            self.expect("}")
            return bp.APick(h1, h2)
        raise LoadError(f"expected an activity, found {t.text!r}", (t.line, t.col))

    def _parse_handler(self) -> bp.EventHandler:
        if self.at("ONMESSAGE"):
            self.next()
            ptl, ptt, op = self._svc_triple()
            spec = self._parse_spec_map()
            return bp.OnMessage(ptl, ptt, op, spec, self._braced_activity())
        if self.at("ONALARM"):
            self.next()
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


def _expand_named(m: ModelFile, ename: str):
    evset = expand_events(
        m.events[ename],
        m.schema,
        lambda body, env: _bind_sets(subst_program(body, env), m.schema),
    )
    for inst in evset.instances:
        check_program(m.schema, inst.body)
    return evset


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
        lines.append(f"ACTIVITY {name} := {bp.render_activity(a)}")
    return "\n".join(lines) + "\n"
