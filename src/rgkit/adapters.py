"""Program-language adapters behind the rely-guarantee interface.

An adapter supplies the terminal program, a finitely-branching step
function, model-file hooks, and (optionally) a native proof-rule checker.
Two assumptions are imposed on every adapter and tested exhaustively by
`conformance_suite`:

    A1: the terminal program takes no step;
    A2: a step always changes the program component.

Two reference adapters live here: an IMP-style structured language and a
relation-style explicit transition system, which exists to demonstrate the
interface is language-agnostic.  `prog_validity` checks a program against a
rely-guarantee spec as the triggered event EsTriggered(p), whose
configuration (EsTriggered(q), s) is the program configuration (q, s), on
the one explorer, `semantics.build_graph`.

IMP is deterministic: `imp_step` returns at most one successor, by
induction on the program (`Basic`, `Cond` and `While` give one, `PSeq` as
many as its head, `Await` at most the one terminal of its deterministic
body).  `terminal_states` relies on this to run IMP await and atomic
bodies big-step (`_runner`) instead of exploring their step graph.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

from .events import EsTriggered
from .exprs import Cmp, Expr, Lit, Var, _compiled, _memo, _node, render_expr, substitute
from .relations import RGSpec, StateSet, compile_assigns, solve_states, true_set
from .values import BoolType, DomainOverflow, IntType, LoadError, Schema
from .verdicts import Verdict, diag, fail, ok


class AwaitDivergence(Exception):
    """A cycle exists in an await/atomic body's configuration graph."""

    def __init__(self, where: str):
        self.where = where
        super().__init__(f"await-divergence in {where}")


@dataclass(frozen=True)
class AdapterContext:
    """Static configuration for programs; immutable during checking."""

    schema: Schema


@dataclass(frozen=True)
class Ctx:
    """Static configuration shared by all checks on one model."""

    actx: AdapterContext
    adapter: ProgramAdapter

    @property
    def schema(self):
        return self.actx.schema


# ----------------------------------------------------------------------
# IMP programs.  The terminal program is None.
# ----------------------------------------------------------------------


@_node
class Basic:
    assigns: tuple  # ((var, Expr), ...) simultaneous, pre-state semantics


@_node
class PSeq:
    a: "ImpProgram"
    b: "ImpProgram"


@_node
class Cond:
    cond: StateSet
    then: "ImpProgram"
    other: "ImpProgram"


@_node
class While:
    cond: StateSet
    body: "ImpProgram"


@_node
class Await:
    cond: StateSet
    body: "ImpProgram"


ImpProgram = Basic | PSeq | Cond | While | Await

SKIP = Basic(())


def check_program(schema: Schema, p: ImpProgram | None, in_await: bool = False) -> None:
    if p is None:
        return
    if isinstance(p, Basic):
        _compiled(p, "_apply", schema, _compile_basic)
    elif isinstance(p, PSeq):
        check_program(schema, p.a, in_await)
        check_program(schema, p.b, in_await)
    elif isinstance(p, (Cond, While)):
        check_program(schema, p.then if isinstance(p, Cond) else p.body, in_await)
        if isinstance(p, Cond):
            check_program(schema, p.other, in_await)
    elif isinstance(p, Await):
        if in_await:
            raise LoadError("nested AWAIT is not allowed")
        check_program(schema, p.body, True)
    else:
        raise LoadError(f"not an IMP program: {p!r}")


def _compile_basic(p: Basic, schema: Schema) -> Callable[[tuple], tuple]:
    return compile_assigns(schema, p.assigns)


def imp_step(ctx: AdapterContext, p: ImpProgram, s: tuple) -> list[tuple[Any, tuple]]:
    """One small step.  Cond/While steps never change the state; Await runs
    its body to completion in a single step or blocks.  A `PSeq` builds
    `PSeq(q, b)` once per head successor `q`, and a `While` its unrolling
    once, in the node's `_memo`."""
    schema = ctx.schema
    if p is None:
        return []
    if isinstance(p, Basic):
        return [(None, _compiled(p, "_apply", schema, _compile_basic)(s))]
    if isinstance(p, PSeq):
        out = []
        for q, t in imp_step(ctx, p.a, s):
            if q is None:
                out.append((p.b, t))
                continue
            memo = _memo(p)
            q2 = memo.get(q)
            if q2 is None:
                q2 = memo[q] = PSeq(q, p.b)
            out.append((q2, t))
        return out
    if isinstance(p, Cond):
        return [(p.then if p.cond.holds(s) else p.other, s)]
    if isinstance(p, While):
        if p.cond.holds(s):
            memo = _memo(p)
            unrolled = memo.get("unroll")
            if unrolled is None:
                unrolled = memo["unroll"] = PSeq(p.body, p)
            return [(unrolled, s)]
        return [(None, s)]
    if isinstance(p, Await):
        if not p.cond.holds(s):
            return []
        outs = terminal_states(ctx, imp_step, p.body, s, where="AWAIT body")
        return [(None, t) for t in outs]
    raise LoadError(f"not an IMP program: {p!r}")


class _Loop(Exception):
    """A While head met a state twice in one activation (see `_runner`)."""


def _runner(schema: Schema, p) -> Callable[[tuple], tuple | None]:
    """IMP program `p` compiled to a big-step closure `s -> t | None`, where
    None means an inner Await blocked; cached per node and schema by
    `exprs._compiled`.  A child is compiled when execution first reaches it
    (the `x or (x := ...)` cells), so a node `imp_step` rejects raises only
    where `imp_step` would.  Guards are looked up at each call, as
    `imp_step` does, so a patched `StateSet.holds` sees every test.  The
    terminal None is stuck as a `PSeq` head or a `While` body, where
    `imp_step` has no step for it, and finished everywhere else."""
    if p is None:
        return _terminal
    return _compiled(p, "_run", schema, _compile_run)


def _compile_run(p, schema: Schema) -> Callable[[tuple], tuple | None]:
    if isinstance(p, Basic):
        run = _compiled(p, "_apply", schema, _compile_basic)
    elif isinstance(p, PSeq):
        ra, rb = (_stuck if p.a is None else None), None

        def run(s):
            nonlocal ra, rb
            t = (ra or (ra := _runner(schema, p.a)))(s)
            if t is None:
                return None
            return (rb or (rb := _runner(schema, p.b)))(t)

    elif isinstance(p, Cond):
        cond, rt, ro = p.cond, None, None

        def run(s):
            nonlocal rt, ro
            if cond.holds(s):
                return (rt or (rt := _runner(schema, p.then)))(s)
            return (ro or (ro := _runner(schema, p.other)))(s)

    elif isinstance(p, While):
        cond, rb = p.cond, (_stuck if p.body is None else None)

        def run(s):
            # The continuation of a While is the same throughout one
            # activation, so a repeated head state is exactly a cycle of
            # the small-step configuration graph.
            nonlocal rb
            seen = set()
            while s not in seen:
                seen.add(s)
                if not cond.holds(s):
                    return s
                s = (rb or (rb := _runner(schema, p.body)))(s)
                if s is None:
                    return None
            raise _Loop

    elif isinstance(p, Await):
        cond, rb = p.cond, None

        def run(s):
            nonlocal rb
            if not cond.holds(s):
                return None
            try:
                return (rb or (rb := _runner(schema, p.body)))(s)
            except _Loop:
                raise AwaitDivergence("AWAIT body") from None

    else:
        raise LoadError(f"not an IMP program: {p!r}")
    return run


def _terminal(s: tuple) -> tuple:
    return s


def _stuck(s: tuple) -> None:
    return None


def terminal_states(ctx, step, p, s, where: str) -> list[tuple]:
    """All t with (terminal, t) reachable from (p, s) by the step closure.

    Detects cycles in the body's configuration graph and reports them as
    divergence (bodies are assumed to terminate).  IMP bodies run big-step
    (`_runner`): IMP is deterministic, so there is at most one terminal."""
    if step is imp_step:
        try:
            t = _runner(ctx.schema, p)(s)
        except _Loop:
            raise AwaitDivergence(where) from None
        return [] if t is None else [t]
    start = (p, s)
    seen = {start}
    order: list[tuple] = []
    terminals: set = set()
    queue: deque = deque([start])
    edges: dict = {}
    while queue:
        conf = queue.popleft()
        if conf[0] is None and conf[1] not in terminals:
            terminals.add(conf[1])
            order.append(conf[1])
        succs = step(ctx, conf[0], conf[1]) if conf[0] is not None else []
        edges[conf] = succs
        for q, t in succs:
            nxt = (q, t)
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    # cycle detection over the explored finite graph
    WHITE, GREY, BLACK = 0, 1, 2
    colour = {c: WHITE for c in edges}
    for root in edges:
        if colour[root] != WHITE:
            continue
        dfs = [(root, iter(edges[root]))]
        colour[root] = GREY
        while dfs:
            node, it = dfs[-1]
            advanced = False
            for q, t in it:
                nxt = (q, t)
                if nxt not in edges:
                    continue
                if colour[nxt] == GREY:
                    raise AwaitDivergence(where)
                if colour[nxt] == WHITE:
                    colour[nxt] = GREY
                    dfs.append((nxt, iter(edges[nxt])))
                    advanced = True
                    break
            if not advanced:
                colour[node] = BLACK
                dfs.pop()
    return order


def _render_cond(c) -> str:
    # Guards are StateSets after loading, raw expressions inside templates.
    if isinstance(c, StateSet):
        return c.render()
    return render_expr(c)


def _is_true_cond(c) -> bool:
    e = c.expr if isinstance(c, StateSet) else c
    return e == Lit(True)


def render_program(p) -> str:
    if p is None:
        return "BOT"
    if isinstance(p, Basic):
        if not p.assigns:
            return "SKIP"
        if len(p.assigns) == 1:
            v, e = p.assigns[0]
            return f"{v} := {render_expr(e)}"
        vs = ", ".join(v for v, _ in p.assigns)
        es = ", ".join(render_expr(e) for _, e in p.assigns)
        return f"({vs}) := ({es})"
    if isinstance(p, PSeq):
        return f"{render_program(p.a)} ;; {render_program(p.b)}"
    if isinstance(p, Cond):
        return (
            f"IF {_render_cond(p.cond)} THEN {render_program(p.then)} "
            f"ELSE {render_program(p.other)} FI"
        )
    if isinstance(p, While):
        return f"WHILE {_render_cond(p.cond)} DO {render_program(p.body)} OD"
    if isinstance(p, Await):
        if _is_true_cond(p.cond):
            return f"ATOM {render_program(p.body)} END"
        return f"AWAIT {_render_cond(p.cond)} THEN {render_program(p.body)} END"
    if isinstance(p, RelAt):
        return f"REL<{p.machine.name}@{p.loc}>"
    raise AssertionError(p)


def subst_program(p, env: dict[str, Expr]):
    """Parameter substitution through a program tree (event expansion)."""
    if p is None:
        return None
    if isinstance(p, Basic):
        return Basic(tuple((v, substitute(e, env)) for v, e in p.assigns))
    if isinstance(p, PSeq):
        return PSeq(subst_program(p.a, env), subst_program(p.b, env))
    if isinstance(p, Cond):
        return Cond(
            _subst_cond(p.cond, env), subst_program(p.then, env), subst_program(p.other, env)
        )
    if isinstance(p, While):
        return While(_subst_cond(p.cond, env), subst_program(p.body, env))
    if isinstance(p, Await):
        return Await(_subst_cond(p.cond, env), subst_program(p.body, env))
    if isinstance(p, RelAt):
        return p
    raise LoadError(f"cannot substitute in {p!r}")


def _subst_cond(c, env):
    if isinstance(c, StateSet):
        if c.expr is None:
            return c
        return StateSet(c.schema, substitute(c.expr, env))
    return substitute(c, env)


# ----------------------------------------------------------------------
# Relation-style programs: explicit finite labelled transition systems.
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class RelMachine:
    name: str
    edges: tuple  # ((src, guard: StateSet, assigns, dst), ...)
    terminal_loc: str
    applies: tuple = field(compare=False, repr=False)  # each edge's compiled assigns

    def outgoing(self, loc: str):
        """(edge, its compiled assigns) for each edge out of `loc`."""
        return [(e, a) for e, a in zip(self.edges, self.applies) if e[0] == loc]


def make_rel_machine(
    schema: Schema,
    name: str,
    edges: Iterable[tuple[str, StateSet, tuple, str]],
    terminal_loc: str,
    allow_self_loops: bool = False,
) -> RelMachine:
    edges = tuple(edges)
    applies = []
    for src, guard, assigns, dst in edges:
        applies.append(compile_assigns(schema, assigns))
        if src == dst and not allow_self_loops:
            raise LoadError(f"self-loop edge at location {src!r} violates A2")
        if src == terminal_loc:
            raise LoadError("edges out of the terminal location violate A1")
    return RelMachine(name, edges, terminal_loc, tuple(applies))


@_node
class RelAt:
    machine: RelMachine
    loc: str


def rel_step(ctx: AdapterContext, p, s: tuple) -> list[tuple[Any, tuple]]:
    if p is None:
        return []
    assert isinstance(p, RelAt)
    out = []
    for (src, guard, assigns, dst), apply in p.machine.outgoing(p.loc):
        if guard.holds(s):
            t = apply(s)
            q = None if dst == p.machine.terminal_loc else RelAt(p.machine, dst)
            out.append((q, t))
    return out


# ----------------------------------------------------------------------
# The adapter contract and the two reference adapters.
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ProgramAdapter:
    name: str
    step: Callable[[AdapterContext, Any, tuple], list]
    samples: Callable[[AdapterContext], list[tuple[Any, tuple]]]
    terminal: Any = None


def _imp_samples(ctx: AdapterContext) -> list[tuple[Any, tuple]]:
    schema = ctx.schema
    s0 = schema.initial_state()
    progs: list[ImpProgram] = []
    if schema.names:
        v = schema.names[0]
        t = schema.types[0]
        if isinstance(t, IntType):
            cond = StateSet(schema, Cmp("<", Var(v), Lit(t.hi)))
            inc = Basic(((v, Lit(t.lo)),))
            progs += [
                inc,
                PSeq(inc, inc),
                Cond(cond, inc, SKIP),
                While(cond, Basic(((v, Lit(t.hi)),))),
                Await(cond, inc),
            ]
        elif isinstance(t, BoolType):
            cond = StateSet(schema, Var(v))
            progs += [Basic(((v, Lit(False)),)), Cond(cond, SKIP, SKIP)]
    progs.append(SKIP)
    return [(p, s0) for p in progs]


def _rel_samples(ctx: AdapterContext) -> list[tuple[Any, tuple]]:
    schema = ctx.schema
    m = make_rel_machine(
        schema,
        "sample",
        [("a", true_set(schema), (), "b"), ("b", true_set(schema), (), "end")],
        "end",
    )
    return [(RelAt(m, "a"), schema.initial_state()), (RelAt(m, "b"), schema.initial_state())]


IMP_ADAPTER = ProgramAdapter("imp", imp_step, _imp_samples)
REL_ADAPTER = ProgramAdapter("rel", rel_step, _rel_samples)

ADAPTERS = {"imp": IMP_ADAPTER, "rel": REL_ADAPTER}


@dataclass
class ConformanceEntry:
    assumption: str  # "A1" | "A2"
    passed: bool
    witness: Any = None


@dataclass
class ConformanceReport:
    adapter: str
    entries: list[ConformanceEntry]

    @property
    def passed(self) -> bool:
        return all(e.passed for e in self.entries)

    def violations(self) -> list[ConformanceEntry]:
        return [e for e in self.entries if not e.passed]


def conformance_suite(
    adapter: ProgramAdapter,
    ctx: AdapterContext,
    samples: list[tuple[Any, tuple]] | None = None,
) -> ConformanceReport:
    """Exhaustively test A1 and A2 over the sample programs and states.
    Violations are report entries with witnesses, not suite failures."""
    samples = list(samples) if samples is not None else adapter.samples(ctx)
    entries: list[ConformanceEntry] = []
    states: list[tuple] = []
    for _, s in samples:
        if s not in states:
            states.append(s)
    for s in states:
        succs = adapter.step(ctx, adapter.terminal, s)
        entries.append(
            ConformanceEntry("A1", not succs, witness=(s, succs) if succs else None)
        )
    for p, s in samples:
        for q, t in adapter.step(ctx, p, s):
            if q == p:
                entries.append(ConformanceEntry("A2", False, witness=(p, s, t)))
                break
        else:
            entries.append(ConformanceEntry("A2", True))
    return ConformanceReport(adapter.name, entries)


# ----------------------------------------------------------------------
# Program-level rely-guarantee validity, on the event-system explorer.
# ----------------------------------------------------------------------


def prog_validity(
    ctx: AdapterContext,
    adapter: ProgramAdapter,
    p: Any,
    spec: RGSpec,
    init_states: list[tuple] | None = None,
    budget: int = 1_000_000,
    init_mode: str = "default",
) -> Verdict:
    """PASS iff every computation of `p` from pre under rely satisfies
    commit(guar, post).  Exact on finite instances; FAIL carries a minimal
    counterexample trace.  The checks observe `build_graph` on
    EsTriggered(p): at each pop the budget test, then the post test at
    `FIN`, and the guar test on each comp successor before it is added."""
    from . import semantics  # semantics imports this module

    check = "prog-validity"
    try:
        if init_states is None:
            init_states = solve_states(spec.pre, mode=init_mode)
    except DomainOverflow as d:
        return diag(check, "state-explosion", detail={"cause": str(d)})

    state = ctx.schema.state_to_dict
    stop: list = []  # the verdict of the check that stopped the build, given the graph

    def trace(g, idx: int, *last) -> list:
        confs = [(g.nodes[i], via) for i, via, _ in g.path_to(idx)] + list(last)
        return [{"program": render_program(es.prog), "state": state(s), "via": via}
                for (es, s), via in confs]

    def on_expand(idx, n, es, s):
        if n > budget:
            stop.append(lambda g: diag(check, "state-explosion", detail={"nodes": n}))
        elif es.prog is None and not spec.post.holds(s):
            stop.append(lambda g: fail(check, "post-violation", node_count=g.node_count, witness={
                "trace": trace(g, idx), "final_state": state(s)}))
        return stop

    def on_comp(idx, s, es2, t):
        if not spec.guar.contains(s, t):
            stop.append(lambda g: fail(check, "guar-violation", node_count=g.node_count, witness={
                "trace": trace(g, idx, ((es2, t), "comp")), "pair": [state(s), state(t)]}))
        return stop

    try:
        g = semantics.build_graph(semantics.Ctx(ctx, adapter), EsTriggered(p), None, spec.rely,
                                  init_states, float("inf"), on_expand=on_expand, on_comp=on_comp)
    except Exception as e:  # noqa: BLE001 - converted to typed diagnostics
        return semantics.graph_diag(check, e)
    return stop[0](g) if stop else ok(check, node_count=g.node_count)
