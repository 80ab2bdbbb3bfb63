"""Bounded enumeration of the two computation constructions.

A computation alternates component steps (labelled, from the small-step
semantics) and environment steps (state change only).  The raw definitions
admit arbitrary environment state changes, which is infinite even at
length 2 over non-trivial domains; enumeration is therefore parametrized
by a constructive `rely_universe` whose successor sets supply the
environment moves.  Taking the full declared domain product as the
universe recovers the unrestricted definitions exactly on tiny schemas.

The linear construction extends computations one transition at a time;
the modular construction recurses over the structure of the event system.
Both are enumerated to a length bound and compared; individual modular
rules can be disabled to demonstrate the comparison notices.

Both build over a hash-consing table (`_Table`).  Each configuration
(spec, state) and each step kind (ENV or ("comp", label)) gets a small int
in order of first appearance.  A set of computations that all start at one
configuration is a node: (conf id, member, kids), where `member` says
whether the one-configuration computation is in the set and kids is the
sorted tuple of (kind id, conf id, node) of the nonempty sets of
continuations after each first step; -1 is the empty set.  Nodes are
interned too, so within one table equal sets get one node id (Bryant's
canonical DAGs; Filliatre and Conchon's hash-consing): `linear` and
`modular` return node ids memoised per (configuration, length bound),
sets that meet under one first step are joined by a memoised union, and
the iteration rules are a memoised transform of the body's node.  The
public functions return a `ComputationSet` over the finished node: its
size is a count over the DAG, `==` with a view of the same table is an id
comparison and with another table's view a walk of both DAGs in step, and
`in` follows one path.  Computations are built only when a caller
iterates; the equivalence check builds only those of one side's
difference, to pick the witness.  Ids name equality classes, so counts,
witnesses and reports are those of the sets of objects.  Every step is a
pure function of the configuration it is memoised on, within one table
where `ctx`, the universe, `k` and the disabled rules are fixed; a call
that raises stores nothing, and each step is first taken where the rules
as written take it (the linear rules' last move first, the modular rules
in rule order), so the first exception is the one the plain enumeration
raises.  (CptsMIterTMore steps the body computations of an iteration in
the order of their DAG, which the rules leave open.)
"""

from __future__ import annotations

from collections.abc import Set
from dataclasses import dataclass
from typing import Any

from .events import (
    EsAtomic,
    EsBasic,
    EsChoice,
    EsIter,
    EsJoin,
    EsSeq,
    EsTriggered,
    EventSystem,
    FIN,
    is_fin,
    render_system,
    tau,
)
from .adapters import AwaitDivergence, terminal_states
from .semantics import (
    AtomDivergence,
    Ctx,
    _aevt_labels,
    _evt_succs,
    _Intern,
    _join_succ,
    _seq_succ,
    _trg_succ,
    graph_diag,
    step_es,
)
from .relations import NotGenerative, RelDesc, StateSet, solve_states
from .verdicts import Verdict, diag, fail, ok

ENV = ("env",)


def comp_kind(label) -> tuple:
    return ("comp", label)


@dataclass(frozen=True)
class Computation:
    confs: tuple  # ((spec, state), ...) non-empty
    kinds: tuple  # len(confs) - 1 entries: ENV or ("comp", ActionLabel)

    def __post_init__(self):
        assert len(self.confs) >= 1 and len(self.kinds) == len(self.confs) - 1

    def __len__(self) -> int:
        return len(self.confs)

    def prepend(self, conf, kind) -> "Computation":
        return Computation((conf,) + self.confs, (kind,) + self.kinds)

    def render(self, schema, memo: dict | None = None) -> list[dict]:
        """`memo` maps each configuration to its rendered spec and state; a
        caller that renders many computations of one set can share it."""
        memo = {} if memo is None else memo
        out = []
        for i, conf in enumerate(self.confs):
            step = None
            if i > 0:
                k = self.kinds[i - 1]
                step = "env" if k == ENV else f"comp[{k[1].render()}]"
            parts = memo.get(conf)
            if parts is None:
                parts = memo[conf] = (render_system(conf[0]), schema.state_to_dict(conf[1]))
            out.append({"spec": parts[0], "state": parts[1], "via": step})
        return out

    def sort_key(self, schema, memo: dict | None = None) -> str:
        return repr(self.render(schema, memo))


MODULAR_RULES = (
    "CptsMOne",
    "CptsMEnv",
    "CptsMTrgEvt",
    "CptsMTrgEvtFin",
    "CptsMBasicEvt",
    "CptsMAtomEvt",
    "CptsMSeq",
    "CptsMSeqFin",
    "CptsMChc1",
    "CptsMChc2",
    "CptsMJoin1",
    "CptsMJoin2",
    "CptsMJoinFin",
    "CptsMIterF",
    "CptsMIterTOne",
    "CptsMIterTMore",
)

_ENV_ID = 0  # kind id of ENV in every table


class _Table:
    """Intern tables, step memos and the path nodes of one check (see the
    module docstring).  A node is (conf id, member, kids), kids a sorted
    tuple of (kind id, conf id, node); -1 is the empty set."""

    __slots__ = (
        "ctx", "rely", "k", "on", "ids", "confs", "fin", "kind", "tau",
        "env", "steps", "moves", "nodes", "node_ids", "lin", "paths", "lifts", "unions",
    )

    def __init__(self, ctx: Ctx, rely: RelDesc, k: Any, disabled: frozenset[str] = frozenset()):
        for d in disabled:
            assert d in MODULAR_RULES, d
        self.ctx, self.rely, self.k = ctx, rely, k
        self.on = {rule: rule not in disabled for rule in MODULAR_RULES}
        self.ids: dict = {}  # (spec, state) -> conf id
        self.confs: list = []  # conf id -> (spec, state)
        self.fin: list = []  # conf id -> whether its spec is FIN
        self.kind = _Intern()
        self.kind(ENV)
        self.tau = self.kind(comp_kind(tau(k)))  # kind id of a tau step
        self.env: dict = {}  # conf id -> [(ENV id, conf id of (spec, t))] for t in the universe
        self.steps: dict = {}  # conf id -> [(kind id, conf id)] of step_es
        self.moves: dict = {}  # conf id -> [(kind id, conf id)] by the modular rules
        self.nodes: list = []  # node id -> node
        self.node_ids: dict = {}  # node -> node id
        self.lin: dict = {}  # (conf id, budget) -> node of linear paths
        self.paths: dict = {}  # (conf id, budget) -> node of modular paths
        self.lifts: dict = {}  # (node, q, budget) -> node of its iteration paths
        self.unions: dict = {}  # (node, node) -> node of their union

    def conf(self, spec, st) -> int:
        key = (spec, st)
        i = self.ids.get(key)
        if i is None:
            i = self.ids[key] = len(self.confs)
            self.confs.append(key)
            self.fin.append(is_fin(spec))
        return i

    def env_of(self, c: int) -> list[tuple[int, int]]:
        out = self.env.get(c)
        if out is None:
            spec, st = self.confs[c]
            out = self.env[c] = [(_ENV_ID, self.conf(spec, t)) for t in self.rely.successors(st)]
        return out

    def steps_of(self, c: int) -> list[tuple[int, int]]:
        out = self.steps.get(c)
        if out is None:
            spec, st = self.confs[c]
            kind, conf = self.kind, self.conf
            out = self.steps[c] = [
                (kind(comp_kind(lbl)), conf(spec2, t))
                for lbl, spec2, t in step_es(self.ctx, spec, st, self.k)
            ]
        return out

    # -- nodes -----------------------------------------------------------
    def node(self, c: int, member: bool, kids: list) -> int:
        """The node of the paths from `c`: `(c,)` if `member`, and for each
        (kind id, conf id, node) of `kids`, `c` and that kind followed by
        each path of the node.  Kids with one kind and conf are joined."""
        by: dict = {}
        for kd, x, n in kids:
            if n != -1:
                m = by.get((kd, x))
                by[kd, x] = n if m is None else self.union(m, n)
        if not (member or by):
            return -1
        key = (c, member, tuple(sorted((kd, x, n) for (kd, x), n in by.items())))
        i = self.node_ids.get(key)
        if i is None:
            i = self.node_ids[key] = len(self.nodes)
            self.nodes.append(key)
        return i

    def union(self, a: int, b: int) -> int:
        """The node of the paths of two nodes from one configuration."""
        if a == b:
            return a
        key = (a, b) if a < b else (b, a)
        out = self.unions.get(key)
        if out is None:
            c, m, kids = self.nodes[a]
            _, n, more = self.nodes[b]
            out = self.unions[key] = self.node(c, m or n, kids + more)
        return out

    def minus(self, a: int, b: int, memo: dict) -> int:
        """The node of the paths of node `a` that are not paths of `b`."""
        if a == b or a == -1:
            return -1
        if b == -1:
            return a
        out = memo.get((a, b))
        if out is None:
            c, m, kids = self.nodes[a]
            _, n, theirs = self.nodes[b]
            index, rest = {(kd, x): y for kd, x, y in theirs}, []
            for kd, x, y in kids:
                rest.append((kd, x, self.minus(y, index.get((kd, x), -1), memo)))
            out = memo[a, b] = self.node(c, m and not n, rest)
        return out

    # -- linear ----------------------------------------------------------
    def linear(self, c: int, budget: int) -> int:
        """The node of the paths of length <= budget from c by the three
        linear rules, stepped in the depth-first order of the rules as
        written: each configuration's environment and component moves,
        then the last of them first."""
        key = (c, budget)
        out = self.lin.get(key)
        if out is None:
            kids = []
            if budget >= 2:
                for kd, x in reversed(self.env_of(c) + self.steps_of(c)):
                    kids.append((kd, x, self.linear(x, budget - 1)))
            out = self.lin[key] = self.node(c, True, kids)
        return out

    # -- modular ---------------------------------------------------------
    def modular(self, c: int, budget: int) -> int:
        """The node of the paths of length <= budget from c by the enabled
        modular rules."""
        key = (c, budget)
        out = self.paths.get(key)
        if out is not None:
            return out
        kids = []
        if budget >= 2:
            b = budget - 1
            moves = self.moves.get(c)
            for group in self._move_groups(c) if moves is None else (moves,):
                for kd, x in group:
                    kids.append((kd, x, self.modular(x, b)))
            if moves is None:
                self.moves[c] = [kid[:2] for kid in kids]
            spec, st = self.confs[c]
            if isinstance(spec, EsIter) and spec.cond.holds(st):
                x = self.conf(spec.body, st)
                kids.append((self.tau, self.conf(EsSeq(spec.body, spec), st),
                             self.lift(self.modular(x, b), spec, b)))
        out = self.paths[key] = self.node(c, self.on["CptsMOne"], kids)
        return out

    def _move_groups(self, c: int):
        """The moves of `c` by CptsMEnv and by every enabled modular rule
        except the iteration head's, one group per step the rules take,
        generated lazily so that each group is stepped right before the
        enumeration recurses into it, as the rules are written."""
        spec, st = self.confs[c]
        on, k, kind, conf = self.on, self.k, self.kind, self.conf
        if on["CptsMEnv"]:
            yield self.env_of(c)
        if isinstance(spec, EsTriggered) and spec.prog is not None:
            ctx = self.ctx
            yield [
                (self.tau, conf(_trg_succ(spec, k, q)[1], t))
                for q, t in ctx.adapter.step(ctx.actx, spec.prog, st)
                if on["CptsMTrgEvtFin" if q is None else "CptsMTrgEvt"]
            ]
        elif isinstance(spec, EsBasic):
            if on["CptsMBasicEvt"]:
                for inst, (lbl, trg) in zip(spec.events.instances, _evt_succs(spec, k)):
                    if inst.guard.holds(st):
                        yield [(kind(comp_kind(lbl)), conf(trg, st))]
        elif isinstance(spec, EsAtomic):
            if on["CptsMAtomEvt"]:
                ctx = self.ctx
                for inst, lbl in zip(spec.events.instances, _aevt_labels(spec, k)):
                    if inst.guard.holds(st):
                        try:
                            terms = terminal_states(
                                ctx.actx, ctx.adapter.step, inst.body, st, inst.label
                            )
                        except AwaitDivergence as d:
                            raise AtomDivergence(inst.label) from d
                        kd = kind(comp_kind(lbl))
                        yield [(kd, conf(FIN, t)) for t in terms]
        elif isinstance(spec, EsSeq):
            group = []
            for kd, x in self.steps_of(conf(spec.a, st)):
                a2, t = self.confs[x]
                if self.fin[x]:
                    if on["CptsMSeqFin"]:
                        group.append((kd, conf(spec.b, t)))
                elif on["CptsMSeq"]:
                    group.append((kd, conf(_seq_succ(spec, a2), t)))
            yield group
        elif isinstance(spec, EsChoice):
            if on["CptsMChc1"]:
                yield self.steps_of(conf(spec.a, st))
            if on["CptsMChc2"]:
                yield self.steps_of(conf(spec.b, st))
        elif isinstance(spec, EsJoin):
            if is_fin(spec.a) and is_fin(spec.b) and on["CptsMJoinFin"]:
                yield [(self.tau, conf(FIN, st))]
            if on["CptsMJoin1"]:
                yield [
                    (kd, conf(_join_succ(spec, self.confs[x][0], spec.b), self.confs[x][1]))
                    for kd, x in self.steps_of(conf(spec.a, st))
                ]
            if on["CptsMJoin2"]:
                yield [
                    (kd, conf(_join_succ(spec, spec.a, self.confs[x][0]), self.confs[x][1]))
                    for kd, x in self.steps_of(conf(spec.b, st))
                ]
        elif isinstance(spec, EsIter):
            if not spec.cond.holds(st) and on["CptsMIterF"]:
                yield [(self.tau, conf(FIN, st))]

    def lift(self, n: int, q: EsIter, budget: int) -> int:
        """CptsMIterTOne and CptsMIterTMore on the body paths of node `n`,
        each of length <= budget: the paths that meet no FIN
        configuration, lifted by `;; q`, and, where such a path can still
        grow, its finishing steps, each followed by the paths of `q`."""
        if n == -1 or self.fin[self.nodes[n][0]]:
            return -1
        key = (n, q, budget)
        out = self.lifts.get(key)
        if out is None:
            x, member, body = self.nodes[n]
            kids = []
            if member and budget >= 2 and self.on["CptsMIterTMore"]:
                for kd, z in self.steps_of(x):
                    if self.fin[z]:
                        y = self.conf(q, self.confs[z][1])
                        kids.append((kd, y, self.modular(y, budget - 1)))
            for kd, z, m in body:
                a, t = self.confs[z]
                kids.append((kd, self.conf(EsSeq(a, q), t), self.lift(m, q, budget - 1)))
            a, t = self.confs[x]
            lifted = self.conf(EsSeq(a, q), t)
            out = self.lifts[key] = self.node(lifted, member and self.on["CptsMIterTOne"], kids)
        return out


def _count(nodes: list, root: int) -> int:
    """The number of paths of node `root`, counted over the nodes up to it
    in id order, which puts every node after its kids."""
    n: list = []
    for _, m, kids in nodes[: root + 1]:
        n.append(m + sum(n[y] for _, _, y in kids))
    return n[root] if root != -1 else 0


def _walk(nodes: list, root: int):
    """The (conf ids, kind ids) of each path of node `root`."""
    stack = [(root, (nodes[root][0],), ())] if root != -1 else []
    while stack:
        n, cs, ks = stack.pop()
        _, member, kids = nodes[n]
        if member:
            yield cs, ks
        for kd, x, y in kids:
            stack.append((y, cs + (x,), ks + (kd,)))


class ComputationSet(Set):
    """The paths of one node of a `_Table`, seen as a set of `Computation`
    objects.  It keeps the table's nodes and intern tables but none of its
    memos.  `len`, `in` and `==` with another view run on nodes; any other
    use iterates, which builds the computations once."""

    __slots__ = ("_root", "_nodes", "_confs", "_kinds", "_conf_ids", "_kind_ids", "_objs")

    def __init__(self, table: _Table, root: int):
        self._root, self._nodes = root, table.nodes
        self._confs, self._conf_ids = table.confs, table.ids
        self._kinds, self._kind_ids = table.kind.objs, table.kind.ids
        self._objs: frozenset[Computation] | None = None

    def __len__(self) -> int:
        return self.count()

    def count(self) -> int:
        """The size, also above `sys.maxsize`, where `len` cannot go."""
        return _count(self._nodes, self._root)

    def __iter__(self):
        return iter(self._computations())

    def _computations(self) -> frozenset[Computation]:
        if self._objs is None:
            confs, kinds = self._confs, self._kinds
            self._objs = frozenset(
                Computation(tuple(map(confs.__getitem__, cs)), tuple(map(kinds.__getitem__, ks)))
                for cs, ks in _walk(self._nodes, self._root)
            )
        return self._objs

    def __contains__(self, c) -> bool:
        conf_id, kind_id, nodes, n = self._conf_ids.get, self._kind_ids.get, self._nodes, self._root
        if not isinstance(c, Computation) or n == -1 or nodes[n][0] != conf_id(c.confs[0]):
            return False
        for kind, conf in zip(c.kinds, c.confs[1:]):
            key = (kind_id(kind), conf_id(conf))
            n = next((y for kd, x, y in nodes[n][2] if (kd, x) == key), None)
            if n is None:
                return False
        return nodes[n][1]

    def __eq__(self, other):
        if isinstance(other, ComputationSet):
            if self._nodes is other._nodes or -1 in (self._root, other._root):
                return self._root == other._root
            # Walk both DAGs in step: two nodes hold equal sets iff their
            # confs, member flags and kid keys correspond one to one (ids
            # name distinct values) and so do the kids' nodes.
            conf_id, kind_id = other._conf_ids.get, other._kind_ids.get
            confs, kinds, mine, theirs = self._confs, self._kinds, self._nodes, other._nodes
            seen, stack = set(), [(self._root, other._root)]
            while stack:
                pair = stack.pop()
                if pair in seen:
                    continue
                seen.add(pair)
                (c, m, kids), (d, n, their_kids) = mine[pair[0]], theirs[pair[1]]
                if conf_id(confs[c]) != d or m != n or len(kids) != len(their_kids):
                    return False
                index = {(kd, x): y for kd, x, y in their_kids}
                for kd, x, y in kids:
                    z = index.get((kind_id(kinds[kd]), conf_id(confs[x])))
                    if z is None:
                        return False
                    stack.append((y, z))
            return True
        if isinstance(other, Set):
            return self._computations() == other
        return NotImplemented

    __hash__ = Set._hash

    @classmethod
    def _from_iterable(cls, it) -> frozenset:
        return frozenset(it)

    def conf_sequences(self) -> set[tuple]:
        """The configuration sequences of the computations, without their
        step kinds."""
        confs = self._confs
        return {tuple(map(confs.__getitem__, cs)) for cs, _ in _walk(self._nodes, self._root)}


def cpts_linear(
    ctx: Ctx,
    s_sys: EventSystem,
    s: tuple,
    rely_universe: RelDesc,
    max_len: int,
    k: Any = "es",
) -> ComputationSet:
    """Computations of length <= max_len derivable by the three linear
    rules, environment successors drawn from `rely_universe`."""
    assert max_len >= 1
    table = _Table(ctx, rely_universe, k)
    return ComputationSet(table, table.linear(table.conf(s_sys, s), max_len))


def cpts_modular(
    ctx: Ctx,
    s_sys: EventSystem,
    s: tuple,
    rely_universe: RelDesc,
    max_len: int,
    k: Any = "es",
    disabled: frozenset[str] = frozenset(),
) -> ComputationSet:
    """Computations of length <= max_len built by the modular rules.

    `disabled` removes individual rules (mutation experiments)."""
    assert max_len >= 1
    table = _Table(ctx, rely_universe, k, disabled)
    return ComputationSet(table, table.modular(table.conf(s_sys, s), max_len))


def check_linear_modular_equiv(
    ctx: Ctx,
    s_sys: EventSystem,
    pre: StateSet,
    rely_universe: RelDesc,
    max_len: int,
    init_mode: str = "default",
    disabled: frozenset[str] = frozenset(),
    k: Any = "es",
) -> Verdict:
    """PASS iff the linear and modular sets agree for every initial state,
    up to max_len.  FAIL carries a computation present in exactly one set.

    Both constructions run over one table, shared by all initial states,
    and only the paths of one side's difference are converted to
    `Computation` objects.  A bound deeper than the recursion limit ends
    as a `state-explosion` diagnostic, and a universe relation without a
    generator as `relation-not-generative`."""
    check = "equiv-cpts"
    table = _Table(ctx, rely_universe, k, disabled)
    total = 0
    try:
        for s in solve_states(pre, mode=init_mode):
            c0 = table.conf(s_sys, s)
            lin, mod = table.linear(c0, max_len), table.modular(c0, max_len)
            total += _count(table.nodes, lin)
            if lin != mod:
                diff: dict = {}
                only = table.minus(lin, mod, diff)
                side = "linear-only" if only != -1 else "modular-only"
                if only == -1:
                    only = table.minus(mod, lin, diff)
                memo: dict = {}
                w = min(ComputationSet(table, only), key=lambda c: c.sort_key(ctx.schema, memo))
                return fail(
                    check,
                    side,
                    witness={
                        "computation": w.render(ctx.schema),
                        "linear_count": _count(table.nodes, lin),
                        "modular_count": _count(table.nodes, mod),
                    },
                    detail={"initial_state": ctx.schema.state_to_dict(s)},
                )
    except RecursionError:
        cause = f"max_len {max_len} nests computations deeper than the recursion limit"
        return diag(check, "state-explosion", detail={"cause": cause})
    except NotGenerative as e:
        return graph_diag(check, e)
    return ok(check, detail={"computations": total})
