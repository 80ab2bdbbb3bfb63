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

Both enumerate over a hash-consing table (`_Table`): each configuration
(spec, state) and each step kind (ENV or ("comp", label)) gets a small
int in order of first appearance, and a computation is the flat tuple
(conf, kind, conf, ..., conf) of those ids, which hashes in C.  The ids
change no set: an id names an equality class, and computations were
already told apart by equality, so two flat tuples are equal exactly when
the computations they stand for are.  The public functions return the
finished id-path set as a `ComputationSet`: its size, membership and
equality are decided on ids, and it builds `Computation` objects, once,
from the first object of each class, only when a caller iterates it.
Equal objects render alike, so counts, witnesses and reports do not
change.  Every step is a pure function of the configuration it is
memoised on, within one table where `ctx`, the universe, `k` and the
disabled rules are fixed; a call that raises stores nothing, and each
step is first taken at the point the rules take it, so the first
exception is the same as without the memos.  (CptsMIterTMore steps the
body computations of an iteration in set order, which follows the ids
here and followed the string hash seed before.)
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
    ParallelEventSystem,
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
    step_es,
    step_pes,
)
from .relations import RelDesc, StateSet, solve_states
from .verdicts import Verdict, fail, ok

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
    """Intern tables, step memos and the modular memo of one check (see
    the module docstring).  A path is a flat tuple of ids."""

    __slots__ = (
        "ctx", "rely", "k", "on", "ids", "confs", "fin", "kind", "tau",
        "env", "steps", "moves", "lifts", "paths",
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
        self.lifts: dict = {}  # q -> {conf id -> conf id of (EsSeq(spec, q), state)}
        self.paths: dict = {}  # (conf id, budget) -> set of modular paths

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

    # -- linear ----------------------------------------------------------
    def linear(self, c0: int, max_len: int) -> set[tuple]:
        """Paths of length <= max_len from c0 by the three linear rules,
        in the depth-first order of the rules as written."""
        assert max_len >= 1
        out: set = set()
        stack = [(c0,)]
        pop, push, add = stack.pop, stack.extend, out.add
        longest = 2 * max_len - 1  # flat length of a max_len computation
        while stack:
            p = pop()
            add(p)
            if len(p) < longest:
                c = p[-1]
                push(map(p.__add__, self.env_of(c)))
                push(map(p.__add__, self.steps_of(c)))
        return out

    # -- modular ---------------------------------------------------------
    def modular(self, c: int, budget: int) -> set[tuple]:
        """Paths of length <= budget from c by the enabled modular rules;
        the returned set is shared through the memo and never mutated."""
        key = (c, budget)
        out = self.paths.get(key)
        if out is not None:
            return out
        on = self.on
        out = {(c,)} if on["CptsMOne"] else set()
        if budget >= 2:
            b = budget - 1
            if on["CptsMEnv"]:
                self._extend(out, c, self.env_of(c), b)
            moves = self.moves.get(c)
            if moves is None:
                moves = []
                for group in self._move_groups(c):
                    self._extend(out, c, group, b)
                    moves += group
                self.moves[c] = moves
            else:
                self._extend(out, c, moves, b)
            spec, st = self.confs[c]
            if isinstance(spec, EsIter) and spec.cond.holds(st):
                self._iterate(out, c, spec, st, b)
        self.paths[key] = out
        return out

    def _extend(self, out: set, c: int, moves: list, b: int) -> None:
        for kd, x in moves:
            out.update(map((c, kd).__add__, self.modular(x, b)))

    def _move_groups(self, c: int):
        """The moves of `c` by every enabled modular rule except the
        iteration head's, one group per step the rules take, generated
        lazily so that each group is stepped right before the enumeration
        recurses into it, as the rules are written."""
        spec, st = self.confs[c]
        on, k, kind, conf = self.on, self.k, self.kind, self.conf
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

    def _iterate(self, out: set, c: int, spec: EsIter, st, b: int) -> None:
        """CptsMIterTOne and CptsMIterTMore at the iteration head `c`: a
        body computation that does not finish, lifted by `;; spec`, and,
        when its last configuration can finish, that step followed by a
        computation of `spec` again."""
        fin, confs, conf = self.fin, self.confs, self.conf
        one, more = self.on["CptsMIterTOne"], self.on["CptsMIterTMore"]
        head = (c, self.tau)
        lifts = self.lifts.get(spec)
        if lifts is None:
            lifts = self.lifts[spec] = {}
        for p in self.modular(conf(spec.body, st), b):
            cs = p[::2]
            if any(map(fin.__getitem__, cs)):
                continue
            lifted = list(p)
            for i, x in enumerate(cs):
                y = lifts.get(x)
                if y is None:
                    a, t = confs[x]
                    y = lifts[x] = conf(EsSeq(a, spec), t)
                lifted[2 * i] = y
            lifted = head + tuple(lifted)
            if one:
                out.add(lifted)
            if more:
                rem = b - len(cs)
                if rem >= 1:
                    for kd, x in self.steps_of(p[-1]):
                        if fin[x]:
                            pre = lifted + (kd,)
                            out.update(map(pre.__add__, self.modular(conf(spec, confs[x][1]), rem)))


class ComputationSet(Set):
    """A finished set of id paths of one `_Table`, seen as a set of
    `Computation` objects.  It keeps the table's intern tables but none of
    its memos.  `len`, `in` and `==` with another view run on ids; any
    other use iterates, which builds the computations once."""

    __slots__ = ("_paths", "_confs", "_kinds", "_conf_ids", "_kind_ids", "_objs")

    def __init__(self, table: _Table, paths):
        self._paths = paths
        self._confs, self._conf_ids = table.confs, table.ids
        self._kinds, self._kind_ids = table.kind.objs, table.kind.ids
        self._objs: frozenset[Computation] | None = None

    def __len__(self) -> int:
        return len(self._paths)

    def __iter__(self):
        return iter(self._computations())

    def _computations(self) -> frozenset[Computation]:
        if self._objs is None:
            confs, kinds = self._confs, self._kinds
            self._objs = frozenset(
                Computation(tuple(map(confs.__getitem__, p[::2])), tuple(map(kinds.__getitem__, p[1::2])))
                for p in self._paths
            )
        return self._objs

    def __contains__(self, c) -> bool:
        if not isinstance(c, Computation):
            return False
        flat = [-1] * (2 * len(c.confs) - 1)
        flat[::2] = [self._conf_ids.get(x, -1) for x in c.confs]
        flat[1::2] = [self._kind_ids.get(x, -1) for x in c.kinds]
        return tuple(flat) in self._paths

    def __eq__(self, other):
        if isinstance(other, ComputationSet):
            if len(self._paths) != len(other._paths):
                return False
            # Map each id to the other table's id of the same value, or to
            # -1, which no path holds.  Ids of one table name distinct
            # values, so the map is one-to-one on the paths it keeps, and
            # with equal sizes inclusion is equality.
            conf_id, kind_id = other._conf_ids.get, other._kind_ids.get
            cm = [conf_id(x, -1) for x in self._confs]
            km = [kind_id(x, -1) for x in self._kinds]
            maps = (cm, km) * ((max(map(len, self._paths), default=0) + 1) // 2)
            at, theirs = list.__getitem__, other._paths
            return all(tuple(map(at, maps, p)) in theirs for p in self._paths)
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
        return {tuple(map(confs.__getitem__, p[::2])) for p in self._paths}


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


def lift_seq_cpt(c: Computation, q: EventSystem) -> Computation:
    """Sequential lift: every spec S becomes S ;; q; states and step kinds
    are unchanged."""
    return Computation(
        tuple((EsSeq(spec, q), st) for spec, st in c.confs), c.kinds
    )


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


def dump_computations(ctx: Ctx, comps) -> list[list[dict]]:
    """Deterministic serialized list of a computation set, for golden
    comparisons: sorted by rendered form."""
    return [c.render(ctx.schema) for c in sorted(comps, key=lambda c: c.sort_key(ctx.schema))]


def computation_valid(ctx: Ctx, c: Computation, k: Any = "es") -> tuple[bool, str]:
    """Replay a computation: every adjacent pair must satisfy its recorded
    step kind (env preserves the spec; comp pairs must be semantic steps)."""
    for i in range(len(c) - 1):
        (spec1, s1), (spec2, s2) = c.confs[i], c.confs[i + 1]
        kind = c.kinds[i]
        if kind == ENV:
            if spec1 != spec2:
                return False, f"env step {i} changes the spec"
        else:
            lbl = kind[1]
            if isinstance(spec1, ParallelEventSystem):
                steps = step_pes(ctx, spec1, s1)
            else:
                steps = step_es(ctx, spec1, s1, k)
            if (lbl, spec2, s2) not in steps:
                return False, f"comp step {i} is not a semantic step"
    return True, "ok"


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
    and only the witness is converted to a `Computation`."""
    check = "equiv-cpts"
    table = _Table(ctx, rely_universe, k, disabled)
    total = 0
    for s in solve_states(pre, mode=init_mode):
        c0 = table.conf(s_sys, s)
        lin = table.linear(c0, max_len)
        mod = table.modular(c0, max_len)
        total += len(lin)
        if lin != mod:
            only = lin - mod
            side = "linear-only" if only else "modular-only"
            memo: dict = {}
            w = min(
                ComputationSet(table, only or mod - lin),
                key=lambda c: c.sort_key(ctx.schema, memo),
            )
            return fail(
                check,
                side,
                witness={
                    "computation": w.render(ctx.schema),
                    "linear_count": len(lin),
                    "modular_count": len(mod),
                },
                detail={"initial_state": ctx.schema.state_to_dict(s)},
            )
    return ok(check, detail={"computations": total})
