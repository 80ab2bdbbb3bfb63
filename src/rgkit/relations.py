"""State sets, state relations and rely-guarantee quadruples.

Relations are constructive by default: a list of (guard, multi-assignment)
rules plus an identity flag generates the successor set, and membership is
derived from the generator so the two views agree by construction.  Two
degenerate kinds exist for positions where generation is never needed:
`univ` (membership constantly true) and `pred` (membership decided by a
pair predicate, used for guarantee conditions written as pair sets).
Asking such a relation for successors is an error surfaced as a
diagnostic, never silently approximated.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable

from .exprs import (
    BOOL,
    BoolOp,
    Cmp,
    Expr,
    Lit,
    NotE,
    Var,
    _compiled,
    compile_expr,
    free_vars,
    render_expr,
)
from .values import DomainOverflow, LoadError, Schema, conforms, domain_iter, domain_size


class NotGenerative(Exception):
    """Successor generation requested from a membership-only relation."""


class StateSet:
    """Decidable set of states: an Expr predicate or a named native test.

    An expression is type-checked and compiled when the set is made, in
    one walk (`compile_expr`), so every load error is raised where the
    set is made, and the set keeps the code that walk built."""

    def __init__(
        self,
        schema: Schema,
        expr: Expr | None = None,
        native: Callable[[tuple], bool] | None = None,
        name: str | None = None,
    ):
        if (expr is None) == (native is None):
            raise LoadError("StateSet needs exactly one of expr / native")
        self.schema = schema
        self.expr = expr
        self.native = native
        self.name = name
        if expr is not None:
            self._fn = compile_expr(expr, schema, BOOL)
        else:
            self._fn = lambda s, env: native(s)

    def holds(self, s: tuple) -> bool:
        return bool(self._fn(s, []))

    def render(self) -> str:
        if self.expr is not None:
            return render_expr(self.expr)
        return f"BUILTIN {self.name}"

    def __repr__(self) -> str:
        return f"StateSet({self.render()})"

    # Structural equality: by expression tree, or by builtin name for
    # native sets (builtin names are unique per model).
    def __eq__(self, other) -> bool:
        if not isinstance(other, StateSet):
            return NotImplemented
        if (self.expr is None) != (other.expr is None):
            return False
        if self.expr is not None:
            return self.expr == other.expr
        return self.name == other.name and self.name is not None or self.native is other.native

    def __hash__(self) -> int:
        return hash(self.expr) if self.expr is not None else hash(("native", self.name))


def intersect(a: StateSet, b: StateSet) -> StateSet:
    if a.expr is not None and b.expr is not None:
        return StateSet(a.schema, BoolOp("AND", a.expr, b.expr))
    fa, fb = a.holds, b.holds
    return StateSet(
        a.schema,
        native=lambda s: fa(s) and fb(s),
        name=f"({a.name or a.render()} AND {b.name or b.render()})",
    )


def complement(a: StateSet) -> StateSet:
    if a.expr is not None:
        return StateSet(a.schema, NotE(a.expr))
    fa = a.holds
    return StateSet(a.schema, native=lambda s: not fa(s), name=f"(NOT {a.name})")


Assign = tuple[str, Expr]


def compile_assigns(schema: Schema, assigns: tuple[Assign, ...]):
    """Simultaneous multi-assignment evaluated against the pre-state.  Each
    target must be declared and assigned once, and each value is checked
    against its target's type."""
    compiled, seen = [], set()
    for var, e in assigns:
        if var in seen:
            raise LoadError(f"duplicate assignment target {var!r}")
        seen.add(var)
        t = schema.var_type(var)
        i = schema.index[var]
        compiled.append((i, var, schema.conformers[i], compile_expr(e, schema, t)))

    def apply(s: tuple) -> tuple:
        out = list(s)
        for i, var, ok, fn in compiled:
            v = fn(s, [])
            if not ok(v):
                raise DomainOverflow(var, v)
            out[i] = v
        return tuple(out)

    return apply


@dataclass(eq=False)
class RelRule:
    """A guarded multi-assignment, type-checked and compiled when made,
    like a `StateSet`: `_apply` is the code of its assignments.  Rules
    compare by identity."""

    guard: StateSet
    assigns: tuple[Assign, ...]

    def __post_init__(self):
        self._apply = compile_assigns(self.guard.schema, self.assigns)


FULL_BUDGET = 200_000  # most states a "full" relation enumerates


class RelDesc:
    """State relation.

    kind = "rules": guarded updates + identity flag (constructive);
    kind = "full":  every schema-conformant pair (tiny schemas only);
    kind = "univ":  membership constantly true, no generator;
    kind = "pred":  membership by a named native pair predicate.
    """

    def __init__(
        self,
        schema: Schema,
        kind: str = "rules",
        rules: tuple[RelRule, ...] = (),
        includes_identity: bool = False,
        pair_pred: Callable[[tuple, tuple], bool] | None = None,
        name: str | None = None,
    ):
        assert kind in ("rules", "full", "univ", "pred")
        self.schema = schema
        self.kind = kind
        self.rules = rules
        self.includes_identity = includes_identity
        self.pair_pred = pair_pred
        self.name = name
        self._all_states: list[tuple] | None = None
        if kind == "pred" and pair_pred is None:
            raise LoadError("pred relation needs a pair predicate")

    def successors(self, s: tuple) -> list[tuple]:
        """Deterministically ordered successor set of `s`."""
        if self.kind == "rules":
            out: list[tuple] = []
            seen = set()
            if self.includes_identity:
                out.append(s)
                seen.add(s)
            for r in self.rules:
                if r.guard.holds(s):
                    t = r._apply(s)
                    if t not in seen:
                        seen.add(t)
                        out.append(t)
            return out
        if self.kind == "full":
            if self._all_states is None:
                self._all_states = self.schema.all_states(FULL_BUDGET)
            return self._all_states
        raise NotGenerative(
            f"relation {self.name or self.kind} has no successor generator"
        )

    def contains(self, s: tuple, t: tuple) -> bool:
        if self.kind == "rules":
            if self.includes_identity and s == t:
                return True
            for r in self.rules:
                if r.guard.holds(s) and r._apply(s) == t:
                    return True
            return False
        if self.kind in ("full", "univ"):
            return True
        return bool(self.pair_pred(s, t))

    @property
    def generative(self) -> bool:
        return self.kind in ("rules", "full")

    def render(self) -> str:
        if self.kind == "rules":
            parts = ["ID"] if self.includes_identity else []
            parts += [
                "RULE WHEN %s DO %s"
                % (r.guard.render(), "; ".join(f"{v} := {render_expr(e)}" for v, e in r.assigns))
                for r in self.rules
            ]
            return " ".join(parts) or "EMPTY"
        if self.kind == "pred":
            return f"BUILTIN {self.name}"
        return self.kind.upper()

    def __repr__(self) -> str:
        return f"RelDesc({self.name or self.render()})"


def identity_rel(schema: Schema) -> RelDesc:
    return RelDesc(schema, "rules", (), includes_identity=True, name="Id")


def univ_rel(schema: Schema) -> RelDesc:
    return RelDesc(schema, "univ", name="UNIV")


def full_rel(schema: Schema) -> RelDesc:
    return RelDesc(schema, "full", name="FULL")


@dataclass(frozen=True)
class RGSpec:
    pre: StateSet
    rely: RelDesc
    guar: RelDesc
    post: StateSet


# ----------------------------------------------------------------------
# Initial-state solving: enumerate {s in pre} with unmentioned variables
# held at declared initial values.  Top-level `var = literal` conjuncts are
# solved directly so corpus-style exact initial states never enumerate.
# ----------------------------------------------------------------------


def _conjuncts(e: Expr) -> list[Expr]:
    if isinstance(e, BoolOp) and e.op == "AND":
        return _conjuncts(e.a) + _conjuncts(e.b)
    return [e]


def _closed(e: Expr) -> bool:
    return not free_vars(e)


def solve_states(
    pre: StateSet,
    mode: str = "default",
    budget: int = 200_000,
) -> list[tuple]:
    """States satisfying `pre`.

    mode "default": solve equality conjuncts, enumerate remaining mentioned
    variables, others at declared initial values.
    mode "pre-free": enumerate the full domain product of all variables.
    mode "declared": the declared initial state filtered by `pre`.
    """
    schema = pre.schema
    if mode == "declared" or pre.expr is None:
        s0 = schema.initial_state()
        return [s0] if pre.holds(s0) else []

    if mode == "pre-free":
        if schema.product_size() > budget:
            raise DomainOverflow("<pre-free enumeration>", schema.product_size())
        return [s for s in schema.all_states(budget) if pre.holds(s)]

    pinned: dict[str, Any] = {}
    for c in _conjuncts(pre.expr):
        if isinstance(c, Cmp) and c.op == "=":
            var, rhs = None, None
            if isinstance(c.a, Var) and c.a.name in schema.index and _closed(c.b):
                var, rhs = c.a.name, c.b
            elif isinstance(c.b, Var) and c.b.name in schema.index and _closed(c.a):
                var, rhs = c.b.name, c.a
            if var is not None and var not in pinned:
                build = partial(compile_expr, expected=schema.var_type(var))
                pinned[var] = _compiled(rhs, "_fn", schema, build)(schema.initial_state(), [])

    mentioned = sorted(
        v for v in free_vars(pre.expr) if v in schema.index and v not in pinned
    )
    total = 1
    for v in mentioned:
        total *= domain_size(schema.var_type(v))
        if total > budget:
            raise DomainOverflow(f"<enumeration of {v}>", total)

    base = list(schema.initial_state())
    for v, val in pinned.items():
        i = schema.index[v]
        if not conforms(val, schema.types[i]):
            return []  # pinned to a value outside the domain: unsatisfiable
        base[i] = val

    out = []
    domains = [list(domain_iter(schema.var_type(v))) for v in mentioned]
    for combo in itertools.product(*domains):
        s = list(base)
        for v, val in zip(mentioned, combo):
            s[schema.index[v]] = val
        st = tuple(s)
        if pre.holds(st):
            out.append(st)
    return out


TRUE_SET_EXPR = Lit(True)


def true_set(schema: Schema) -> StateSet:
    return StateSet(schema, TRUE_SET_EXPR)
