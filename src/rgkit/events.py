"""Event-language abstract syntax: events, event systems, parallel systems,
and the proof outlines that follow their structure.

The distinguished finished system FIN is the triggered terminal program;
`is_fin` decides it.  Event sets are the exhaustive expansions of a
parametrized event over declared finite parameter domains, in declaration
order, so model loading is deterministic and golden tests stay stable.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any

from .exprs import Expr, Lit, _node, substitute
from .relations import RGSpec, StateSet
from .values import LoadError, Schema, Type, conforms, domain_iter, render_value


@_node
class ActionLabel:
    """delta = (xi, kappa): transition kind plus the executing system."""

    kind: str  # "tau" | "evt" | "aevt"
    label: str | None
    k: Any

    def render(self) -> str:
        if self.kind == "tau":
            core = "tau"
        elif self.kind == "evt":
            core = f"evt({self.label})"
        else:
            core = f"aevt({self.label})"
        return f"{core}@{self.k}"


def tau(k: Any) -> ActionLabel:
    return ActionLabel("tau", None, k)


@_node
class EventSpec:
    label: str
    guard: StateSet
    body: Any  # adapter program


@dataclass(frozen=True)
class EventSet:
    instances: tuple[EventSpec, ...]

    def __post_init__(self):
        if not self.instances:
            raise LoadError("empty event set")
        labels = [i.label for i in self.instances]
        if len(set(labels)) != len(labels):
            raise LoadError(f"duplicate event labels in one event set: {labels}")


@_node
class EsBasic:
    events: EventSet


@_node
class EsAtomic:
    events: EventSet


@_node
class EsTriggered:
    prog: Any  # adapter program; None is the terminal


@_node
class EsSeq:
    a: "EventSystem"
    b: "EventSystem"


@_node
class EsChoice:
    a: "EventSystem"
    b: "EventSystem"


@_node
class EsJoin:
    a: "EventSystem"
    b: "EventSystem"


@_node
class EsIter:
    cond: StateSet
    body: "EventSystem"

    def __post_init__(self):
        if is_fin(self.body):
            raise LoadError("iteration body cannot be the finished system")


EventSystem = EsBasic | EsAtomic | EsTriggered | EsSeq | EsChoice | EsJoin | EsIter

FIN = EsTriggered(None)


def is_fin(s: EventSystem) -> bool:
    return isinstance(s, EsTriggered) and s.prog is None


@_node
class ParallelEventSystem:
    """Finite map from system identifiers to event systems."""

    systems: tuple[tuple[str, EventSystem], ...]  # sorted by identifier

    def __post_init__(self):
        keys = [k for k, _ in self.systems]
        if keys != sorted(keys):
            object.__setattr__(self, "systems", tuple(sorted(self.systems)))
        if len(set(keys)) != len(keys):
            raise LoadError(f"duplicate system identifiers: {keys}")

    @property
    def keys(self) -> list[str]:
        return [k for k, _ in self.systems]

    def get(self, k: str) -> EventSystem:
        for key, s in self.systems:
            if key == k:
                return s
        raise KeyError(k)

    def update(self, k: str, s: EventSystem) -> "ParallelEventSystem":
        return ParallelEventSystem(
            tuple((key, s if key == k else old) for key, old in self.systems)
        )

    def all_fin(self) -> bool:
        return all(is_fin(s) for _, s in self.systems)


# ----------------------------------------------------------------------
# Proof outlines (one node per applied rule), the input of `checker.prove`.
# ----------------------------------------------------------------------


@_node
class BasicEvtNode:
    pass


@_node
class AtomEvtNode:
    pass


@_node
class TrgEvtNode:
    pass


@_node
class SeqNode:
    mid: StateSet
    left: "Outline"
    right: "Outline"


@_node
class ChoiceNode:
    left: "Outline"
    right: "Outline"


@_node
class JoinNode:
    spec1: RGSpec
    spec2: RGSpec
    left: "Outline"
    right: "Outline"


@_node
class IterNode:
    inv: StateSet
    body: "Outline"


@_node
class ConseqNode:
    inner: RGSpec
    child: "Outline"


@_node
class ParNode:
    specs: tuple  # ((kappa, RGSpec), ...)
    children: tuple  # ((kappa, Outline), ...)


Outline = (
    BasicEvtNode | AtomEvtNode | TrgEvtNode | SeqNode | ChoiceNode | JoinNode
    | IterNode | ConseqNode | ParNode
)


@dataclass(frozen=True)
class EventTemplate:
    """Parametrized event: expansion over the declared finite domains is
    the event set of all instances.  A parameter's domain is its type's
    whole value universe, or an explicitly declared value list."""

    name: str
    params: tuple  # ((pname, Type, values: tuple | None), ...)
    guard: Expr
    body: Any  # adapter program template (contains parameter Vars)
    atomic: bool = False


def instance_label(name: str, params: tuple, values: tuple) -> str:
    if not params:
        return name
    rendered = [render_value(v, p[1]) for v, p in zip(values, params)]
    return "%s(%s)" % (name, ", ".join(rendered))


def expand_events(template: EventTemplate, schema: Schema, subst_body) -> EventSet:
    """One EventSpec per element of the Cartesian product of the parameter
    domains, in declaration order; labels carry the parameter values."""
    for pname, _ptype, _vals in template.params:
        if pname in schema.index:
            raise LoadError(
                f"event parameter {pname!r} shadows a state variable", None
            )
    domains = []
    for pname, ptype, vals in template.params:
        if vals is None:
            domains.append(list(domain_iter(ptype)))
        else:
            for v in vals:
                if not conforms(v, ptype):
                    raise LoadError(
                        f"declared value {v!r} for parameter {pname!r} is outside its type"
                    )
            domains.append(list(vals))
    instances = []
    for values in itertools.product(*domains):
        env = {p[0]: Lit(v, p[1]) for p, v in zip(template.params, values)}
        # StateSet type-checks the guard, before the body is substituted.
        guard = StateSet(schema, substitute(template.guard, env))
        body = subst_body(template.body, env)
        instances.append(
            EventSpec(
                label=instance_label(template.name, template.params, values),
                guard=guard,
                body=body,
            )
        )
    return EventSet(tuple(instances))


def render_system(s: EventSystem | ParallelEventSystem) -> str:
    """Compact readable form used in graph dumps and witnesses."""
    if isinstance(s, ParallelEventSystem):
        return "{%s}" % ", ".join(f"{k}: {render_system(v)}" for k, v in s.systems)
    if isinstance(s, EsTriggered):
        if s.prog is None:
            return "FIN"
        from .adapters import render_program

        return f"TRG<{render_program(s.prog)}>"
    if isinstance(s, EsBasic):
        return "EVT{%s}" % ", ".join(i.label for i in s.events.instances)
    if isinstance(s, EsAtomic):
        return "AEVT{%s}" % ", ".join(i.label for i in s.events.instances)
    if isinstance(s, EsSeq):
        return f"({render_system(s.a)} ;; {render_system(s.b)})"
    if isinstance(s, EsChoice):
        return f"({render_system(s.a)} CHOICE {render_system(s.b)})"
    if isinstance(s, EsJoin):
        return f"({render_system(s.a)} JOIN {render_system(s.b)})"
    if isinstance(s, EsIter):
        return f"LOOP[{s.cond.render()}]({render_system(s.body)})"
    raise AssertionError(s)
