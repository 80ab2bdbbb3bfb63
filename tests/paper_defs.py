"""Definitions from the paper that only the tests use: the assumption and
commitment of one computation, the replay of a computation under the
semantics, the sequential lift of a computation, and a deterministic dump
of a computation set.  `rgkit` decides validity on configuration graphs
and builds computation sets as path DAGs; the tests hold those answers to
these definitions."""

from __future__ import annotations

from typing import Any

from rgkit.checker import _conf_finished
from rgkit.computations import ENV, Computation
from rgkit.events import EsSeq, EventSystem, ParallelEventSystem
from rgkit.relations import RelDesc, StateSet
from rgkit.semantics import Ctx, step_es, step_pes


def in_assume(c: Computation, pre: StateSet, rely: RelDesc) -> bool:
    """First state in pre; every environment step's state pair in rely."""
    if not pre.holds(c.confs[0][1]):
        return False
    for i, kind in enumerate(c.kinds):
        if kind == ENV:
            if not rely.contains(c.confs[i][1], c.confs[i + 1][1]):
                return False
    return True


def in_commit(ctx: Ctx, c: Computation, guar: RelDesc, post: StateSet) -> bool:
    """Component steps in guar; a finished final configuration in post."""
    for i, kind in enumerate(c.kinds):
        if kind != ENV:
            if not guar.contains(c.confs[i][1], c.confs[i + 1][1]):
                return False
    spec, s = c.confs[-1]
    if _conf_finished(spec) and not post.holds(s):
        return False
    return True


def lift_seq_cpt(c: Computation, q: EventSystem) -> Computation:
    """Sequential lift: every spec S becomes S ;; q; states and step kinds
    are unchanged."""
    return Computation(
        tuple((EsSeq(spec, q), st) for spec, st in c.confs), c.kinds
    )


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
