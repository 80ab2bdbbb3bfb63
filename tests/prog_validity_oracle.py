"""Reference search for program obligations, kept with the tests as the
oracle that `rgkit.adapters.prog_validity`, which checks them on
`semantics.build_graph`, is tested against.  It is the private
breadth-first search `prog_validity` ran before: its own queue, a set of
(program, state) pairs and a dict of parents, with the budget tested at
each pop.  `prog_validity` below is that function word for word."""

from __future__ import annotations

from collections import deque
from typing import Any

from rgkit.adapters import AdapterContext, AwaitDivergence, ProgramAdapter, render_program
from rgkit.relations import RGSpec, solve_states
from rgkit.values import DomainOverflow
from rgkit.verdicts import Verdict, diag, fail, ok


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
    counterexample trace."""
    check = "prog-validity"
    try:
        if init_states is None:
            init_states = solve_states(spec.pre, mode=init_mode)
    except DomainOverflow as d:
        return diag(check, "state-explosion", detail={"cause": str(d)})

    parents: dict = {}
    node_kind: dict = {}
    seen: set = set()
    work: deque = deque()
    for s in init_states:
        c = (p, s)
        if c not in seen:
            seen.add(c)
            parents[c] = None
            work.append(c)

    def trace_to(conf) -> list:
        path = []
        cur = conf
        while cur is not None:
            path.append((cur, node_kind.get(cur)))
            cur = parents[cur]
        path.reverse()
        return [
            {"program": render_program(c[0]), "state": ctx.schema.state_to_dict(c[1]), "via": via}
            for c, via in path
        ]

    try:
        while work:
            prog, s = work.popleft()
            if len(seen) > budget:
                return diag(check, "state-explosion", detail={"nodes": len(seen)})
            if prog is None and not spec.post.holds(s):
                return fail(
                    check,
                    "post-violation",
                    witness={"trace": trace_to((prog, s)), "final_state": ctx.schema.state_to_dict(s)},
                    node_count=len(seen),
                )
            if prog is not None:
                for q, t in adapter.step(ctx, prog, s):
                    if not spec.guar.contains(s, t):
                        w = trace_to((prog, s))
                        w.append({"program": render_program(q), "state": ctx.schema.state_to_dict(t), "via": "comp"})
                        return fail(
                            check,
                            "guar-violation",
                            witness={"trace": w, "pair": [ctx.schema.state_to_dict(s), ctx.schema.state_to_dict(t)]},
                            node_count=len(seen),
                        )
                    c = (q, t)
                    if c not in seen:
                        seen.add(c)
                        parents[c] = (prog, s)
                        node_kind[c] = "comp"
                        work.append(c)
            for t in spec.rely.successors(s):
                c = (prog, t)
                if c not in seen:
                    seen.add(c)
                    parents[c] = (prog, s)
                    node_kind[c] = "env"
                    work.append(c)
    except AwaitDivergence as d:
        return diag(check, "await-divergence", detail={"where": d.where})
    except DomainOverflow as d:
        return diag(check, "domain-overflow", detail={"assignment": f"{d.var} <- {d.value!r}"})
    return ok(check, node_count=len(seen))
