"""Per-layer tracing of rgkit from outside the program.

`Tracer.install()` replaces public functions and methods of the modules
under `src/rgkit` with wrappers and `uninstall()` puts the originals back.
A wrapper times its call and keeps, per name, the call count, the
outermost inclusive time (`.s`) and the self time (`.self_s`: duration
minus the time covered by wrapped calls made inside it).  Calls on
coarse boundaries (graph builds, checks, model parses) are also kept as
spans (name, start, end, parent, operation) and written out at the end;
hot leaves that run millions of times (`step_es`, `imp_step`, `holds`,
`conforms`, `__hash__`, ...) are only aggregated.

Three things make the wrapping complete:
  * names imported by name (`conforms` into `relations`, `terminal_states`
    into `semantics` and `computations`) are patched in every rgkit module
    that binds the same function object, so recursion and cross-module
    calls all go through the wrapper;
  * `ProgramAdapter.step` stores the `imp_step` function object itself, so
    the adapter instances are patched too;
  * the tracer's own hashing of step keys is subtracted from the hash
    count it reports.
"""

from __future__ import annotations

import importlib
import json
import time
from pathlib import Path
from types import ModuleType

MODULES = (
    "values", "exprs", "relations", "events", "adapters", "semantics",
    "computations", "checker", "bpel", "buddy", "buddy_checks", "modelfile", "cli",
)

# (module, function, metric name, hot)
FUNCTIONS = (
    ("semantics", "build_graph", "semantics.build_graph", False),
    ("semantics", "step_pes", "semantics.step_pes", True),
    ("semantics", "step_es", "semantics.step_es", True),
    ("semantics", "dump_graph", "semantics.dump_graph", False),
    ("adapters", "terminal_states", "adapters.terminal_states", True),
    ("adapters", "imp_step", "adapters.imp_step", True),
    ("adapters", "prog_validity", "adapters.prog_validity", False),
    ("values", "conforms", "values.conforms", True),
    ("exprs", "compile_expr", "exprs.compile_expr", True),
    ("modelfile", "parse_pcm", "modelfile.parse", False),
    ("modelfile", "parse_bpc", "modelfile.parse", False),
    ("computations", "cpts_linear", "computations.cpts_linear", False),
    ("computations", "cpts_modular", "computations.cpts_modular", False),
    ("checker", "check_validity", "checker.check_validity", False),
    ("checker", "prove", "checker.prove", False),
    ("checker", "soundness_crosscheck", "checker.soundness_crosscheck", False),
    ("checker", "check_invariant", "checker.check_invariant", False),
    ("checker", "check_loop_variant", "checker.check_loop_variant", False),
    ("checker", "set_subset", "checker.premises", True),
    ("checker", "stable", "checker.premises", True),
    ("checker", "rel_subset", "checker.premises", True),
    ("checker", "id_subset", "checker.premises", True),
    ("bpel", "check_bisim", "bpel.check_bisim", False),
    ("bpel", "check_trace_equiv", "bpel.check_trace_equiv", False),
    ("bpel", "compile_activity", "bpel.compile_activity", True),
    ("bpel", "bpel_step", "bpel.bpel_step", True),
    ("buddy", "build_kernel_model", "buddy.build_kernel_model", False),
    ("buddy", "partition_theorem_oracle", "buddy.oracle", False),
    ("buddy_checks", "analyze_kernel", "buddy_checks.analyze_kernel", False),
)

# (module, class, method, metric name)
METHODS = (
    ("relations", "StateSet", "holds", "relations.holds"),
    ("relations", "RelDesc", "successors", "relations.successors"),
    ("relations", "RelDesc", "contains", "relations.contains"),
    ("cli", "Reporter", "emit", "cli.emit"),
    ("cli", "Reporter", "emit_raw", "cli.emit"),
)

# Per-layer metrics: name -> (unit, better).  BENCHMARK.json lists the same.
LAYER_METRICS = {
    "semantics.build_graph.calls": ("count", "lower"),
    "semantics.build_graph.self_s": ("s", "lower"),
    "semantics.configs": ("count", "lower"),
    "semantics.comp_edges": ("count", "lower"),
    "semantics.env_edges": ("count", "lower"),
    "semantics.distinct_states": ("count", "lower"),
    "semantics.distinct_specs": ("count", "lower"),
    "semantics.step_pes.calls": ("count", "lower"),
    "semantics.step_pes.self_s": ("s", "lower"),
    "semantics.step_es.calls": ("count", "lower"),
    "semantics.step_es.self_s": ("s", "lower"),
    "semantics.step_es.distinct_keys": ("count", "lower"),
    "semantics.step_es.useful_ratio": ("ratio", "higher"),
    "adapters.terminal_states.calls": ("count", "lower"),
    "adapters.terminal_states.self_s": ("s", "lower"),
    "adapters.imp_step.calls": ("count", "lower"),
    "adapters.imp_step.self_s": ("s", "lower"),
    "values.conforms.calls": ("count", "lower"),
    "values.conforms.self_s": ("s", "lower"),
    "events.hash.calls": ("count", "lower"),
    "events.update.calls": ("count", "lower"),
    "relations.holds.calls": ("count", "lower"),
    "relations.holds.self_s": ("s", "lower"),
    "relations.successors.calls": ("count", "lower"),
    "relations.successors.self_s": ("s", "lower"),
    "relations.contains.calls": ("count", "lower"),
    "relations.contains.self_s": ("s", "lower"),
    "exprs.compile_expr.calls": ("count", "lower"),
    "exprs.compile_expr.s": ("s", "lower"),
    "modelfile.parse.calls": ("count", "lower"),
    "modelfile.parse.s": ("s", "lower"),
    "computations.cpts_linear.self_s": ("s", "lower"),
    "computations.cpts_modular.self_s": ("s", "lower"),
    "computations.linear_count": ("count", "higher"),
    "checker.check_validity.s": ("s", "lower"),
    "checker.prove.s": ("s", "lower"),
    "checker.soundness_crosscheck.s": ("s", "lower"),
    "checker.check_invariant.s": ("s", "lower"),
    "checker.check_loop_variant.s": ("s", "lower"),
    "checker.premises.s": ("s", "lower"),
    "checker.graph_builds_per_request": ("ratio", "lower"),
    "adapters.prog_validity.calls": ("count", "lower"),
    "adapters.prog_validity.s": ("s", "lower"),
    "adapters.prog_validity.configs": ("count", "lower"),
    "bpel.check_bisim.s": ("s", "lower"),
    "bpel.check_trace_equiv.s": ("s", "lower"),
    "bpel.compile_activity.calls": ("count", "lower"),
    "bpel.bpel_step.calls": ("count", "lower"),
    "bpel.bpel_step.self_s": ("s", "lower"),
    "buddy.build_kernel_model.s": ("s", "lower"),
    "buddy.oracle.s": ("s", "lower"),
    "buddy.oracle.examined": ("count", "lower"),
    "buddy_checks.analyze_kernel.self_s": ("s", "lower"),
    "cli.emit.self_s": ("s", "lower"),
    "semantics.dump_graph.s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def _assign(obj, attr: str, value) -> None:
    if isinstance(obj, (type, ModuleType)):
        setattr(obj, attr, value)
    else:  # frozen dataclass instance (ProgramAdapter)
        object.__setattr__(obj, attr, value)


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, outermost inclusive s, self s]
        self.stack = [0.0]  # time covered by wrapped children, per open call
        self.spans: list = []
        self.span_stack: list = [None]
        self.op: str | None = None  # operation the next spans belong to
        self.patches: list = []
        self.graphs: list = []
        self.step_keys: set = set()
        self.per_system_calls = 0
        self.hash_calls = [0]
        self.update_calls = [0]
        self.linear_count = 0
        self.prog_configs = 0
        self.oracle_examined = 0

    # -- wrappers -------------------------------------------------------

    def _wrap(self, name: str, fn, hot: bool, before=None, after=None):
        agg = self.stats.setdefault(name, [0, 0.0, 0.0])
        depth = [0]
        stack, spans, span_stack = self.stack, self.spans, self.span_stack
        perf = time.perf_counter

        def wrapper(*a, **kw):
            if before is not None:
                tb = perf()
                before(a)
                stack[-1] += perf() - tb
            stack.append(0.0)
            depth[0] += 1
            if not hot:
                sid = len(spans)
                spans.append(None)
                parent = span_stack[-1]
                span_stack.append(sid)
            t0 = perf()
            try:
                res = fn(*a, **kw)
            finally:
                t1 = perf()
                d = t1 - t0
                child = stack.pop()
                stack[-1] += d
                depth[0] -= 1
                agg[0] += 1
                agg[2] += d - child
                if depth[0] == 0:
                    agg[1] += d
                if not hot:
                    span_stack.pop()
                    spans[sid] = (sid, parent, name, self.op, t0, t1)
            if after is not None:
                ta = perf()
                after(res)
                stack[-1] += perf() - ta
            return res

        return wrapper

    @staticmethod
    def _counter(cell: list, fn):
        def wrapper(*a):
            cell[0] += 1
            return fn(*a)

        return wrapper

    def _set(self, obj, attr: str, value) -> None:
        self.patches.append((obj, attr, obj.__dict__[attr]))
        _assign(obj, attr, value)

    # -- bookkeeping at boundaries ----------------------------------------

    def _before_step_pes(self, a) -> None:
        ps, s = a[1], a[2]
        h0 = self.hash_calls[0]
        for k, sub in ps.systems:
            self.step_keys.add((k, sub, s))
        self.per_system_calls += len(ps.systems)
        self.hash_calls[0] = h0  # hashing done here is the tracer's, not rgkit's

    def _after_graph(self, g) -> None:
        self.graphs.append(g)

    def _after_linear(self, res) -> None:
        self.linear_count += len(res)

    def _after_prog_validity(self, v) -> None:
        self.prog_configs += v.node_count or 0

    def _after_oracle(self, v) -> None:
        self.oracle_examined += v.detail.get("examined", 0)

    # -- install / uninstall ---------------------------------------------

    def install(self) -> None:
        mods = {m: importlib.import_module(f"rgkit.{m}") for m in MODULES}
        hooks = {
            "semantics.build_graph": (None, self._after_graph),
            "semantics.step_pes": (self._before_step_pes, None),
            "computations.cpts_linear": (None, self._after_linear),
            "adapters.prog_validity": (None, self._after_prog_validity),
            "buddy.oracle": (None, self._after_oracle),
        }
        for mod, fname, metric, hot in FUNCTIONS:
            orig = getattr(mods[mod], fname)
            before, after = hooks.get(metric, (None, None))
            w = self._wrap(metric, orig, hot, before, after)
            for m in mods.values():
                if m.__dict__.get(fname) is orig:
                    self._set(m, fname, w)
                for v in list(m.__dict__.values()):
                    if type(v).__name__ == "ProgramAdapter" and v.step is orig:
                        self._set(v, "step", w)
        for mod, cls_name, meth, metric in METHODS:
            cls = getattr(mods[mod], cls_name)
            self._set(cls, meth, self._wrap(metric, cls.__dict__[meth], True))
        ev = mods["events"]
        pes = ev.ParallelEventSystem
        for name, v in list(ev.__dict__.items()):
            if isinstance(v, type) and (name.startswith("Es") or v is pes):
                self._set(v, "__hash__", self._counter(self.hash_calls, v.__dict__["__hash__"]))
        self._set(pes, "update", self._counter(self.update_calls, pes.__dict__["update"]))

    def uninstall(self) -> None:
        for obj, attr, orig in reversed(self.patches):
            _assign(obj, attr, orig)
        self.patches.clear()

    # -- results -------------------------------------------------------------

    def metrics(self, ops: int, overhead_s: float) -> dict:
        def st(name: str, i: int):
            return self.stats.get(name, [0, 0.0, 0.0])[i]

        hash_calls = self.hash_calls[0]  # before the sets below hash specs
        configs = comp = env = states = specs = 0
        for g in self.graphs:
            configs += g.node_count
            comp += len(g.comp_edges)
            env += len(g.env_edges)
            states += len({s for _, s in g.nodes})
            specs += len({spec for spec, _ in g.nodes})
        values = {
            "semantics.configs": configs,
            "semantics.comp_edges": comp,
            "semantics.env_edges": env,
            "semantics.distinct_states": states,
            "semantics.distinct_specs": specs,
            "semantics.step_es.distinct_keys": len(self.step_keys),
            "semantics.step_es.useful_ratio": (
                len(self.step_keys) / self.per_system_calls if self.per_system_calls else 0.0),
            "events.hash.calls": hash_calls,
            "events.update.calls": self.update_calls[0],
            "computations.linear_count": self.linear_count,
            "checker.graph_builds_per_request": st("semantics.build_graph", 0) / ops,
            "adapters.prog_validity.configs": self.prog_configs,
            "buddy.oracle.examined": self.oracle_examined,
            "trace.overhead_s": overhead_s,
        }
        suffix = {"calls": 0, "s": 1, "self_s": 2}
        out = {}
        for name, (unit, _) in LAYER_METRICS.items():
            if name in values:
                val = values[name]
            else:
                base, _, kind = name.rpartition(".")
                val = st(base, suffix[kind])
            out[name] = {"value": val, "unit": unit}
        return out

    def write(self, path: Path) -> None:
        """Write the spans and per-name aggregates as JSON."""
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {
            "aggregates": {k: {"calls": v[0], "s": v[1], "self_s": v[2]}
                           for k, v in sorted(self.stats.items())},
            "spans": [{"id": s[0], "parent": s[1], "name": s[2], "op": s[3],
                       "start": s[4], "end": s[5]} for s in self.spans if s is not None],
        }
        path.write_text(json.dumps(doc) + "\n", encoding="utf-8")

