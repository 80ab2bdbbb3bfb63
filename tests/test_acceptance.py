"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run `pytest tests/test_acceptance.py -s -v` to see the per-criterion lines.
The two-thread pool model is the long pole (a few minutes of exploration).
"""

import io
import json
import re
import sys
import time

import pytest

from conftest import corpus_path
from paper_defs import computation_valid, in_assume
import rgkit.bpel as bp
from rgkit.adapters import (
    AdapterContext,
    Basic,
    IMP_ADAPTER,
    ProgramAdapter,
    REL_ADAPTER,
    RelAt,
    conformance_suite,
    make_rel_machine,
)
from rgkit.buddy import BuddyDims, build_free_loop_body, mp_free_loopinv, partition_theorem_oracle
from rgkit.buddy_checks import analyze_kernel
from rgkit.checker import (
    Universe,
    check_invariant,
    check_loop_variant,
    check_validity,
    check_validity_pes,
    full_universe,
    soundness_crosscheck,
)
from rgkit.computations import (
    MODULAR_RULES,
    check_linear_modular_equiv,
    cpts_linear,
    cpts_modular,
)
from rgkit.events import ParallelEventSystem
from rgkit.modelfile import load
from rgkit.relations import StateSet, identity_rel, univ_rel
from rgkit.semantics import build_graph
from rgkit.values import BoolType, IntType, Schema


def report(n: int, ok: bool, text: str) -> None:
    line = f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {text}"
    print(line, file=sys.stderr)
    assert ok, line


def test_criterion_1_computation_equivalence():
    """Linear and modular computation sets agree on >= 10 corpus event
    systems at max_len <= 6 within 60 s; disabling any one modular rule is
    detected on at least one corpus model."""
    t0 = time.time()
    mf = load(corpus_path("cpts_suite.pcm"))
    ctx = mf.ctx()
    names = sorted(mf.esystems)
    assert len(names) >= 10
    for name in names:
        v = check_linear_modular_equiv(
            ctx, mf.esystems[name], mf.sets["init0"], mf.rels["full"], 6
        )
        assert v.passed, (name, v.clause)
    equard = time.time() - t0

    undetected = []
    s0 = mf.schema.initial_state()
    for rule in MODULAR_RULES:
        hit = False
        for name in names:
            lin = cpts_linear(ctx, mf.esystems[name], s0, mf.rels["full"], 5)
            mod = cpts_modular(
                ctx, mf.esystems[name], s0, mf.rels["full"], 5,
                disabled=frozenset([rule]),
            )
            if lin != mod:
                hit = True
                break
        if not hit:
            undetected.append(rule)
    elapsed = time.time() - t0
    report(
        1,
        not undetected and elapsed < 60,
        f"{len(names)} systems equivalent at max_len 6 in {equard:.1f}s; "
        f"all {len(MODULAR_RULES)} modular-rule mutations detected "
        f"(total {elapsed:.1f}s < 60s)",
    )


PROVE_CASES = [
    ("s_basic", "spec_basic", "o01_basic"),
    ("s_atom", "spec_basic", "o02_atom"),
    ("s_trg", "spec_trg", "o03_trg"),
    ("s_seq", "spec_seq", "o04_seq"),
    ("s_choice", "spec_basic", "o05_choice"),
    ("s_join", "spec_join", "o06_join"),
    ("s_iter", "spec_iter", "o07_iter"),
    ("s_basic", "spec_conseq_outer", "o08_conseq"),
    ("par_xy", "spec_par", "o09_par"),
    ("s_seq_iter", "spec_iter", "o10_iter_choice"),
    ("s_basic", "spec_basic", "o11_conseq_conseq"),
    ("s_atom2", "spec_atom2", "o12_atom_pair"),
    ("s_seq", "spec_seq", "o13_seq_deep"),
]


def test_criterion_2_proof_system_soundness():
    """prove = PASS implies semantic validity = PASS on every shipped
    outline; >= 12 instances covering every decomposition rule."""
    mf = load(corpus_path("prove_suite.pcm"))
    ctx = mf.ctx()
    assert len(PROVE_CASES) >= 12
    rules_seen = set()
    disagreements = []
    proved = 0
    for target_name, spec_name, outline_name in PROVE_CASES:
        target = mf.pes.get(target_name) or mf.esystems[target_name]
        spec = mf.rgspecs[spec_name]
        outline = mf.outlines[outline_name]
        v = soundness_crosscheck(ctx, target, spec, outline)
        if not v.passed:
            disagreements.append((outline_name, v.clause))
        if v.detail.get("prove") == "PASS":
            proved += 1
        rules_seen |= _outline_rules(outline, isinstance(target, ParallelEventSystem))
    expected_rules = {
        "RG-BasicEvt", "RG-AtomEvt", "RG-TrgEvt", "RG-Seq", "RG-Choice",
        "RG-Join", "RG-Iter", "RG-Conseq", "RG-ParEvtSys",
    }
    report(
        2,
        not disagreements and rules_seen >= expected_rules and proved == len(PROVE_CASES),
        f"{len(PROVE_CASES)} outlines proved and cross-checked, "
        f"0 disagreements, rules covered: {sorted(rules_seen)}",
    )


def _outline_rules(o, is_pes):
    from rgkit.checker import (
        AtomEvtNode, BasicEvtNode, ChoiceNode, ConseqNode, IterNode, JoinNode,
        ParNode, SeqNode, TrgEvtNode,
    )

    if isinstance(o, BasicEvtNode):
        return {"RG-BasicEvt"}
    if isinstance(o, AtomEvtNode):
        return {"RG-AtomEvt"}
    if isinstance(o, TrgEvtNode):
        return {"RG-TrgEvt"}
    if isinstance(o, SeqNode):
        return {"RG-Seq"} | _outline_rules(o.left, False) | _outline_rules(o.right, False)
    if isinstance(o, ChoiceNode):
        return {"RG-Choice"} | _outline_rules(o.left, False) | _outline_rules(o.right, False)
    if isinstance(o, JoinNode):
        return {"RG-Join"} | _outline_rules(o.left, False) | _outline_rules(o.right, False)
    if isinstance(o, IterNode):
        return {"RG-Iter"} | _outline_rules(o.body, False)
    if isinstance(o, ConseqNode):
        return {"RG-Conseq"} | _outline_rules(o.child, False)
    if isinstance(o, ParNode):
        out = {"RG-ParEvtSys"}
        for _, child in o.children:
            out |= _outline_rules(child, False)
        return out
    raise AssertionError(o)


BROKEN_CASES = [
    ("b_basic", "broken_guar"),
    ("b_basic", "broken_post"),
    ("b_basic", "broken_unstable"),
    ("b_atom", "broken_atom"),
    ("b_seq", "broken_seq"),
    ("b_choice", "broken_choice"),
    ("b_race", "broken_race"),
    ("b_iter", "broken_iter"),
    ("b_trg", "broken_trg"),
    ("b_basic", "broken_env_post"),
    ("b_pes", "broken_pes"),
]


def test_criterion_3_counterexample_fidelity():
    """Every deliberately broken spec fails with a witness that replays
    step-by-step and violates exactly the reported clause."""
    mf = load(corpus_path("broken_suite.pcm"))
    ctx = mf.ctx()
    assert len(BROKEN_CASES) >= 10
    bad = []
    for target_name, spec_name in BROKEN_CASES:
        spec = mf.rgspecs[spec_name]
        if target_name in mf.pes:
            v = check_validity_pes(ctx, mf.pes[target_name], spec)
        else:
            v = check_validity(ctx, mf.esystems[target_name], spec)
        if not v.failed:
            bad.append((spec_name, "did not fail"))
            continue
        w = v.detail["_computation"]
        good, why = computation_valid(ctx, w)
        if not good:
            bad.append((spec_name, f"witness does not replay: {why}"))
            continue
        if not in_assume(w, spec.pre, spec.rely):
            bad.append((spec_name, "witness not admitted by the assumption"))
            continue
        if v.clause == "guar-violation":
            s, t = w.confs[-2][1], w.confs[-1][1]
            if spec.guar.contains(s, t) or w.kinds[-1] == ("env",):
                bad.append((spec_name, "reported pair is inside the guarantee"))
        elif v.clause == "post-violation":
            if spec.post.holds(w.confs[-1][1]):
                bad.append((spec_name, "final state satisfies the post"))
        else:
            bad.append((spec_name, f"unexpected clause {v.clause}"))
    report(
        3,
        not bad,
        f"{len(BROKEN_CASES)} broken specs all fail with exact, replayable witnesses"
        + (f"; problems: {bad}" if bad else ""),
    )


def test_criterion_4_invariant_verification():
    """On models where the three premises pass, the direct graph search is
    clean; an artificially broken premise is reported."""
    mf = load(corpus_path("inv_suite.pcm"))
    ctx = mf.ctx()
    cases = [
        ("m1_counters", "all0", "id", "guar_xy_bounded", "inv_xy"),
        ("m2_prodcons", "all0", "id", "guar_cnt", "inv_cnt"),
        ("m3_single_steps", "all0", "id", "guar_xy_bounded", "inv_sum"),
    ]
    ok = True
    notes = []
    for target, init, rely, guar, inv in cases:
        v = check_invariant(
            ctx, mf.pes[target], mf.sets[init], mf.rels[rely], mf.rels[guar], mf.sets[inv]
        )
        ok &= v.passed and v.detail["premises"]["direct-reachability"] == "PASS"
        notes.append(f"{target}:{v.result}")
    vbad = check_invariant(
        ctx, mf.pes["m1_counters"], mf.sets["all0"], mf.rels["id"],
        mf.rels["guar_unbounded"], mf.sets["inv_xy"],
    )
    broke = vbad.failed and vbad.clause == "premise:stable(inv,guar)"
    ok &= broke
    report(
        4,
        ok,
        f"3 premise-clean models with clean graphs ({', '.join(notes)}); "
        f"broken-premise model reports {vbad.clause} while the direct check "
        f"{'stays clean' if 'passed' in vbad.detail.get('note', '') else 'also fails'}",
    )


def test_criterion_5_adapter_conformance():
    """Both reference adapters satisfy A1/A2 exhaustively; an injected
    self-loop adapter fails A2."""
    schema = Schema([("x", IntType(0, 3), 0), ("b", BoolType(), False)])
    actx = AdapterContext(schema)
    ok = True
    for adapter in (IMP_ADAPTER, REL_ADAPTER):
        rep = conformance_suite(adapter, actx)
        ok &= rep.passed
    from rgkit.relations import true_set

    loopy = make_rel_machine(
        schema, "loopy",
        [("a", true_set(schema), (), "a"), ("a", true_set(schema), (), "end")],
        "end", allow_self_loops=True,
    )
    rep = conformance_suite(
        REL_ADAPTER, actx, samples=[(RelAt(loopy, "a"), schema.initial_state())]
    )
    a2_caught = any(e.assumption == "A2" and not e.passed for e in rep.entries)

    def bad_step(c, p, s):
        if p is None:
            return [(Basic(()), s)]
        return IMP_ADAPTER.step(c, p, s)

    mutant = ProgramAdapter("mutant", bad_step, IMP_ADAPTER.samples)
    a1_caught = any(
        e.assumption == "A1" and not e.passed
        for e in conformance_suite(mutant, actx).entries
    )
    report(
        5,
        ok and a2_caught and a1_caught,
        "IMP and relation adapters pass A1/A2; self-loop fails A2; "
        "terminal-step mutant fails A1",
    )


def test_criterion_6_memory_partition_oracle():
    """Brute force over all premise-satisfying bitmap assignments at
    (n_max=1, n_levels=2): no state violates the partition property."""
    t0 = time.time()
    v = partition_theorem_oracle(BuddyDims(n_max=1, n_levels=2))
    elapsed = time.time() - t0
    necessity = partition_theorem_oracle(
        BuddyDims(n_max=1, n_levels=2), drop_premise="inv_bitmapn"
    )
    report(
        6,
        v.passed and elapsed < 120 and necessity.failed,
        f"oracle PASS over {v.detail['examined']} premise-satisfying "
        f"assignments in {elapsed:.1f}s (< 120s); dropping inv_bitmapn "
        f"produces a counterexample",
    )


def test_criterion_7_kernel_corpus():
    """Desk-scale two-thread pool model: structural invariants at every
    reachable state, quiescent-state properties, every thread step inside
    its guarantee, and NOWAIT / timeout alloc postconditions; then the
    single-thread wide-parameter model for the remaining service paths."""
    t0 = time.time()
    desk = load(corpus_path("buddy_desk.pcm")).buddy
    a1 = analyze_kernel(desk, budget=2_000_000)
    mid = time.time()
    single = load(corpus_path("buddy_single.pcm")).buddy
    a2 = analyze_kernel(single, budget=1_000_000)
    elapsed = time.time() - t0
    details = {name: v.result for name, v in a1.verdicts}
    ok = a1.passed and a2.passed and elapsed < 600
    post_counts = next(v for n, v in a1.verdicts if n == "service-postconditions").detail
    report(
        7,
        ok,
        f"two-thread model: {a1.node_count} states in {mid - t0:.0f}s, {details}; "
        f"alloc completions checked: {post_counts.get('alloc')}, "
        f"free completions: {post_counts.get('free')}; single-thread model: "
        f"{a2.node_count} states, pass={a2.passed}; total {elapsed:.0f}s < 600s",
    )


def test_criterion_8_loop_variant():
    """The release-loop variant family passes on the desk-scale model and a
    synthetic counting loop passes; removing the decrease fails."""
    mf = load(corpus_path("loop_variant.pcm"))
    ctx = mf.ctx()
    fam = {a: mf.sets[f"loopinv_{a}"] for a in range(4)}
    u = full_universe(ctx)
    v_synth = check_loop_variant(
        ctx, mf.programs["body_dec"], mf.sets["bpos"], mf.rels["id"],
        univ_rel(mf.schema), lambda a: fam[a], range(4), u,
    )
    v_stuck = check_loop_variant(
        ctx, mf.programs["body_stuck"], mf.sets["bpos"], mf.rels["id"],
        univ_rel(mf.schema), lambda a: fam[a], range(4), u,
    )

    single = load(corpus_path("buddy_single.pcm")).buddy
    g = build_graph(single.ctx, single.pes, None, single.rely,
                    init_states=[single.initial_state()], budget=1_000_000)
    states, seen = [], set()
    for _, st in g.nodes:
        if st not in seen:
            seen.add(st)
            states.append(st)
    ureach = Universe("reachable", states)
    layout = single.layout
    fam_b = mp_free_loopinv(layout, "t1")
    body = build_free_loop_body(layout, "t1")
    bset = StateSet(
        layout.schema,
        native=lambda s: layout.lvar(s, "free_block_r", "t1"),
        name="free_block_r[t1]",
    )
    v_buddy = check_loop_variant(
        single.ctx, body, bset, identity_rel(layout.schema), univ_rel(layout.schema),
        fam_b, range(0, single.dims.n_levels + 1), ureach,
    )
    bad_body = build_free_loop_body(layout, "t1", no_decrease=True)
    v_buddy_bad = check_loop_variant(
        single.ctx, bad_body, bset, identity_rel(layout.schema), univ_rel(layout.schema),
        fam_b, range(0, single.dims.n_levels + 1), ureach,
    )
    ok = (
        v_synth.passed
        and v_stuck.failed and v_stuck.clause.startswith("condition-1")
        and v_buddy.passed
        and v_buddy_bad.failed and v_buddy_bad.clause.startswith("condition-1")
    )
    report(
        8,
        ok,
        f"release-loop family PASS over {len(states)} reachable states; "
        f"synthetic loop PASS; both no-decrease mutants fail condition 1",
    )


def test_criterion_9_bpel_translation():
    """Translation injectivity over >= 200 generated activities; bisim and
    bounded trace equivalence agree on the corpus; >= 3 mutations
    detected by both checks."""
    bf = load(corpus_path("bpel_suite.bpc"))
    bctx = bf.bctx
    from rgkit.cli import _tick_rely

    rely = _tick_rely(bf)
    s0 = bctx.schema.initial_state()

    gen = bp.generate_activities(bctx, 200, seed=0)
    vinj = bp.check_compile_injective(bctx, gen)

    agree = True
    for name, act in bf.activities.items():
        vb = bp.check_bisim(bctx, act, s0, env_rel=rely)
        vt = bp.check_trace_equiv(bctx, act, s0, rely, 5)
        agree &= vb.passed and vt.passed and (vb.result == vt.result)

    detected = []
    for mut in ("drop-fire-sources", "wait-guard-flip", "if-else-overlap", "seq-drop-left"):
        hit = False
        for act in bf.activities.values():
            vb = bp.check_bisim(bctx, act, s0, mutation=mut, env_rel=rely)
            vt = bp.check_trace_equiv(bctx, act, s0, rely, 5, mutation=mut)
            if vb.failed and vt.failed:
                hit = True
                break
        if hit:
            detected.append(mut)
    ok = vinj.passed and len(gen) >= 200 and agree and len(detected) >= 3
    report(
        9,
        ok,
        f"injectivity over {len(gen)} generated activities; bisim and "
        f"trace-equiv agree on all {len(bf.activities)} corpus activities "
        f"(coverage: invoke-with-faults, flow-with-links, pick, while, wait, "
        f"forEach); mutations detected by both: {detected}",
    )


def test_criterion_10_determinism():
    """Reports are byte-stable across runs and across worker counts
    (timing field excluded)."""
    from rgkit import cli

    def run(argv):
        out = io.StringIO()
        old = sys.stdout
        sys.stdout = out
        try:
            code = cli.main(argv)
        finally:
            sys.stdout = old
        return code, re.sub(r'"millis": \d+', '"millis": 0', out.getvalue())

    stable = True
    commands = [
        ["check", "validity", corpus_path("prove_suite.pcm"),
         "--target", "s_basic", "--spec", "spec_basic"],
        ["check", "prove", corpus_path("prove_suite.pcm"),
         "--target", "s_join", "--spec", "spec_join", "--outline", "o06_join"],
        ["check", "equiv-cpts", corpus_path("cpts_suite.pcm"),
         "--target", "e05", "--pre", "init0", "--universe-rel", "full",
         "--max-len", "4"],
        ["bpel", "bisim", corpus_path("bpel_suite.bpc"), "--activity", "a_pick"],
        ["graph", "dump", corpus_path("cpts_suite.pcm"),
         "--target", "e01", "--pre", "init0", "--rely", "id"],
    ]
    for argv in commands:
        c1, o1 = run(argv)
        c2, o2 = run(argv)
        stable &= (c1 == c2) and (o1 == o2)

    c1, w1 = run(["--workers", "1", "oracle", "--n-max", "1", "--n-levels", "2"])
    c2, w2 = run(["--workers", "2", "oracle", "--n-max", "1", "--n-levels", "2"])
    w1 = w1.replace('"--workers", "1", ', "")
    w2 = w2.replace('"--workers", "2", ', "")
    workers_stable = (c1 == c2) and (w1 == w2)
    report(
        10,
        stable and workers_stable,
        f"{len(commands)} commands byte-stable across reruns; oracle output "
        f"identical for 1 and 2 workers",
    )
