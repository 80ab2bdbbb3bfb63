import io
import json
import os
import re
import subprocess
import sys

import pytest

from conftest import corpus_path
from rgkit import bpel, checker, cli
from rgkit.buddy import BuddyDims, valid_assignment_estimate
from rgkit.modelfile import load


def run_cli(argv):
    out = io.StringIO()
    import sys

    old = sys.stdout
    sys.stdout = out
    try:
        code = cli.main(argv)
    finally:
        sys.stdout = old
    return code, out.getvalue()


def strip_millis(text: str) -> str:
    return re.sub(r'"millis": \d+', '"millis": 0', text)


def records(text):
    return [json.loads(line) for line in text.splitlines() if line.strip()]


def test_validity_pass_exit_zero():
    code, out = run_cli(
        ["check", "validity", corpus_path("prove_suite.pcm"),
         "--target", "s_basic", "--spec", "spec_basic"]
    )
    assert code == 0
    recs = records(out)
    assert recs[0]["record"] == "header"
    assert recs[1]["result"] == "PASS"


def test_validity_fail_exit_one():
    code, out = run_cli(
        ["check", "validity", corpus_path("broken_suite.pcm"),
         "--target", "b_basic", "--spec", "broken_guar"]
    )
    assert code == 1
    assert records(out)[1]["result"] == "FAIL"


def test_prove_shape_mismatch_exit_two():
    code, out = run_cli(
        ["check", "prove", corpus_path("prove_suite.pcm"),
         "--target", "s_basic", "--spec", "spec_basic", "--outline", "o07_iter"]
    )
    assert code == 2
    assert records(out)[1]["clause"] == "outline-shape"


def test_unknown_flag_exit_two():
    code, _ = run_cli(["check", "validity", "--no-such-flag"])
    assert code == 2


def test_unknown_name_exit_two():
    code, _ = run_cli(
        ["check", "validity", corpus_path("prove_suite.pcm"),
         "--target", "zzz", "--spec", "spec_basic"]
    )
    assert code == 2


def test_reports_byte_stable_across_runs():
    argv = ["check", "equiv-cpts", corpus_path("cpts_suite.pcm"),
            "--target", "e07", "--pre", "init0", "--universe-rel", "full",
            "--max-len", "4"]
    code1, out1 = run_cli(argv)
    code2, out2 = run_cli(argv)
    assert code1 == code2 == 0
    assert strip_millis(out1) == strip_millis(out2)


def test_prove_with_crosscheck():
    code, out = run_cli(
        ["check", "prove", corpus_path("prove_suite.pcm"),
         "--target", "s_iter", "--spec", "spec_iter", "--outline", "o07_iter",
         "--crosscheck"]
    )
    assert code == 0
    recs = records(out)
    assert [r["result"] for r in recs[1:]] == ["PASS", "PASS"]
    assert recs[2]["check"] == "soundness-crosscheck"


def test_check_inv_cli():
    code, out = run_cli(
        ["check", "inv", corpus_path("inv_suite.pcm"),
         "--target", "m1_counters", "--init", "all0", "--rely", "id",
         "--guar", "guar_xy_bounded", "--inv", "inv_xy"]
    )
    assert code == 0
    assert records(out)[1]["detail"]["premises"]["direct-reachability"] == "PASS"


def test_loop_variant_cli():
    code, out = run_cli(
        ["check", "loop-variant", corpus_path("loop_variant.pcm"),
         "--prog", "body_dec", "--cond", "bpos", "--rely", "id",
         "--guar", "guar_dec", "--loopinv", "loopinv", "--alpha-max", "3"]
    )
    assert code == 0
    code2, out2 = run_cli(
        ["check", "loop-variant", corpus_path("loop_variant.pcm"),
         "--prog", "body_stuck", "--cond", "bpos", "--rely", "id",
         "--guar", "guar_dec", "--loopinv", "loopinv", "--alpha-max", "3"]
    )
    assert code2 == 1
    assert records(out2)[1]["clause"].startswith("condition-1")


def test_graph_dump_deterministic(tmp_path):
    argv = ["graph", "dump", corpus_path("cpts_suite.pcm"),
            "--target", "e01", "--pre", "init0", "--rely", "id"]
    code1, out1 = run_cli(argv)
    code2, out2 = run_cli(argv)
    assert code1 == code2 == 0
    assert strip_millis(out1) == strip_millis(out2)
    assert "node " in out1


def test_bpel_bisim_cli():
    code, out = run_cli(
        ["bpel", "bisim", corpus_path("bpel_suite.bpc"), "--activity", "a_invoke"]
    )
    assert code == 0
    recs = records(out)
    assert {r["check"] for r in recs[1:]} == {"bisim", "trace-equiv"}


def test_bpel_inject_cli_detects():
    code, out = run_cli(
        ["bpel", "inject", corpus_path("bpel_suite.bpc"),
         "--mutation", "drop-fire-sources", "--activity", "a_flow"]
    )
    assert code == 0  # detection is the passing outcome
    rec = records(out)[1]
    assert rec["check"] == "bpel-inject" and rec["result"] == "PASS"
    assert rec["detail"]["bisim"] == "FAIL" and rec["detail"]["trace_equiv"] == "FAIL"


@pytest.mark.parametrize("argv, checks", [
    (["--mutation", "drop-fire-sources"], 1),
    ([], 5),
])
def test_bpel_inject_one_injectivity_check_per_mutation(monkeypatch, argv, checks):
    calls = []
    orig = bpel.check_compile_injective

    def counted(*a, **kw):
        calls.append(a)
        return orig(*a, **kw)

    monkeypatch.setattr(bpel, "check_compile_injective", counted)
    code, _ = run_cli(["bpel", "inject", corpus_path("bpel_suite.bpc")] + argv)
    assert code in (0, 1)  # 1: a mutation goes undetected on some activity
    assert len(calls) == checks


BPEL_COMMANDS = [
    ["compile"], ["compile", "--generate", "20"], ["bisim"], ["inject"],
    *(["inject", "--mutation", m] for m in sorted(bpel.MUTATIONS)),
]


@pytest.mark.parametrize("argv", BPEL_COMMANDS, ids=" ".join)
def test_bpel_shared_translations_print_the_same_reports(monkeypatch, argv):
    """One translation memo per command and mutation prints what a fresh
    memo per check printed, and translates fewer activities."""
    argv = ["bpel", argv[0], corpus_path("bpel_suite.bpc"), *argv[1:]]
    orig_compile = bpel.compile_activity
    calls = []

    def counted(*a, **kw):
        calls.append(a[1])
        return orig_compile(*a, **kw)

    monkeypatch.setattr(bpel, "compile_activity", counted)
    code, shared = run_cli(argv)
    shared_calls = len(calls)
    for name in ("compile_activity", "check_compile_injective", "check_bisim", "check_trace_equiv"):
        fn = getattr(bpel, name)
        monkeypatch.setattr(bpel, name, lambda *a, _fn=fn, memo=None, **kw: _fn(*a, **kw))
    calls.clear()
    code2, fresh = run_cli(argv)
    assert code == code2 and strip_millis(shared) == strip_millis(fresh)
    assert shared_calls < len(calls)


LOOK_ALIKE_LITERALS = """MODEL lits
ADAPTER imp
SCHEMA
  x : INT 0..2 INIT 0
END
SET init0 := x = 0
REL id := ID END
PROGRAM pa := x := 1 ;; IF 1 = 1 THEN x := 2 ELSE x := 0 FI
PROGRAM pb := x := 1 ;; IF true = true THEN x := 2 ELSE x := 0 FI
ESYS e := (TRG pa CHOICE TRG pb)
"""


def test_graph_keeps_programs_apart_that_differ_in_a_literal_class(tmp_path):
    """`1 = 1` and `true = true` are different syntax: after the first
    step each branch has its own configuration."""
    path = tmp_path / "lits.pcm"
    path.write_text(LOOK_ALIKE_LITERALS)
    code, out = run_cli(["graph", "dump", str(path), "--target", "e", "--pre", "init0",
                         "--rely", "id"])
    last = records(out.splitlines()[-1])[0]
    assert code == 0
    assert (last["node_count"], last["detail"]) == (5, {"comp_edges": 5, "env_edges": 5})
    assert "node (TRG<IF true = true THEN x := 2 ELSE x := 0 FI>, {x=1})" in out


DYNAMIC_KEY = """MODEL dynkey
ADAPTER imp
SCHEMA
  r : REC {a : INT 0..3, b : INT 0..3} INIT {a: 0, b: 0}
  k : SYM {KEYS} INIT KEY0
END
SET init := true
REL id := ID END
EVENT bump WHEN GUARD THEN r := SETFIELDAT(r, k, 1) END
ESYS e1 := EVT bump
"""


@pytest.mark.parametrize("keys, guard, code, message", [
    ("a, zz", "r.[k] = 0", 2, "error: 9:7: dynamic field access key k of type SYM {a, zz} "
     "may name a field not in REC {a: INT 0..3, b: INT 0..3}\n"),
    ("a, zz", "true", 2, "error: 9:7: dynamic record update key k of type SYM {a, zz} "
     "may name a field not in REC {a: INT 0..3, b: INT 0..3}\n"),
    ("b, a", "r.[k] = 0", 0, ""),
])
def test_dynamic_record_key_must_name_a_field(tmp_path, capsys, keys, guard, code, message):
    """A dynamic field key whose type has a symbol the record has no field
    for is a load error, not a missing field met while exploring."""
    path = tmp_path / "dynkey.pcm"
    src = DYNAMIC_KEY.replace("KEYS", keys).replace("KEY0", keys[0]).replace("GUARD", guard)
    path.write_text(src)
    argv = ["graph", "dump", str(path), "--target", "e1", "--pre", "init", "--rely", "id"]
    assert run_cli(argv)[0] == code
    assert capsys.readouterr().err == message


def _sorted_trace_equiv(bctx, b0, s0, rely_universe, max_len, mutation=None, memo=None):
    """`check_trace_equiv` as it first chose its witness: sort both sides'
    differing traces and report the first of the side that has any."""
    from rgkit.computations import cpts_linear
    from rgkit.events import render_system
    from rgkit.verdicts import fail, ok

    memo = {} if memo is None else memo
    comp = lambda a: bpel.compile_activity(bctx, a, mutation, memo)  # noqa: E731
    btraces = bpel.bpel_computations(bctx, b0, s0, rely_universe, max_len)
    bimg = {tuple((comp(bi), si) for bi, si in tr) for tr in btraces}
    eimg = cpts_linear(bctx.ctx, comp(b0), s0, rely_universe, max_len, k="bpel").conf_sequences()
    detail = {"bpel_traces": len(bimg), "es_traces": len(eimg)}
    if bimg == eimg:
        return ok("trace-equiv", detail=detail)
    only_b = sorted(bimg - eimg, key=bpel._trace_key(bctx))
    only_e = sorted(eimg - bimg, key=bpel._trace_key(bctx))
    w = (only_b or only_e)[0]
    trace = [{"spec": render_system(sp), "state": bctx.schema.state_to_dict(st)} for sp, st in w]
    return fail("trace-equiv", "bpel-only" if only_b else "es-only",
                witness={"trace": trace}, detail=detail)


def test_trace_equiv_witness_is_the_first_sorted_trace():
    bf = load(corpus_path("bpel_suite.bpc"))
    s0, rely = bf.bctx.schema.initial_state(), cli._tick_rely(bf)
    failed = 0
    for mutation in (None, *sorted(bpel.MUTATIONS)):
        for act in bf.activities.values():
            got = bpel.check_trace_equiv(bf.bctx, act, s0, rely, 6, mutation=mutation)
            assert got == _sorted_trace_equiv(bf.bctx, act, s0, rely, 6, mutation=mutation)
            failed += got.failed
    assert failed


@pytest.mark.parametrize("argv", [a for a in BPEL_COMMANDS if a[0] == "inject"], ids=" ".join)
def test_bpel_inject_reports_match_sorted_witnesses(monkeypatch, argv):
    argv = ["bpel", argv[0], corpus_path("bpel_suite.bpc"), *argv[1:]]
    code, out = run_cli(argv)
    monkeypatch.setattr(bpel, "check_trace_equiv", _sorted_trace_equiv)
    code2, out2 = run_cli(argv)
    assert code == code2 and strip_millis(out) == strip_millis(out2)


def assert_oracle_workers_byte_identical(dims, cases):
    for drop, code in cases:
        argv1 = ["--workers", "1", "oracle"] + dims + drop
        argv2 = ["--workers", "2", "oracle"] + dims + drop
        code1, out1 = run_cli(argv1)
        code2, out2 = run_cli(argv2)
        assert code1 == code2 == code
        s1 = strip_millis(out1).replace('"command": ["--workers", "1", ', '"command": [')
        s2 = strip_millis(out2).replace('"command": ["--workers", "2", ', '"command": [')
        assert s1 == s2


def test_oracle_cli_workers_byte_identical():
    assert_oracle_workers_byte_identical(
        ["--n-max", "1", "--n-levels", "2"], (([], 0), (["--drop", "inv_bitmapn"], 1)))


def test_oracle_cli_workers_byte_identical_on_split_chunks():
    """At n_max 2 the oracle runs 40 tasks, four of them of 16,384
    assignments, so both workers share the work of the first cell's
    DIVIDED chunk; the merged report is still one worker's."""
    assert_oracle_workers_byte_identical(["--n-max", "2", "--n-levels", "2"], (([], 0),))


def test_fmt_roundtrip():
    code, out = run_cli(["fmt", corpus_path("cpts_suite.pcm")])
    assert code == 0 and out.startswith("MODEL cpts_suite")


def test_bpel_compile_with_generated_corpus():
    code, out = run_cli(
        ["--seed", "3", "bpel", "compile", corpus_path("bpel_suite.bpc"),
         "--generate", "50"]
    )
    assert code == 0
    last = records(out)[-1]
    assert last["check"] == "compile-injective" and last["result"] == "PASS"
    assert last["detail"]["activities"] == 62


PROVE_ITER = ["check", "prove", corpus_path("prove_suite.pcm"), "--target", "s_iter",
              "--spec", "spec_iter", "--outline", "o07_iter"]
INV_M1 = ["check", "inv", corpus_path("inv_suite.pcm"), "--target", "m1_counters",
          "--init", "all0", "--rely", "id", "--guar", "guar_xy_bounded", "--inv", "inv_xy"]
INV_PAR_OUTLINE = ["check", "inv", corpus_path("prove_suite.pcm"), "--target", "par_xy",
                   "--init", "x0y0", "--rely", "id", "--guar", "guar_xy", "--inv", "always",
                   "--outline", "o09_par"]
VALIDITY_PAR = ["check", "validity", corpus_path("prove_suite.pcm"), "--target", "par_xy",
                "--spec", "spec_par"]
DUMP_E14 = ["graph", "dump", corpus_path("cpts_suite.pcm"), "--target", "e14",
            "--pre", "init0", "--rely", "id"]


def test_init_mode_pre_free():
    argv = ["check", "validity", corpus_path("prove_suite.pcm"),
            "--target", "s_basic", "--spec", "spec_basic"]
    _, out = run_cli(argv)
    code, out_free = run_cli(argv + ["--init-mode", "pre-free"])
    assert code == 0
    assert records(out)[1]["node_count"] == 3
    assert records(out_free)[1]["node_count"] == 12


@pytest.mark.parametrize("argv, builds", [
    (PROVE_ITER + ["--crosscheck"], 1),
    (PROVE_ITER + ["--universe", "full", "--crosscheck"], 1),
    (PROVE_ITER + ["--universe", "full"], 0),
    (INV_M1, 1),
    (INV_PAR_OUTLINE, 1),
    (VALIDITY_PAR, 1),
    (DUMP_E14, 1),
])
def test_one_graph_build_per_command(build_calls, argv, builds):
    code, _ = run_cli(argv)
    assert code == 0
    assert len(build_calls) == builds


@pytest.mark.parametrize("universe", ["reachable", "full"])
def test_one_proof_per_prove_crosscheck(monkeypatch, universe):
    calls = []
    orig = checker.prove

    def counted(*a, **kw):
        calls.append(a)
        return orig(*a, **kw)

    monkeypatch.setattr(checker, "prove", counted)
    code, _ = run_cli(PROVE_ITER + ["--universe", universe, "--crosscheck"])
    assert code == 0
    assert len(calls) == 1


# The CONSEQ's post-subset premise fails only at x = 0, y = 2, which the
# program cannot reach: the full-universe proof fails, the reachable one passes.
CONSEQ_UNREACHABLE = """MODEL conseq_unreachable
ADAPTER imp
SCHEMA
  x : INT 0..1 INIT 0
  y : INT 0..2 INIT 0
END
SET x0y0 := x = 0 AND y = 0
SET x1 := x = 1
SET x1_or_y2 := x = 1 OR y = 2
REL id := ID END
REL guar_x1 := ID RULE WHEN true DO x := 1 END END
RGSPEC outer := PRE x0y0 RELY id GUAR guar_x1 POST x1
RGSPEC inner := PRE x0y0 RELY id GUAR guar_x1 POST x1_or_y2
EVENT set1 WHEN true THEN x := 1 END
ESYS s := EVT set1
OUTLINE o := CONSEQ [inner] (BASICEVT)
"""


@pytest.mark.parametrize("universe, code, proof, crosscheck", [
    ("full", 1, "FAIL", {"prove": "FAIL", "vacuous": True}),
    ("reachable", 0, "PASS", {"prove": "PASS", "validity": "PASS"}),
])
def test_crosscheck_takes_the_printed_proof(tmp_path, universe, code, proof, crosscheck):
    model = tmp_path / "conseq_unreachable.pcm"
    model.write_text(CONSEQ_UNREACHABLE)
    got, out = run_cli(["check", "prove", str(model), "--target", "s", "--spec", "outer",
                        "--outline", "o", "--universe", universe, "--crosscheck"])
    assert got == code
    prove, cross = records(out)[1:]
    assert (prove["check"], prove["result"], prove["universe"]) == ("prove", proof, universe)
    assert (cross["check"], cross["result"]) == ("soundness-crosscheck", "PASS")
    assert cross["detail"] == crosscheck


@pytest.mark.parametrize("argv, expected", [
    (PROVE_ITER + ["--crosscheck", "--budget", "2"], [
        {"check": "prove", "clause": "state-explosion", "detail": {"nodes": 3},
         "millis": 0, "record": "verdict", "result": "DIAGNOSTIC", "target": "s_iter"},
        {"check": "soundness-crosscheck", "detail": {"prove": "DIAGNOSTIC", "vacuous": True},
         "millis": 0, "record": "verdict", "result": "PASS", "target": "s_iter"},
    ]),
    (INV_M1 + ["--budget", "2"], [
        {"check": "invariant", "clause": "state-explosion", "detail": {"nodes": 3},
         "millis": 0, "record": "verdict", "result": "DIAGNOSTIC", "target": "m1_counters"},
    ]),
])
def test_failed_exploration_records(argv, expected):
    code, out = run_cli(argv)
    assert code == 2
    lines = strip_millis(out).splitlines()[1:]
    assert lines == [json.dumps(r, sort_keys=True) for r in expected]


def test_reports_independent_of_hash_seed():
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    outs = []
    for seed in ("1", "2"):
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path)
        runs = []
        for argv in (PROVE_ITER + ["--crosscheck"], INV_M1, VALIDITY_PAR, DUMP_E14):
            proc = subprocess.run([sys.executable, "-m", "rgkit.cli", *argv], env=env,
                                  capture_output=True, text=True, check=False)
            runs.append((proc.returncode, strip_millis(proc.stdout)))
        outs.append(runs)
    assert outs[0] == outs[1]
    assert [code for code, _ in outs[0]] == [0, 0, 0, 0]


LOOP_DEC = ["check", "loop-variant", corpus_path("loop_variant.pcm"), "--prog", "body_dec",
            "--cond", "bpos", "--rely", "id", "--guar", "guar_dec", "--loopinv", "loopinv"]


@pytest.mark.parametrize("argv, expected", [
    (PROVE_ITER + ["--universe", "full", "--budget", "1"],
     {"check": "prove", "clause": "state-explosion",
      "detail": {"cause": "domain-overflow: <schema product> <- 16"}, "millis": 0,
      "record": "verdict", "result": "DIAGNOSTIC", "target": "s_iter"}),
    (LOOP_DEC + ["--budget", "1"],
     {"check": "loop-variant", "clause": "state-explosion",
      "detail": {"cause": "domain-overflow: <schema product> <- 4"}, "millis": 0,
      "record": "verdict", "result": "DIAGNOSTIC", "target": "body_dec"}),
])
def test_full_universe_over_budget_is_diagnostic(argv, expected):
    code, out = run_cli(argv)
    assert code == 2
    assert strip_millis(out).splitlines()[1:] == [json.dumps(expected, sort_keys=True)]


def test_equiv_cpts_deeper_than_recursion_limit_is_diagnostic(capsys):
    """Computation nodes are built by recursion, one level per step.  A
    bound far deeper than the interpreter allows is a typed diagnostic,
    not an internal error."""
    code, out = run_cli(["check", "equiv-cpts", corpus_path("cpts_suite.pcm"), "--target", "e14",
                         "--pre", "init0", "--universe-rel", "full", "--max-len", "5000"])
    assert code == 2 and capsys.readouterr().err == ""
    assert strip_millis(out).splitlines()[1:] == [json.dumps(
        {"check": "equiv-cpts", "clause": "state-explosion",
         "detail": {"cause": "max_len 5000 nests computations deeper than the recursion limit"},
         "millis": 0, "record": "verdict", "result": "DIAGNOSTIC", "target": "e14"},
        sort_keys=True)]


BUILTIN_SET = "<model declaring SET s := BUILTIN inv>"
EQUIV_E04 = ["check", "equiv-cpts", corpus_path("cpts_suite.pcm"), "--target", "e04",
             "--pre", "init0", "--universe-rel", "full", "--max-len", "2"]


def test_cached_parser_keeps_no_state_between_calls():
    """`main` parses with one parser per process.  Back-to-back calls, one
    giving `--disable` twice, print what they print with a fresh parser
    each: no appended list or default carries over."""
    disabled = EQUIV_E04 + ["--disable", "CptsMOne", "--disable", "CptsMEnv"]
    calls = [disabled, EQUIV_E04, disabled, EQUIV_E04 + ["--disable", "CptsMSeq"]]
    assert cli.build_parser() is cli.build_parser()
    cached = [(code, strip_millis(out)) for code, out in map(run_cli, calls)]
    fresh = []
    for argv in calls:
        cli.build_parser.cache_clear()
        code, out = run_cli(argv)
        fresh.append((code, strip_millis(out)))
    assert cached == fresh
    assert [code for code, _ in cached] == [1, 0, 1, 1]
    assert records(cached[0][1])[1]["detail"]["disabled"] == ["CptsMEnv", "CptsMOne"]
    assert records(cached[3][1])[1]["detail"]["disabled"] == ["CptsMSeq"]


@pytest.mark.parametrize("argv, message", [
    ([a if a != "all0" else "nope" for a in INV_M1], "unknown set 'nope'"),
    (DUMP_E14[:-1] + ["nope"], "unknown relation 'nope'"),
    (EQUIV_E04 + ["--disable", "NoSuchRule"], "unknown modular rule 'NoSuchRule'"),
    (["check", "equiv-cpts", corpus_path("prove_suite.pcm"), "--target", "par_xy",
      "--pre", "x0y0", "--universe-rel", "id"],
     "computation equivalence expects an event system target"),
    (["fmt", corpus_path("no_such_file.pcm")],
     f"[Errno 2] No such file or directory: {corpus_path('no_such_file.pcm')!r}"),
    (["demo", "buddy", "--threads", "t1,t2,t3,t4"],
     "dims too large for desk-scale checking (cost estimate 751868325000); "
     "pass force=True to override"),
    (["fmt", BUILTIN_SET], None),
])
def test_usage_errors(argv, message, capsys, tmp_path):
    model = tmp_path / "builtin_set.pcm"
    model.write_text("MODEL m\nADAPTER imp\nSCHEMA\n  x : INT 0..1 INIT 0\nEND\n"
                     "SET s := BUILTIN inv\n")
    code, _ = run_cli([str(model) if a == BUILTIN_SET else a for a in argv])
    assert code == 2
    err = capsys.readouterr().err
    if message is None:  # any parse error: the model file has no BUILTIN syntax
        assert re.fullmatch(r"error: [^\n]+\n", err)
    else:
        assert err == f"error: {message}\n"


def test_engine_fault_is_internal_error(monkeypatch, capsys):
    def broken(*a, **kw):
        raise KeyError("memo")

    monkeypatch.setattr(cli, "build_graph", broken)
    code, _ = run_cli(DUMP_E14)
    assert code == 3
    [line] = capsys.readouterr().err.splitlines()
    rec = json.loads(line)
    assert (rec["record"], rec["type"], rec["message"]) == ("internal-error", "KeyError", "'memo'")


def oracle_dims_too_large(n_levels, detail, capsys):
    code, out = run_cli(["oracle", "--n-max", "1", "--n-levels", str(n_levels)])
    assert code == 2 and capsys.readouterr().err == ""
    expected = {"check": "partition-oracle", "clause": "dims-too-large", "detail": detail,
                "millis": 0, "record": "verdict", "result": "DIAGNOSTIC",
                "target": f"pool(1,{n_levels})"}
    assert strip_millis(out).splitlines()[1:] == [json.dumps(expected, sort_keys=True)]


def test_oracle_estimate_over_int_string_limit_is_digit_count(capsys):
    oracle_dims_too_large(9, {"budget": 2000000, "estimated_assignments_digits": 39567}, capsys)


def test_oracle_estimate_within_int_string_limit_is_the_number(capsys):
    estimate = valid_assignment_estimate(BuddyDims(n_max=1, n_levels=6))
    assert 300 < len(str(estimate)) < 4300
    oracle_dims_too_large(6, {"budget": 2000000, "estimated_assignments": estimate}, capsys)


UNIV_RELY = """MODEL univ_rely
ADAPTER imp
SCHEMA
  x : INT 0..1 INIT 0
END
SET x0 := x = 0
SET always := true
SET bpos := x > 0
SET loopinv_0 := x = 0
SET loopinv_1 := x = 1
SET never_0 := false
SET never_1 := x = 1
REL u := UNIV
EVENT set1 WHEN true THEN x := 1 END
PROGRAM p := x := x
ESYS s := EVT set1
ESYS trg := TRG p
PES par := {k1 : s}
RGSPEC sp := PRE x0 RELY u GUAR u POST always
OUTLINE o := BASICEVT
OUTLINE t := TRGEVT
"""


@pytest.mark.parametrize("argv, check, where", [
    (["graph", "dump", "{m}", "--target", "s", "--pre", "x0", "--rely", "u"], "graph-dump", None),
    (["check", "validity", "{m}", "--target", "s", "--spec", "sp"], "validity", None),
    (["check", "inv", "{m}", "--target", "par", "--init", "x0", "--rely", "u", "--guar", "u",
      "--inv", "always"], "invariant", None),
    (["check", "loop-variant", "{m}", "--prog", "p", "--cond", "bpos", "--rely", "u", "--guar", "u",
      "--loopinv", "loopinv", "--alpha-max", "1"], "loop-variant", None),
    (["check", "equiv-cpts", "{m}", "--target", "s", "--pre", "x0", "--universe-rel", "u"],
     "equiv-cpts", None),
    (["check", "prove", "{m}", "--target", "s", "--spec", "sp", "--outline", "o"], "prove", None),
    (["check", "prove", "{m}", "--target", "s", "--spec", "sp", "--outline", "o", "--universe", "full"],
     "prove", "stability against UNIV needs a generator"),
    # No state is in never_0, so the first use of the rely is alpha 1's
    # program obligation, and the first of TRGEVT is its obligation.
    (["check", "loop-variant", "{m}", "--prog", "p", "--cond", "bpos", "--rely", "u", "--guar", "u",
      "--loopinv", "never", "--alpha-max", "1"], "prog-validity", None),
    (["check", "prove", "{m}", "--target", "trg", "--spec", "sp", "--outline", "t", "--universe", "full"],
     "prove", None),
], ids=["graph-dump", "validity", "inv", "loop-variant", "equiv-cpts", "prove", "prove-full",
        "loop-variant-obligation", "prove-obligation"])
def test_rely_without_generator_is_diagnostic(tmp_path, capsys, argv, check, where):
    """A `UNIV` rely has no successor generator: every command that needs
    its successors, in a graph build, a premise or a program obligation,
    ends as a `relation-not-generative` diagnostic, exit 2, and prints
    nothing on stderr."""
    model = tmp_path / "univ_rely.pcm"
    model.write_text(UNIV_RELY, encoding="utf-8")
    code, out = run_cli([a.replace("{m}", str(model)) for a in argv])
    assert (code, capsys.readouterr().err) == (2, "")
    [rec] = records(out)[1:]
    assert (rec["check"], rec["result"], rec["clause"]) == (check, "DIAGNOSTIC", "relation-not-generative")
    assert rec["detail"] == {"where": where or "relation UNIV has no successor generator"}
