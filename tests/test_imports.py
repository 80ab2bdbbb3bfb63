"""Modules a load or a bare CLI import brings in, each measured in a fresh
interpreter: a `.pcm` load imports no front-end and no checker (only a
BUDDY section imports the buddy-pool builder), and `rgkit.cli` imports
the front-ends and checkers only inside the commands that use them."""

import json
import os
import subprocess
import sys

from conftest import corpus_path

SRC = os.path.join(os.path.dirname(__file__), "..", "src")


def _modules_after(code: str) -> set[str]:
    env = {**os.environ, "PYTHONPATH": os.path.normpath(SRC)}
    out = subprocess.run(
        [sys.executable, "-c", code + "\nimport sys, json\n"
         "print(json.dumps(sorted(m for m in sys.modules if m.startswith('rgkit'))))"],
        env=env, capture_output=True, text=True, check=True, timeout=60,
    ).stdout
    return set(json.loads(out))


def test_pcm_load_imports_no_front_end_or_checker():
    path = corpus_path("cpts_suite.pcm")
    mods = _modules_after(f"from rgkit.modelfile import load\nload({path!r})")
    assert "rgkit.modelfile" in mods
    for name in ("bpel", "checker", "computations", "semantics", "buddy", "buddy_checks"):
        assert f"rgkit.{name}" not in mods


def test_outlines_load_without_the_checker():
    path = corpus_path("prove_suite.pcm")
    mods = _modules_after(
        f"from rgkit.modelfile import load\nassert load({path!r}).outlines")
    assert "rgkit.checker" not in mods and "rgkit.semantics" not in mods


def test_bare_cli_import_leaves_out_front_ends_and_checkers():
    mods = _modules_after("import rgkit.cli")
    for name in ("bpel", "buddy", "checker", "computations"):
        assert f"rgkit.{name}" not in mods


def test_moved_names_still_import_from_their_old_modules():
    mods = _modules_after(
        "from rgkit.semantics import Ctx\n"
        "from rgkit.checker import SeqNode, Outline, ParNode\n"
        "from rgkit import adapters, events\n"
        "assert Ctx is adapters.Ctx and SeqNode is events.SeqNode")
    assert {"rgkit.semantics", "rgkit.checker"} <= mods
