"""Record the reports of `check prove --crosscheck` over the corpus.

    PYTHONPATH=src python tests/record_prove_sweep.py           # rewrites tests/prove_sweep.json
    PYTHONPATH=src python tests/record_prove_sweep.py --check   # exit 1 if a report differs

For every outline x target x spec of each model in `FILES`, and each of
`--universe reachable` and `--universe full`, the script runs

    rgkit check prove <file> --target T --spec S --outline O --crosscheck --universe U

in-process.  A report is its exit code, stdout and stderr, with each
`millis` field set to 0 and the header record (it echoes the command)
dropped.  The golden file keeps, per request, the exit code and the result
and clause of each record (`3 internal-error NotGenerative` for an internal
error), and per (file, outline) the SHA-256 of all its reports in request
order.  `test_checker.py::test_prove_sweep_matches_golden` replays the
requests and requires the same outcomes and digests.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import re
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
CORPUS = os.path.join(HERE, "..", "corpus")
GOLDEN = os.path.join(HERE, "prove_sweep.json")
FILES = ("prove_suite.pcm", "broken_suite.pcm", "inv_suite.pcm")
UNIVERSES = ("reachable", "full")
MILLIS = re.compile(r'"millis": \d+')


def _model(name: str):
    from rgkit.modelfile import load

    return load(os.path.join(CORPUS, name))


def outlines(name: str) -> list[str]:
    return list(_model(name).outlines)


def requests(name: str, outline: str):
    """(target, spec, universe) of every request of `outline` on `name`, in order."""
    mf = _model(name)
    for target in [*mf.pes, *mf.esystems]:
        for spec in mf.rgspecs:
            for universe in UNIVERSES:
                yield target, spec, universe


def run(name: str, outline: str, target: str, spec: str, universe: str) -> tuple[int, str]:
    """The exit code and report of one request, `millis` zeroed, no header."""
    from rgkit import cli

    argv = ["check", "prove", os.path.join(CORPUS, name), "--target", target, "--spec", spec,
            "--outline", outline, "--crosscheck", "--universe", universe]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    lines = (out.getvalue() + err.getvalue()).splitlines(keepends=True)
    return code, "".join(MILLIS.sub('"millis": 0', ln) for ln in lines if '"record": "header"' not in ln)


def summary(code: int, report: str) -> str:
    """`<exit> <result> [<clause>]` per record, records joined by ` / `."""
    parts = []
    for ln in report.splitlines():
        rec = json.loads(ln)
        if rec["record"] == "internal-error":
            parts.append(f"internal-error {rec['type']}")
        else:
            parts.append(" ".join(filter(None, (rec["result"], rec.get("clause")))))
    return f"{code} " + " / ".join(parts)


def sweep(name: str, outline: str) -> dict:
    """The digest of the outline's reports and, per target, their summaries
    in spec x universe order."""
    targets: dict = {}
    h = hashlib.sha256()
    for target, spec, universe in requests(name, outline):
        code, report = run(name, outline, target, spec, universe)
        targets.setdefault(target, []).append(summary(code, report))
        h.update(f"{code}\n{report}".encode())
    return {"digest": h.hexdigest(), "targets": targets}


def record() -> dict:
    return {name: {o: sweep(name, o) for o in outlines(name)} for name in FILES}


def dumps(data: dict) -> str:
    """Indented JSON with each target's list of summaries on one line."""
    text = json.dumps(data, indent=1, sort_keys=True, ensure_ascii=True)
    return re.sub(r"\[\n\s+(.*?)\n\s+\]", lambda m: "[" + re.sub(r",\n\s+", ", ", m[1]) + "]",
                  text, flags=re.S) + "\n"


if __name__ == "__main__":
    text = dumps(record())
    if sys.argv[1:] == ["--check"]:
        with open(GOLDEN, encoding="utf-8") as f:
            same = f.read() == text
        print("prove sweep matches the golden file" if same else "prove sweep differs from the golden file")
        sys.exit(0 if same else 1)
    with open(GOLDEN, "w", encoding="utf-8") as f:
        f.write(text)
    print(f"wrote {GOLDEN}")
