"""Print one line per `rg-requests` benchmark command: the digest of its
report with `millis` stripped, then the command.  Each command runs
in-process with the `--generate` seed fixed at 1.  The output must not
depend on the interpreter's hash seed:

    for seed in 0 1; do
        PYTHONHASHSEED=$seed PYTHONPATH=src python tests/request_digests.py > digests-$seed.txt
    done
    diff digests-0.txt digests-1.txt

The command list and the digest are the benchmark's own
(`perfbench/workloads.py`), imported read-only.
"""

import contextlib
import io
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

from workloads import REQUESTS, report_digest  # noqa: E402

from rgkit import cli  # noqa: E402


def main() -> None:
    os.chdir(ROOT)  # the commands name corpus files from the repository root
    for template in REQUESTS:
        argv = [a.replace("{seed}", "1") for a in template]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        print(report_digest(code, out.getvalue() + err.getvalue(), False), " ".join(argv))


if __name__ == "__main__":
    main()
