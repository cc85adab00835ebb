"""Golden verdict reports: stdout and exit code of the verdict subcommands
(`classify -k 2`, `certify -k 1` and `-k 2`, `check-necessary --mode dt`
and `--mode ct`) on the paper's Examples 1-4, the sign-flipped k = 1 case
-|Example 3|, and the J A J copy of each, read from data/verdict_inputs.

    python tests/verdict_reports.py | diff - tests/data/verdict_reports.txt

checks whichever kposi is importable against the golden file; redirect the
output to the file instead to rewrite it.  tests/test_cli.py runs the same
diff in-process.
"""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

from kposi.cli import run_cli

INPUTS = Path(__file__).resolve().parent / "data" / "verdict_inputs"
GOLDEN = INPUTS.parent / "verdict_reports.txt"
NAMES = ("ex1", "ex2", "ex3", "ex3-neg-abs", "ex4")
COMMANDS = (
    ("classify", "-k", "2"),
    ("certify", "-k", "1"),
    ("certify", "-k", "2"),
    ("check-necessary", "--mode", "dt"),
    ("check-necessary", "--mode", "ct"),
)


def run(argv: list[str]) -> tuple[str, str, int]:
    """stdout, stderr and exit code of one in-process kposi run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = run_cli(argv)
    return out.getvalue(), err.getvalue(), rc


def verdict_reports() -> str:
    """The report text: per run a `$ kposi ...` line, its stdout and `exit N`."""
    chunks = []
    for name in NAMES:
        for fname in (f"{name}.json", f"{name}-JAJ.json"):
            for cmd, *opts in COMMANDS:
                out, _, rc = run([cmd, "--in", str(INPUTS / fname), *opts])
                chunks.append(f"$ kposi {cmd} --in {fname} {' '.join(opts)}\n{out}exit {rc}\n")
    return "".join(chunks)


if __name__ == "__main__":
    sys.stdout.write(verdict_reports())
