"""Golden CLI reports: stdout, stderr and exit code of kposi runs, pinned in
two files under data/.

- verdict_reports.txt: the verdict subcommands (`classify -k 2`,
  `certify -k 1` and `-k 2`, `check-necessary --mode dt` and `--mode ct`)
  on the paper's Examples 1-4, the sign-flipped k = 1 case -|Example 3|,
  and the J A J copy of each, read from data/verdict_inputs.
- cli_reports.txt: `cyclic` (build, and --analyze at odd and even ell),
  `compound -k 2`, `wedge`, `cayley`, `dlf-recover` and `wedge-sim` (with
  and without --certify, whose report is the JSON line on stderr), on
  inputs read from data/.

File arguments are named relative to the directory their report reads
from.  tests/test_cli.py checks both files against whichever kposi is
importable;

    python tests/golden_reports.py

rewrites them from it.
"""

from __future__ import annotations

import contextlib
import io
import os
from pathlib import Path

from kposi.cli import run_cli

DATA = Path(__file__).resolve().parent / "data"
VERDICT_NAMES = ("ex1", "ex2", "ex3", "ex3-neg-abs", "ex4")
VERDICT_COMMANDS = (
    ("classify", "-k", "2"),
    ("certify", "-k", "1"),
    ("certify", "-k", "2"),
    ("check-necessary", "--mode", "dt"),
    ("check-necessary", "--mode", "ct"),
)
CHAIN = ("--alphas", "0.2", "0.3", "0.1", "0.25", "--betas", "0.5", "0.4", "0.6", "0.3")
UNSTABLE = ("--alphas", "0.5", "0.5", "0.5", "--betas", "0.9", "0.9", "0.9")
TABLE = ("--system", "table_system.json", "--initials", "table_initials.json", "-k", "3")
UNSTABLE_SYSTEM = ("--system", "report_inputs/unstable_system.json")

# golden file name -> (directory its file arguments are read from, runs)
REPORTS = {
    "verdict_reports.txt": (DATA / "verdict_inputs", tuple(
        (cmd, "--in", fname, *opts)
        for name in VERDICT_NAMES
        for fname in (f"{name}.json", f"{name}-JAJ.json")
        for cmd, *opts in VERDICT_COMMANDS
    )),
    "cli_reports.txt": (DATA, (
        ("cyclic", *CHAIN, "--ell", "1"),
        ("cyclic", *CHAIN, "--ell", "2"),
        ("cyclic", *CHAIN, "--ell", "1", "--analyze"),
        ("cyclic", *CHAIN, "--ell", "2", "--analyze"),
        ("cyclic", *CHAIN, "--ell", "3", "--analyze"),
        ("cyclic", *UNSTABLE, "--ell", "1", "--analyze"),
        ("cyclic", *UNSTABLE, "--ell", "2", "--analyze"),
        ("compound", "--in", "verdict_inputs/ex1.json", "-k", "2"),
        ("compound", "--in", "verdict_inputs/ex4.json", "-k", "2"),
        ("wedge", "--in", "table_initials.json"),
        ("wedge", "--in", "verdict_inputs/ex2.json"),
        ("cayley", "--in", "verdict_inputs/ex1.json"),
        ("cayley", "--in", "verdict_inputs/ex3.json"),
        ("dlf-recover", "--in", "report_inputs/dlf_d.json"),
        ("dlf-recover", "--in", "report_inputs/dlf_diag.json"),
        ("wedge-sim", *TABLE, "--steps", "5", "--certify"),
        ("wedge-sim", *TABLE, "--steps", "5", "--certify", "--tol", "1e-6"),
        ("wedge-sim", *TABLE, "--steps", "3"),
        ("wedge-sim", *UNSTABLE_SYSTEM, "--initials", "report_inputs/initials_k2.json", "-k", "2",
         "--steps", "3", "--certify"),
        ("wedge-sim", *UNSTABLE_SYSTEM, "--initials", "report_inputs/initials_k1.json", "-k", "1",
         "--steps", "3", "--certify"),
        ("wedge-sim", *UNSTABLE_SYSTEM, "--initials", "report_inputs/initials_k2.json", "-k", "2",
         "--steps", "3"),
    )),
}


def report(golden: str) -> str:
    """The text of one golden file: per run a `$ kposi ...` line, its stdout,
    any stderr after `stderr: `, and `exit N`."""
    base, runs = REPORTS[golden]
    chunks = []
    for argv in runs:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = run_cli([str(base / a) if a.endswith(".json") else a for a in argv])
        stderr = f"stderr: {err.getvalue()}" if err.getvalue() else ""
        chunks.append(f"$ kposi {' '.join(argv)}\n{out.getvalue()}{stderr}exit {rc}\n")
    return "".join(chunks)


if __name__ == "__main__":
    os.environ.pop("KPOSI_TOL", None)
    for golden in REPORTS:
        (DATA / golden).write_bytes(report(golden).encode())
