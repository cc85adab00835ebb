"""Golden reports of the transform, cyclic and wedge-sim subcommands: stdout,
stderr and exit code of `cyclic` (build, and --analyze at odd and even ell),
`compound -k 2`, `wedge`, `cayley`, `dlf-recover` and `wedge-sim` (with and
without --certify, whose report is the JSON line on stderr), on inputs read
from data/ (file arguments are named relative to it).

    python tests/cli_reports.py | diff - tests/data/cli_reports.txt

checks whichever kposi is importable against the golden file; redirect the
output to the file instead to rewrite it.  tests/test_cli.py runs the same
diff in-process.
"""

from __future__ import annotations

import sys
from pathlib import Path

from verdict_reports import run

DATA = Path(__file__).resolve().parent / "data"
GOLDEN = DATA / "cli_reports.txt"
CHAIN = ("--alphas", "0.2", "0.3", "0.1", "0.25", "--betas", "0.5", "0.4", "0.6", "0.3")
UNSTABLE = ("--alphas", "0.5", "0.5", "0.5", "--betas", "0.9", "0.9", "0.9")
TABLE = ("--system", "table_system.json", "--initials", "table_initials.json", "-k", "3")
UNSTABLE_SYSTEM = ("--system", "report_inputs/unstable_system.json")
RUNS = (
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
)


def cli_reports() -> str:
    """The report text: per run a `$ kposi ...` line, its stdout, any stderr
    after `stderr: `, and `exit N`."""
    chunks = []
    for argv in RUNS:
        out, err, rc = run([str(DATA / a) if a.endswith(".json") else a for a in argv])
        chunks.append(f"$ kposi {' '.join(argv)}\n{out}{'stderr: ' + err if err else ''}exit {rc}\n")
    return "".join(chunks)


if __name__ == "__main__":
    sys.stdout.write(cli_reports())
