"""A/A steadiness check: two sets of benchmark runs of the same code.

    python3 bench/steady.py

Run from the root of a kposi checkout.  Set A runs every workload in
BENCHMARK.json once per seed 1-10, set B once per seed 11-20, each run
lasting run_seconds.  For every workload and end-to-end metric it prints
both sets' median and quartiles, the quartile spread as a share of the
median, and whether the figures stay within the metric's bound: each
spread, and the move of B's median in the worse direction.  It also
checks that the share of failed ops is identical across all runs.  The
exit code is 0 when everything agrees.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUNS = 10  # per set; set A on seeds 1..RUNS, set B on the next RUNS


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values: list[float]) -> tuple[float, float, float, float]:
    """(median, q1, q3, (q3 - q1) / median)."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"]

    results: dict[str, dict[str, list[dict]]] = {w: {"A": [], "B": []} for w in names}
    for label, first_seed in (("A", 1), ("B", RUNS + 1)):
        for seed in range(first_seed, first_seed + RUNS):
            for w in names:
                t0 = time.perf_counter()
                res = run_once(w, seed, seconds)
                results[w][label].append(res)
                print(f"set {label} {w} seed {seed}: {time.perf_counter() - t0:.1f} s, "
                      f"correct={res['correct']} attempted={res['attempted']} failed={res['failed']}",
                      file=sys.stderr, flush=True)

    ok = True
    print(f"{RUNS} runs per set, {seconds} s each; spread = (q3 - q1) / median")
    print(f"{'workload':14} {'metric':12} {'median A':>11} {'q1 A':>11} {'q3 A':>11} {'spread A':>8} "
          f"{'median B':>11} {'q1 B':>11} {'q3 B':>11} {'spread B':>8} {'B worse':>8} {'bound':>6}  verdict")
    for w in names:
        runs = results[w]["A"] + results[w]["B"]
        shares = {r["failed"] / r["attempted"] for r in runs}
        correct = all(r["correct"] for r in runs)
        for m in metrics:
            name, bound = m["name"], m["bound"]
            a = summary([r["metrics"][name]["value"] for r in results[w]["A"]])
            b = summary([r["metrics"][name]["value"] for r in results[w]["B"]])
            worse = (b[0] - a[0]) / a[0] * (1 if m["better"] == "lower" else -1)
            agree = a[3] <= bound and b[3] <= bound and worse <= bound
            ok &= agree
            print(f"{w:14} {name:12} {a[0]:11.5g} {a[1]:11.5g} {a[2]:11.5g} {a[3]:8.2%} "
                  f"{b[0]:11.5g} {b[1]:11.5g} {b[2]:11.5g} {b[3]:8.2%} {worse:8.2%} {bound:6.0%}  "
                  f"{'agree' if agree else 'DISAGREE'}")
        same_share = len(shares) == 1
        ok &= same_share and correct
        print(f"{w:14} failed share {sorted(shares)} {'identical' if same_share else 'DIFFERS'}; "
              f"correct in every run: {correct}")
    out = BENCH / "out"
    out.mkdir(exist_ok=True)
    (out / "steady.json").write_text(json.dumps(results))
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
