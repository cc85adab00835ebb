"""Benchmark entry point.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a kposi checkout.  One client calls the program in a
closed loop, in whole rounds over the workload's input pool, for at least
S seconds; then every op's output is checked against the benchmark's own
computations.  The last line of stdout is one JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
with --trace 0, the per-layer metrics (from rebinding the program's
functions to span-recording wrappers) with --trace 1.
"""

import argparse
import dataclasses
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One BLAS thread on this process and its probes.  numpy is imported only
# in main(), after this, and OpenBLAS reads the variable when it loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("KPOSI_TOL", None)

import numpy as np  # noqa: E402

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH / "out"

# Host-speed calibration: a fixed piece of the benchmark's own numpy and
# Python work, timed right before an op whenever CAL_INTERVAL_S or more
# have passed since the last one, and once after the last op.  Each op's
# time is divided by the mean of the calibration times before and after it
# and multiplied by CAL_REF_MS, about the calibration time on the reference
# host when undisturbed, so the normalised figures read as milliseconds
# there.  The host's speed drifts for seconds to minutes; the ratio follows
# it (see README).
CAL_REPS = 30
CAL_INTERVAL_S = 0.25
CAL_REF_MS = 3.0
CAL_MATRIX = np.linspace(-1.0, 1.0, 18).reshape(6, 3) ** 3 + np.eye(6, 3)

# Fresh processes timed from start to the end of the warm-up op, each share
# normalised by a calibration of its own kind (see measure_setup); setup_s
# is their median.  BARE_REF_S is about the time of a bare
# `python3 -c "import numpy"` process on the reference host.
SETUP_PROBES = 7
SETUP_CAL_REPS = 3
BARE_REF_S = 0.15
PROBE_TIMEOUT_S = 60

# name -> unit; every end-to-end time comes from an untraced run.
END_TO_END = {
    "norm_ops_per_s": "1/s",
    "norm_op_p50_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
PER_LAYER = {
    "matcore.minor_table.self_ms": "ms",
    "matcore.minor_table.calls": "count",
    "matcore.minor_table.minors": "count",
    "matcore.minor_table.gather_mb": "MB",
    "matcore.spectral_report.self_ms": "ms",
    "matcore.spectral_report.calls": "count",
    "matcore.spectral_report.order": "count",
    "matcore.is_positive_definite.self_ms": "ms",
    "matcore.lex_index_sets.self_ms": "ms",
    "matcore.lex_index_sets.sets": "count",
    "compound.mult_compound.calls": "count",
    "compound.wedge.self_ms": "ms",
    "compound.wedge.calls": "count",
    "signreg.classify_sign_regularity.self_ms": "ms",
    "signreg.is_k_positive_system.self_ms": "ms",
    "stability.certify_k_diag_stability.self_ms": "ms",
    "stability.construct_dlf_nonneg.self_ms": "ms",
    "stability.stein_holds.self_ms": "ms",
    "stability.cayley.self_ms": "ms",
    "stability.necessary_dt_diag.self_ms": "ms",
    "stability.necessary_dt_diag.minors": "count",
    "nonlinear.simulate.self_ms": "ms",
    "nonlinear.simulate.steps": "count",
    "nonlinear.wedge_trajectory.self_ms": "ms",
    "nonlinear.export_trajectory_csv.self_ms": "ms",
    "nonlinear.export_trajectory_csv.bytes": "bytes",
    "cli.run_cli.self_ms": "ms",
    "cli.output_bytes": "bytes",
}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def tail_percentile(samples):
    """(p, value) for the highest whole percentile with >= 10 samples above it.

    None below 40 samples, where that percentile would be no tail.
    """
    n = len(samples)
    if n < 40:
        return None
    p = math.floor(100 * (n - 10) / n)
    return p, sorted(samples)[math.ceil(p / 100 * n) - 1]


def calibration_s() -> float:
    """Seconds for CAL_REPS order-3 minor tables of a fixed 6 x 3 matrix."""
    import reference

    t0 = time.perf_counter()
    for _ in range(CAL_REPS):
        reference.minor_table(CAL_MATRIX, 3)
    return time.perf_counter() - t0


def normalised(ratios, pool_size: int) -> list[float]:
    """Per pool input, the median of its ops' time / calibration ratios.

    Ops run in pool order in whole rounds, so input i owns ops i, i + P, ...
    """
    return [statistics.median(ratios[i::pool_size]) for i in range(pool_size)]


def output_bytes(output) -> int:
    """Bytes the CLI wrote to stdout and stderr in one op (0 for library calls)."""
    if isinstance(output, list):
        return sum(output_bytes(o) for o in output)
    if isinstance(output, tuple):
        return len(output[1]) + len(output[2])
    return 0


def measure_setup(args) -> float:
    """Set-up seconds of one fresh process: start to the end of its warm-up op.

    Start-up (interpreter, imports, pool) is timed against a bare
    `python3 -c "import numpy"` process run right before it, whose speed
    follows the host's as a calibration kernel does not; the ratio is
    scaled by BARE_REF_S.  The warm-up op's time is normalised as op times
    are, by the median of the calibrations the process runs right before
    and after the op, times CAL_REF_MS.  The calibrations are left out.
    """
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True, timeout=PROBE_TIMEOUT_S)
    bare = time.perf_counter() - t0
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-probe"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe failed: {proc.stderr.strip()[-500:]}")
    # perf_counter is CLOCK_MONOTONIC, shared by every process on the host.
    ready, warm_up, cal = map(float, proc.stdout.strip().splitlines()[-1].split())
    return (ready - t0) / bare * BARE_REF_S + warm_up / cal * CAL_REF_MS / 1e3


def same(a, b) -> bool:
    """Exact equality of two op outputs: strings, numbers, arrays, results, errors."""
    if type(a) is not type(b):
        return False
    if isinstance(a, np.ndarray):
        return a.shape == b.shape and bool(np.array_equal(a, b))
    if isinstance(a, BaseException):
        return str(a) == str(b)
    if dataclasses.is_dataclass(a):
        return all(same(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a))
    if isinstance(a, (tuple, list)):
        return len(a) == len(b) and all(map(same, a, b))
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same(a[k], b[k]) for k in a)
    return a == b


def timed_loop(pool, run_op, seconds, tracer=None):
    """Whole rounds over the pool until `seconds` have passed.

    Returns the per-op times, each op's time divided by the mean of the
    calibration times before and after it, the first round's outputs, and
    every later output that differs from the first round's output for the
    same input.  Later outputs are compared outside the per-op time and
    then dropped, so the memory the benchmark holds does not grow with the
    number of ops.
    """
    samples, cal_before, cals, first, differing = [], [], [], [], []
    cal_at = -math.inf
    deadline = time.perf_counter() + seconds
    while True:
        for index, item in enumerate(pool):
            if time.perf_counter() - cal_at >= CAL_INTERVAL_S:
                cals.append(calibration_s())
                cal_at = time.perf_counter()
            if tracer is not None:
                tracer.start_op(len(samples))
            t0 = time.perf_counter()
            out = run_op(item)
            samples.append(time.perf_counter() - t0)
            cal_before.append(len(cals) - 1)
            if tracer is not None:
                tracer.count("cli.output_bytes", output_bytes(out))
            if len(first) < len(pool):
                first.append(out)
            elif not same(out, first[index]):
                differing.append((len(samples) - 1, index, out))
        if time.perf_counter() >= deadline:
            cals.append(calibration_s())
            ratios = [t / ((cals[c] + cals[c + 1]) / 2) for t, c in zip(samples, cal_before)]
            return samples, ratios, first, differing


def check_outputs(wl, pool, first, differing, ops):
    """(problems, failed) over all `ops` ops, `ops / len(pool)` rounds.

    Ops equal to the first round's output share its check.  `failed` counts
    the ops whose only wrong outputs are the program faults the workload
    names (`wl.faults`; in the README).  Any other wrong output is a
    problem and makes the run incorrect.
    """
    rounds = ops // len(pool)
    refs = [wl.reference(item) for item in pool]
    problems, failed = [], 0

    def judge(op, index, out, weight):
        nonlocal failed
        item = pool[index]
        found = wl.check(item, refs[index], out)
        if found:
            problems.extend(f"op {op} ({item['name']}): {p}" for p in found)
        elif wl.faults(item, out):
            failed += weight

    repeats = [rounds] * len(pool)
    for op, index, _ in differing:
        repeats[index] -= 1
    for index, out in enumerate(first):
        judge(index, index, out, repeats[index])
    for op, index, out in differing:
        judge(op, index, out, 1)
    return problems, failed


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "kposi" / "__init__.py").is_file():
        print(f"error: no kposi package under {SRC}; run from a kposi checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    setups = []
    if not args.trace and not args.setup_probe:
        setups = [measure_setup(args) for _ in range(SETUP_PROBES)]

    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        pool = wl.make_pool(args.seed, workdir)
        tracer = None
        if args.trace:
            from tracing import Tracer

            tracer = Tracer()
            tracer.install()
        if args.setup_probe:
            ready = time.perf_counter()
            cals = [calibration_s() for _ in range(SETUP_CAL_REPS)]
            warm = time.perf_counter()
            wl.run_op(pool[0])
            warm_up = time.perf_counter() - warm
            cals += [calibration_s() for _ in range(SETUP_CAL_REPS)]
            print(repr(ready), repr(warm_up), repr(statistics.median(cals)), flush=True)
            return 0
        wl.run_op(pool[0])
        if tracer is not None:
            tracer.reset()
        samples, ratios, first, differing = timed_loop(pool, wl.run_op, args.seconds, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer is not None:
            tracer.uninstall()
        problems, failed = check_outputs(wl, pool, first, differing, len(samples))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    op_p50_ms = statistics.median(samples) * 1e3
    if tracer is None:
        per_input = normalised(ratios, len(pool))
        values = {
            "norm_ops_per_s": len(per_input) / (sum(per_input) * CAL_REF_MS / 1e3),
            "norm_op_p50_ms": statistics.median(per_input) * CAL_REF_MS,
            "peak_rss_mb": peak_rss_mb,
            "setup_s": statistics.median(setups),
        }
        units = END_TO_END
    else:
        values = tracer.per_op(len(samples))
        units = PER_LAYER
    metrics = {name: {"value": float(values.get(name, 0.0)), "unit": unit}
               for name, unit in units.items()}

    tail = tail_percentile(samples)
    print(f"{args.workload} seed={args.seed} trace={args.trace}: {len(samples)} ops, "
          f"{sum(samples):.2f} s in the program, ops_per_s={len(samples) / sum(samples):.4g}, "
          f"op_p50_ms={op_p50_ms:.4g}"
          + (f", op_tail_ms (p{tail[0]})={tail[1] * 1e3:.4g}" if tail else ", op_tail_ms n/a (<40 ops)")
          + f", failed={failed}", file=sys.stderr)
    for p in problems[:20]:
        print(f"CHECK FAILED {p}", file=sys.stderr)
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"samples-{stem}.json").write_text(json.dumps(
        {"samples_s": samples, "setups_s": setups,
         "failed": failed, "problems": problems, "metrics": metrics}))
    if tracer is not None:
        tracer.write(OUT / f"trace-{args.workload}.tsv")
    print(json.dumps({"correct": not problems, "attempted": len(samples), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
