"""Per-layer spans recorded from the benchmark's side of the program's API.

`Tracer.install` rebinds each traced kposi function, in every kposi module
that holds it, to a wrapper that records a span.  Spans stay in memory
(one tuple each) and are written out once, at the end of the run.  A span's
self time is its duration minus the time its traced children cover.
"""

from __future__ import annotations

import functools
import math
import sys
from collections import defaultdict
from itertools import combinations
from time import perf_counter_ns

import numpy as np


def _minor_counts(args, kwargs, result):
    A, k = np.asarray(args[0]), int(args[1])
    r, c = math.comb(A.shape[0], k), math.comb(A.shape[1], k)
    return {"minors": r * c, "gather_mb": 8.0 * r * c * k * k / 2**20}


def _screen_minors(args, kwargs, result):
    """Principal minors the screen evaluated: all 2^n - 1, or up to the first failure."""
    n = np.asarray(args[0]).shape[0]
    if result.passed:
        return {"minors": 2**n - 1}
    kappa = result.failing_minor[0].indices
    q = len(kappa)
    before = sum(math.comb(n, i) for i in range(1, q))
    return {"minors": before + list(combinations(range(1, n + 1), q)).index(kappa) + 1}


# name -> (kposi module, function, counts computed from arguments or result)
TARGETS = {
    "matcore.minor_table": ("kposi.matcore", "minor_table", _minor_counts),
    "matcore.spectral_report": ("kposi.matcore", "spectral_report",
                                lambda a, kw, r: {"order": np.asarray(a[0]).shape[0]}),
    "matcore.is_positive_definite": ("kposi.matcore", "is_positive_definite", None),
    "matcore.lex_index_sets": ("kposi.matcore", "lex_index_sets", lambda a, kw, r: {"sets": len(r)}),
    "compound.mult_compound": ("kposi.compound", "mult_compound", None),
    "compound.wedge": ("kposi.compound", "wedge", None),
    "signreg.classify_sign_regularity": ("kposi.signreg", "classify_sign_regularity", None),
    "signreg.is_k_positive_system": ("kposi.signreg", "is_k_positive_system", None),
    "stability.certify_k_diag_stability": ("kposi.stability", "certify_k_diag_stability", None),
    "stability.construct_dlf_nonneg": ("kposi.stability", "construct_dlf_nonneg", None),
    "stability.stein_holds": ("kposi.stability", "stein_holds", None),
    "stability.cayley": ("kposi.stability", "cayley", None),
    "stability.necessary_dt_diag": ("kposi.stability", "necessary_dt_diag", _screen_minors),
    "nonlinear.simulate": ("kposi.nonlinear", "simulate",
                           lambda a, kw, r: {"steps": r.states.shape[0] - 1}),
    "nonlinear.wedge_trajectory": ("kposi.nonlinear", "wedge_trajectory", None),
    # wedge-sim writes the CSV first into a fresh buffer, so its position
    # after the call is the number of bytes written.
    "nonlinear.export_trajectory_csv": ("kposi.nonlinear", "export_trajectory_csv",
                                        lambda a, kw, r: {"bytes": a[1].tell()}),
    "cli.run_cli": ("kposi.cli", "run_cli", None),
}

# Counts reported as the largest value seen in an op rather than a per-op sum.
PEAK_COUNTS = {"matcore.minor_table.gather_mb", "matcore.spectral_report.order"}


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent, op, name, start_ns, end_ns, self_ns)
        self.counts: list[tuple] = []  # (key, value)
        self.op = -1
        self._next_id = 0
        self._stack: list[list] = []  # [span id, ns covered by its children]
        self._restore: list[tuple] = []

    def start_op(self, op: int) -> None:
        self.op = op

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()

    def count(self, key: str, value: float) -> None:
        self.counts.append((key, value))

    def _wrap(self, name: str, fn, counter):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1][0] if tracer._stack else -1
            frame = [span_id, 0]
            tracer._stack.append(frame)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                tracer._stack.pop()
                if tracer._stack:
                    tracer._stack[-1][1] += end - start
                tracer.spans.append(
                    (span_id, parent, tracer.op, name, start, end, end - start - frame[1])
                )
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    tracer.counts.append((f"{name}.{key}", value))
            return result

        return wrapper

    def install(self) -> None:
        """Rebind every traced function in each kposi module that holds it."""
        for name, (module, attr, counter) in TARGETS.items():
            original = getattr(sys.modules[module], attr)
            wrapper = self._wrap(name, original, counter)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == "kposi" or mod_name.startswith("kposi."):
                    if getattr(mod, attr, None) is original:
                        setattr(mod, attr, wrapper)
                        self._restore.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._restore):
            setattr(mod, attr, original)
        self._restore.clear()

    def per_op(self, ops: int) -> dict[str, float]:
        """Per-layer figures per op: self ms, calls and summed counts; PEAK_COUNTS as maxima."""
        self_ns = defaultdict(int)
        calls = defaultdict(int)
        for _, _, _, name, _, _, self_part in self.spans:
            self_ns[name] += self_part
            calls[name] += 1
        sums = defaultdict(float)
        peaks = defaultdict(float)
        for key, value in self.counts:
            if key in PEAK_COUNTS:
                peaks[key] = max(peaks[key], value)
            else:
                sums[key] += value
        out = {}
        for name in TARGETS:
            out[f"{name}.self_ms"] = self_ns[name] / 1e6 / ops
            out[f"{name}.calls"] = calls[name] / ops
        for key, value in sums.items():
            out[key] = value / ops
        out.update(peaks)
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("id\tparent\top\tname\tstart_ns\tend_ns\tself_ns\n")
            fh.writelines("\t".join(map(str, s)) + "\n" for s in self.spans)
