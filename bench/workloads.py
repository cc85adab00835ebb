"""The benchmark's three workloads: input pools, one op each, and the checks.

Each workload exposes
  make_pool(seed, workdir) -> list of items (dicts), built from the seed alone
  run_op(item)             -> the program's raw output for one op
  reference(item)          -> what the checks need, computed without kposi
  check(item, ref, output) -> list of problems (empty when the output is right)
  faults(item, output)     -> the named program faults the output shows; an op
                              with faults and no problems counts as failed

Pools are drawn with numpy's default_rng([seed, workload id]) and fixed
formulas, never with rejection loops, so every seed gives ops of the same
size and the same verdict mix.  The program is always reached through
module attributes (kposi.cli.run_cli, kposi.classify_sign_regularity, ...)
looked up at call time, so the traced run's rebinding takes effect.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import kposi
import kposi.cli
import numpy as np
from kposi.errors import KposiError

import reference as ref

# ---------------------------------------------------------------------------
# shared helpers


def _rng(seed: int, workload_id: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), workload_id])


def matrix_doc(A) -> dict:
    A = np.asarray(A, dtype=float)
    return {"rows": A.shape[0], "cols": A.shape[1], "data": A.tolist()}


def _write_json(path: Path, doc) -> str:
    path.write_text(json.dumps(doc))
    return str(path)


def cyclic_chain(alphas, betas, corner_sign: float) -> np.ndarray:
    """Bidiagonal chain (diagonal alphas, superdiagonal betas) closed by one corner.

    With corner sign (-1)^(l+1) the chain is sign-regular of every order
    k with the parity of l, signature +1.
    """
    n = len(alphas)
    A = np.diag(np.asarray(alphas, dtype=float))
    A[np.arange(n - 1), np.arange(1, n)] = betas[: n - 1]
    A[n - 1, 0] = corner_sign * betas[n - 1]
    return A


def _chain_params(rng, n: int, alpha_range: tuple[float, float]):
    """alpha_i + beta_i <= 0.95, so ||A||_inf <= 0.95 and rho(A) < 1."""
    alphas = rng.uniform(*alpha_range, n)
    betas = rng.uniform(0.2, 1.0, n) * (0.95 - alphas)
    return alphas, betas


def _run_cli(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = kposi.cli.run_cli(argv)
    return rc, out.getvalue(), err.getvalue()


def _no_faults(item, output) -> set[str]:
    return set()


@dataclass(frozen=True)
class Workload:
    name: str
    make_pool: Callable
    run_op: Callable
    reference: Callable
    check: Callable
    faults: Callable = _no_faults


# ---------------------------------------------------------------------------
# certify-large: `kposi certify -k 5` on n=12 cyclic chains (r = C(12,5) = 792)

CERT_N = 12
CERT_K = 5
CERT_POOL = 4


def certify_pool(seed: int, workdir: Path) -> list[dict]:
    # Only chains with a positive corner (odd l) are sign-regular of the odd
    # order 5; an even-l chain has order-5 minors of both signs and would
    # leave certification, so every pool member uses the odd corner.
    rng = _rng(seed, 1)
    items = []
    for i in range(CERT_POOL):
        A = cyclic_chain(*_chain_params(rng, CERT_N, (0.1, 0.6)), corner_sign=1.0)
        path = _write_json(workdir / f"certify-{i}.json", matrix_doc(A))
        items.append({"name": f"chain{i}", "A": A, "path": path})
    return items


def certify_op(item) -> tuple[int, str, str]:
    return _run_cli(["certify", "--in", item["path"], "-k", str(CERT_K)])


def certify_reference(item) -> dict:
    return {
        "M": ref.minor_table(item["A"], CERT_K),
        "radius": ref.compound_radius(item["A"], CERT_K),
    }


def check_certificate(v: dict, M: np.ndarray, radius: float) -> list[str]:
    """Problems with a certified verdict block against the benchmark's own M."""
    problems = []
    d, xi, z = (np.asarray(v[key], dtype=float) for key in ("d", "xi", "z"))
    if d.size != M.shape[0] or xi.size != M.shape[0] or z.size != M.shape[0]:
        return [f"certificate vectors have length {d.size}, compound is {M.shape[0]}"]
    for key, vec in (("d", d), ("xi", xi), ("z", z)):
        if not np.all(vec > 0.0):
            problems.append(f"{key} has a nonpositive entry")
    if not ref.stein_cholesky(M, d):
        problems.append("diag(d) - M^T diag(d) M fails the Cholesky test")
    if not ref.close(v["compound_spectral_radius"], radius, 1e-9):
        problems.append(
            f"compound radius {v['compound_spectral_radius']!r} is not the product "
            f"of the k largest |eigenvalues| ({radius!r})"
        )
    return problems


def certify_check(item, reference, output) -> list[str]:
    rc, out, _ = output
    if rc != 0:
        return [f"exit code {rc}"]
    v = json.loads(out)["verdicts"]
    if not v.get("certified"):
        return [f"not certified: {v.get('failure')}"]
    problems = []
    r = math.comb(CERT_N, CERT_K)
    if v["k"] != CERT_K or v["r"] != r:
        problems.append(f"k, r = {v['k']}, {v['r']}; expected {CERT_K}, {r}")
    return problems + check_certificate(v, reference["M"], reference["radius"])


# ---------------------------------------------------------------------------
# verdict-batch: one small matrix through the four verdict functions

# The paper's worked examples, each sign-regular of order 2 with signature +1.
PAPER_EXAMPLES = {
    "ex1": np.array([[-4.0, -2.0, 1.0], [1.0, -3.0, -5.0], [7.0, 1.0, -2.0]]) / 7.0,
    "ex3": np.array([[-4.0, -2.0, 0.0], [0.0, -3.0, -5.0], [7.0, 0.0, -2.0]]) / 8.0,
    "ex4": np.array([[0.1, 1.9, 0.0], [0.0, 0.05, 1.95], [-0.01, 0.0, 2.01]]),
}
# Example 1 admits no diagonal Lyapunov function: the DT screen fails at
# the principal minor {1,3} of its Cayley transform, whose value is -8/461.
EX1_SCREEN = ((1, 3), -8.0 / 461.0)
SCALES = (1e-6, 1e6)
VERDICT_SIZES = (4, 5, 6, 7)


def _dominant(rng, n: int, signs: np.ndarray) -> np.ndarray:
    """Diagonal in [0.4, 0.6], off-diagonal row sums below 0.3.

    Every eigenvalue then lies in [0.1, 0.9] in modulus (Gershgorin), and
    ||A||_2 <= 0.9, so D = I is a Stein certificate.
    """
    A = signs * rng.uniform(0.01, 0.3 / (n - 1), (n, n))
    np.fill_diagonal(A, rng.uniform(0.4, 0.6, n))
    return A


def _positive(rng, n):
    return _dominant(rng, n, np.ones((n, n)))


def _mixed(rng, n):
    # a12 > 0, a13 > 0, a23 < 0 fix the 2-minor of rows {1,2} cols {2,3}
    # below -a13*a22 < 0, while rows {1,2} cols {1,2} stays positive.
    signs = rng.choice((-1.0, 1.0), (n, n))
    signs[0, 1], signs[0, 2], signs[1, 2] = 1.0, 1.0, -1.0
    return _dominant(rng, n, signs)


def _tridiagonal_tp(rng, n):
    """L D U with positive unit bidiagonal factors: totally positive, rho in [0.5, 0.9]."""
    L = np.eye(n) + np.diag(rng.uniform(0.1, 0.5, n - 1), -1)
    U = np.eye(n) + np.diag(rng.uniform(0.1, 0.5, n - 1), 1)
    A = L @ np.diag(rng.uniform(0.3, 0.6, n)) @ U
    rho = float(np.max(np.abs(np.linalg.eigvals(A))))
    return A * (rng.uniform(0.5, 0.9) / rho)


def _bidiagonal_unstable(rng, n):
    """Upper bidiagonal, eigenvalues in [0.2, 0.8] but the last two in [1.2, 1.5].

    The Cayley transform is triangular with diagonal (1+l)/(1-l), so the DT
    screen always fails at the order-1 minor {n-1}: the same work every seed.
    """
    lam = rng.uniform(0.2, 0.8, n)
    lam[-2:] = rng.uniform(1.2, 1.5, 2)
    return np.diag(lam) + np.diag(rng.uniform(0.1, 0.5, n - 1), 1)


# (category, order k, generator)
SEEDED = (
    ("pos-k1", 1, _positive),
    ("neg-k1", 1, lambda rng, n: -_positive(rng, n)),
    ("mixed-k1", 1, _mixed),
    ("mixed-k2", 2, _mixed),
    ("tri-k2", 2, _tridiagonal_tp),
    ("tri-k3", 3, _tridiagonal_tp),
    ("unstable-k2", 2, _bidiagonal_unstable),
)


def verdict_pool(seed: int, workdir: Path) -> list[dict]:
    """Seeded matrices and the paper's examples, each with its J A J copy,
    plus x1e-6 and x1e6 copies of the examples for the two sign verdicts."""
    rng = _rng(seed, 2)
    bases = [(f"{cat}-n{n}", k, gen(rng, n)) for n in VERDICT_SIZES for cat, k, gen in SEEDED]
    bases += [(name, 2, A) for name, A in PAPER_EXAMPLES.items()]
    items = []
    for name, k, A in bases:
        items.append({"name": name, "k": k, "A": A, "base": A, "mode": "full"})
        items.append({"name": name + "-JAJ", "k": k, "A": A[::-1, ::-1].copy(), "base": A, "mode": "full"})
    for name, A in PAPER_EXAMPLES.items():
        for s in SCALES:
            items.append({"name": f"{name}-x{s:g}", "k": 2, "A": s * A, "base": A,
                          "mode": "sign", "scale": s})
    return items


def _call(fn, *args):
    try:
        return fn(*args)
    except KposiError as exc:
        return exc


def verdict_op(item) -> dict:
    A, k = item["A"], item["k"]
    out = {
        "classify": _call(kposi.classify_sign_regularity, A, k),
        "kpos": _call(kposi.is_k_positive_system, A, k),
    }
    if item["mode"] == "full":
        out["certify"] = _call(kposi.certify_k_diag_stability, A, k)
        out["screen"] = _call(kposi.necessary_dt_diag, A)
    return out


def verdict_reference(item) -> dict:
    A, k = item["A"], item["k"]
    minors = ref.minor_table(A, k)
    verdict, signature = ref.sign_verdict(ref.minor_table(item["base"], k))
    r = {"minors": minors, "verdict": verdict, "signature": signature}
    if item["mode"] == "full":
        r["radius"] = ref.compound_radius(A, k)
        r["screen"] = ref.first_failing_principal_minor(ref.cayley(A))
    return r


def _minor_at(minors, n: int, rows, cols) -> float:
    return float(minors[ref.subset_rank(rows, n), ref.subset_rank(cols, n)])


def _check_witness(w, minors, n, label) -> list[str]:
    own = _minor_at(minors, n, w.rows.indices, w.cols.indices)
    scale = float(np.max(np.abs(minors)))
    if not ref.close(w.value, own, 1e-9, 1e-12 * scale):
        return [f"{label} value {w.value!r} is not the minor {own!r} it names"]
    return []


def _check_sign_class(sc, item, reference) -> list[str]:
    n = item["A"].shape[0]
    minors = reference["minors"]
    if (sc.verdict, sc.signature) != (reference["verdict"], reference["signature"]):
        return [
            f"classify gave {sc.verdict}/{sc.signature}, own minors give "
            f"{reference['verdict']}/{reference['signature']}"
        ]
    problems = _check_witness(sc.witness_min, minors, n, "witness_min")
    smallest = float(np.min(np.abs(minors)))
    if not ref.close(abs(sc.witness_min.value), smallest, 1e-9, 1e-12 * float(np.max(np.abs(minors)))):
        problems.append(f"witness_min |{sc.witness_min.value!r}| is not the smallest |minor| {smallest!r}")
    if sc.verdict == "NONE":
        band = ref.REL_BAND * float(np.max(np.abs(minors)))
        pos, neg = sc.witness_conflict
        problems += _check_witness(pos, minors, n, "conflict witness +")
        problems += _check_witness(neg, minors, n, "conflict witness -")
        if not (pos.value > band and neg.value < -band):
            problems.append("conflict witnesses are not of strictly opposite sign")
    return problems


def _check_certify(cert, item, reference) -> list[str]:
    k, n = item["k"], item["A"].shape[0]
    minors = reference["minors"]
    name = type(cert).__name__
    if reference["verdict"] == "NONE":
        if getattr(cert, "reason", None) != "NOT_SIGN_REGULAR":
            return [f"certify gave {name}, expected NOT_SIGN_REGULAR"]
        w = cert.witness
        problems = _check_witness(w, minors, n, "certify witness")
        if not w.value < 0.0:
            problems.append(f"certify witness {w.value!r} is not negative")
        return problems
    if reference["radius"] >= 1.0:
        if getattr(cert, "reason", None) != "COMPOUND_NOT_SCHUR":
            return [f"certify gave {name}, expected COMPOUND_NOT_SCHUR"]
        if not ref.close(cert.compound_spectral_radius, reference["radius"], 1e-9):
            return [f"compound radius {cert.compound_spectral_radius!r} != {reference['radius']!r}"]
        return []
    if name != "KDiagCertificate":
        return [f"certify gave {getattr(cert, 'reason', name)}, expected a certificate"]
    problems = []
    if cert.sign_flipped != (reference["signature"] == -1):
        problems.append(f"sign_flipped={cert.sign_flipped} with signature {reference['signature']}")
    v = {"d": cert.d, "xi": cert.xi, "z": cert.z, "compound_spectral_radius": cert.compound_spectral_radius}
    return problems + check_certificate(v, minors, reference["radius"])


def _check_screen(rep, item, reference, certified: bool) -> list[str]:
    own = reference["screen"]
    got = None if rep.passed else (rep.failing_minor[0].indices, rep.failing_minor[1])
    if (own is None) != (got is None):
        return [f"screen passed={rep.passed}, own principal minors say passed={own is None}"]
    problems = []
    if got is not None and (got[0] != own[0] or not ref.close(got[1], own[1], 1e-8, 1e-12)):
        problems.append(f"screen fails at {got}, own scan fails at {own}")
    if item["k"] == 1 and certified and not rep.passed:
        problems.append("DT screen fails on a matrix certified at k=1")
    if item["name"] == "ex1":
        if got is None or got[0] != EX1_SCREEN[0] or abs(got[1] - EX1_SCREEN[1]) > 1e-9:
            problems.append(f"Example 1 screen gave {got}, the paper has {EX1_SCREEN}")
    return problems


def verdict_faults(item, output) -> set[str]:
    """The outputs of an x1e-6 copy that show the program's absolute zero floor.

    classify_sign_regularity returning ALL_ZERO, and is_k_positive_system
    refusing the matrix as singular (see README).  Nothing else counts, and
    nothing on any other input.
    """
    if item.get("scale") != 1e-6:
        return set()
    found = set()
    if getattr(output["classify"], "verdict", None) == "ALL_ZERO":
        found.add("classify")
    kp = output["kpos"]
    if isinstance(kp, KposiError) and "singular" in str(kp):
        found.add("kpos")
    return found


def verdict_check(item, reference, output) -> list[str]:
    """Problems with one op's outputs, leaving out those verdict_faults names."""
    faults = verdict_faults(item, output)
    problems = []
    for key, value in output.items():
        if key not in faults and isinstance(value, Exception):
            problems.append(f"{key} raised {type(value).__name__}: {value}")
    if problems:
        return problems
    if "classify" not in faults:
        problems += _check_sign_class(output["classify"], item, reference)
    kp = output["kpos"]
    if "kpos" not in faults and (kp.k_positive, kp.strongly_k_positive) != (
        reference["verdict"] in ("SR", "SSR"),
        reference["verdict"] == "SSR",
    ):
        problems.append(f"k-positivity {kp.k_positive}/{kp.strongly_k_positive} "
                        f"disagrees with verdict {reference['verdict']}")
    if item["mode"] == "full":
        cert = output["certify"]
        problems += _check_certify(cert, item, reference)
        certified = type(cert).__name__ == "KDiagCertificate"
        problems += _check_screen(output["screen"], item, reference, certified)
    return problems


# ---------------------------------------------------------------------------
# wedge-sim: `kposi wedge-sim --certify` on four small systems per op

WEDGE_STEPS = 2000
# (n, k, map kind, exponent); the same four shapes for every seed, so every
# op does the same work.
WEDGE_SHAPES = ((3, 2, "power", 1.0005), (4, 3, "table", None), (5, 2, "power", 1.001), (6, 3, "table", None))
POWER_BOX = 0.5
TABLE_BOX = 1.0


def _system(rng, n, k, kind, p):
    # A signed cyclic shift with a small diagonal: alpha_i < 0.002 and
    # alpha_i + beta_i in [0.98, 0.99].  With corner sign (-1)^(k+1) the
    # chain is sign-regular of order k, and ||A||_inf <= 0.99 gives
    # rho(A^(k)) <= 0.99^k < 1, so --certify succeeds.  The eigenvalues all
    # lie within 0.002 of the circle of radius (prod beta_i)^(1/n), so the k
    # trajectories keep turning instead of lining up: the wedge stays within
    # a few decades of the product of the state norms, and V stays in the
    # normal floating-point range for all WEDGE_STEPS steps.
    alphas = rng.uniform(0.0, 0.0005, n)
    betas = rng.uniform(0.998, 0.999, n) - alphas
    A = cyclic_chain(alphas, betas, corner_sign=(-1.0) ** (k + 1))
    if kind == "power":
        # The same power map on every coordinate (odd-extended, p is not an
        # integer) is multiplicative, phi(a)phi(b) = phi(ab).  A 2-wedge
        # coordinate u - v (|u|, |v| <= s^2) therefore maps to phi(u) - phi(v),
        # and |phi(u) - phi(v)| <= p s^(2(p-1)) |u - v| <= |u - v| for s = 1/2.
        # |phi(z)| <= s^p on the box, so ||A||_inf s^p <= s keeps it invariant.
        # p stays near 1: log|x| grows like p^j, so a larger p would drive
        # the states to 0 long before the last step.
        s = POWER_BOX
        maps = [{"kind": "power", "p": p}] * n
    else:
        # Linear gains c_i <= 1: every k-wedge coordinate is scaled by a
        # product of gains, and ||A||_inf c_i <= 1 keeps the box invariant.
        s = TABLE_BOX
        gains = rng.uniform(0.9995, 1.0, n)
        maps = [
            {"kind": "table", "points": [[z, c * z] for z in (-s, -s / 2, 0.0, s / 2, s)]}
            for c in gains
        ]
    initials = rng.uniform(-0.9 * s, 0.9 * s, (n, k))
    return A, maps, s, initials


def wedge_pool(seed: int, workdir: Path) -> list[dict]:
    rng = _rng(seed, 3)
    systems = []
    for i, (n, k, kind, p) in enumerate(WEDGE_SHAPES):
        A, maps, s, initials = _system(rng, n, k, kind, p)
        sys_path = _write_json(workdir / f"system-{i}.json",
                               {"A": matrix_doc(A), "maps": maps, "domain": [-s, s]})
        init_path = _write_json(workdir / f"initials-{i}.json", matrix_doc(initials))
        systems.append({"A": A, "k": k, "maps": maps, "initials": initials,
                        "argv": ["wedge-sim", "--system", sys_path, "--initials", init_path,
                                 "-k", str(k), "--steps", str(WEDGE_STEPS), "--certify"]})
    return [{"name": "bundle", "systems": systems}]


def wedge_op(item) -> list[tuple[int, str, str]]:
    return [_run_cli(s["argv"]) for s in item["systems"]]


def wedge_reference(item) -> list[dict]:
    out = []
    for s in item["systems"]:
        Y, H = ref.wedge_series(s["A"], s["maps"], s["initials"], WEDGE_STEPS)
        out.append({"M": ref.minor_table(s["A"], s["k"]), "y2": Y * Y, "h2": H * H})
    return out


def _read_v_column(text: str) -> np.ndarray:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0][:2] != ["j", "V"]:
        raise ValueError(f"CSV header {rows[:1]}")
    if [int(r[0]) for r in rows[1:]] != list(range(len(rows) - 1)):
        raise ValueError("CSV step column is not 0, 1, 2, ...")
    return np.array([float(r[1]) for r in rows[1:]])


def check_wedge_run(system, reference, output) -> list[str]:
    rc, out, err = output
    if rc != 0:
        return [f"exit code {rc}: {err.strip()[-200:]}"]
    v = json.loads(err.strip().splitlines()[-1])["verdicts"]
    if v["exit_step"] is not None:
        return [f"trajectory left the invariant box at step {v['exit_step']}"]
    if v["certificate"] is None:
        return ["no certificate was used"]
    d = np.asarray(v["d_used"], dtype=float)
    problems = []
    if not (np.all(d > 0.0) and ref.stein_cholesky(reference["M"], d)):
        problems.append("d_used is not a diagonal Stein certificate of A^(k)")
    try:
        V = _read_v_column(out)
    except ValueError as exc:
        return problems + [str(exc)]
    own = reference["y2"] @ d
    if V.shape != own.shape:
        return problems + [f"CSV has {V.size} steps, expected {own.size}"]
    # Rounding floor of step j: a k-minor of the states is computed to
    # about eps times the product of the state norms (Hadamard's bound), so
    # V(j) to about eps * sum(d) * H(j)^2.  1e-12 leaves room for the
    # rounding the two simulations pick up over WEDGE_STEPS steps.
    floor = 1e-12 * float(np.sum(d)) * reference["h2"]
    bad = np.nonzero(np.abs(V - own) > 1e-8 * own + floor)[0]
    if bad.size:
        j = int(bad[0])
        problems.append(f"V({j}) = {V[j]!r}, own y^T D y = {own[j]!r}")
    rises = np.nonzero(np.diff(V) > floor[:-1] + floor[1:])[0]
    if rises.size:
        problems.append(f"V increases at step {int(rises[0]) + 1}")
    return problems


def wedge_check(item, reference, output) -> list[str]:
    problems = []
    for i, (s, r, o) in enumerate(zip(item["systems"], reference, output)):
        problems += [f"system {i}: {p}" for p in check_wedge_run(s, r, o)]
    return problems


WORKLOADS = {
    w.name: w
    for w in (
        Workload("certify-large", certify_pool, certify_op, certify_reference, certify_check),
        Workload("verdict-batch", verdict_pool, verdict_op, verdict_reference, verdict_check,
                 verdict_faults),
        Workload("wedge-sim", wedge_pool, wedge_op, wedge_reference, wedge_check),
    )
}
