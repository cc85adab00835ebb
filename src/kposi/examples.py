"""The paper's worked examples 1-4: inputs and pinned values, read-only,
plus the checks `kposi paper-examples` prints.  Tests read the same data."""

from collections.abc import Iterator

import numpy as np

from .compound import mult_compound
from .nonlinear import NonlinearSystem, ScalarMap, simulate, wedge_trajectory
from .signreg import classify_sign_regularity
from .stability import (
    CertificationFailure,
    certify_k_diag_stability,
    is_schur,
    necessary_ct_diag,
    necessary_dt_diag,
    solve_top_compound_diagonal,
    stein_holds,
)

# Example 1: mixed-sign, Schur and strongly 2-positive, yet no diagonal
# Lyapunov function: the DT screen (principal minors of the Cayley
# transform) first fails at {1,3}, with value -8/461.
DT_NO_DLF = np.array([[-4.0, -2.0, 1.0], [1.0, -3.0, -5.0], [7.0, 1.0, -2.0]]) / 7.0
DT_SCREEN_WITNESS = ((1, 3), -8.0 / 461.0)

# Example 2: the continuous-time counterpart, Hurwitz and strongly
# 2-positive; the principal minors of -A first fail at {2,3}, with -150.
CT_NO_DLF = np.array([[-21.0, 11.0, -14.0], [18.0, -19.0, 37.0], [-49.0, 21.0, -33.0]])
CT_SCREEN_WITNESS = ((2, 3), -150.0)

# Example 3: Schur, strictly sign-regular of order 2 with signature +1.  D
# certifies its order-2 compound; P, the closed-form solution of P^(2) = D,
# is a diagonal Lyapunov matrix of A.
CERT_3X3 = np.array([[-4.0, -2.0, 0.0], [0.0, -3.0, -5.0], [7.0, 0.0, -2.0]]) / 8.0
CERT_D_REF = np.array([23.0 / 21.0, 13.0 / 8.0, 7.0 / 13.0])
CERT_P_REF = np.sqrt(np.array([3887.0 / 1176.0, 184.0 / 507.0, 147.0 / 184.0]))

# Example 4: cyclic, spectral radius 2, Schur order-2 compound; the wedge of
# the squared-map trajectories from WEDGE_A1 and WEDGE_A2 on [-1/2, 1/2]^3
# has a decreasing Lyapunov function.
CYCLIC_WEDGE = np.array([[0.1, 1.9, 0.0], [0.0, 0.05, 1.95], [-0.01, 0.0, 2.01]])
WEDGE_A1 = 0.5 * np.ones(3)
WEDGE_A2 = np.array([-0.5, 0.5, 0.4])

for _arr in (DT_NO_DLF, CT_NO_DLF, CERT_3X3, CERT_D_REF, CERT_P_REF,
             CYCLIC_WEDGE, WEDGE_A1, WEDGE_A2):
    _arr.setflags(write=False)  # one copy per process, shared by every caller


def _schur_and_ssr2(name: str, A: np.ndarray) -> Iterator[tuple[str, bool, str]]:
    yield f"{name} schur", bool(is_schur(A).ok), ""
    sc = classify_sign_regularity(A, 2)
    ok = sc.verdict == "SSR" and sc.signature == 1
    yield f"{name} strictly sign-regular order 2, signature +1", ok, ""


def _screen_fails_at(rep, witness) -> bool:
    got = rep.failing_minor  # None when the screen passed
    return got is not None and got[0].indices == witness[0] and abs(got[1] - witness[1]) <= 1e-9


def paper_example_checks() -> Iterator[tuple[str, bool, str]]:
    """Run the checks of Examples 1-4 in order, yielding (label, ok, detail)."""
    yield from _schur_and_ssr2("ex1", DT_NO_DLF)
    rep = necessary_dt_diag(DT_NO_DLF)
    ok = _screen_fails_at(rep, DT_SCREEN_WITNESS)
    yield "ex1 dt necessary screen fails at {1,3} = -8/461", ok, f"got {rep.failing_minor}"
    rep = necessary_ct_diag(CT_NO_DLF)
    ok = _screen_fails_at(rep, CT_SCREEN_WITNESS)
    yield "ex2 ct necessary screen fails at {2,3} = -150", ok, f"got {rep.failing_minor}"

    yield from _schur_and_ssr2("ex3", CERT_3X3)
    ok = bool(stein_holds(mult_compound(CERT_3X3, 2), CERT_D_REF).ok)
    yield "ex3 reference D satisfies the compound Stein inequality", ok, ""
    p = solve_top_compound_diagonal(CERT_D_REF)
    ok = bool(np.max(np.abs(p - CERT_P_REF)) <= 1e-12)
    yield "ex3 top-compound recovery matches closed-form P", ok, ""
    ok = bool(stein_holds(CERT_3X3, p).ok)
    yield "ex3 recovered P is a diagonal Lyapunov matrix for A", ok, ""

    rho = is_schur(CYCLIC_WEDGE).spectral_radius
    yield "ex4 spectral radius 2", abs(rho - 2.0) <= 1e-9, f"rho={rho!r}"
    M = mult_compound(CYCLIC_WEDGE, 2)
    ok = float(np.min(M)) >= -1e-12 and bool(is_schur(M).ok)
    yield "ex4 order-2 compound nonnegative and schur", ok, ""
    cert = certify_k_diag_stability(CYCLIC_WEDGE, 2)
    certified = not isinstance(cert, CertificationFailure)
    yield "ex4 order-2 certificate", certified, ""
    if not certified:
        return
    sys4 = NonlinearSystem(CYCLIC_WEDGE, (ScalarMap.power(2),) * 3, (-0.5, 0.5))
    diffs = np.diff(wedge_trajectory(sys4, 2, [WEDGE_A1, WEDGE_A2], cert.d, 5).v_series[1:6])
    ok = bool(np.all(diffs < -1e-12))
    yield "ex4 V strictly decreasing over steps 1..5", ok, f"diffs={diffs}"
    ok = all(simulate(sys4, a, 20).exit_step is None for a in (WEDGE_A1, WEDGE_A2))
    yield "ex4 trajectories stay in the state box for 20 steps", ok, ""
