"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here, not configurable.
"""

import time
from itertools import combinations

import numpy as np
import pytest

from kposi import (
    CertificationFailure,
    KDiagCertificate,
    NonlinearSystem,
    ScalarMap,
    certify_k_diag_stability,
    check_k_content_preserving,
    classify_sign_regularity,
    dlf_compound,
    is_positive_definite,
    is_schur,
    lex_index_sets,
    minor_table,
    mult_compound,
    necessary_ct_diag,
    necessary_dt_diag,
    sign_variations,
    simulate,
    solve_top_compound_diagonal,
    spectral_report,
    stein_holds,
    wedge_trajectory,
)
from kposi.cli import parse_matrix_document
from kposi.cyclic import CyclicSpec, build_cyclic
from kposi.examples import (
    CERT_3X3,
    CERT_D_REF,
    CERT_P_REF,
    CT_NO_DLF,
    CYCLIC_WEDGE,
    WEDGE_A1,
    WEDGE_A2,
)

from oracles import brute_force_splus, random_diagonally_stable, well_conditioned


def report(num: int, label: str, checks: dict):
    ok = all(checks.values())
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} {label}")
    failed = {name: value for name, value in checks.items() if not value}
    assert ok, f"criterion {num} failed sub-checks: {sorted(failed)}"


def test_criterion_1_dt_no_dlf_regression():
    doc = {
        "rows": 3,
        "cols": 3,
        "scale": "1/7",
        "data": [[-4, -2, 1], [1, -3, -5], [7, 1, -2]],
    }
    A = parse_matrix_document(doc)
    checks = {}
    checks["schur"] = is_schur(A).ok
    sc = classify_sign_regularity(A, 2)
    checks["ssr2"] = sc.verdict == "SSR" and sc.signature == 1
    rep = necessary_dt_diag(A)
    checks["screen_fails"] = not rep.passed
    checks["witness_kappa"] = rep.failing_minor is not None and rep.failing_minor[0].indices == (1, 3)
    checks["witness_value"] = (
        rep.failing_minor is not None
        and abs(rep.failing_minor[1] - (-8.0 / 461.0)) <= 1e-9
    )
    report(1, "stable strongly-2-positive matrix fails the DT necessity screen at {1,3}", checks)


def test_criterion_2_ct_no_dlf_regression():
    rep = necessary_ct_diag(CT_NO_DLF)
    checks = {
        "screen_fails": not rep.passed,
        "witness_kappa": rep.failing_minor is not None and rep.failing_minor[0].indices == (2, 3),
        "witness_value": rep.failing_minor is not None
        and abs(rep.failing_minor[1] - (-150.0)) <= 1e-9,
    }
    report(2, "CT counterpart fails the negated-matrix screen at {2,3} = -150", checks)


def test_criterion_3_certificate_and_recovery_end_to_end():
    A = CERT_3X3
    checks = {}
    checks["a_schur"] = is_schur(A).ok
    sc = classify_sign_regularity(A, 2)
    checks["b_ssr2"] = sc.verdict == "SSR" and sc.signature == 1
    stein2 = stein_holds(mult_compound(A, 2), CERT_D_REF)
    checks["c_stein_compound"] = stein2.ok and stein2.margin > 0.0
    p = solve_top_compound_diagonal(CERT_D_REF)
    checks["d_recovery"] = bool(np.all(np.abs(p - CERT_P_REF) <= 1e-12))
    checks["e_stein_original"] = stein_holds(A, p).ok
    report(3, "order-2 certificate, top-compound recovery, and full DLF verification", checks)


def test_criterion_4_unstable_cyclic_wedge_demo():
    A = CYCLIC_WEDGE
    checks = {}
    checks["a_radius_two"] = abs(spectral_report(A).spectral_radius - 2.0) <= 1e-9
    M = mult_compound(A, 2)
    checks["b_compound_nonneg"] = float(np.min(M)) >= -1e-12
    checks["b_compound_schur"] = is_schur(M).ok
    cert = certify_k_diag_stability(A, 2)
    checks["c_certified"] = isinstance(cert, KDiagCertificate)
    if isinstance(cert, KDiagCertificate):
        sys_ = NonlinearSystem(A, tuple(ScalarMap.power(2) for _ in range(3)), (-0.5, 0.5))
        traj = wedge_trajectory(sys_, 2, [WEDGE_A1, WEDGE_A2], cert.d, 5)
        diffs = np.diff(traj.v_series[1:6])
        checks["d_v_strictly_decreasing"] = bool(np.all(diffs < -1e-12))
        inside = True
        for a in (WEDGE_A1, WEDGE_A2):
            res = simulate(sys_, a, 20)
            inside = inside and res.exit_step is None and res.states.shape[0] == 21
        checks["e_box_invariant_20_steps"] = inside
    report(4, "radius-2 cyclic matrix: certificate plus decreasing wedge Lyapunov series", checks)


def test_criterion_5_sign_variation_unit_and_oracle_agreement():
    checks = {}
    checks["gap_vector_exact"] = sign_variations([1.3, 0.0, 0.0, -np.pi]) == (1, 3)
    rng = np.random.default_rng(2024)
    agree = True
    for _ in range(10000):
        n = int(rng.integers(1, 11))
        x = rng.standard_normal(n)
        x[rng.random(n) < 0.3] = 0.0
        _, s_plus = sign_variations(x)
        if s_plus != brute_force_splus(x):
            agree = False
            break
    checks["dp_matches_enumeration_10000"] = agree
    report(5, "sign-variation counts: unit values and exhaustive-completion agreement", checks)


def test_criterion_6_compound_property_suite():
    start = time.monotonic()
    rng = np.random.default_rng(777)
    checks = {
        "multiplicative": True,
        "transpose": True,
        "inverse": True,
        "diagonal": True,
        "eigenvalue_products": True,
        "schur_preserved": True,
        "pd_preserved": True,
    }
    for _ in range(500):
        n = int(rng.integers(2, 7))
        A = rng.standard_normal((n, n))
        B = rng.standard_normal((n, n))
        W = well_conditioned(rng, n)
        Winv = np.linalg.inv(W)
        diag = rng.uniform(-2.0, 2.0, n)
        S = rng.standard_normal((n, n))
        spd = S @ S.T + 0.2 * np.eye(n)
        schur = A * (rng.uniform(0.2, 0.95) / spectral_report(A).spectral_radius)
        eigs = np.linalg.eigvals(A) if n <= 5 else None
        for k in range(1, n + 1):
            Ak, Bk = mult_compound(A, k), mult_compound(B, k)
            ab = Ak @ Bk
            if np.max(np.abs(mult_compound(A @ B, k) - ab)) > 1e-8 * max(1.0, np.max(np.abs(ab))):
                checks["multiplicative"] = False
            if np.max(np.abs(mult_compound(A.T, k) - Ak.T)) > 1e-12:
                checks["transpose"] = False
            prod = mult_compound(Winv, k) @ mult_compound(W, k)
            if np.max(np.abs(prod - np.eye(prod.shape[0]))) > 1e-7:
                checks["inverse"] = False
            Dk = mult_compound(np.diag(diag), k)
            expected = [np.prod(diag[np.array(s.indices) - 1]) for s in lex_index_sets(k, n)]
            if np.max(np.abs(Dk - np.diag(expected))) > 1e-12:
                checks["diagonal"] = False
            if eigs is not None:
                comp_eigs = spectral_report(mult_compound(A, k)).eigenvalues
                for subset in combinations(range(n), k):
                    target = complex(np.prod(eigs[list(subset)]))
                    if np.min(np.abs(comp_eigs - target)) > 1e-6 * max(1.0, abs(target)):
                        checks["eigenvalue_products"] = False
            if spectral_report(mult_compound(schur, k)).spectral_radius >= 1.0:
                checks["schur_preserved"] = False
            if not is_positive_definite(mult_compound(spd, k)).ok:
                checks["pd_preserved"] = False
    elapsed = time.monotonic() - start
    checks["runtime_under_30s"] = elapsed <= 30.0
    report(6, f"compound identities over 500 random pairs ({elapsed:.1f}s)", checks)


def test_criterion_7_diagonal_stability_propagates_to_compounds():
    rng = np.random.default_rng(4242)
    ok = True
    for _ in range(100):
        n = int(rng.integers(2, 7))
        A, p = random_diagonally_stable(rng, n)
        for k in range(1, n):
            check = stein_holds(mult_compound(A, k), dlf_compound(p, k))
            ok = ok and check.ok and check.margin > 1e-10
    report(7, "100 diagonally stable draws certify every compound order", {"all_margins": ok})


def test_criterion_8_top_compound_round_trip():
    rng = np.random.default_rng(31337)
    worst = 0.0
    for _ in range(500):
        n = int(rng.integers(2, 9))
        d = np.exp(rng.uniform(np.log(1e-6), np.log(1e6), n))
        p = solve_top_compound_diagonal(d)
        recon = dlf_compound(p, n - 1)
        worst = max(worst, float(np.max(np.abs(recon - d) / d)))
    report(8, f"500 top-compound inversions round-trip (worst rel err {worst:.2e})",
           {"rel_error_1e-10": worst <= 1e-10})


def test_criterion_9_cyclic_minor_signs_and_certification():
    rng = np.random.default_rng(909)
    checks = {"even_minors_nonneg": True, "odd_entrywise_nonneg": True, "schur_compound_certifies": True}
    for n in range(2, 8):
        for ell in range(1, n):
            for _ in range(200):
                spec = CyclicSpec(
                    n=n,
                    alphas=tuple(rng.uniform(0.0, 1.2, n)),
                    betas=tuple(rng.uniform(0.0, 1.2, n)),
                    ell=ell,
                )
                A = build_cyclic(spec)
                if ell % 2 == 0:
                    minors = minor_table(A, ell)
                    scale = max(1.0, float(np.max(np.abs(minors))))
                    if float(np.min(minors)) < -1e-10 * scale:
                        checks["even_minors_nonneg"] = False
                else:
                    if float(np.min(A)) < 0.0:
                        checks["odd_entrywise_nonneg"] = False
                if spectral_report(mult_compound(A, ell)).spectral_radius < 1.0 - 1e-9:
                    cert = certify_k_diag_stability(A, ell)
                    if isinstance(cert, CertificationFailure):
                        checks["schur_compound_certifies"] = False
    report(9, "cyclic sweep: 200 draws per (n, ell) up to n=7", checks)


def test_criterion_10_content_preserving_checks():
    checks = {}
    sys_sq = NonlinearSystem(
        CYCLIC_WEDGE, tuple(ScalarMap.power(2) for _ in range(3)), (-0.5, 0.5)
    )
    checks["squared_maps_pass_k2"] = check_k_content_preserving(sys_sq, 2, seed=11).passed

    sys_id = NonlinearSystem(np.eye(3), (ScalarMap.identity(),) * 3, (-1.0, 1.0))
    checks["identity_passes_all_k"] = all(
        check_k_content_preserving(sys_id, k, seed=12).passed for k in (1, 2)
    )

    sys_bad = NonlinearSystem(
        np.eye(3), (ScalarMap.linear(2.0),) * 3, (-1.0, 1.0), validate=False
    )
    rep = check_k_content_preserving(sys_bad, 1, seed=13)
    ce = rep.counterexample
    checks["doubling_fails_with_witness"] = (
        not rep.passed
        and ce is not None
        and abs(ce.q) > abs(ce.p)
        and ce.vectors.shape == (1, 3)
    )
    report(10, "content-preservation sampling: squared maps pass, doubling map indicted", checks)
