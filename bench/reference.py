"""Computations the benchmark checks the program's outputs against.

Nothing here calls kposi.  Minors come from Laplace expansion along the
first row, built order by order from the (q-1)-minors, which shares no
code or method with the program's gathered LU determinants.  Definiteness
is decided by a Cholesky factorisation, spectra by numpy's eigvals, and
trajectories by a plain re-simulation.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

# Zero band for the benchmark's own sign verdicts: relative to the largest
# |minor|, with no absolute floor, so a positive scaling cannot move it.
REL_BAND = 1e-9


def index_sets(n: int, q: int) -> np.ndarray:
    """0-based q-subsets of range(n) in lexicographic order, shape (C(n,q), q)."""
    return np.array(list(combinations(range(n), q)), dtype=np.intp).reshape(-1, q)


def _rank_lookup(n: int, sets: np.ndarray) -> np.ndarray:
    lookup = np.full(1 << n, -1, dtype=np.intp)
    lookup[(1 << sets).sum(axis=1)] = np.arange(sets.shape[0])
    return lookup


def minor_table(A, q: int) -> np.ndarray:
    """All q-minors of A, rows and columns in lexicographic subset order.

    Order p is expanded along the first row of each p-row set:
    det A[R|C] = sum_j (-1)^j A[R_0, C_j] det A[R \\ R_0 | C \\ C_j].
    """
    A = np.asarray(A, dtype=float)
    n, m = A.shape
    if not 1 <= q <= min(n, m):
        raise ValueError(f"order {q} out of range for shape {A.shape}")
    table = A.copy()
    prev_r = _rank_lookup(n, index_sets(n, 1))
    prev_c = _rank_lookup(m, index_sets(m, 1))
    for p in range(2, q + 1):
        R = index_sets(n, p)
        C = index_sets(m, p)
        r_mask = (1 << R).sum(axis=1)
        c_mask = (1 << C).sum(axis=1)
        r_rest = prev_r[r_mask ^ (1 << R[:, 0])]
        nxt = np.zeros((R.shape[0], C.shape[0]))
        for j in range(p):
            c_rest = prev_c[c_mask ^ (1 << C[:, j])]
            term = A[R[:, 0][:, None], C[:, j][None, :]] * table[r_rest[:, None], c_rest[None, :]]
            nxt += term if j % 2 == 0 else -term
        table = nxt
        prev_r = _rank_lookup(n, R)
        prev_c = _rank_lookup(m, C)
    return table


def subset_rank(indices, n: int) -> int:
    """Lexicographic rank of a 1-based strictly increasing index tuple."""
    target = tuple(int(i) - 1 for i in indices)
    for r, c in enumerate(combinations(range(n), len(target))):
        if c == target:
            return r
    raise ValueError(f"{indices} is not a subset of [1, {n}]")


def sign_verdict(minors: np.ndarray) -> tuple[str, int | None]:
    """(verdict, signature) of a minor table under the relative zero band."""
    flat = np.ravel(minors)
    band = REL_BAND * float(np.max(np.abs(flat)))
    pos = flat > band
    neg = flat < -band
    if pos.any() and neg.any():
        return "NONE", None
    if not pos.any() and not neg.any():
        return "ALL_ZERO", None
    strict = bool(pos.all() or neg.all())
    return ("SSR" if strict else "SR"), (1 if pos.any() else -1)


def stein_cholesky(M, d) -> bool:
    """True when diag(d) - M^T diag(d) M admits a Cholesky factorisation."""
    M = np.asarray(M, dtype=float)
    d = np.asarray(d, dtype=float)
    gap = np.diag(d) - M.T @ (d[:, None] * M)
    try:
        np.linalg.cholesky(0.5 * (gap + gap.T))
    except np.linalg.LinAlgError:
        return False
    return True


def compound_radius(A, k: int) -> float:
    """Spectral radius of A^(k): the product of the k largest |eigenvalues| of A."""
    mods = np.sort(np.abs(np.linalg.eigvals(np.asarray(A, dtype=float))))[::-1]
    return float(np.prod(mods[:k]))


def close(a: float, b: float, rtol: float, atol: float = 0.0) -> bool:
    return abs(float(a) - float(b)) <= atol + rtol * max(abs(float(a)), abs(float(b)))


def cayley(A) -> np.ndarray:
    """-(A + I)(A - I)^{-1}, by a solve against (A - I)^T."""
    A = np.asarray(A, dtype=float)
    eye = np.eye(A.shape[0])
    return np.linalg.solve((A - eye).T, -(A + eye).T).T


def first_failing_principal_minor(B) -> tuple[tuple[int, ...], float] | None:
    """First principal minor <= 0 in (order, lexicographic) scan order, 1-based."""
    B = np.asarray(B, dtype=float)
    n = B.shape[0]
    for q in range(1, n + 1):
        values = np.diag(minor_table(B, q))
        bad = np.nonzero(~(values > 0.0))[0]
        if bad.size:
            i = int(bad[0])
            return tuple(int(v) + 1 for v in index_sets(n, q)[i]), float(values[i])
    return None


def scalar_map(spec: dict):
    """Callable for a system-document map: a power (odd-extended when the
    exponent is not an integer) or a table whose breakpoints are collinear."""
    if spec["kind"] == "power":
        p = float(spec["p"])
        if p.is_integer():
            return lambda z: z ** int(p)
        return lambda z: np.sign(z) * np.abs(z) ** p
    if spec["kind"] == "table":
        (z0, v0) = spec["points"][-1]
        gain = v0 / z0
        return lambda z: gain * z
    raise ValueError(f"no reference for map kind {spec['kind']!r}")


def wedge_series(A, maps, initials, steps: int) -> tuple[np.ndarray, np.ndarray]:
    """Wedge coordinates y(j) and state-norm products H(j), j = 0..steps.

    initials is (n, k), one start per column; each of the k runs follows
    x(j+1) = A phi(x(j)).  Row j of y holds the k-minors of the n x k state
    matrix, which are the wedge coordinates, and V(j) = y(j)^T D y(j).
    H(j) is the product of the k states' Euclidean norms, which bounds
    every |y_i(j)| (Hadamard's inequality).
    """
    A = np.asarray(A, dtype=float)
    phis = [scalar_map(m) for m in maps]
    X = np.array(initials, dtype=float)
    n, k = X.shape
    rows, norms = [], []
    for _ in range(steps + 1):
        rows.append(minor_table(X, k)[:, 0])
        norms.append(float(np.prod(np.linalg.norm(X, axis=0))))
        X = A @ np.array([phis[i](X[i]) for i in range(n)])
    return np.array(rows), np.array(norms)
