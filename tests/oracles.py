"""Independent oracles the tests check the library against.

Each helper deliberately avoids the code path it validates: sign-variation
counts by exhaustive completion, determinants by the permutation-sum
formula, definiteness by leading principal minors, diagonal Stein
certificates by random search, and sign verdicts by entrywise masks.
"""

from itertools import permutations, product

import numpy as np


def brute_force_splus(x) -> int:
    """Max sign changes over every +/-1 completion of the zero entries (n <= 12)."""
    x = np.asarray(x, dtype=float)
    assert x.size <= 12, "exhaustive completion oracle is limited to n <= 12"
    zero_pos = np.nonzero(x == 0.0)[0]
    base = np.sign(x)
    best = 0
    for fill in product((1.0, -1.0), repeat=zero_pos.size):
        s = base.copy()
        s[zero_pos] = fill
        best = max(best, int(np.count_nonzero(s[:-1] * s[1:] < 0.0)))
    return best


def count_sign_changes_no_zeros(x) -> int:
    """Sign changes of a vector after dropping its zero entries.

    Neighbours are compared through np.sign, so tiny or huge entries
    cannot underflow or overflow the product.
    """
    x = np.asarray(x, dtype=float)
    nz = np.sign(x[x != 0.0])
    if nz.size == 0:
        return 0
    return int(np.count_nonzero(nz[:-1] * nz[1:] < 0.0))


def leibniz_det(M) -> float:
    """Determinant via the permutation sum; independent of any LU code (n <= 6)."""
    M = np.asarray(M, dtype=float)
    n = M.shape[0]
    assert n <= 6
    total = 0.0
    for perm in permutations(range(n)):
        sgn = 1.0
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sgn = -sgn
        term = sgn
        for i in range(n):
            term *= M[i, perm[i]]
        total += term
    return total


def sylvester_positive_definite(M) -> bool:
    """All leading principal minors positive (symmetric input assumed)."""
    M = np.asarray(M, dtype=float)
    return all(
        np.linalg.det(M[: i + 1, : i + 1]) > 0.0 for i in range(M.shape[0])
    )


def search_diagonal_stein(A, rng, tries: int = 200):
    """Random search for positive diagonal d with A^T diag(d) A < diag(d).

    Returns the first hit (including d = ones) or None.  Used only as a
    test oracle; there is no general synthesis for mixed-sign matrices.
    """
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    candidates = [np.ones(n)] + [np.exp(rng.uniform(-2.0, 2.0, n)) for _ in range(tries)]
    for d in candidates:
        gap = np.diag(d) - A.T @ (d[:, None] * A)
        if np.linalg.eigvalsh(0.5 * (gap + gap.T))[0] > 1e-10:
            return d
    return None


def random_diagonally_stable(rng, n: int, sigma: float = 0.9):
    """Draw (A, p) with diag(p) a Stein certificate for A by construction.

    p is a positive diagonal, and A is a p-weighted similarity of a matrix
    with spectral norm sigma < 1, so A^T diag(p) A < diag(p).
    """
    p = rng.uniform(0.5, 2.0, n)
    M = rng.standard_normal((n, n))
    M *= sigma / np.linalg.norm(M, 2)
    A = (p**-0.5)[:, None] * M * (p**0.5)[None, :]
    return A, p


def well_conditioned(rng, n: int, smin: float = 0.5, smax: float = 2.0):
    """Random matrix with singular values in [smin, smax] (for inverse tests)."""
    q1, _ = np.linalg.qr(rng.standard_normal((n, n)))
    q2, _ = np.linalg.qr(rng.standard_normal((n, n)))
    s = rng.uniform(smin, smax, n)
    return q1 @ np.diag(s) @ q2


def mask_sign_verdict(M, tol: float):
    """(verdict, signature, i_max, i_min, i_small) of a table, by entrywise masks.

    An entry is zero when |v| <= tol * max(1, max |M|).  The verdict is
    "NONE" when some entry is positive and some negative beyond that
    band, "ALL_ZERO" when none is beyond it, else "SSR" when every entry
    is beyond it on one side and "SR" when not; the signature is that
    side.  i_max, i_min and i_small are the C-order flat indices of the
    first largest, first smallest and first smallest-magnitude entries,
    found by a Python scan.
    """
    M = np.asarray(M, dtype=float)
    band = tol * max(1.0, float(np.max(np.abs(M))))
    pos, neg = M > band, M < -band
    if pos.any() and neg.any():
        verdict, signature = "NONE", None
    elif pos.any() or neg.any():
        side = pos if pos.any() else neg
        verdict, signature = ("SSR" if side.all() else "SR"), (1 if pos.any() else -1)
    else:
        verdict, signature = "ALL_ZERO", None
    flat = M.ravel().tolist()
    i_max = i_min = i_small = 0
    for i, v in enumerate(flat):
        if v > flat[i_max]:
            i_max = i
        if v < flat[i_min]:
            i_min = i
        if abs(v) < abs(flat[i_small]):
            i_small = i
    return verdict, signature, i_max, i_min, i_small
