"""Dense matrix arithmetic shared by the whole toolkit.

Provides index-set combinatorics (lexicographic k-subsets), minors,
spectral data, and positive-definiteness checks.  All interfaces use
1-based row/column indices, matching the usual minor notation; arrays
are converted at the boundary.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from itertools import combinations
from typing import NamedTuple

import numpy as np

from .errors import CapacityError, DomainError, NumericError

# Default tolerances.  Sign tests treat |value| <= tol * scale as zero;
# definiteness tests require an eigenvalue margin above TAU_PD.
TAU_ZERO = 1e-9
TAU_PD = 1e-10

# Hard limit on C(n, k): compound sizes explode combinatorially and we
# prefer a loud failure over exhausting memory.
CAPACITY_LIMIT = 100_000

# Secondary guard on the number of scalars a full minor table may hold.
_TABLE_ENTRY_LIMIT = 50_000_000


def zero_tol(tol: float | None = None) -> float:
    """Resolve a sign-test tolerance.

    Explicit argument wins, then the KPOSI_TOL environment variable,
    then the library default TAU_ZERO.
    """
    if tol is not None:
        return float(tol)
    env = os.environ.get("KPOSI_TOL")
    return float(env) if env else TAU_ZERO


def pd_tol(tol: float | None = None) -> float:
    """Resolve a definiteness margin threshold (default TAU_PD)."""
    if tol is not None:
        return float(tol)
    env = os.environ.get("KPOSI_TOL")
    return float(env) if env else TAU_PD


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a 2-D float array with finite entries."""
    arr = np.asarray(a, dtype=float)
    if arr.ndim != 2:
        raise DomainError(f"{name} must be 2-dimensional, got ndim={arr.ndim}")
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise DomainError(f"{name} must have at least one row and one column")
    if not np.all(np.isfinite(arr)):
        raise DomainError(f"{name} contains NaN or infinite entries")
    return arr


def as_square(a, name: str = "matrix") -> np.ndarray:
    arr = as_matrix(a, name)
    if arr.shape[0] != arr.shape[1]:
        raise DomainError(f"{name} must be square, got shape {arr.shape}")
    return arr


def as_vector(a, name: str = "vector") -> np.ndarray:
    """Coerce to a 1-D float array with finite entries."""
    arr = np.asarray(a, dtype=float)
    if arr.ndim != 1:
        raise DomainError(f"{name} must be 1-dimensional, got ndim={arr.ndim}")
    if arr.size < 1:
        raise DomainError(f"{name} must be nonempty")
    if not np.all(np.isfinite(arr)):
        raise DomainError(f"{name} contains NaN or infinite entries")
    return arr


@dataclass(frozen=True)
class LexIndexSet:
    """A strictly increasing tuple of k indices drawn from [1, n].

    These are the row/column selectors for minors; `indices` is 1-based.
    """

    n: int
    indices: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "indices", tuple(int(i) for i in self.indices))
        k = len(self.indices)
        if not 1 <= k <= self.n:
            raise DomainError(f"index set must pick between 1 and n={self.n} indices")
        prev = 0
        for i in self.indices:
            if i <= prev or i > self.n:
                raise DomainError(
                    f"indices must be strictly increasing within [1, {self.n}], got {self.indices}"
                )
            prev = i

    @property
    def k(self) -> int:
        return len(self.indices)

    def zero_based(self) -> np.ndarray:
        return np.asarray(self.indices, dtype=np.intp) - 1


def compound_size(k: int, n: int) -> int:
    """C(n, k), the order of the k-th compound of an n x n matrix.

    Raises CapacityError beyond CAPACITY_LIMIT, before anything of that
    size is built.
    """
    r = math.comb(n, k)
    if r > CAPACITY_LIMIT:
        raise CapacityError(
            f"C({n},{k}) = {r} exceeds the capacity guard of {CAPACITY_LIMIT}"
        )
    return r


def lex_index_sets(k: int, n: int) -> list[LexIndexSet]:
    """All k-subsets of [1, n] in lexicographic order (length C(n, k))."""
    if not 1 <= k <= n:
        raise DomainError(f"order k={k} must satisfy 1 <= k <= n={n}")
    compound_size(k, n)
    return [LexIndexSet(n, c) for c in combinations(range(1, n + 1), k)]


def lex_array(k: int, n: int) -> np.ndarray:
    """0-based (C(n,k), k) index array in the same lexicographic order."""
    if not 1 <= k <= n:
        raise DomainError(f"order k={k} must satisfy 1 <= k <= n={n}")
    compound_size(k, n)
    return np.array(list(combinations(range(n), k)), dtype=np.intp)


def det_stack(stack: np.ndarray) -> np.ndarray:
    """Determinants of a (..., k, k) stack.

    Orders 1 and 2 use the closed formulas so small regression minors stay
    bit-stable; larger orders go through LU with partial pivoting.
    """
    k = stack.shape[-1]
    if k == 1:
        return stack[..., 0, 0].copy()
    if k == 2:
        return stack[..., 0, 0] * stack[..., 1, 1] - stack[..., 0, 1] * stack[..., 1, 0]
    return np.linalg.det(stack)


def _normalize_selector(sel, n: int, name: str) -> np.ndarray:
    """Accept a LexIndexSet or a 1-based index sequence; return 0-based array."""
    if isinstance(sel, LexIndexSet):
        if sel.n != n:
            raise DomainError(f"{name} index set is over [1,{sel.n}], matrix has {n}")
        return sel.zero_based()
    idx = np.asarray(tuple(sel), dtype=np.intp)
    if idx.ndim != 1 or idx.size < 1:
        raise DomainError(f"{name} must be a nonempty index sequence")
    if np.any(idx < 1) or np.any(idx > n):
        raise DomainError(f"{name} indices must lie in [1, {n}], got {idx.tolist()}")
    if np.any(np.diff(idx) <= 0):
        raise DomainError(f"{name} indices must be strictly increasing, got {idx.tolist()}")
    return idx - 1


def minor(A, rows, cols) -> float:
    """The minor det(A[rows | cols]) for 1-based, strictly increasing selectors."""
    A = as_matrix(A)
    r = _normalize_selector(rows, A.shape[0], "rows")
    c = _normalize_selector(cols, A.shape[1], "cols")
    if r.size != c.size:
        raise DomainError(
            f"rows and cols must select equally many indices, got {r.size} and {c.size}"
        )
    sub = np.ascontiguousarray(A[np.ix_(r, c)])
    return float(det_stack(sub[None, ...])[0])


def minor_table(A, k: int) -> np.ndarray:
    """All k-minors of A as a C(rows,k) x C(cols,k) array.

    Row/column subsets run in lexicographic order, so entry (i, j) is the
    minor selected by the i-th row set and j-th column set.
    """
    A = as_matrix(A)
    n, m = A.shape
    if not 1 <= k <= min(n, m):
        raise DomainError(f"order k={k} must satisfy 1 <= k <= min{A.shape}")
    R = lex_array(k, n)
    C = lex_array(k, m)
    if R.shape[0] * C.shape[0] * k * k > _TABLE_ENTRY_LIMIT:
        raise CapacityError(
            f"minor table of {R.shape[0]}x{C.shape[0]} order-{k} blocks is too large"
        )
    stack = A[R[:, None, :, None], C[None, :, None, :]]
    return det_stack(np.ascontiguousarray(stack))


@dataclass(frozen=True)
class SpectralReport:
    """Eigenvalues sorted by descending modulus, their moduli, and the radius."""

    eigenvalues: np.ndarray
    moduli: np.ndarray
    spectral_radius: float


def spectral_report(A) -> SpectralReport:
    """Full eigenvalue report of a square matrix.

    Eigenvalues come from the standard dense nonsymmetric LAPACK path
    (Hessenberg reduction plus shifted QR) and are sorted by modulus,
    with (re, im) tie-breaking for determinism.
    """
    A = as_square(A)
    try:
        w = np.linalg.eigvals(A)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigenvalue iteration failed to converge: {exc}") from exc
    order = np.lexsort((-w.imag, -w.real, -np.abs(w)))
    w = w[order]
    moduli = np.abs(w)
    return SpectralReport(eigenvalues=w, moduli=moduli, spectral_radius=float(moduli[0]))


class PdCheck(NamedTuple):
    ok: bool
    margin: float


def is_positive_definite(M, tol: float | None = None) -> PdCheck:
    """Positive-definiteness of the symmetric part of M.

    M is symmetrized as (M + M^T)/2 first; the check passes when the
    smallest eigenvalue (returned as the margin) exceeds `tol`.
    """
    M = as_square(M)
    t = pd_tol(tol)
    sym = 0.5 * (M + M.T)
    try:
        eigs = np.linalg.eigvalsh(sym)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"symmetric eigenvalue solve failed: {exc}") from exc
    margin = float(eigs[0])
    return PdCheck(ok=margin > t, margin=margin)
