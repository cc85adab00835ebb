"""Cyclic chain matrices and their sign-regularity/stability dichotomy.

A cyclic matrix is a bidiagonal chain (diagonal alpha, superdiagonal
beta) closed by a single feedback corner entry (-1)^(ell+1) * beta_n.
For ell in [1, n-1] such a matrix is sign-regular of order ell with
signature +1: with odd ell it is entrywise nonnegative and diagonally
stable iff Schur, with even ell it is ell-diagonally stable iff its
ell-th compound is Schur.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericError, PreconditionError
from .matcore import _minor_table, zero_tol
from .signreg import ALL_ZERO, SR, SSR, SignClass, _classify_minors
from .stability import _descending_moduli, _schur_check


@dataclass(frozen=True)
class CyclicSpec:
    """Parameters of a cyclic matrix: diagonal, superdiagonal+corner, corner parity."""

    n: int
    alphas: tuple[float, ...]
    betas: tuple[float, ...]
    ell: int

    def __post_init__(self):
        object.__setattr__(self, "alphas", tuple(float(a) for a in self.alphas))
        object.__setattr__(self, "betas", tuple(float(b) for b in self.betas))
        if self.n < 2:
            raise PreconditionError("cyclic matrices need n >= 2 (corner and diagonal collide at n=1)")
        if len(self.alphas) != self.n or len(self.betas) != self.n:
            raise PreconditionError(f"need exactly n={self.n} alphas and betas")
        if not np.isfinite(self.alphas + self.betas).all():
            raise DomainError("alphas and betas must be finite")
        if any(a < 0 for a in self.alphas) or any(b < 0 for b in self.betas):
            raise PreconditionError("alphas and betas must be nonnegative")
        if not (isinstance(self.ell, (int, float, np.integer, np.floating))
                and float(self.ell).is_integer() and self.ell >= 0):
            raise PreconditionError("ell must be a nonnegative integer")
        object.__setattr__(self, "ell", int(self.ell))  # 2.0 is stored as 2


def build_cyclic(spec: CyclicSpec) -> np.ndarray:
    """Assemble the n x n cyclic matrix for a CyclicSpec.

    Diagonal entries alpha_i, superdiagonal beta_1..beta_{n-1}, and the
    (n, 1) corner set to (-1)^(ell+1) * beta_n; only the parity of ell
    matters.
    """
    n = spec.n
    A = np.zeros((n, n))
    A[np.arange(n), np.arange(n)] = spec.alphas
    A[np.arange(n - 1), np.arange(1, n)] = spec.betas[: n - 1]
    A[n - 1, 0] = (-1.0) ** (spec.ell + 1) * spec.betas[n - 1]
    return A


@dataclass(frozen=True)
class CyclicAnalysis:
    """Verdict bundle for a cyclic matrix at order ell.

    diag_stable_if_odd and nonneg_entrywise are populated only for odd
    ell, where the matrix is nonnegative and plain diagonal stability is
    equivalent to being Schur.
    """

    sign_class_at_ell: SignClass
    ell_diag_stable: bool
    compound_rho: float
    diag_stable_if_odd: bool | None
    nonneg_entrywise: bool | None


def analyze_cyclic(spec: CyclicSpec, tol: float | None = None) -> CyclicAnalysis:
    """Classify a cyclic matrix at its own order ell and test stability.

    Requires 1 <= ell <= n-1.  The order-ell minors must come out
    nonnegative (signature +1); anything else contradicts the structural
    guarantee for cyclic matrices and raises NumericError.  compound_rho
    is the product of the ell largest eigenvalue moduli of A, the radius
    certify_k_diag_stability uses, and takes the same Schur margin.  It
    and, for odd ell, the spectral radius of A come from one eigen-solve.
    """
    if not 1 <= spec.ell <= spec.n - 1:
        raise PreconditionError(
            f"analysis needs 1 <= ell <= n-1, got ell={spec.ell}, n={spec.n}"
        )
    A = build_cyclic(spec)
    t = zero_tol(tol)
    sc = _classify_minors(_minor_table(A, spec.ell), spec.ell, A.shape, t)
    acceptable = sc.verdict == ALL_ZERO or (sc.verdict in (SR, SSR) and sc.signature == 1)
    if not acceptable:
        raise NumericError(
            "cyclic matrix produced order-ell minors of mixed or negative sign "
            f"(verdict {sc.verdict}, signature {sc.signature}); this contradicts "
            "the structural nonnegativity of cyclic minors"
        )
    moduli = _descending_moduli(A)
    compound_schur = _schur_check(float(np.prod(moduli[: spec.ell])), t)
    nonneg = diag_stable = None
    if spec.ell % 2 == 1:
        nonneg = bool(np.min(A) >= 0.0)
        diag_stable = _schur_check(float(moduli[0]), t).ok
    return CyclicAnalysis(
        sign_class_at_ell=sc,
        ell_diag_stable=compound_schur.ok,
        compound_rho=compound_schur.spectral_radius,
        diag_stable_if_odd=diag_stable,
        nonneg_entrywise=nonneg,
    )
