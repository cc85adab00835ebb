"""Multiplicative compound matrices, wedge products, and k-content."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .matcore import as_vector, minor_table


def mult_compound(A, k: int) -> np.ndarray:
    """The k-th multiplicative compound of A.

    Entry (i, j) is the k-minor of A picked by the i-th lexicographic row
    subset and j-th column subset, so for an n x n matrix the result is
    C(n,k) x C(n,k) with A^(1) = A and A^(n) = det(A) as a 1x1 matrix.
    Rectangular inputs are accepted (used for column-stacked wedges).
    """
    return minor_table(A, k)


@dataclass(frozen=True)
class WedgeVector:
    """Coordinates of a wedge of k vectors in R^n, lexicographic row-set order."""

    n: int
    k: int
    coords: np.ndarray


def wedge(vectors) -> WedgeVector:
    """Wedge product of k vectors in R^n.

    Equals the k-th compound of the n x k matrix whose columns are the
    vectors; for k = n this is the determinant as a single coordinate.
    """
    vs = [as_vector(v, f"vectors[{i}]") for i, v in enumerate(vectors)]
    if not vs:
        raise DomainError("wedge requires at least one vector")
    n = vs[0].size
    for i, v in enumerate(vs):
        if v.size != n:
            raise DomainError(f"vectors[{i}] has dimension {v.size}, expected {n}")
    k = len(vs)
    if k > n:
        raise DomainError(f"cannot wedge {k} vectors in R^{n}")
    stacked = np.column_stack(vs)
    coords = mult_compound(stacked, k)[:, 0]
    return WedgeVector(n=n, k=k, coords=np.ascontiguousarray(coords))


def k_content(vectors) -> float:
    """Euclidean norm of the wedge: the k-content of the spanned parallelotope."""
    return float(np.linalg.norm(wedge(vectors).coords))
