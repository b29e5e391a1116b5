"""Dense float64 matrix routines: thin SVD, pseudoinverse, least squares.

The SVD is LAPACK's, through numpy. The pseudoinverse and the minimum-norm
least-squares solver are both derived from it, with the same cutoff: singular
values at or below rcond * sigma_max count as zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, NumericError, ShapeError

EPS = float(np.finfo(np.float64).eps)


def as_matrix(values, name: str = "matrix") -> np.ndarray:
    """Validate user input as a 2-D float64 array.

    Rejects non-2-D input and any NaN/Inf entry, reporting where it sits.
    An input that already is a float64 array is returned as it is, not
    copied; nothing in this module writes to its input.
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 2:
        raise ShapeError(f"{name} must be 2-D, got {arr.ndim}-D")
    if arr.size and not np.isfinite(arr).all():
        row, col = np.argwhere(~np.isfinite(arr))[0]
        raise DataError(f"{name} has a non-finite entry at row {row}, column {col}")
    return arr


@dataclass(frozen=True, eq=False)
class SvdResult:
    """Thin SVD: a == u @ diag(singular_values) @ vt."""

    u: np.ndarray
    singular_values: np.ndarray  # non-increasing, >= 0
    vt: np.ndarray


def svd(a) -> SvdResult:
    """Thin SVD with orthonormal u/vt columns and descending singular values.

    Raises NumericError if LAPACK's iteration does not converge.
    """
    a = as_matrix(a, "svd input")
    if a.size == 0:
        raise ShapeError("svd of an empty matrix")
    try:
        u, sigma, vt = np.linalg.svd(a, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"SVD of a {a.shape[0]}x{a.shape[1]} matrix did not converge") from exc
    return SvdResult(u=u, singular_values=sigma, vt=vt)


def default_rcond(a: np.ndarray) -> float:
    return EPS * max(a.shape)


def _truncated_svd(a, rcond: float | None, name: str) -> tuple[SvdResult, np.ndarray]:
    """SVD of a, and the reciprocal singular values above the rcond cutoff.

    Singular values at or below rcond * sigma_max get a reciprocal of zero,
    so rank-deficient input (including the all-zero matrix) stays well
    defined.
    """
    a = as_matrix(a, f"{name} input")
    if rcond is None:
        rcond = default_rcond(a)
    if rcond < 0:
        raise ValueError("rcond must be >= 0")
    res = svd(a)  # rejects an empty matrix
    sigma = res.singular_values
    inv = np.zeros_like(sigma)
    keep = sigma > rcond * sigma[0]
    inv[keep] = 1.0 / sigma[keep]
    return res, inv


def pseudoinverse(a, rcond: float | None = None) -> np.ndarray:
    """Moore-Penrose pseudoinverse via the SVD."""
    res, inv = _truncated_svd(a, rcond, "pseudoinverse")
    return (res.vt.T * inv) @ res.u.T


def lstsq(a, targets, rcond: float | None = None) -> np.ndarray:
    """Minimum-norm least-squares solution of a @ x = targets.

    Equals pseudoinverse(a, rcond) @ targets, but applies the SVD factors
    to the targets in turn, so the pseudoinverse itself is never formed.
    """
    a = np.asarray(a, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if a.ndim != 2 or targets.ndim != 2:
        raise ShapeError("lstsq operands must be 2-D")
    if a.shape[0] != targets.shape[0]:
        raise ShapeError(
            f"row mismatch: coefficients {a.shape} vs targets {targets.shape}"
        )
    res, inv = _truncated_svd(a, rcond, "lstsq")
    return res.vt.T @ (inv[:, None] * (res.u.T @ targets))
