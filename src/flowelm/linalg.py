"""Dense float64 least squares and pseudoinverse on numpy's LAPACK drivers.

lstsq and pseudoinverse use one cutoff: singular values at or below
EPS * max(m, n) * sigma_max count as zero, m x n being the shape of the
matrix solved. r_solver solves an R factor for the networks of its leading
columns, each with the cutoff of the matrix the R factor came from.
"""

from __future__ import annotations

import numpy as np

from .errors import DataError, NumericError, ShapeError

EPS = float(np.finfo(np.float64).eps)

# r_solver takes a leading block R_k's inverse in place of gelsd only when
# ||R_k||_F * ||R_k^-1||_F, which bounds sigma_max / sigma_min from above,
# stays this factor below 1 / rcond. The computed inverse is off by about
# EPS * sigma_max / sigma_min relative; under the margin that is below 1e-3,
# so a matrix whose smallest singular value reaches the cutoff cannot pass.
_INVERSE_MARGIN = 1e3

# _inverse hands a block of fewer columns than this to np.linalg.inv, so an
# R factor this narrow keeps np.linalg.inv's bits. At 1024 columns the
# recursion took 17 ms against np.linalg.inv's 92-106 ms (one BLAS thread,
# 2-core VM), within 1.5e-15 relative (Frobenius).
_INVERSE_BLOCK = 128


def as_matrix(values, name: str = "matrix") -> np.ndarray:
    """Validate user input as a non-empty 2-D float64 array.

    Rejects non-2-D or empty input and any NaN/Inf entry, reporting where it
    sits. An input that already is a float64 array is returned as it is, not
    copied; nothing in this module writes to its input.
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 2:
        raise ShapeError(f"{name} must be 2-D, got {arr.ndim}-D")
    if arr.size == 0:
        raise ShapeError(f"{name} is an empty {arr.shape[0]}x{arr.shape[1]} matrix")
    if not np.isfinite(arr).all():
        row, col = np.argwhere(~np.isfinite(arr))[0]
        raise DataError(f"{name} has a non-finite entry at row {row}, column {col}")
    return arr


def _rcond(a: np.ndarray) -> float:
    return EPS * max(a.shape)


def pseudoinverse(a) -> np.ndarray:
    """Moore-Penrose pseudoinverse (LAPACK gesdd through np.linalg.pinv)."""
    a = as_matrix(a, "pseudoinverse input")
    try:
        return np.linalg.pinv(a, rcond=_rcond(a))
    except np.linalg.LinAlgError as exc:
        raise NumericError(
            f"pseudoinverse of a {a.shape[0]}x{a.shape[1]} matrix did not converge"
        ) from exc


def _inverse(r: np.ndarray) -> np.ndarray:
    """The upper-triangular square r's inverse: the block recursion's when r
    has _INVERSE_BLOCK columns or more, np.linalg.inv's below. A block in
    which np.linalg.inv meets an exact zero pivot comes back as inf, which
    fails the bound of every leading block that covers it, not of those
    before it. Call under np.errstate(all="ignore"): an overflow fails the
    bound too."""
    if r.shape[0] >= _INVERSE_BLOCK:
        return _triangular_inverse(r)
    try:
        return np.linalg.inv(r)
    except np.linalg.LinAlgError:
        return np.full(r.shape, np.inf)


def _triangular_inverse(r: np.ndarray) -> np.ndarray:
    """[[A, B], [0, D]]^-1 = [[A^-1, -A^-1 B D^-1], [0, D^-1]] for an
    upper-triangular r, A its leading half."""
    h = r.shape[0] // 2
    out = np.zeros(r.shape)
    a_inv = out[:h, :h] = _inverse(r[:h, :h])
    d_inv = out[h:, h:] = _inverse(r[h:, h:])
    np.matmul(a_inv @ r[:h, h:], d_inv, out=out[:h, h:])
    out[:h, h:] *= -1.0
    return out


def _leading_norms(a: np.ndarray) -> np.ndarray:
    """Entry k - 1 is ||a[:k, :k]||_F for an upper-triangular square a."""
    return np.sqrt(np.cumsum(np.einsum("ij,ij->j", a, a)))


def _gelsd(a: np.ndarray, targets: np.ndarray, rcond: float) -> np.ndarray:
    try:
        return np.linalg.lstsq(a, targets, rcond=rcond)[0]
    except np.linalg.LinAlgError as exc:
        raise NumericError(
            f"least squares on a {a.shape[0]}x{a.shape[1]} matrix did not converge"
        ) from exc


def r_solver(r, rows: int):
    """Output weights from the R factor r of an m-row matrix [H | T], T its
    last column, for the networks of H's first k columns.

    rows is m. The function returned gives, for a width k, the minimum-norm
    solution of R_k @ beta = r[:k, -1:], R_k = r[:k, :k], with the cutoff
    EPS * max(m, k), that of H's first k columns; it equals
    pseudoinverse(R_k) @ r[:k, -1:] up to rounding. R's leading square block
    is inverted once, and the leading k x k block of that inverse is R_k's
    inverse. A width k within that block takes R_k^-1 @ r[:k, -1:] when
    ||R_k||_F * ||R_k^-1||_F < 1 / (_INVERSE_MARGIN * cutoff): that product
    bounds sigma_max / sigma_min from above, so no singular value of R_k can
    fall under the cutoff (Higham, Accuracy and Stability of Numerical
    Algorithms, 2002). Every other width goes to LAPACK gelsd with its
    cutoff. r is checked once.
    """
    r = as_matrix(r, "R factor")
    a, targets = r[:, :-1], r[:, -1:]
    square = min(a.shape)
    lead = a[:square, :square]
    with np.errstate(all="ignore"):  # inf and nan products fail the bound
        inverse = _inverse(lead)
        products = _leading_norms(lead) * _leading_norms(inverse)

    def solve(k: int) -> np.ndarray:
        rcond = EPS * max(rows, k)
        if k <= square and products[k - 1] < 1.0 / (_INVERSE_MARGIN * rcond):
            return inverse[:k, :k] @ targets[:k]
        return _gelsd(a[:k, :k], targets[:k], rcond)

    return solve


def lstsq(a, targets) -> np.ndarray:
    """Minimum-norm least-squares solution of a @ x = targets by LAPACK gelsd
    (np.linalg.lstsq) with the cutoff EPS * max(m, n); equals
    pseudoinverse(a) @ targets."""
    a = as_matrix(a, "lstsq input")
    targets = as_matrix(targets, "lstsq targets")
    if a.shape[0] != targets.shape[0]:
        raise ShapeError(
            f"row mismatch: coefficients {a.shape} vs targets {targets.shape}"
        )
    return _gelsd(a, targets, _rcond(a))
