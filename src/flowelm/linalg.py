"""Dense float64 least squares and pseudoinverse on numpy's LAPACK drivers.

Both use the same cutoff: singular values at or below
EPS * max(m, n) * sigma_max count as zero, m x n being the shape of the
matrix solved (for lstsq on an R factor, of the matrix it came from).
"""

from __future__ import annotations

import numpy as np

from .errors import DataError, NumericError, ShapeError

EPS = float(np.finfo(np.float64).eps)

# lstsq takes a square R factor's inverse in place of gelsd only when
# ||R||_F * ||R^-1||_F, which bounds sigma_max / sigma_min from above, stays
# this factor below 1 / rcond. The computed inverse is off by about
# EPS * sigma_max / sigma_min relative; under the margin that is below 1e-3,
# so a matrix whose smallest singular value reaches the cutoff cannot pass.
_INVERSE_MARGIN = 1e3


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


def _bounded_inverse(a: np.ndarray, rcond: float) -> np.ndarray | None:
    """a's inverse when the norm bound proves that the cutoff rcond cuts
    none of a's singular values, else None."""
    try:
        inverse = np.linalg.inv(a)
    except np.linalg.LinAlgError:  # an exact zero pivot: a is singular
        return None
    with np.errstate(all="ignore"):  # a norm that overflows fails the test
        bound = np.linalg.norm(a) * np.linalg.norm(inverse)
    return inverse if bound < 1.0 / (_INVERSE_MARGIN * rcond) else None


def lstsq(a, targets, rows: int | None = None) -> np.ndarray:
    """Minimum-norm least-squares solution of a @ x = targets; equals
    pseudoinverse(a) @ targets.

    When a is the leading block of the R factor of a taller m-row matrix,
    pass rows=m: the cutoff is then EPS * max(m, n), that matrix's own. If
    that R is square and ||a||_F * ||a^-1||_F < 1 / (_INVERSE_MARGIN * cutoff),
    no singular value can fall under the cutoff (Higham, Accuracy and
    Stability of Numerical Algorithms, 2002), so the solution is
    a^-1 @ targets. Every other input goes to LAPACK gelsd through
    np.linalg.lstsq.
    """
    a = as_matrix(a, "lstsq input")
    targets = as_matrix(targets, "lstsq targets")
    if a.shape[0] != targets.shape[0]:
        raise ShapeError(
            f"row mismatch: coefficients {a.shape} vs targets {targets.shape}"
        )
    rcond = _rcond(a) if rows is None else EPS * max(rows, a.shape[1])
    if rows is not None and a.shape[0] == a.shape[1]:
        inverse = _bounded_inverse(a, rcond)
        if inverse is not None:
            return inverse @ targets
    try:
        return np.linalg.lstsq(a, targets, rcond=rcond)[0]
    except np.linalg.LinAlgError as exc:
        raise NumericError(
            f"least squares on a {a.shape[0]}x{a.shape[1]} matrix did not converge"
        ) from exc
