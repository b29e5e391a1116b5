"""Extreme learning machine: random hidden layer, closed-form output weights.

Input weights and biases are drawn once from a seeded generator and never
updated; only the hidden-to-output weights are learned, as the minimum-norm
least-squares solution against the 0/1 targets. Scores are the raw network
outputs (not clipped to [0, 1]); thresholding happens in predict().
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import DataError, ShapeError
from .rng import Rng


# score() evaluates rows in blocks whose row count is a multiple of this.
# With OpenBLAS, a block whose row count is not a multiple of 4 (measured: 1,
# 2, 3, 5, 7 and 33 rows) gives some rows other bits than a larger block
# does; padded blocks of a multiple of 8 rows give every row the same bits.
_ROW_MULTIPLE = 8

# score() runs the hidden layer on blocks of this many rows; evaluate reads,
# and train and grid score held-out rows, in chunks of about as many. A
# multiple of _ROW_MULTIPLE. Score bits do not depend on it.
_SCORE_ROWS = 1024

# fold_rows() folds this many rows at a time into its R factor (np.linalg.qr
# copies its input, so a fold holds [R; H_c | T_c] twice). Fit bytes
# depend on it.
_FOLD_ROWS = 4096


class Activation(enum.Enum):
    """Hidden-node activation. Declaration order is the tie-break order."""

    TANH = "tanh"
    SIGMOID = "sigmoid"
    RBF = "rbf"

    @classmethod
    def from_name(cls, name: str) -> "Activation":
        try:
            return cls(name.strip().lower())
        except ValueError:
            raise DataError(
                f"unknown activation {name!r}; expected tanh, sigmoid, or rbf"
            ) from None


@dataclass(frozen=True)
class ElmParams:
    hidden_nodes: int
    activation: Activation
    seed: int
    rbf_gamma: float = 1.0

    def __post_init__(self):
        if self.hidden_nodes < 1:
            raise DataError("hidden_nodes must be >= 1")
        if not (math.isfinite(self.rbf_gamma) and self.rbf_gamma > 0):
            raise DataError("rbf_gamma must be finite and positive")


@dataclass(frozen=True, eq=False)
class ElmModel:
    """Frozen trained classifier; safe to share across threads."""

    input_weights: np.ndarray  # (n_features, hidden_nodes)
    biases: np.ndarray  # (1, hidden_nodes)
    output_weights: np.ndarray  # (hidden_nodes, 1)
    params: ElmParams
    n_features: int

    def __post_init__(self):
        n, width = self.n_features, self.params.hidden_nodes
        for name in ("input_weights", "biases", "output_weights"):
            arr = np.array(getattr(self, name), dtype=np.float64, order="C", copy=True)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if self.input_weights.shape != (n, width):
            raise ShapeError(
                f"input weights shaped {self.input_weights.shape}, expected {(n, width)}"
            )
        if self.biases.shape != (1, width):
            raise ShapeError(f"biases shaped {self.biases.shape}, expected {(1, width)}")
        if self.output_weights.shape != (width, 1):
            raise ShapeError(
                f"output weights shaped {self.output_weights.shape}, expected {(width, 1)}"
            )
        for arr in (self.input_weights, self.biases, self.output_weights):
            if not np.isfinite(arr).all():
                raise DataError("model weights contain non-finite values")


def init_random(params: ElmParams, n_features: int) -> tuple[np.ndarray, np.ndarray]:
    """Seeded uniform [-1, 1] input weights and biases.

    Draw order (weights row-major first, then biases) is fixed so identical
    (seed, n_features, hidden_nodes) always reproduce the same bits.
    """
    if n_features < 1:
        raise DataError("n_features must be >= 1")
    drawn = Rng(params.seed).uniform_matrix(n_features + 1, params.hidden_nodes, -1.0, 1.0)
    return drawn[:-1], drawn[-1:]


def hidden_layer(
    x: np.ndarray,
    w: np.ndarray,
    b: np.ndarray,
    activation: Activation,
    rbf_gamma: float = 1.0,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Hidden-node responses for every sample, written into `out` if given.

    Tanh/sigmoid nodes apply the activation to x @ w + b; the sigmoid is
    computed as 0.5 * (1 + tanh(z / 2)), which cannot overflow. RBF nodes
    treat each column of w as a center and respond exp(-gamma * ||x_i - w_j||^2),
    the squared distance taken as ||x_i||^2 + ||w_j||^2 - 2 x_i . w_j and
    clamped at 0; the bias row is ignored for RBF.
    """
    x = np.asarray(x, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if x.ndim != 2 or w.ndim != 2:
        raise ShapeError("hidden_layer inputs must be 2-D")
    if x.shape[1] != w.shape[0]:
        raise ShapeError(f"cannot combine samples {x.shape} with weights {w.shape}")
    if b.shape != (1, w.shape[1]):
        raise ShapeError(f"biases shaped {b.shape}, expected {(1, w.shape[1])}")
    return _layer(x, w, b, activation, rbf_gamma, out)


def _layer(x, w, b, activation: Activation, rbf_gamma: float, out=None) -> np.ndarray:
    """hidden_layer's responses, for float64 arrays it has checked."""
    z = np.matmul(x, w, out=out)
    if activation is Activation.TANH:
        z += b
        return np.tanh(z, out=z)
    if activation is Activation.SIGMOID:
        z += b
        z *= 0.5
        np.tanh(z, out=z)
        z += 1.0
        z *= 0.5
        return z
    if activation is Activation.RBF:
        z *= -2.0
        z += np.einsum("ij,ij->i", x, x)[:, None]
        z += np.einsum("ij,ij->j", w, w)
        np.maximum(z, 0.0, out=z)
        z *= -rbf_gamma
        return np.exp(z, out=z)
    raise DataError(f"unsupported activation {activation!r}")


def _check_labels(y, n_rows: int) -> np.ndarray:
    y = np.asarray(y)
    if y.ndim != 1 or y.shape[0] != n_rows:
        raise ShapeError(f"labels must be a vector of length {n_rows}")
    y = y.astype(np.int64)
    if y.size and not np.isin(y, (0, 1)).all():
        raise DataError("labels must be 0 or 1")
    return y


def _check_finite(x: np.ndarray, first_row: int) -> None:
    """Raise DataError naming the first row of x, counted from first_row,
    that holds a non-finite value."""
    # A finite sum proves every value finite, at half the cost of isfinite;
    # only a sum that is not (NaN, inf, or an overflow) needs the row check.
    if math.isfinite(np.add.reduce(x, axis=None)):
        return
    finite = np.isfinite(x).all(axis=1)
    if not finite.all():
        raise DataError(f"non-finite feature value in row {first_row + int(np.argmin(finite))}")


def fit(x_train, y_train, params: ElmParams) -> ElmModel:
    """Train on 0/1 labels: random hidden layer, least-squares output weights.

    fold_rows takes the rows into the R factor of [H | T], and
    linalg.r_solver solves it for the one width. Beta is the minimum-norm
    solution, with H's own cutoff EPS * max(rows, L). Pure function of
    (x_train, y_train, params); repeated calls are bit-identical.
    """
    x = np.asarray(x_train, dtype=np.float64)
    if x.ndim != 2:
        raise ShapeError("training features must be 2-D")
    if x.shape[0] < 1 or x.shape[1] < 1:
        raise DataError("training set must have at least one sample and one feature")
    y = _check_labels(y_train, x.shape[0])

    w, b = init_random(params, x.shape[1])
    r = fold_rows(x, y, w, b, params.activation, params.rbf_gamma)
    return ElmModel(
        input_weights=w,
        biases=b,
        output_weights=linalg.r_solver(r, x.shape[0])(params.hidden_nodes),
        params=params,
        n_features=x.shape[1],
    )


def fold_rows(x: np.ndarray, y: np.ndarray, w, b, activation: Activation, rbf_gamma: float = 1.0) -> np.ndarray:
    """The (L+1)x(L+1) R factor of [H | T] (fewer rows when x has fewer),
    for 2-D float64 rows x, their 0/1 labels y, and L nodes (w, b).

    H is never held whole. The hidden layer of each _FOLD_ROWS rows is
    written into the buffer that folds it into R, whose last column carries
    Q^T T (TSQR: Demmel, Grigori, Hoemmen & Langou, 2012). A non-finite
    value raises DataError naming its row. Householder QR works column by
    column, so R's leading k x k block and R[:k, L] are, up to rounding,
    those of the network of the first k nodes.
    """
    width = w.shape[1]
    r = np.empty((0, width + 1))
    for start in range(0, x.shape[0], _FOLD_ROWS):
        rows = x[start : start + _FOLD_ROWS]
        _check_finite(rows, start)
        stacked = np.empty((r.shape[0] + rows.shape[0], width + 1))
        stacked[: r.shape[0]] = r
        hidden_layer(rows, w, b, activation, rbf_gamma, out=stacked[r.shape[0] :, :width])
        stacked[r.shape[0] :, width] = y[start : start + _FOLD_ROWS]
        r = np.linalg.qr(stacked, mode="r")
        del stacked  # before the next fold's rows are allocated
    return r


def score_widths(x, w, b, activation: Activation, rbf_gamma: float, betas) -> list[np.ndarray]:
    """Raw outputs on rows x of several networks sharing nodes (w, b): one
    score vector per output-weight column in betas, a k-row column using
    the first k nodes. The hidden layer runs once, _SCORE_ROWS rows at a
    time. A non-finite feature value raises DataError naming its row.
    """
    x = np.asarray(x, dtype=np.float64)
    _check_finite(x, 0)
    scores = [np.empty(x.shape[0]) for _ in betas]
    for start in range(0, x.shape[0], _SCORE_ROWS):
        h = hidden_layer(x[start : start + _SCORE_ROWS], w, b, activation, rbf_gamma)
        for out, beta in zip(scores, betas):
            out[start : start + h.shape[0]] = (h[:, : beta.shape[0]] @ beta)[:, 0]
    return scores


def score(model: ElmModel, x) -> np.ndarray:
    """Raw network output per sample (one float each).

    Rows go through the hidden layer and the output product one block of
    _SCORE_ROWS at a time. A row's score does not depend on the rows scored
    with it: every block's row count is a multiple of 8, the last block
    zero-padded (see _ROW_MULTIPLE). A non-finite feature value raises
    DataError naming its row.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ShapeError("scoring input must be 2-D")
    if x.shape[1] != model.n_features:
        raise ShapeError(
            f"model expects {model.n_features} features, got {x.shape[1]}"
        )
    _check_finite(x, 0)
    return _score_blocks(model, x)


def _score_blocks(model: ElmModel, x: np.ndarray) -> np.ndarray:
    """score()'s padded block step, for 2-D float64 rows of the model's width, checked finite."""
    params = model.params
    scores = np.empty(x.shape[0])
    for start in range(0, x.shape[0], _SCORE_ROWS):
        block = x[start : start + _SCORE_ROWS]
        n_rows = block.shape[0]
        if n_rows % _ROW_MULTIPLE:
            padded = np.zeros((n_rows + _ROW_MULTIPLE - n_rows % _ROW_MULTIPLE, x.shape[1]))
            padded[:n_rows] = block
            block = padded
        scores[start : start + n_rows] = (
            _layer(block, model.input_weights, model.biases, params.activation, params.rbf_gamma)
            @ model.output_weights
        )[:n_rows, 0]
    return scores


def predict(model: ElmModel, x, threshold: float = 0.5) -> np.ndarray:
    """Binary labels: 1 wherever score >= threshold."""
    return (score(model, x) >= threshold).astype(np.int64)
