"""Data preparation: cleaning, feature selection, scaling, splitting.

The intended composition is clean -> select_features -> split -> fit_scaler
on the training part -> apply_scaler (or scale_in_place) to both parts.
Feature selection keeps columns whose absolute correlation with the binary
label clears a threshold; scaling is a plain z-score with population (1/N)
standard deviation, fitted on training rows only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, ShapeError, StratificationError
from .rng import Rng


class _Handover:
    """An array the library has just made, handed to FlowDataset to hold."""

    def __init__(self, array: np.ndarray):
        self.array = array


@dataclass(frozen=True, eq=False)
class FlowDataset:
    """Feature matrix plus binary labels and column names.

    Features may contain NaN markers straight after ingestion; clean()
    removes them. Labels are always 0 (benign) or 1 (attack). `categories`
    optionally keeps the raw per-row traffic category for provenance.
    The arrays are read-only. A caller's features are copied; an array the
    library has just made is held as it is (see _adopt).
    """

    features: np.ndarray
    labels: np.ndarray
    feature_names: tuple[str, ...]
    source: str = ""
    categories: tuple[str, ...] | None = None

    @classmethod
    def _adopt(cls, features: np.ndarray, **fields) -> "FlowDataset":
        """A dataset that holds `features` itself, not a copy: for a float64
        array that the library has just made and nothing else holds. Every
        check of the constructor runs."""
        return cls(features=_Handover(features), **fields)

    def __post_init__(self):
        if isinstance(self.features, _Handover):
            features = np.ascontiguousarray(self.features.array, dtype=np.float64)
        else:
            features = np.array(self.features, dtype=np.float64, order="C", copy=True)
        if features.ndim != 2:
            raise ShapeError("features must be 2-D")
        labels = np.asarray(self.labels)
        if labels.ndim != 1:
            raise ShapeError("labels must be a vector")
        labels = labels.astype(np.int64)  # always copies
        if features.shape[0] != labels.shape[0]:
            raise ShapeError(
                f"{features.shape[0]} feature rows vs {labels.shape[0]} labels"
            )
        if labels.size and not np.isin(labels, (0, 1)).all():
            raise DataError("labels must be 0 or 1")
        names = tuple(self.feature_names)
        if len(names) != features.shape[1]:
            raise ShapeError(
                f"{len(names)} feature names for {features.shape[1]} columns"
            )
        if len(set(names)) != len(names):
            raise DataError("feature names must be unique")
        if self.categories is not None and len(self.categories) != labels.shape[0]:
            raise ShapeError("categories length must match the number of rows")
        features.setflags(write=False)
        labels.setflags(write=False)
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "feature_names", names)
        if self.categories is not None:
            object.__setattr__(self, "categories", tuple(self.categories))

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    def subset_rows(self, indices) -> "FlowDataset":
        indices = np.asarray(indices, dtype=np.int64)
        categories = None
        if self.categories is not None:
            categories = tuple(self.categories[i] for i in indices)
        return FlowDataset._adopt(
            self.features[indices],
            labels=self.labels[indices],
            feature_names=self.feature_names,
            source=self.source,
            categories=categories,
        )

    def subset_columns(self, indices) -> "FlowDataset":
        indices = list(indices)
        return FlowDataset._adopt(
            self.features.take(indices, axis=1),
            labels=self.labels,
            feature_names=tuple(self.feature_names[i] for i in indices),
            source=self.source,
            categories=self.categories,
        )


# Rows per block when clean() hashes rows and checks them for missing values.
_CLEAN_ROWS = 4096
# An odd 64-bit multiplier (2**64 over the golden ratio) for the row hash.
_HASH_MULTIPLIER = 0x9E3779B97F4A7C15


def _finite_rows_and_hashes(features: np.ndarray, labels: np.ndarray):
    """Per row: whether every value is finite, and a 64-bit hash of its
    feature bytes and label. Equal rows hash equal; unequal rows may too.
    Works one block of rows at a time, so it needs O(rows) memory."""
    words = features.view(np.uint64)
    finite = np.empty(len(labels), dtype=bool)
    hashes = np.empty(len(labels), dtype=np.uint64)
    for start in range(0, len(labels), _CLEAN_ROWS):
        stop = start + _CLEAN_ROWS
        finite[start:stop] = np.isfinite(features[start:stop]).all(axis=1)
        h = labels[start:stop].astype(np.uint64)
        for column in words[start:stop].T:
            # each step is one-to-one in h, so rows that differ in one
            # column never collide
            h ^= column
            h *= _HASH_MULTIPLIER
            h ^= h >> 29
        hashes[start:stop] = h
    return finite, hashes


def _kept_rows(raw: FlowDataset) -> np.ndarray:
    """The indices of the rows that clean() keeps, in row order."""
    finite, hashes = _finite_rows_and_hashes(raw.features, raw.labels)
    rows = np.flatnonzero(finite)
    _, first, group, counts = np.unique(hashes[rows], return_index=True, return_inverse=True, return_counts=True)
    seen: set[bytes] = set()
    repeats = []  # the first of each set of equal rows among those whose hash repeats
    for i in rows[counts[group] > 1].tolist():  # in row order
        key = raw.features[i].tobytes() + bytes([raw.labels[i]])
        if key not in seen:
            seen.add(key)
            repeats.append(i)
    return np.sort(np.concatenate([rows[first[counts == 1]], np.array(repeats, dtype=rows.dtype)]))


def clean(raw: FlowDataset) -> FlowDataset:
    """Drop rows with missing values, then exact duplicates (keep first).

    Duplicate means byte-identical feature values and the same label; row
    order is otherwise preserved. Rows are grouped by a 64-bit hash, and
    only rows whose hash repeats are compared byte for byte, so no copy of
    the rows is sorted. Returns `raw` itself when no row is dropped.
    """
    keep = _kept_rows(raw)
    if not keep.size:
        raise DataError("cleaning removed every row; dataset is empty")
    if keep.size == raw.n_samples:
        return raw
    return raw.subset_rows(keep)


# Columns per block in select_features and fit_scaler; at least 2.
_BLOCK_COLUMNS = 8


def _column_blocks(m: int) -> list[tuple[int, int]]:
    """The (start, stop) column blocks of an m-column array, _BLOCK_COLUMNS
    wide, so that no temporary is wider than a block. A lone column would
    reduce pairwise along its rows and change the bits of a mean or a sum,
    so the last block takes it unless the array has one column: each
    block's column statistics are then the full-width call's, bit for bit."""
    starts = list(range(0, m, _BLOCK_COLUMNS))
    if len(starts) > 1 and m - starts[-1] == 1:
        starts.pop()
    return list(zip(starts, starts[1:] + [m]))


@dataclass(frozen=True, eq=False)
class FeatureSelection:
    """Kept column indices plus the per-column label correlations."""

    kept_indices: tuple[int, ...]
    correlations: np.ndarray

    def __post_init__(self):
        corr = np.array(self.correlations, dtype=np.float64, copy=True)
        corr.setflags(write=False)
        object.__setattr__(self, "correlations", corr)
        object.__setattr__(self, "kept_indices", tuple(int(i) for i in self.kept_indices))


def select_features(data: FlowDataset, threshold: float = 0.02) -> FeatureSelection:
    """Keep columns whose |Pearson correlation with the label| >= threshold.

    Constant (zero-variance) columns get correlation 0 and are always
    dropped; they would break the scaler downstream. A column whose
    standard deviation or covariance with the label overflows raises
    DataError naming it.
    """
    if data.n_samples < 2:
        raise DataError("feature selection needs at least 2 rows")
    if threshold < 0:
        raise DataError("correlation threshold must be >= 0")
    x = data.features
    n, m = x.shape
    blocks = _column_blocks(m)
    if not all(np.isfinite(x[:, a:b]).all() for a, b in blocks):
        raise DataError("feature selection requires finite features; run clean() first")

    y = data.labels.astype(np.float64)
    yc = y - y.mean()
    sy = math.sqrt(float(yc @ yc) / y.size)

    sx = np.empty(m)
    cov = np.empty(m)
    # a column near the float maximum overflows here; it fails below, not
    # with a numpy warning
    with np.errstate(over="ignore", invalid="ignore"):
        for a, b in blocks:
            xc = x[:, a:b] - x[:, a:b].mean(axis=0)
            sx[a:b] = np.sqrt(np.einsum("ij,ij->j", xc, xc) / n)
            xc *= yc[:, None]
            cov[a:b] = xc.mean(axis=0)
    overflowed = np.flatnonzero(~(np.isfinite(sx) & np.isfinite(cov)))
    if overflowed.size:
        raise DataError(
            f"column {data.feature_names[overflowed[0]]!r} overflows: its standard deviation"
            " or covariance with the label is not finite"
        )

    corr = np.zeros(m)
    valid = (sx > 0) & (sy > 0)
    corr[valid] = cov[valid] / (sx[valid] * sy)

    kept = [j for j in range(m) if sx[j] > 0 and abs(corr[j]) >= threshold]
    if not kept:
        raise DataError(
            "no feature cleared the correlation threshold "
            f"{threshold}; lower the threshold"
        )
    return FeatureSelection(kept_indices=tuple(kept), correlations=corr)


@dataclass(frozen=True, eq=False)
class ScalerState:
    """Per-column mean and population standard deviation of the training
    rows: finite, and each standard deviation above 0."""

    means: np.ndarray
    stds: np.ndarray

    def __post_init__(self):
        means = np.array(self.means, dtype=np.float64, copy=True)
        stds = np.array(self.stds, dtype=np.float64, copy=True)
        if means.shape != stds.shape or means.ndim != 1:
            raise ShapeError("scaler means/stds must be equal-length vectors")
        if not (np.isfinite(means).all() and np.isfinite(stds).all()):
            raise DataError("scaler means and standard deviations must be finite")
        if not (stds > 0).all():
            raise DataError("scaler standard deviations must be strictly positive")
        means.setflags(write=False)
        stds.setflags(write=False)
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "stds", stds)


def fit_scaler(train_features, names=None) -> ScalerState:
    """The z-score scaler of the training rows, a block of columns at a
    time. A column with zero variance is a DataError that names it, by
    `names` if given, else by position."""
    arr = np.asarray(train_features, dtype=np.float64)
    if arr.ndim != 2:
        raise ShapeError("scaler input must be 2-D")
    if arr.shape[0] < 2:
        raise DataError("scaler needs at least 2 rows")
    blocks = _column_blocks(arr.shape[1])  # no temporary wider than a block, the same bits
    if not all(np.isfinite(arr[:, a:b]).all() for a, b in blocks):
        raise DataError("scaler input must be finite")
    means, stds = np.empty(arr.shape[1]), np.empty(arr.shape[1])
    for a, b in blocks:
        means[a:b] = arr[:, a:b].mean(axis=0)
        stds[a:b] = arr[:, a:b].std(axis=0)
    zero = np.where(stds == 0)[0]
    if zero.size:
        column = zero[0] if names is None else repr(names[zero[0]])
        raise DataError(f"column {column} has zero variance; drop constant columns before scaling")
    return ScalerState(means=means, stds=stds)


def apply_scaler(state: ScalerState, features) -> np.ndarray:
    """A z-scored copy of `features`, which may be read-only."""
    arr = np.array(features, dtype=np.float64)  # always a copy
    if arr.ndim != 2:
        raise ShapeError("scaler input must be 2-D")
    if arr.shape[1] != state.means.shape[0]:
        raise ShapeError(
            f"scaler fitted on {state.means.shape[0]} columns, input has {arr.shape[1]}"
        )
    return scale_in_place(state, arr)


def scale_in_place(state: ScalerState, x: np.ndarray) -> np.ndarray:
    """Z-score `x`, a writable float64 array of the scaler's width that the
    caller owns, in place, with the bits of (x - means) / stds; returns x."""
    x -= state.means
    x /= state.stds
    return x


@dataclass(frozen=True, eq=False)
class SplitResult:
    train: FlowDataset
    test: FlowDataset


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def stratified_deal(labels, seed: int) -> list[list[int]]:
    """Each class's row indices, class 0 first, shuffled by one Rng(seed).

    split() and model_select.kfold_indices() both deal rows from this.
    """
    labels = np.asarray(labels)
    rng = Rng(seed)
    classes = []
    for cls in (0, 1):
        idx = np.flatnonzero(labels == cls).tolist()
        rng.shuffle(idx)
        classes.append(idx)
    return classes


def split_indices(labels, train_fraction: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The training and test row indices of a seeded split, stratified by
    class, each in row order.

    Each class's shuffled indices from stratified_deal() give their first
    round(count * fraction) to the training side.
    """
    if not 0.0 < train_fraction < 1.0:
        raise DataError("train_fraction must be strictly between 0 and 1")
    in_train = np.zeros(len(labels), dtype=bool)
    for cls, idx in enumerate(stratified_deal(labels, seed)):
        if len(idx) < 2:
            raise StratificationError(
                f"class {cls} has {len(idx)} sample(s); stratified split needs >= 2"
            )
        in_train[idx[: _round_half_up(len(idx) * train_fraction)]] = True
    return np.flatnonzero(in_train), np.flatnonzero(~in_train)


def split(data: FlowDataset, train_fraction: float, seed: int) -> SplitResult:
    """Seeded train/test split, stratified by class: the rows of
    split_indices(), each side in the original row order."""
    train, test = split_indices(data.labels, train_fraction, seed)
    return SplitResult(train=data.subset_rows(train), test=data.subset_rows(test))
