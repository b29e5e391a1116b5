"""Hyperparameter search: stratified k-fold CV over a width/activation grid.

The folds are dealt once per grid, and each fold fits one scaler on its
own training rows, so no validation statistics leak into training. The
network seed for a fold is derived from (base seed, fold index,
configuration content), which makes fold metrics a pure function of the
arguments: evaluation order, parallelism, and grid enumeration cannot
change any number.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, replace

import numpy as np

from . import metrics
from . import elm
from .elm import Activation, ElmParams
from .errors import DataError, FlowElmError, StratificationError
from .preprocess import FlowDataset, fit_scaler, scale_in_place, stratified_deal
from .rng import derive_seed, float_bits

DEFAULT_HIDDEN_NODES = (16, 32, 64, 128, 256, 512, 1024)

_METRICS = ("f1", "accuracy")


@dataclass(frozen=True)
class GridSpec:
    hidden_nodes: tuple[int, ...] = DEFAULT_HIDDEN_NODES
    activations: tuple[Activation, ...] = (Activation.TANH, Activation.SIGMOID, Activation.RBF)
    rbf_gammas: tuple[float, ...] = (1.0,)
    folds: int = 5
    seed: int = 0
    metric: str = "f1"

    def __post_init__(self):
        if not self.hidden_nodes or not self.activations or not self.rbf_gammas:
            raise DataError("grid candidate lists must be non-empty")
        if self.folds < 2:
            raise DataError("cross-validation needs at least 2 folds")
        if self.metric not in _METRICS:
            raise DataError(f"selection metric must be one of {_METRICS}")


def kfold_indices(labels, folds: int, seed: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Stratified folds: fold k validates on idx[k::folds] of each class's
    shuffled indices from stratified_deal().

    Returns (train_indices, validation_indices) pairs, one per fold, both
    sorted ascending. Deterministic for a given seed.
    """
    if folds < 2:
        raise DataError("folds must be >= 2")
    classes = stratified_deal(labels, seed)
    for cls, idx in enumerate(classes):
        if len(idx) < folds:
            raise StratificationError(
                f"class {cls} has {len(idx)} sample(s) but {folds} folds were requested"
            )
    pairs = []
    for k in range(folds):
        in_train = np.ones(len(labels), dtype=bool)
        for idx in classes:
            in_train[idx[k::folds]] = False
        pairs.append((np.flatnonzero(in_train), np.flatnonzero(~in_train)))
    return pairs


def _metric_value(cm: metrics.ConfusionMatrix, metric: str) -> float:
    if metric == "f1":
        return metrics.prf1(cm)[2]
    if metric == "accuracy":
        return metrics.accuracy(cm)
    raise DataError(f"selection metric must be one of {_METRICS}")


def _fold_seed(seed: int, fold_index: int, params: ElmParams) -> int:
    activation_ordinal = list(Activation).index(params.activation)
    return derive_seed(
        seed, fold_index, params.hidden_nodes, activation_ordinal, float_bits(params.rbf_gamma)
    )


@dataclass(frozen=True)
class GridEntry:
    params: ElmParams
    fold_scores: tuple[float, ...]
    mean: float
    std: float
    error: str | None = None


@dataclass(frozen=True)
class GridResult:
    """Leaderboard (best first) plus the winning configuration."""

    entries: tuple[GridEntry, ...]
    best: ElmParams


def configurations(spec: GridSpec) -> list[ElmParams]:
    """Cross product of the grid; gamma candidates only pair with RBF."""
    configs = []
    for width in spec.hidden_nodes:
        for activation in spec.activations:
            gammas = spec.rbf_gammas if activation is Activation.RBF else (1.0,)
            for gamma in gammas:
                configs.append(
                    ElmParams(
                        hidden_nodes=width,
                        activation=activation,
                        seed=spec.seed,
                        rbf_gamma=gamma,
                    )
                )
    return configs


def _leaderboard_key(entry: GridEntry):
    # max mean first; ties prefer narrower nets, earlier activations, smaller gamma
    return (
        -entry.mean,
        entry.params.hidden_nodes,
        list(Activation).index(entry.params.activation),
        entry.params.rbf_gamma,
    )


def _fold_outcomes(pool, data: FlowDataset, train_idx, valid_idx, jobs, metric: str) -> list:
    """Per configuration in `jobs`: its metric on one fold, or the message
    of the error its fit raised. The fold's rows are scaled once, by a
    scaler fitted on its training rows: each side's fancy-index copy is
    scaled in place, and goes on return."""
    x_train, y_train = data.features[train_idx], data.labels[train_idx]
    x_valid, y_valid = data.features[valid_idx], data.labels[valid_idx]
    scaler = fit_scaler(x_train)
    scale_in_place(scaler, x_train)
    scale_in_place(scaler, x_valid)

    def outcome(params: ElmParams) -> float | str:
        try:
            model = elm.fit(x_train, y_train, params)
            return _metric_value(metrics.confusion(y_valid, elm.predict(model, x_valid, 0.5)), metric)
        except FlowElmError as exc:
            return str(exc)

    return list(map(outcome, jobs) if pool is None else pool.map(outcome, jobs))


def grid_search(data: FlowDataset, spec: GridSpec, workers: int = 1) -> GridResult:
    """Evaluate every configuration by CV, one fold at a time, and rank them.

    A configuration whose fit raises keeps the message, runs no later
    folds, and stays on the leaderboard with mean -inf; an error while
    dealing or scaling a fold fails every configuration still running.
    Results are identical whatever `workers` is set to.
    """
    configs = configurations(spec)
    results: list = [[] for _ in configs]  # per configuration: its fold scores, or its error message
    pool_context = nullcontext()
    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor  # here, not at the top: only a parallel search uses it

        pool_context = ThreadPoolExecutor(max_workers=workers)
    with pool_context as pool:
        try:
            for k, (train_idx, valid_idx) in enumerate(kfold_indices(data.labels, spec.folds, spec.seed)):
                live = [i for i, result in enumerate(results) if isinstance(result, list)]
                if not live:
                    break
                jobs = [replace(configs[i], seed=_fold_seed(spec.seed, k, configs[i])) for i in live]
                for i, outcome in zip(live, _fold_outcomes(pool, data, train_idx, valid_idx, jobs, spec.metric)):
                    results[i] = outcome if isinstance(outcome, str) else results[i] + [outcome]
        except FlowElmError as exc:  # from dealing or scaling a fold
            results = [str(exc) if isinstance(result, list) else result for result in results]
    entries = [
        GridEntry(params, (), float("-inf"), 0.0, error=result)
        if isinstance(result, str)
        else GridEntry(params, tuple(result), float(np.mean(result)), float(np.std(result)))
        for params, result in zip(configs, results)
    ]
    leaderboard = tuple(sorted(entries, key=_leaderboard_key))
    if leaderboard[0].error is not None:
        raise DataError(f"every grid configuration failed; first error: {leaderboard[0].error}")
    return GridResult(entries=leaderboard, best=leaderboard[0].params)
