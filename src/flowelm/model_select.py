"""Hyperparameter search: stratified k-fold CV over a width/activation grid.

The folds are dealt once per grid, and each fold fits one scaler on its
own training rows, so no validation statistics leak into training. Widths
are nested: per fold and (activation, gamma), one layer of the grid's
widest width is drawn from a seed derived from (base seed, fold index,
activation, gamma), and width k is the network of its first k nodes. A
configuration's fold scores depend on the grid only through that widest
width: the order of the widths, the other activations and gammas, the
evaluation order and parallelism cannot change any number. A wider widest
width keeps every network's nodes but can move the last bits of its
output weights, since R's rounding depends on its column count.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from . import elm, linalg, metrics
from .elm import Activation, ElmParams
from .errors import DataError, FlowElmError, StratificationError
from .preprocess import FlowDataset, fit_scaler, scale_in_place, stratified_deal
from .rng import Rng, derive_seed, float_bits

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


def _fold_seed(seed: int, fold_index: int, activation: Activation, rbf_gamma: float) -> int:
    return derive_seed(seed, fold_index, list(Activation).index(activation), float_bits(rbf_gamma))


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


def _solved(solve, width: int):
    """One width's output weights, or the message of the error its solve
    raised: that width fails alone."""
    try:
        return solve(width)
    except FlowElmError as exc:
        return str(exc)


def _fold_outcomes(pool, data: FlowDataset, train_idx, valid_idx, units, widest: int, metric: str) -> list:
    """Per unit (activation, gamma, seed, widths) in `units`, per width: its
    metric on one fold, or the message of the error its fit raised.

    The fold's rows are scaled once, by a scaler fitted on its training
    rows: each side's fancy-index copy is scaled in place, and goes on
    return. A unit draws `widest` nodes once, node-major (row j of the draw
    is node j's weights, then its bias), folds the training rows into one R
    factor, solves it for each width, and scores the validation rows once.
    """
    x_train, y_train = data.features[train_idx], data.labels[train_idx]
    x_valid, y_valid = data.features[valid_idx], data.labels[valid_idx]
    scaler = fit_scaler(x_train)
    scale_in_place(scaler, x_train)
    scale_in_place(scaler, x_valid)

    def outcomes(unit) -> list:
        activation, gamma, seed, widths = unit
        try:
            nodes = Rng(seed).uniform_matrix(widest, x_train.shape[1] + 1, -1.0, 1.0)
            w, b = nodes[:, :-1].T, nodes[:, -1:].T
            solve = linalg.r_solver(elm.fold_rows(x_train, y_train, w, b, activation, gamma), len(x_train))
            solved = [_solved(solve, width) for width in widths]
            scores = iter(elm.score_widths(
                x_valid, w, b, activation, gamma, [beta for beta in solved if not isinstance(beta, str)]
            ))
        except FlowElmError as exc:
            return [str(exc)] * len(widths)
        return [
            beta if isinstance(beta, str)
            else _metric_value(metrics.confusion(y_valid, next(scores) >= 0.5), metric)
            for beta in solved
        ]

    return list(map(outcomes, units) if pool is None else pool.map(outcomes, units))


def grid_search(data: FlowDataset, spec: GridSpec, workers: int = 1) -> GridResult:
    """Evaluate every configuration by CV, one fold at a time, and rank them.

    Each fold runs one unit per (activation, gamma) that has a width still
    running. A configuration whose fit raises keeps the message, runs no
    later folds, and stays on the leaderboard with mean -inf; an error
    while dealing or scaling a fold fails every configuration still
    running. Results are identical whatever `workers` is set to.
    """
    configs = configurations(spec)
    results: list = [[] for _ in configs]  # per configuration: its fold scores, or its error message
    groups: dict = {}  # (activation, gamma) -> its configurations' indices, in grid order
    for i, params in enumerate(configs):
        groups.setdefault((params.activation, params.rbf_gamma), []).append(i)
    widest = max(spec.hidden_nodes)
    pool_context = nullcontext()
    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor  # here, not at the top: only a parallel search uses it

        pool_context = ThreadPoolExecutor(max_workers=workers)
    with pool_context as pool:
        try:
            for k, (train_idx, valid_idx) in enumerate(kfold_indices(data.labels, spec.folds, spec.seed)):
                live = {key: [i for i in group if isinstance(results[i], list)] for key, group in groups.items()}
                live = {key: group for key, group in live.items() if group}
                if not live:
                    break
                units = [
                    (activation, gamma, _fold_seed(spec.seed, k, activation, gamma),
                     [configs[i].hidden_nodes for i in group])
                    for (activation, gamma), group in live.items()
                ]
                for group, outcomes in zip(
                    live.values(), _fold_outcomes(pool, data, train_idx, valid_idx, units, widest, spec.metric)
                ):
                    for i, outcome in zip(group, outcomes):
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
