"""Reference computations that check the program's outputs.

Nothing here imports flowelm. Each function follows the documented file
formats and algorithms (README: artifact v1, report v1, the xoshiro256++
split, the rank AUC) with plain numpy, so that a fault in the program does
not also sit in the check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

EPS = float(np.finfo(np.float64).eps)
THRESHOLD = 0.5
NEAR = 1e-9  # scores this close to the threshold may fall either side


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Artifact:
    kept: tuple[int, ...]
    means: np.ndarray
    stds: np.ndarray
    hidden_nodes: int
    activation: str
    rbf_gamma: float
    w: np.ndarray
    b: np.ndarray
    beta: np.ndarray


def parse_artifact(text: str) -> Artifact:
    lines = text.splitlines()
    if not lines or lines[0] != "flowelm-model v1" or lines[-1] != "end":
        raise ValueError("not a complete v1 artifact")
    fields: dict[str, str] = {}
    matrices: dict[str, np.ndarray] = {}
    i = 1
    while lines[i] != "end":
        key, _, value = lines[i].partition("=")
        i += 1
        if key.startswith("matrix."):
            rows, cols = (int(t) for t in value.split())
            block = lines[i : i + rows]
            i += rows
            matrices[key[len("matrix.") :]] = np.array(
                [[float(t) for t in row.split()] for row in block]
            ).reshape(rows, cols)
        else:
            fields[key] = value

    def floats(key):
        return np.array([float(t) for t in fields[key].split()])

    return Artifact(
        kept=tuple(int(t) for t in fields["selection.kept"].split()),
        means=floats("scaler.means"),
        stds=floats("scaler.stds"),
        hidden_nodes=int(fields["elm.hidden_nodes"]),
        activation=fields["elm.activation"],
        rbf_gamma=float(fields["elm.rbf_gamma"]),
        w=matrices["input_weights"],
        b=matrices["biases"],
        beta=matrices["output_weights"],
    )


def parse_report(text: str) -> dict[str, float]:
    """key=value lines of a v1 report (the confusion block is skipped)."""
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition("=")
        if sep:
            out[key] = float(value)
    return out


def parse_cell(cell: str) -> float:
    try:
        return float(cell)
    except ValueError:
        return np.nan


def parse_capture(text: str, label_column: str = "Label", benign: str = "Benign"):
    """Labeled CSV without quoting -> (features with NaN for bad cells, 0/1 labels)."""
    lines = text.splitlines()
    header = lines[0].split(",")
    label_pos = header.index(label_column)
    rows = [line.split(",") for line in lines[1:] if line]
    labels = np.array([r[label_pos].strip().lower() != benign.lower() for r in rows], dtype=np.int64)
    x = np.array(
        [[parse_cell(c) for k, c in enumerate(r) if k != label_pos] for r in rows]
    )
    return x, labels


# ---------------------------------------------------------------------------
# the pipeline's documented row handling
# ---------------------------------------------------------------------------


def clean_rows(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Indices clean() keeps: finite rows, first of each exact duplicate."""
    finite = np.where(np.isfinite(x).all(axis=1))[0]
    keys = np.column_stack([x[finite], y[finite]])
    _, first = np.unique(keys, axis=0, return_index=True)
    return finite[np.sort(first)]


_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix(z: int) -> int:
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


class Xoshiro:
    """xoshiro256++ seeded by four splitmix64 outputs, as the README states."""

    def __init__(self, seed: int):
        state, words = seed & _MASK, []
        for _ in range(4):
            state = (state + _GOLDEN) & _MASK
            words.append(_mix(state))
        if not any(words):
            words[0] = _GOLDEN
        self.s = words

    def next_u64(self) -> int:
        s0, s1, s2, s3 = self.s
        rot = lambda v, k: ((v << k) | (v >> (64 - k))) & _MASK  # noqa: E731
        result = (rot((s0 + s3) & _MASK, 23) + s0) & _MASK
        t = (s1 << 17) & _MASK
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        self.s = [s0, s1, s2, rot(s3, 45)]
        return result

    def below(self, n: int) -> int:
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            u = self.next_u64()
            if u < limit:
                return u % n

    def shuffle(self, items: list) -> None:
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]


def stratified_split(labels: np.ndarray, fraction: float, seed: int):
    """(train, test) row indices of the documented stratified split."""
    rng = Xoshiro(seed)
    train: list[int] = []
    for cls in (0, 1):
        idx = [int(i) for i in np.where(labels == cls)[0]]
        rng.shuffle(idx)
        train.extend(idx[: int(np.floor(len(idx) * fraction + 0.5))])
    mask = np.zeros(labels.shape[0], dtype=bool)
    mask[train] = True
    return np.where(mask)[0], np.where(~mask)[0]


def selected_columns(x: np.ndarray, y: np.ndarray, threshold: float = 0.02) -> tuple[int, ...]:
    """Columns whose |Pearson correlation with the label| clears the threshold."""
    xc = x - x.mean(axis=0)
    yc = y - y.mean()
    sx = np.sqrt((xc**2).mean(axis=0))
    corr = np.zeros(x.shape[1])
    ok = sx > 0
    corr[ok] = (xc[:, ok] * yc[:, None]).mean(axis=0) / (sx[ok] * np.sqrt((yc**2).mean()))
    return tuple(int(j) for j in np.where(ok & (np.abs(corr) >= threshold))[0])


# ---------------------------------------------------------------------------
# the network
# ---------------------------------------------------------------------------


def hidden(x_scaled: np.ndarray, art: Artifact) -> np.ndarray:
    if art.activation == "rbf":
        d2 = ((x_scaled[:, :, None] - art.w[None, :, :]) ** 2).sum(axis=1)
        return np.exp(-art.rbf_gamma * d2)
    z = x_scaled @ art.w + art.b
    if art.activation == "tanh":
        return np.tanh(z)
    return 0.5 * (1.0 + np.tanh(0.5 * z))  # the logistic function


def scale(x_raw: np.ndarray, art: Artifact) -> np.ndarray:
    return (x_raw[:, list(art.kept)] - art.means) / art.stds


def scores(x_raw: np.ndarray, art: Artifact) -> np.ndarray:
    return (hidden(scale(x_raw, art), art) @ art.beta).ravel()


def fit_mismatch(h: np.ndarray, y: np.ndarray, beta: np.ndarray) -> float:
    """Relative distance between the program's fitted values and numpy's
    minimum-norm least squares on the same hidden matrix."""
    rcond = EPS * max(h.shape)
    ref = h @ np.linalg.lstsq(h, y.astype(np.float64), rcond=rcond)[0]
    got = (h @ beta).ravel()
    return float(np.linalg.norm(got - ref) / np.linalg.norm(ref))


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def rank_auc(y: np.ndarray, s: np.ndarray) -> float:
    """Mann-Whitney AUC with tied scores sharing their average rank."""
    _, inverse, counts = np.unique(s, return_inverse=True, return_counts=True)
    upper = np.cumsum(counts)
    avg_rank = upper - (counts - 1) / 2.0  # 1-based average rank of each tie group
    ranks = avg_rank[inverse]
    n_pos = int(y.sum())
    n_neg = y.shape[0] - n_pos
    return float((ranks[y == 1].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def confusion(y: np.ndarray, pred: np.ndarray) -> dict[str, int]:
    return {
        "tp": int(((y == 1) & (pred == 1)).sum()),
        "fp": int(((y == 0) & (pred == 1)).sum()),
        "tn": int(((y == 0) & (pred == 0)).sum()),
        "fn": int(((y == 1) & (pred == 0)).sum()),
    }


def f1(cm: dict[str, int]) -> float:
    den = 2 * cm["tp"] + cm["fp"] + cm["fn"]
    return 2 * cm["tp"] / den if den else 0.0


def counts_agree(report: dict[str, float], y: np.ndarray, s: np.ndarray) -> bool:
    """The report's confusion equals ours, except that records within NEAR of
    the threshold may be counted on either side of it."""
    free = np.abs(s - THRESHOLD) <= NEAR
    fixed = confusion(y[~free], (s[~free] >= THRESHOLD).astype(np.int64))
    free_pos, free_neg = int(y[free].sum()), int((y[free] == 0).sum())
    return (
        report["n_samples"] == y.shape[0]
        and report["tp"] + report["fn"] == fixed["tp"] + fixed["fn"] + free_pos
        and report["fp"] + report["tn"] == fixed["fp"] + fixed["tn"] + free_neg
        and fixed["tp"] <= report["tp"] <= fixed["tp"] + free_pos
        and fixed["fp"] <= report["fp"] <= fixed["fp"] + free_neg
    )
