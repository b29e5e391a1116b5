"""Acceptance checklist; one test per criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines live.
Criterion 1 needs a real CICIoMT2024 CSV export and is skipped unless
FLOWELM_CICIOMT_CSV points at one (see the README's extended-check notes).
"""

import os
import time

import numpy as np
import pytest

from conftest import run_cli
from flowelm import dataio, elm, linalg, metrics, model_select, preprocess
from flowelm.elm import Activation, ElmParams
from flowelm.model_select import GridSpec
from flowelm.preprocess import FlowDataset

from test_linalg import gauss_solve, penrose_errors
from test_metrics import counting_oracle, pair_counting_auc


def ok(number, name):
    print(f"ACCEPTANCE {number} {name}: PASS")


def train_test_pipeline(data, seed, hidden=64, activation=Activation.TANH, threshold=0.02):
    cleaned = preprocess.clean(data)
    selection = preprocess.select_features(cleaned, threshold)
    parts = preprocess.split(cleaned, 0.8, seed)
    train = parts.train.subset_columns(selection.kept_indices)
    test = parts.test.subset_columns(selection.kept_indices)
    scaler = preprocess.fit_scaler(train.features)
    x_train = preprocess.apply_scaler(scaler, train.features)
    x_test = preprocess.apply_scaler(scaler, test.features)
    model = elm.fit(x_train, train.labels, ElmParams(hidden, activation, seed=seed))
    test_ds = FlowDataset(
        features=x_test, labels=test.labels, feature_names=train.feature_names
    )
    return metrics.evaluate(model, test_ds, 0.5)


def test_criterion_1_full_scale_dataset():
    """Accuracy within [92.87, 96.87]% and P/R/F1 within 0.95 +/- 0.03 on a
    real CICIoMT2024 export, via grid search over the default candidates."""
    path = os.environ.get("FLOWELM_CICIOMT_CSV")
    if not path:
        pytest.skip(
            "extended check: set FLOWELM_CICIOMT_CSV to a labeled CICIoMT2024 "
            "CSV export to run (long-running; see README)"
        )
    raw = dataio.load_csv(path)
    cleaned = preprocess.clean(raw)
    selection = preprocess.select_features(cleaned, 0.02)
    parts = preprocess.split(cleaned, 0.8, seed=7)
    train = parts.train.subset_columns(selection.kept_indices)
    test = parts.test.subset_columns(selection.kept_indices)
    result = model_select.grid_search(train, GridSpec(seed=7))
    scaler = preprocess.fit_scaler(train.features)
    model = elm.fit(
        preprocess.apply_scaler(scaler, train.features), train.labels, result.best
    )
    test_ds = FlowDataset(
        features=preprocess.apply_scaler(scaler, test.features),
        labels=test.labels,
        feature_names=train.feature_names,
    )
    report = metrics.evaluate(model, test_ds, 0.5)
    assert 0.9287 <= report.accuracy <= 0.9687
    for value in (report.precision, report.recall, report.f1):
        assert 0.92 <= value <= 0.98
    ok(1, "full-scale dataset result")


def test_criterion_2_desk_scale_synthetic():
    """Default synthetic data, 64 tanh nodes: accuracy >= 0.95, AUC >= 0.97,
    under 60 seconds."""
    started = time.monotonic()
    data = dataio.generate_synthetic(dataio.SyntheticSpec())  # 2000 + 2000, seed 7
    report = train_test_pipeline(data, seed=7)
    elapsed = time.monotonic() - started
    assert report.accuracy >= 0.95
    assert report.auc_roc >= 0.97
    assert elapsed < 60.0
    ok(2, f"desk-scale synthetic (acc={report.accuracy:.4f}, auc={report.auc_roc:.4f})")


def test_criterion_3_numerics_suite():
    """Penrose conditions within 1e-8 for 100 random matrices up to 50x50,
    including rank-deficient and zero; lstsq matches normal equations."""
    started = time.monotonic()
    rs = np.random.RandomState(33)
    for i in range(100):
        m = rs.randint(1, 51)
        n = rs.randint(1, 51)
        if i == 0:
            a = np.zeros((5, 7))
        elif i % 4 == 0:
            rank = rs.randint(1, min(m, n) + 1)
            a = rs.randn(m, rank) @ rs.randn(rank, n)
        else:
            a = rs.randn(m, n) * 10.0 ** rs.randint(-2, 3)
        p = linalg.pseudoinverse(a)
        assert max(penrose_errors(a, p)) <= 1e-8, f"Penrose failed on case {i} ({m}x{n})"

    for _ in range(10):
        a = rs.randn(rs.randint(6, 30), rs.randint(2, 6))
        t = rs.randn(a.shape[0], 1)
        oracle = gauss_solve(a.T @ a, a.T @ t)
        assert np.abs(linalg.lstsq(a, t) - oracle).max() <= 1e-8
    elapsed = time.monotonic() - started
    assert elapsed < 10.0
    ok(3, f"numerics suite ({elapsed:.1f}s)")


def test_criterion_4_interpolation_property():
    """50 distinct samples, 50 tanh nodes: training MSE below 1e-6.
    One re-seed is allowed for a rank-deficient draw; two failures fail."""
    started = time.monotonic()
    rs = np.random.RandomState(44)
    x = rs.randn(50, 8)
    y = rs.randint(0, 2, 50)
    y[:2] = [0, 1]

    def attempt(seed):
        model = elm.fit(x, y, ElmParams(hidden_nodes=50, activation=Activation.TANH, seed=seed))
        return float(np.mean((elm.score(model, x) - y) ** 2))

    mse = attempt(0)
    if mse >= 1e-6:
        mse = attempt(1)
    assert mse < 1e-6
    assert time.monotonic() - started < 5.0
    ok(4, f"interpolation property (mse={mse:.2e})")


def test_criterion_5_metric_oracles():
    """Confusion equals a counting loop exactly; AUC equals the pair-counting
    oracle within 1e-12 on 100 random instances plus the edge cases."""
    started = time.monotonic()
    rs = np.random.RandomState(55)
    for _ in range(100):
        n = rs.randint(4, 60)
        y = rs.randint(0, 2, n)
        y[:2] = [0, 1]
        pred = rs.randint(0, 2, n)
        cm = metrics.confusion(y, pred)
        assert (cm.tp, cm.fp, cm.tn, cm.fn) == counting_oracle(y, pred)
        scores = np.round(rs.randn(n), 1)
        assert abs(metrics.auc_roc(y, scores) - pair_counting_auc(y, scores)) < 1e-12
    assert metrics.auc_roc([1, 0, 1, 0], [0.3, 0.3, 0.3, 0.3]) == 0.5
    assert metrics.auc_roc([1, 1, 0], [1.0, 0.9, 0.1]) == 1.0
    assert time.monotonic() - started < 5.0
    ok(5, "metric oracles")


def test_criterion_6_preprocessing_oracles():
    """Hand-computed Pearson table within 1e-12; z-scored training columns
    standardized within 1e-12; split is a stratified partition."""
    import math

    features = np.array(
        [
            [1.0, 5.0, 1.0],
            [2.0, 5.0, 0.0],
            [3.0, 5.0, 1.0],
            [4.0, 5.0, 0.0],
            [5.0, 5.0, 0.0],
            [6.0, 5.0, 1.0],
        ]
    )
    ds = FlowDataset(features=features, labels=[0, 0, 0, 1, 1, 1], feature_names=("a", "b", "c"))
    sel = preprocess.select_features(ds, 0.02)
    assert abs(sel.correlations[0] - 0.75 / (math.sqrt(17.5 / 6.0) * 0.5)) < 1e-12
    assert sel.correlations[1] == 0.0
    assert abs(sel.correlations[2] - (-1.0 / 3.0)) < 1e-12
    assert sel.kept_indices == (0, 2)

    rs = np.random.RandomState(66)
    train = rs.randn(40, 5) * 3.0 + 11.0
    state = preprocess.fit_scaler(train)
    scaled = preprocess.apply_scaler(state, train)
    assert np.abs(scaled.mean(axis=0)).max() < 1e-12
    assert np.abs(scaled.std(axis=0) - 1.0).max() < 1e-12

    labels = rs.randint(0, 2, 101)
    labels[:2] = [0, 1]
    big = FlowDataset(features=rs.randn(101, 2), labels=labels, feature_names=("x", "y"))
    parts = preprocess.split(big, 0.8, seed=1)
    assert parts.train.n_samples + parts.test.n_samples == 101
    merged = np.sort(np.concatenate([parts.train.features[:, 0], parts.test.features[:, 0]]))
    assert np.array_equal(merged, np.sort(big.features[:, 0]))
    for cls in (0, 1):
        total = int((labels == cls).sum())
        in_train = int((parts.train.labels == cls).sum())
        assert abs(in_train - total * 0.8) <= 1.0
    ok(6, "preprocessing oracles")


def test_criterion_7_determinism(tmp_path):
    """Identical flags and seed give byte-identical artifacts and reports;
    the grid leaderboard is identical under serial and parallel execution."""
    csv_path = tmp_path / "flows.csv"
    dataio.write_csv(
        dataio.generate_synthetic(dataio.SyntheticSpec(n_benign=150, n_attack=150, seed=7)),
        csv_path,
    )
    artifacts = []
    for run in (1, 2):
        model_path = tmp_path / f"run{run}.flowelm"
        result = run_cli(
            "train", "--input", str(csv_path), "--model", str(model_path), "--seed", "21"
        )
        assert result.returncode == 0, result.stderr
        artifacts.append(
            (model_path.read_bytes(), (tmp_path / f"run{run}.flowelm.report.txt").read_bytes())
        )
    assert artifacts[0] == artifacts[1]

    data = preprocess.clean(dataio.load_csv(csv_path))
    spec = GridSpec(
        hidden_nodes=(8, 16),
        activations=(Activation.TANH, Activation.SIGMOID),
        folds=3,
        seed=5,
    )
    serial = model_select.grid_search(data, spec, workers=1)
    parallel = model_select.grid_search(data, spec, workers=4)
    assert serial.best == parallel.best
    assert [e.params for e in serial.entries] == [e.params for e in parallel.entries]
    assert [e.fold_scores for e in serial.entries] == [e.fold_scores for e in parallel.entries]
    ok(7, "determinism (byte-identical runs, serial == parallel grid)")


def test_criterion_8_batch_stream_equivalence(tmp_path):
    """Streaming verdict labels equal the batch evaluation predictions, and
    stream scores equal batch scores bit for bit."""
    csv_path = tmp_path / "flows.csv"
    dataio.write_csv(
        dataio.generate_synthetic(dataio.SyntheticSpec(n_benign=200, n_attack=200, seed=7)),
        csv_path,
    )
    model_path = tmp_path / "m.flowelm"
    assert run_cli(
        "train", "--input", str(csv_path), "--model", str(model_path), "--seed", "3"
    ).returncode == 0

    stream = run_cli("score", "--model", str(model_path), "--input", str(csv_path))
    assert stream.returncode == 0, stream.stderr
    stream_labels = [int(line.split(",")[2]) for line in stream.stdout.splitlines()]

    artifact = dataio.load_model(model_path)
    raw = dataio.load_csv(csv_path, artifact.schema)
    x = preprocess.apply_scaler(
        artifact.scaler, raw.features[:, list(artifact.selection.kept_indices)]
    )
    batch_labels = list(elm.predict(artifact.model, x, 0.5))
    assert stream_labels == batch_labels
    # a record's score does not depend on the records scored with it
    stream_scores = [line.split(",")[1] for line in stream.stdout.splitlines()]
    assert stream_scores == [dataio.format_float(s) for s in elm.score(artifact.model, x)]

    evaluation = run_cli("evaluate", "--model", str(model_path), "--input", str(csv_path))
    assert evaluation.returncode == 0
    values = dict(
        line.partition("=")[::2] for line in evaluation.stdout.splitlines() if "=" in line
    )
    cm = metrics.confusion(raw.labels, np.array(stream_labels))
    assert int(values["tp"]) == cm.tp and int(values["fp"]) == cm.fp
    assert int(values["tn"]) == cm.tn and int(values["fn"]) == cm.fn
    ok(8, "batch/stream equivalence")


def test_criterion_9_serialization_round_trip(tmp_path):
    """Save -> load -> score differs by exactly 0.0 on a 1000-row probe."""
    data = dataio.generate_synthetic(dataio.SyntheticSpec(n_benign=300, n_attack=300, seed=7))
    cleaned = preprocess.clean(data)
    selection = preprocess.select_features(cleaned, 0.02)
    train = cleaned.subset_columns(selection.kept_indices)
    scaler = preprocess.fit_scaler(train.features)
    model = elm.fit(
        preprocess.apply_scaler(scaler, train.features),
        train.labels,
        ElmParams(hidden_nodes=32, activation=Activation.SIGMOID, seed=11),
    )
    artifact = dataio.ModelArtifact(
        model=model,
        selection=selection,
        scaler=scaler,
        schema=dataio.CsvSchema(),
        feature_names=cleaned.feature_names,
        seed=11,
        fingerprint=dataio.fingerprint(cleaned),
        source=cleaned.source,
    )
    path = tmp_path / "m.flowelm"
    dataio.save_model(artifact, path)
    loaded = dataio.load_model(path)

    rs = np.random.RandomState(77)
    probe = rs.randn(1000, model.n_features)
    before = elm.score(model, probe)
    after = elm.score(loaded.model, probe)
    assert np.abs(before - after).max() == 0.0
    ok(9, "serialization round trip")
