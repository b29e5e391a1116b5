import math

import numpy as np
import pytest

from flowelm import model_select, preprocess
from flowelm.elm import Activation, ElmParams
from flowelm.errors import DataError, StratificationError
from flowelm.model_select import GridSpec
from flowelm.preprocess import FlowDataset
from flowelm.rng import Rng


def balanced_labels(n_per_class):
    return np.array([0] * n_per_class + [1] * n_per_class)


@pytest.fixture
def separable_data():
    """Label is the sign of the first feature; trivially learnable."""
    rs = np.random.RandomState(0)
    n = 120
    signal = np.where(np.arange(n) % 2 == 0, -1.0, 1.0)
    features = np.column_stack(
        [signal * 2.0 + rs.randn(n) * 0.2, rs.randn(n), rs.randn(n)]
    )
    labels = (signal > 0).astype(int)
    return FlowDataset(features=features, labels=labels, feature_names=("sig", "n1", "n2"))


def reference_deal(labels, seed):
    """Each class's row indices, class 0 first, Fisher-Yates shuffled by
    one Rng(seed) from the last element down."""
    rng = Rng(seed)
    classes = []
    for cls in (0, 1):
        idx = [i for i, y in enumerate(labels) if y == cls]
        for i in range(len(idx) - 1, 0, -1):
            j = rng.randbelow(i + 1)
            idx[i], idx[j] = idx[j], idx[i]
        classes.append(idx)
    return classes


class TestStratifiedDeal:
    """split() takes each class's round-half-up prefix of the deal; fold k
    validates on idx[k::folds] of each class."""

    @pytest.mark.parametrize("n, seed", [(4, 0), (7, 1), (23, 5), (60, 11), (97, 3)])
    def test_split_and_folds_follow_the_documented_deal(self, n, seed):
        rs = np.random.RandomState(n)
        labels = rs.randint(0, 2, n)
        labels[:4] = [1, 0, 0, 1]
        class0, class1 = reference_deal(labels, seed)
        data = FlowDataset(features=np.arange(n, dtype=float)[:, None], labels=labels, feature_names=("row",))
        for fraction in (0.8, 0.5, 0.3):
            train = sorted(
                idx[i] for idx in (class0, class1) for i in range(int(math.floor(len(idx) * fraction + 0.5)))
            )
            result = preprocess.split(data, fraction, seed)
            assert result.train.features[:, 0].tolist() == train
            assert result.test.features[:, 0].tolist() == sorted(set(range(n)) - set(train))
        for folds in range(2, min(len(class0), len(class1)) + 1):
            pairs = model_select.kfold_indices(labels, folds, seed)
            assert len(pairs) == folds
            for k, (train_idx, valid_idx) in enumerate(pairs):
                valid = sorted(class0[k::folds] + class1[k::folds])
                assert valid_idx.tolist() == valid
                assert train_idx.tolist() == sorted(set(range(n)) - set(valid))

    def test_too_small_classes_keep_their_messages(self):
        one = FlowDataset(features=np.zeros((4, 1)), labels=[0, 1, 1, 1], feature_names=("f",))
        with pytest.raises(StratificationError, match=r"^class 0 has 1 sample\(s\); stratified split needs >= 2$"):
            preprocess.split(one, 0.8, seed=0)
        with pytest.raises(StratificationError, match=r"^class 0 has 1 sample\(s\) but 3 folds were requested$"):
            model_select.kfold_indices(one.labels, 3, seed=0)
        with pytest.raises(StratificationError, match=r"^class 1 has 2 sample\(s\) but 3 folds were requested$"):
            model_select.kfold_indices([0, 0, 0, 1, 1], 3, seed=0)


class TestKfold:
    def test_five_five_into_five_folds(self):
        pairs = model_select.kfold_indices(balanced_labels(5), folds=5, seed=0)
        assert len(pairs) == 5
        labels = balanced_labels(5)
        for _, valid in pairs:
            assert len(valid) == 2
            assert labels[valid].sum() == 1  # one of each class

    def test_partition_property(self):
        labels = balanced_labels(13)
        pairs = model_select.kfold_indices(labels, folds=4, seed=1)
        all_valid = np.concatenate([valid for _, valid in pairs])
        assert sorted(all_valid) == list(range(26))
        for train, valid in pairs:
            assert set(train) | set(valid) == set(range(26))
            assert not set(train) & set(valid)

    def test_deterministic(self):
        labels = balanced_labels(10)
        first = model_select.kfold_indices(labels, folds=5, seed=7)
        second = model_select.kfold_indices(labels, folds=5, seed=7)
        for (t1, v1), (t2, v2) in zip(first, second):
            assert np.array_equal(t1, t2) and np.array_equal(v1, v2)

    def test_class_smaller_than_folds(self):
        labels = np.array([0, 0, 0, 1, 1, 1, 1, 1])
        with pytest.raises(StratificationError, match="class 0"):
            model_select.kfold_indices(labels, folds=4, seed=0)


class TestCrossValidate:
    def test_separable_toy_high_accuracy(self, separable_data):
        params = ElmParams(hidden_nodes=32, activation=Activation.TANH, seed=0)
        scores = model_select.cross_validate(
            separable_data, params, folds=5, seed=3, metric="accuracy"
        )
        assert np.mean(scores) >= 0.95

    def test_metric_list_length_equals_folds(self, separable_data):
        params = ElmParams(hidden_nodes=8, activation=Activation.SIGMOID, seed=0)
        assert len(model_select.cross_validate(separable_data, params, 4, 0)) == 4

    def test_repeat_call_identical(self, separable_data):
        params = ElmParams(hidden_nodes=16, activation=Activation.TANH, seed=0)
        a = model_select.cross_validate(separable_data, params, 5, 11)
        b = model_select.cross_validate(separable_data, params, 5, 11)
        assert a == b

    def test_params_seed_field_is_ignored(self, separable_data):
        a = model_select.cross_validate(
            separable_data, ElmParams(16, Activation.TANH, seed=1), 5, 11
        )
        b = model_select.cross_validate(
            separable_data, ElmParams(16, Activation.TANH, seed=99), 5, 11
        )
        assert a == b

    def test_no_leakage_scaler_sees_only_fold_train_rows(self, separable_data, monkeypatch):
        # marker column: row ordinal, so captured scaler inputs identify rows
        n = separable_data.n_samples
        marked = FlowDataset(
            features=np.column_stack([separable_data.features, np.arange(n, dtype=float)]),
            labels=separable_data.labels,
            feature_names=separable_data.feature_names + ("marker",),
        )
        seen = []
        real_fit_scaler = model_select.fit_scaler

        def spy(features):
            seen.append(np.asarray(features)[:, -1].astype(int))
            return real_fit_scaler(features)

        monkeypatch.setattr(model_select, "fit_scaler", spy)
        params = ElmParams(hidden_nodes=4, activation=Activation.TANH, seed=0)
        model_select.cross_validate(marked, params, folds=5, seed=2)
        pairs = model_select.kfold_indices(marked.labels, 5, 2)
        assert len(seen) == 5
        for markers, (train_idx, _) in zip(seen, pairs):
            assert np.array_equal(np.sort(markers), train_idx)


class TestGridSearch:
    def test_single_configuration_is_best(self, separable_data):
        spec = GridSpec(
            hidden_nodes=(8,), activations=(Activation.TANH,), folds=3, seed=0
        )
        result = model_select.grid_search(separable_data, spec)
        assert len(result.entries) == 1
        assert result.best == result.entries[0].params
        assert result.best.hidden_nodes == 8

    def test_gamma_only_crossed_with_rbf(self):
        spec = GridSpec(
            hidden_nodes=(4, 8),
            activations=(Activation.TANH, Activation.RBF),
            rbf_gammas=(0.5, 2.0),
            folds=2,
            seed=0,
        )
        configs = model_select.configurations(spec)
        assert len(configs) == 2 * (1 + 2)
        rbf_gammas = sorted(c.rbf_gamma for c in configs if c.activation is Activation.RBF)
        assert rbf_gammas == [0.5, 0.5, 2.0, 2.0]

    def test_equal_means_tie_break_prefers_fewer_nodes(self, separable_data, monkeypatch):
        monkeypatch.setattr(
            model_select, "cross_validate", lambda *args, **kwargs: [0.9, 0.9]
        )
        spec = GridSpec(
            hidden_nodes=(64, 16), activations=(Activation.TANH,), folds=2, seed=0
        )
        result = model_select.grid_search(separable_data, spec)
        assert result.best.hidden_nodes == 16

    def test_equal_means_tie_break_activation_order(self, separable_data, monkeypatch):
        monkeypatch.setattr(
            model_select, "cross_validate", lambda *args, **kwargs: [0.9, 0.9]
        )
        spec = GridSpec(
            hidden_nodes=(16,),
            activations=(Activation.RBF, Activation.SIGMOID, Activation.TANH),
            folds=2,
            seed=0,
        )
        result = model_select.grid_search(separable_data, spec)
        assert result.best.activation is Activation.TANH

    def test_leaderboard_sorted_and_matches_independent_cv(self, separable_data):
        spec = GridSpec(
            hidden_nodes=(4, 16),
            activations=(Activation.TANH, Activation.SIGMOID),
            folds=3,
            seed=5,
        )
        result = model_select.grid_search(separable_data, spec)
        assert len(result.entries) == 4
        means = [entry.mean for entry in result.entries]
        assert means == sorted(means, reverse=True)
        for entry in result.entries:
            independent = model_select.cross_validate(
                separable_data, entry.params, spec.folds, spec.seed, spec.metric
            )
            assert np.abs(np.array(independent) - np.array(entry.fold_scores)).max() < 1e-12
            assert abs(entry.mean - np.mean(independent)) < 1e-12

    def test_failed_configuration_does_not_abort(self, separable_data, monkeypatch):
        real = model_select.cross_validate

        def flaky(data, params, folds, seed, metric="f1"):
            if params.hidden_nodes == 8:
                raise DataError("synthetic failure")
            return real(data, params, folds, seed, metric)

        monkeypatch.setattr(model_select, "cross_validate", flaky)
        spec = GridSpec(hidden_nodes=(8, 16), activations=(Activation.TANH,), folds=2, seed=0)
        result = model_select.grid_search(separable_data, spec)
        assert len(result.entries) == 2
        failed = [e for e in result.entries if e.error is not None]
        assert len(failed) == 1
        assert failed[0].mean == float("-inf")
        assert result.entries[-1] is failed[0]
        assert result.best.hidden_nodes == 16

    def test_serial_and_parallel_identical(self, separable_data):
        spec = GridSpec(
            hidden_nodes=(4, 8),
            activations=(Activation.TANH, Activation.SIGMOID),
            folds=3,
            seed=2,
        )
        serial = model_select.grid_search(separable_data, spec, workers=1)
        parallel = model_select.grid_search(separable_data, spec, workers=4)
        assert serial.best == parallel.best
        for a, b in zip(serial.entries, parallel.entries):
            assert a.params == b.params
            assert a.fold_scores == b.fold_scores
            assert a.mean == b.mean and a.std == b.std

    def test_spec_validation(self):
        with pytest.raises(DataError):
            GridSpec(folds=1)
        with pytest.raises(DataError):
            GridSpec(hidden_nodes=())
        with pytest.raises(DataError):
            GridSpec(metric="recall")
