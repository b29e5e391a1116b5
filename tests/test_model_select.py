import math

import numpy as np
import pytest

from flowelm import elm, model_select, preprocess
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

    @pytest.mark.parametrize("n, seed", [(5_000, 2), (20_001, 9)])
    def test_deals_past_the_lane_crossover_follow_the_documented_deal(self, n, seed):
        """Classes this large take their bounded draws in numpy lanes."""
        labels = np.random.RandomState(n).randint(0, 2, n)
        class0, class1 = reference_deal(labels, seed)
        train_idx, test_idx = preprocess.split_indices(labels, 0.8, seed)
        train = sorted(idx[i] for idx in (class0, class1) for i in range(int(math.floor(len(idx) * 0.8 + 0.5))))
        assert train_idx.tolist() == train
        assert test_idx.tolist() == sorted(set(range(n)) - set(train))
        for k, (train_idx, valid_idx) in enumerate(model_select.kfold_indices(labels, 5, seed)):
            valid = sorted(class0[k::5] + class1[k::5])
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


def one_configuration_scores(data, params, folds, seed, metric="f1"):
    """The fold scores of a grid of `params` alone."""
    spec = GridSpec(
        hidden_nodes=(params.hidden_nodes,),
        activations=(params.activation,),
        rbf_gammas=(params.rbf_gamma,),
        folds=folds,
        seed=seed,
        metric=metric,
    )
    (entry,) = model_select.grid_search(data, spec).entries
    return list(entry.fold_scores)


class TestCrossValidate:
    """Cross-validation of one configuration: a grid of that one alone."""

    def test_separable_toy_high_accuracy(self, separable_data):
        params = ElmParams(hidden_nodes=32, activation=Activation.TANH, seed=0)
        scores = one_configuration_scores(separable_data, params, folds=5, seed=3, metric="accuracy")
        assert np.mean(scores) >= 0.95

    def test_metric_list_length_equals_folds(self, separable_data):
        params = ElmParams(hidden_nodes=8, activation=Activation.SIGMOID, seed=0)
        assert len(one_configuration_scores(separable_data, params, 4, 0)) == 4

    def test_repeat_call_identical(self, separable_data):
        params = ElmParams(hidden_nodes=16, activation=Activation.TANH, seed=0)
        a = one_configuration_scores(separable_data, params, 5, 11)
        b = one_configuration_scores(separable_data, params, 5, 11)
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
        one_configuration_scores(marked, params, folds=5, seed=2)
        pairs = model_select.kfold_indices(marked.labels, 5, 2)
        assert len(seen) == 5
        for markers, (train_idx, _) in zip(seen, pairs):
            assert np.array_equal(np.sort(markers), train_idx)


class TestFoldRowsScaledInPlace:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_each_fit_gets_the_array_the_folds_scaler_measured(self, separable_data, monkeypatch, workers):
        """A fold's training rows are scaled in place, with apply_scaler's
        bits: every fit of the fold gets the very array that fit_scaler
        measured, so no second copy of them is made."""
        calls = []  # ("fit_scaler", its input, a copy of it) or ("fit", its input)
        real_fit_scaler, real_fit = model_select.fit_scaler, elm.fit

        def spy_fit_scaler(train_features, *names):
            calls.append(("fit_scaler", train_features, np.array(train_features)))
            return real_fit_scaler(train_features, *names)

        def spy_fit(x, y, params):
            calls.append(("fit", x))
            return real_fit(x, y, params)

        monkeypatch.setattr(model_select, "fit_scaler", spy_fit_scaler)
        monkeypatch.setattr(model_select.elm, "fit", spy_fit)
        spec = GridSpec(hidden_nodes=(4, 8), activations=(Activation.TANH, Activation.SIGMOID), folds=3, seed=1)
        model_select.grid_search(separable_data, spec, workers=workers)
        assert [name for name, *_ in calls] == (["fit_scaler"] + ["fit"] * 4) * 3
        for call in calls:
            if call[0] == "fit_scaler":
                _, measured, unscaled = call
                expected = preprocess.apply_scaler(real_fit_scaler(unscaled), unscaled)
            else:
                assert call[1] is measured
                assert call[1].tobytes() == expected.tobytes()


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
        monkeypatch.setattr(model_select, "_metric_value", lambda cm, metric: 0.9)
        spec = GridSpec(
            hidden_nodes=(64, 16), activations=(Activation.TANH,), folds=2, seed=0
        )
        result = model_select.grid_search(separable_data, spec)
        assert result.best.hidden_nodes == 16

    def test_equal_means_tie_break_activation_order(self, separable_data, monkeypatch):
        monkeypatch.setattr(model_select, "_metric_value", lambda cm, metric: 0.9)
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
            alone = one_configuration_scores(separable_data, entry.params, spec.folds, spec.seed, spec.metric)
            assert list(entry.fold_scores) == alone
            assert entry.mean == np.mean(alone)

    def test_failed_configuration_does_not_abort(self, separable_data, monkeypatch):
        real = elm.fit
        widths = []

        def flaky(x, y, params):
            widths.append(params.hidden_nodes)
            if params.hidden_nodes == 8:
                raise DataError("synthetic failure")
            return real(x, y, params)

        monkeypatch.setattr(elm, "fit", flaky)
        spec = GridSpec(hidden_nodes=(8, 16), activations=(Activation.TANH,), folds=2, seed=0)
        result = model_select.grid_search(separable_data, spec)
        assert len(result.entries) == 2
        failed = [e for e in result.entries if e.error is not None]
        assert len(failed) == 1
        assert failed[0].mean == float("-inf")
        assert result.entries[-1] is failed[0]
        assert result.best.hidden_nodes == 16
        assert widths == [8, 16, 16]  # the failed configuration runs no later fold

    def test_folds_dealt_and_scaled_once_for_every_configuration(self, separable_data, monkeypatch):
        calls = {"kfold_indices": 0, "fit_scaler": 0}

        def counted(name):
            real = getattr(model_select, name)

            def spy(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            return spy

        for name in calls:
            monkeypatch.setattr(model_select, name, counted(name))
        spec = GridSpec(
            hidden_nodes=(4, 8, 16),
            activations=(Activation.TANH, Activation.SIGMOID, Activation.RBF),
            folds=5,
            seed=1,
        )
        result = model_select.grid_search(separable_data, spec)
        assert len(result.entries) == 9
        assert calls == {"kfold_indices": 1, "fit_scaler": 5}

    def test_class_smaller_than_folds_fails_every_configuration(self, separable_data):
        keep = np.concatenate([np.flatnonzero(separable_data.labels == 0), np.flatnonzero(separable_data.labels)[:2]])
        data = separable_data.subset_rows(keep)
        spec = GridSpec(hidden_nodes=(4, 8), activations=(Activation.TANH,), folds=3, seed=0)
        with pytest.raises(DataError, match=(
            r"^every grid configuration failed; first error: class 1 has 2 sample\(s\) but 3 folds were requested$"
        )):
            model_select.grid_search(data, spec)

    def test_fold_scaling_error_fails_every_running_configuration(self, separable_data, monkeypatch):
        real = model_select.fit_scaler
        fits = []

        def failing_second_fold(features):
            fits.append(len(features))
            if len(fits) == 2:
                raise DataError("scaler failure")
            return real(features)

        monkeypatch.setattr(model_select, "fit_scaler", failing_second_fold)
        spec = GridSpec(hidden_nodes=(4, 8), activations=(Activation.TANH,), folds=3, seed=0)
        with pytest.raises(DataError, match=r"^every grid configuration failed; first error: scaler failure$"):
            model_select.grid_search(separable_data, spec)
        assert len(fits) == 2  # no fold is scaled after the failure

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
