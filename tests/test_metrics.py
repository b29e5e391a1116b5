import math

import numpy as np
import pytest

from flowelm import elm, metrics
from flowelm.elm import Activation, ElmParams
from flowelm.errors import DataError, ShapeError
from flowelm.metrics import ConfusionMatrix
from flowelm.preprocess import FlowDataset


def counting_oracle(y_true, y_pred):
    tp = fp = tn = fn = 0
    for t, p in zip(y_true, y_pred):
        if t == 1 and p == 1:
            tp += 1
        elif t == 0 and p == 1:
            fp += 1
        elif t == 0 and p == 0:
            tn += 1
        else:
            fn += 1
    return tp, fp, tn, fn


def pair_counting_auc(y_true, scores):
    """O(P*N) oracle: wins count 1, ties count one half."""
    pos = [s for t, s in zip(y_true, scores) if t == 1]
    neg = [s for t, s in zip(y_true, scores) if t == 0]
    total = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                total += 1.0
            elif p == n:
                total += 0.5
    return total / (len(pos) * len(neg))


class TestConfusion:
    def test_all_correct_positives(self):
        cm = metrics.confusion([1, 1, 1], [1, 1, 1])
        assert (cm.tp, cm.fp, cm.tn, cm.fn) == (3, 0, 0, 0)

    def test_small_enumeration(self):
        cm = metrics.confusion([1, 0, 1, 0], [1, 1, 0, 0])
        assert (cm.tp, cm.fp, cm.fn, cm.tn) == (1, 1, 1, 1)

    def test_matches_counting_oracle_on_random_pairs(self):
        rs = np.random.RandomState(0)
        y_true = rs.randint(0, 2, 200)
        y_pred = rs.randint(0, 2, 200)
        cm = metrics.confusion(y_true, y_pred)
        assert (cm.tp, cm.fp, cm.tn, cm.fn) == counting_oracle(y_true, y_pred)

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            metrics.confusion([1, 0], [1])

    def test_counts_sum_to_total(self):
        rs = np.random.RandomState(1)
        for _ in range(20):
            n = rs.randint(1, 50)
            cm = metrics.confusion(rs.randint(0, 2, n), rs.randint(0, 2, n))
            assert cm.total == n


class TestPrf1:
    def test_balanced_half(self):
        assert metrics.prf1(ConfusionMatrix(tp=1, fp=1, tn=0, fn=1)) == (0.5, 0.5, 0.5)

    def test_zero_denominators_yield_zero(self):
        assert metrics.prf1(ConfusionMatrix(tp=0, fp=0, tn=5, fn=0)) == (0.0, 0.0, 0.0)

    def test_hand_arithmetic(self):
        precision, recall, f1 = metrics.prf1(ConfusionMatrix(tp=9, fp=1, tn=0, fn=3))
        assert abs(precision - 0.9) < 1e-15
        assert abs(recall - 0.75) < 1e-15
        assert abs(f1 - 9.0 / 11.0) < 1e-12  # 2*0.9*0.75 / 1.65

    def test_f1_between_precision_and_recall(self):
        rs = np.random.RandomState(2)
        for _ in range(200):
            cm = ConfusionMatrix(*(int(v) for v in rs.randint(0, 30, 4)))
            p, r, f1 = metrics.prf1(cm)
            assert 0.0 <= p <= 1.0 and 0.0 <= r <= 1.0
            if p > 0 and r > 0:
                assert min(p, r) - 1e-12 <= f1 <= max(p, r) + 1e-12


class TestAccuracy:
    def test_perfect(self):
        assert metrics.accuracy(ConfusionMatrix(tp=5, fp=0, tn=5, fn=0)) == 1.0

    def test_all_wrong(self):
        assert metrics.accuracy(ConfusionMatrix(tp=0, fp=5, tn=0, fn=5)) == 0.0

    def test_hand_arithmetic(self):
        assert metrics.accuracy(ConfusionMatrix(tp=40, fp=3, tn=55, fn=2)) == 0.95

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            metrics.accuracy(ConfusionMatrix(tp=0, fp=0, tn=0, fn=0))


class TestAucRoc:
    def test_perfect_separation(self):
        assert metrics.auc_roc([1, 1, 0, 0], [1.0, 1.0, 0.0, 0.0]) == 1.0

    def test_all_ties(self):
        assert metrics.auc_roc([1, 0, 1, 0], [0.7, 0.7, 0.7, 0.7]) == 0.5

    def test_matches_pair_counting_oracle(self):
        rs = np.random.RandomState(3)
        for trial in range(100):
            n = rs.randint(4, 30)
            y = rs.randint(0, 2, n)
            y[:2] = [0, 1]
            scores = np.round(rs.randn(n), 1)  # rounding forces ties
            assert abs(metrics.auc_roc(y, scores) - pair_counting_auc(y, scores)) < 1e-12

    def test_single_class_rejected(self):
        with pytest.raises(DataError):
            metrics.auc_roc([1, 1], [0.1, 0.2])

    def test_invariant_under_monotone_transforms(self):
        rs = np.random.RandomState(4)
        y = rs.randint(0, 2, 40)
        y[:2] = [0, 1]
        scores = rs.randn(40)
        base = metrics.auc_roc(y, scores)
        assert abs(metrics.auc_roc(y, np.exp(scores)) - base) < 1e-12
        assert abs(metrics.auc_roc(y, 3.0 * scores + 11.0) - base) < 1e-12


class TestEvaluate:
    def make_interpolating(self):
        rs = np.random.RandomState(5)
        x = rs.randn(30, 4)
        y = rs.randint(0, 2, 30)
        y[:2] = [0, 1]
        model = elm.fit(x, y, ElmParams(hidden_nodes=30, activation=Activation.TANH, seed=1))
        ds = FlowDataset(features=x, labels=y, feature_names=("a", "b", "c", "d"))
        return model, ds

    def test_interpolating_model_scores_perfectly(self):
        model, ds = self.make_interpolating()
        report = metrics.evaluate(model, ds, 0.5)
        assert report.accuracy == 1.0
        assert report.auc_roc == 1.0

    def test_unreachable_threshold_kills_recall(self):
        model, ds = self.make_interpolating()
        report = metrics.evaluate(model, ds, 1e18)
        assert report.recall == 0.0
        assert report.degenerate

    def test_fields_recompute_from_confusion(self):
        model, ds = self.make_interpolating()
        report = metrics.evaluate(model, ds, 0.7)
        cm = report.confusion
        assert report.accuracy == metrics.accuracy(cm)
        assert (report.precision, report.recall, report.f1) == metrics.prf1(cm)
        assert report.n_samples == cm.total == ds.n_samples

    def test_matches_predict_path_exactly(self):
        model, ds = self.make_interpolating()
        report = metrics.evaluate(model, ds, 0.5)
        cm = metrics.confusion(ds.labels, elm.predict(model, ds.features, 0.5))
        assert report.confusion == cm
        assert report.accuracy == metrics.accuracy(cm)

    def test_one_class_rows_give_nan_auc_and_a_degenerate_report(self):
        model, ds = self.make_interpolating()
        attacks = ds.subset_rows(np.where(ds.labels == 1)[0])
        report = metrics.evaluate(model, attacks, 0.5)
        assert report.confusion == ConfusionMatrix(tp=attacks.n_samples, fp=0, tn=0, fn=0)
        assert report.recall == 1.0
        assert math.isnan(report.auc_roc)
        assert report.degenerate

    def test_empty_test_set_rejected(self):
        model, ds = self.make_interpolating()
        empty = FlowDataset(
            features=np.empty((0, 4)), labels=np.empty(0, dtype=int),
            feature_names=("a", "b", "c", "d"),
        )
        with pytest.raises(DataError):
            metrics.evaluate(model, empty, 0.5)
