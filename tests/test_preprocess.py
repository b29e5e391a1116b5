import math
import tracemalloc

import numpy as np
import pytest

from flowelm import preprocess
from flowelm.errors import DataError, ShapeError, StratificationError
from flowelm.preprocess import FlowDataset


def dataset(features, labels, names=None, categories=None):
    features = np.asarray(features, dtype=float)
    names = names or tuple(f"f{i}" for i in range(features.shape[1]))
    return FlowDataset(
        features=features, labels=np.asarray(labels), feature_names=names,
        categories=categories,
    )


class TestFlowDataset:
    def test_rejects_mismatched_rows(self):
        with pytest.raises(ShapeError):
            dataset([[1.0], [2.0]], [0])

    def test_rejects_duplicate_names(self):
        with pytest.raises(DataError):
            dataset([[1.0, 2.0]], [0], names=("a", "a"))

    def test_rejects_non_binary_labels(self):
        with pytest.raises(DataError):
            dataset([[1.0]], [2])

    def test_immutable_after_construction(self):
        ds = dataset([[1.0]], [0])
        with pytest.raises(ValueError):
            ds.features[0, 0] = 5.0

    def test_caller_arrays_are_copied_and_read_only(self):
        features, labels = np.arange(6.0).reshape(3, 2), np.array([0, 1, 0])
        ds = FlowDataset(features=features, labels=labels, feature_names=("a", "b"))
        features[0, 0], labels[0] = 99.0, 1
        assert ds.features[0, 0] == 0.0 and ds.labels[0] == 0
        assert not ds.features.flags.writeable and not ds.labels.flags.writeable

    def test_subsets_are_read_only_with_the_selected_bits(self):
        rs = np.random.RandomState(6)
        ds = dataset(rs.randn(9, 4), rs.randint(0, 2, 9), categories=tuple("abcdefghi"))
        rows, columns = [7, 2, 2, 0], [3, 1]
        for sub, expected in [
            (ds.subset_rows(rows), ds.features[rows]),
            (ds.subset_columns(columns), ds.features[:, columns]),
            (ds.subset_rows(rows).subset_columns(columns), ds.features[rows][:, columns]),
        ]:
            assert sub.features.tobytes() == np.ascontiguousarray(expected).tobytes()
            assert not sub.features.flags.writeable and not sub.labels.flags.writeable
        both = ds.subset_rows(rows).subset_columns(columns)
        assert both.feature_names == ("f3", "f1") and both.categories == ("h", "c", "c", "a")
        assert both.labels.tolist() == ds.labels[rows].tolist()

    def test_adopted_arrays_get_every_check(self):
        with pytest.raises(DataError):
            FlowDataset._adopt(np.zeros((2, 1)), labels=np.array([0, 2]), feature_names=("a",))
        with pytest.raises(ShapeError):
            FlowDataset._adopt(np.zeros((2, 1)), labels=np.array([0]), feature_names=("a",))
        with pytest.raises(ShapeError):
            FlowDataset._adopt(np.zeros(2), labels=np.array([0, 1]), feature_names=("a",))


class TestClean:
    def test_nan_row_dropped_others_intact(self):
        features = np.arange(10, dtype=float).reshape(5, 2)
        features[3, 1] = np.nan
        ds = dataset(features, [0, 1, 0, 1, 0])
        out = preprocess.clean(ds)
        assert out.n_samples == 4
        assert np.array_equal(out.features[2], features[2])
        assert np.array_equal(out.features[3], features[4])

    def test_duplicate_reduced_to_first(self):
        ds = dataset([[1.0, 2.0], [1.0, 2.0]], [1, 1])
        assert preprocess.clean(ds).n_samples == 1

    def test_hand_enumerated_five_row_table(self):
        # row 1 has a NaN, row 3 duplicates row 0; survivors are rows 0, 2, 4
        features = np.array(
            [
                [1.0, 10.0],
                [2.0, np.nan],
                [3.0, 30.0],
                [1.0, 10.0],
                [5.0, 50.0],
            ]
        )
        ds = dataset(features, [0, 0, 1, 0, 1])
        out = preprocess.clean(ds)
        assert out.n_samples == 3
        assert np.array_equal(out.features[:, 0], [1.0, 3.0, 5.0])
        assert np.array_equal(out.labels, [0, 1, 1])

    def test_same_features_different_label_not_duplicates(self):
        ds = dataset([[1.0], [1.0]], [0, 1])
        assert preprocess.clean(ds).n_samples == 2

    def test_empty_result_is_an_error(self):
        ds = dataset([[np.nan]], [0])
        with pytest.raises(DataError, match="empty"):
            preprocess.clean(ds)

    def test_categories_follow_rows(self):
        ds = dataset(
            [[1.0], [np.nan], [2.0]], [0, 1, 1], categories=("Benign", "DoS", "Recon")
        )
        out = preprocess.clean(ds)
        assert out.categories == ("Benign", "Recon")


def clean_reference(ds):
    """The rows clean() keeps, by the definition: finite rows, the first of
    each set with the same feature bytes and label."""
    seen, keep = set(), []
    for i in range(ds.n_samples):
        key = ds.features[i].tobytes() + bytes([ds.labels[i]])
        if np.isfinite(ds.features[i]).all() and key not in seen:
            seen.add(key)
            keep.append(i)
    return keep


def with_duplicates(seed, n=400, m=3):
    """Rows drawn from a few values, so many rows repeat, with NaNs and
    signed zeros among them."""
    rs = np.random.RandomState(seed)
    features = rs.choice([0.0, -0.0, 1.0, 2.5, np.nan], size=(n, m), p=[0.3, 0.2, 0.25, 0.23, 0.02])
    return dataset(features, rs.randint(0, 2, n))


class TestCleanExact:
    """clean() groups rows by a hash but keeps exactly the reference rows."""

    def test_negative_zero_row_is_not_a_duplicate_of_zero(self):
        ds = dataset([[0.0, 1.0], [-0.0, 1.0], [0.0, 1.0], [-0.0, 1.0]], [0, 0, 0, 0])
        out = preprocess.clean(ds)
        assert out.n_samples == 2
        assert np.signbit(out.features[:, 0]).tolist() == [False, True]

    def test_equal_features_with_other_labels_are_kept(self):
        ds = dataset([[3.0, 4.0], [3.0, 4.0], [3.0, 4.0], [3.0, 4.0]], [1, 0, 1, 0])
        out = preprocess.clean(ds)
        assert out.labels.tolist() == [1, 0]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_keeps_the_first_of_each_duplicate_in_row_order(self, seed):
        ds = with_duplicates(seed)
        out = preprocess.clean(ds)
        keep = clean_reference(ds)
        assert len(keep) < ds.n_samples - 100  # the data does repeat
        assert out.features.tobytes() == ds.features[keep].tobytes()
        assert out.labels.tolist() == ds.labels[keep].tolist()

    @pytest.mark.parametrize("seed", [0, 1])
    def test_a_constant_hash_still_gives_the_exact_rows(self, seed, monkeypatch):
        real = preprocess._finite_rows_and_hashes

        def constant(features, labels):
            finite, hashes = real(features, labels)
            return finite, np.zeros_like(hashes)

        monkeypatch.setattr(preprocess, "_finite_rows_and_hashes", constant)
        ds = with_duplicates(seed)
        keep = clean_reference(ds)
        assert preprocess.clean(ds).features.tobytes() == ds.features[keep].tobytes()
        distinct = dataset(np.arange(12.0).reshape(6, 2), [0, 1, 0, 1, 0, 1])
        assert preprocess.clean(distinct) is distinct

    def test_rows_differing_in_one_value_never_share_a_hash(self):
        rs = np.random.RandomState(4)
        base = rs.randn(1, 6)
        features = np.repeat(base, 60, axis=0)
        features[np.arange(60), np.arange(60) % 6] += np.arange(1, 61)
        _, hashes = preprocess._finite_rows_and_hashes(features, np.zeros(60, dtype=np.int64))
        assert len(set(hashes.tolist())) == 60


class TestCleanMemory:
    """clean() needs O(rows) memory beside the rows it keeps."""

    @staticmethod
    def peak(fn):
        tracemalloc.start()  # numpy reports its array buffers to tracemalloc
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_nothing_dropped_costs_a_fraction_of_the_rows(self):
        rs = np.random.RandomState(7)
        ds = dataset(rs.randn(8000, 40), rs.randint(0, 2, 8000))
        peak = self.peak(lambda: preprocess.clean(ds))
        # measured 0.31 feature arrays; a set of row keys took 3.6
        assert peak < 0.5 * ds.features.nbytes, f"peak {peak} bytes, features {ds.features.nbytes}"

    def test_dropped_rows_cost_one_copy_of_the_kept_rows(self):
        rs = np.random.RandomState(7)
        features = rs.randn(8000, 40)
        features[::50] = features[1::50]
        features[3::97, 5] = np.nan
        ds = dataset(features, np.zeros(8000, dtype=int))
        peak = self.peak(lambda: preprocess.clean(ds))
        # measured 1.12 feature arrays; 3.5 with a set of row keys
        assert peak < 1.5 * ds.features.nbytes, f"peak {peak} bytes, features {ds.features.nbytes}"


class TestSelectFeatures:
    def test_label_copy_column_kept_with_r_one(self):
        labels = [0, 1, 0, 1]
        ds = dataset([[0.0], [1.0], [0.0], [1.0]], labels)
        sel = preprocess.select_features(ds, 0.02)
        assert sel.kept_indices == (0,)
        assert abs(sel.correlations[0] - 1.0) < 1e-12

    def test_constant_column_dropped_with_r_zero(self):
        ds = dataset([[5.0, 0.0], [5.0, 1.0], [5.0, 0.0], [5.0, 1.0]], [0, 1, 0, 1])
        sel = preprocess.select_features(ds, 0.02)
        assert sel.correlations[0] == 0.0
        assert sel.kept_indices == (1,)

    def test_constant_column_dropped_even_at_zero_threshold(self):
        ds = dataset([[5.0, 0.0], [5.0, 1.0], [5.0, 0.0], [5.0, 1.0]], [0, 1, 0, 1])
        sel = preprocess.select_features(ds, 0.0)
        assert sel.kept_indices == (1,)

    def test_hand_computed_six_row_table(self):
        # y = [0,0,0,1,1,1]; col0 = 1..6, col1 constant, col2 = [1,0,1,0,0,1]
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
        ds = dataset(features, [0, 0, 0, 1, 1, 1])
        sel = preprocess.select_features(ds, 0.02)
        # hand-computed Pearson: cov0 = 0.75, var0 = 17.5/6, sy = 0.5
        r0 = 0.75 / (math.sqrt(17.5 / 6.0) * 0.5)
        assert abs(sel.correlations[0] - r0) < 1e-12
        assert sel.correlations[1] == 0.0
        assert abs(sel.correlations[2] - (-1.0 / 3.0)) < 1e-12
        assert sel.kept_indices == (0, 2)

    def test_all_dropped_advises_threshold(self):
        rs = np.random.RandomState(0)
        ds = dataset(rs.randn(40, 2), [0, 1] * 20)
        with pytest.raises(DataError, match="lower the threshold"):
            preprocess.select_features(ds, 0.999)

    @pytest.mark.parametrize("columns", [1, 2, 7, 8, 9, 16, 17, 23, 45])
    def test_column_blocks_keep_the_bits_of_the_whole_array(self, columns):
        # a last block of one column would change the bits at 9, 17 and 45
        rs = np.random.RandomState(columns)
        features = rs.randn(3001, columns) * rs.exponential(100.0, columns) + rs.randn(columns) * 1e3
        labels = (rs.rand(3001) < 0.4).astype(int)
        ds = dataset(features, labels)
        y = labels - labels.mean()
        xc = features - features.mean(axis=0)
        sx = np.sqrt(np.einsum("ij,ij->j", xc, xc) / 3001)
        expected = (xc * y[:, None]).mean(axis=0) / (sx * math.sqrt(float(y @ y) / 3001))
        assert preprocess.select_features(ds, 0.0).correlations.tobytes() == expected.tobytes()

    def test_non_finite_value_in_any_block_is_rejected(self):
        features = np.ones((4, 12))
        features[:, 0] = [0.0, 1.0, 0.0, 1.0]
        features[2, 11] = np.inf
        with pytest.raises(DataError, match="finite"):
            preprocess.select_features(dataset(features, [0, 1, 0, 1]), 0.0)

    @pytest.mark.parametrize("column", [[1e308, 1.7e308] * 3, [1e200, -1e200] * 3], ids=["mean", "spread"])
    def test_column_that_overflows_is_named(self, column):
        # no numpy warning either: the suite raises warnings as errors
        features = np.column_stack([[0.0, 1.0] * 3, column])
        ds = dataset(features, [0, 1] * 3, names=("ok", "big"))
        with pytest.raises(DataError, match="^column 'big' overflows: "):
            preprocess.select_features(ds, 0.0)

    def test_threshold_monotone(self):
        rs = np.random.RandomState(1)
        features = rs.randn(60, 5)
        labels = (features[:, 0] + 0.3 * rs.randn(60) > 0).astype(int)
        ds = dataset(features, labels)
        previous = None
        for threshold in (0.0, 0.05, 0.1, 0.2, 0.4, 0.8):
            try:
                kept = set(preprocess.select_features(ds, threshold).kept_indices)
            except DataError:
                kept = set()
            if previous is not None:
                assert kept.issubset(previous)
            previous = kept


class TestScaler:
    def test_two_point_column(self):
        state = preprocess.fit_scaler(np.array([[0.0], [2.0]]))
        assert state.means[0] == 1.0 and state.stds[0] == 1.0

    def test_zero_variance_errors_with_column(self):
        with pytest.raises(DataError, match="column 0"):
            preprocess.fit_scaler(np.array([[5.0], [5.0], [5.0]]))

    def test_zero_variance_errors_with_column_name(self):
        with pytest.raises(DataError, match="^column 'flat' has zero variance; drop constant columns"):
            preprocess.fit_scaler(np.array([[1.0, 5.0], [2.0, 5.0], [3.0, 5.0]]), ("rate", "flat"))

    @pytest.mark.parametrize("column", [[1.7e308, 1.7e308, 1e308], [1e308, -1e308, 1e308]])
    def test_column_whose_mean_or_std_overflows_errors(self, column):
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DataError, match="^scaler means and standard deviations must be finite$"):
                preprocess.fit_scaler(np.array(column)[:, None])

    def test_matches_loop_oracle(self):
        rs = np.random.RandomState(2)
        arr = rs.randn(10, 2)
        state = preprocess.fit_scaler(arr)
        for j in range(2):
            mean = sum(arr[i, j] for i in range(10)) / 10.0
            var = sum((arr[i, j] - mean) ** 2 for i in range(10)) / 10.0
            assert abs(state.means[j] - mean) < 1e-12
            assert abs(state.stds[j] - math.sqrt(var)) < 1e-12

    @pytest.mark.parametrize("shape", [(5000, 13), (4096, 9), (1000, 9), (777, 17), (300, 1)])
    def test_blocked_statistics_equal_the_full_width_call(self, shape):
        rs = np.random.RandomState(shape[1])
        arr = rs.randn(*shape) * rs.uniform(0.1, 1e3, shape[1]) + rs.uniform(-1e4, 1e4, shape[1])
        state = preprocess.fit_scaler(arr)
        assert state.means.tobytes() == arr.mean(axis=0).tobytes()
        assert state.stds.tobytes() == arr.std(axis=0).tobytes()

    def test_column_blocks_leave_no_lone_last_column(self):
        assert preprocess._column_blocks(1) == [(0, 1)]
        assert preprocess._column_blocks(9) == [(0, 9)]
        assert preprocess._column_blocks(16) == [(0, 8), (8, 16)]
        assert preprocess._column_blocks(17) == [(0, 8), (8, 17)]

    def test_peak_allocation_is_a_block_of_columns(self):
        arr = np.random.RandomState(5).randn(20000, 40)
        tracemalloc.start()
        try:
            preprocess.fit_scaler(arr)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a block is 8 of the 40 columns; arr.std(axis=0) made a full-width temporary
        assert peak < 0.4 * arr.nbytes, f"peak {peak} bytes, array {arr.nbytes}"

    def test_apply_to_fitting_data_standardizes(self):
        rs = np.random.RandomState(3)
        arr = rs.randn(50, 3) * 4.0 + 7.0
        state = preprocess.fit_scaler(arr)
        out = preprocess.apply_scaler(state, arr)
        assert np.abs(out.mean(axis=0)).max() < 1e-12
        assert np.abs(out.std(axis=0) - 1.0).max() < 1e-12

    def test_identity_transform(self):
        state = preprocess.ScalerState(means=np.zeros(2), stds=np.ones(2))
        arr = np.array([[1.0, -3.0]])
        assert np.array_equal(preprocess.apply_scaler(state, arr), arr)

    def test_single_row_arithmetic(self):
        state = preprocess.ScalerState(means=np.array([1.0]), stds=np.array([2.0]))
        assert preprocess.apply_scaler(state, np.array([[3.0]]))[0, 0] == 1.0

    def test_affine_exact_inverse(self):
        rs = np.random.RandomState(4)
        arr = rs.randn(20, 4) * 3.0 + 5.0
        state = preprocess.fit_scaler(arr)
        scaled = preprocess.apply_scaler(state, arr)
        recovered = scaled * state.stds + state.means
        assert np.abs(recovered - arr).max() < 1e-12

    def test_column_count_mismatch(self):
        state = preprocess.ScalerState(means=np.zeros(2), stds=np.ones(2))
        with pytest.raises(ShapeError):
            preprocess.apply_scaler(state, np.ones((1, 3)))


class TestSplit:
    def balanced(self, n_per_class, seed=0):
        rs = np.random.RandomState(seed)
        features = rs.randn(2 * n_per_class, 2)
        labels = np.array([0] * n_per_class + [1] * n_per_class)
        return dataset(features, labels)

    def test_five_five_eighty_percent(self):
        ds = self.balanced(5)
        res = preprocess.split(ds, 0.8, seed=1)
        assert res.train.n_samples == 8 and res.test.n_samples == 2
        assert int(res.train.labels.sum()) == 4
        assert int(res.test.labels.sum()) == 1

    def test_same_seed_same_partition(self):
        ds = self.balanced(20)
        r1 = preprocess.split(ds, 0.8, seed=9)
        r2 = preprocess.split(ds, 0.8, seed=9)
        assert np.array_equal(r1.train.features, r2.train.features)
        assert np.array_equal(r1.test.features, r2.test.features)

    def test_partition_property(self):
        rs = np.random.RandomState(5)
        features = rs.randn(57, 3)
        labels = rs.randint(0, 2, 57)
        labels[:2] = [0, 1]
        ds = dataset(features, labels)
        res = preprocess.split(ds, 0.7, seed=2)
        assert res.train.n_samples + res.test.n_samples == 57
        combined = np.vstack([res.train.features, res.test.features])
        assert sorted(map(tuple, combined)) == sorted(map(tuple, features))

    def test_train_ratio_within_one_sample_of_global(self):
        rs = np.random.RandomState(6)
        labels = rs.randint(0, 2, 100)
        labels[:2] = [0, 1]
        ds = dataset(rs.randn(100, 2), labels)
        res = preprocess.split(ds, 0.8, seed=3)
        for cls in (0, 1):
            total_cls = int((labels == cls).sum())
            train_cls = int((res.train.labels == cls).sum())
            expected = res.train.n_samples * total_cls / 100.0
            assert abs(train_cls - expected) <= 1.0

    def test_single_class_rejected(self):
        ds = dataset(np.ones((4, 1)) * np.arange(4).reshape(-1, 1), [1, 1, 1, 1])
        with pytest.raises(StratificationError):
            preprocess.split(ds, 0.8, seed=0)

    def test_fraction_bounds(self):
        ds = self.balanced(5)
        for bad in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(DataError):
                preprocess.split(ds, bad, seed=0)
