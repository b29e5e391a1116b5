import math
import tracemalloc

import numpy as np
import pytest

from flowelm import elm, linalg
from flowelm.elm import Activation, ElmParams
from flowelm.errors import DataError, ShapeError


def params(hidden=4, activation=Activation.TANH, seed=42, gamma=1.0):
    return ElmParams(hidden_nodes=hidden, activation=activation, seed=seed, rbf_gamma=gamma)


class TestInitRandom:
    def test_deterministic_for_same_seed(self):
        w1, b1 = elm.init_random(params(seed=42), 5)
        w2, b2 = elm.init_random(params(seed=42), 5)
        assert np.array_equal(w1, w2) and np.array_equal(b1, b2)

    def test_entries_in_unit_interval(self):
        w, b = elm.init_random(params(hidden=32, seed=0), 10)
        for arr in (w, b):
            assert (arr >= -1.0).all() and (arr <= 1.0).all()

    def test_different_seeds_give_different_weights(self):
        w1, _ = elm.init_random(params(seed=1), 5)
        w2, _ = elm.init_random(params(seed=2), 5)
        assert (w1 != w2).any()

    def test_shapes(self):
        w, b = elm.init_random(params(hidden=7), 3)
        assert w.shape == (3, 7) and b.shape == (1, 7)


class TestHiddenLayer:
    def test_zero_input_tanh_gives_zeros(self):
        x = np.zeros((3, 2))
        w = np.ones((2, 4))
        b = np.zeros((1, 4))
        assert np.array_equal(elm.hidden_layer(x, w, b, Activation.TANH), np.zeros((3, 4)))

    def test_zero_input_sigmoid_gives_halves(self):
        x = np.zeros((3, 2))
        w = np.ones((2, 4))
        b = np.zeros((1, 4))
        assert np.array_equal(
            elm.hidden_layer(x, w, b, Activation.SIGMOID), np.full((3, 4), 0.5)
        )

    def test_rbf_at_center_is_one(self):
        w = np.array([[1.0, -2.0], [0.5, 3.0]])
        b = np.zeros((1, 2))
        x = w[:, 1].reshape(1, -1)  # sample equals the second center
        h = elm.hidden_layer(x, w, b, Activation.RBF, rbf_gamma=2.5)
        assert h[0, 1] == 1.0

    def test_matches_scalar_loop_oracle(self):
        rs = np.random.RandomState(0)
        x, w, b = rs.randn(4, 3), rs.randn(3, 5), rs.randn(1, 5)
        h = elm.hidden_layer(x, w, b, Activation.TANH)
        for i in range(4):
            for j in range(5):
                z = sum(x[i, k] * w[k, j] for k in range(3)) + b[0, j]
                assert abs(h[i, j] - math.tanh(z)) < 1e-12

    def test_tanh_bytes_equal_numpy_expression(self):
        rs = np.random.RandomState(5)
        x, w, b = rs.randn(37, 45), rs.randn(45, 64), rs.randn(1, 64)
        h = elm.hidden_layer(x, w, b, Activation.TANH)
        assert h.tobytes() == np.tanh(x @ w + b).tobytes()

    def test_sigmoid_matches_scalar_logistic(self):
        rs = np.random.RandomState(6)
        x, w, b = rs.randn(6, 45), rs.randn(45, 7), rs.randn(1, 7)
        h = elm.hidden_layer(x, w, b, Activation.SIGMOID)
        z = x @ w + b
        for i in range(6):
            for j in range(7):
                assert abs(h[i, j] - 1.0 / (1.0 + math.exp(-z[i, j]))) < 1e-15

    @staticmethod
    def _check_rbf_against_scalar_loop(n_features, gamma):
        rs = np.random.RandomState(1)
        x, w, b = rs.randn(4, n_features), rs.randn(n_features, 5), rs.randn(1, 5)
        h = elm.hidden_layer(x, w, b, Activation.RBF, rbf_gamma=gamma)
        for i in range(4):
            for j in range(5):
                d2 = sum((x[i, k] - w[k, j]) ** 2 for k in range(n_features))
                assert abs(h[i, j] - math.exp(-gamma * d2)) < 1e-12

    def test_rbf_matches_scalar_loop_oracle(self):
        self._check_rbf_against_scalar_loop(n_features=3, gamma=0.7)

    def test_rbf_matches_scalar_loop_oracle_wide(self):
        # 45 features, as in the flow records, with gamma ~ 1/n_features
        self._check_rbf_against_scalar_loop(n_features=45, gamma=2.1 / 45)

    def test_sigmoid_extreme_inputs_are_stable(self):
        x = np.array([[1000.0], [-1000.0]])
        w = np.ones((1, 1))
        b = np.zeros((1, 1))
        h = elm.hidden_layer(x, w, b, Activation.SIGMOID)
        assert h[0, 0] == 1.0 and h[1, 0] == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            elm.hidden_layer(np.ones((2, 3)), np.ones((4, 5)), np.ones((1, 5)), Activation.TANH)


class TestFit:
    def test_single_sample_single_node(self):
        x = np.array([[0.3]])
        model = elm.fit(x, [1], params(hidden=1))
        assert abs(elm.score(model, x)[0] - 1.0) < 1e-9

    def test_interpolation_at_full_width(self):
        rs = np.random.RandomState(2)
        x = rs.randn(50, 6)
        y = rs.randint(0, 2, 50)
        y[0], y[1] = 0, 1  # both classes present
        model = elm.fit(x, y, params(hidden=50, seed=0))
        mse = float(np.mean((elm.score(model, x) - y) ** 2))
        assert mse < 1e-6

    def test_repeated_fit_bitwise_identical(self):
        rs = np.random.RandomState(3)
        x = rs.randn(20, 4)
        y = rs.randint(0, 2, 20)
        m1 = elm.fit(x, y, params(seed=5))
        m2 = elm.fit(x, y, params(seed=5))
        assert np.array_equal(m1.output_weights, m2.output_weights)
        assert np.array_equal(m1.input_weights, m2.input_weights)

    def test_nonfinite_features_report_row(self):
        x = np.ones((3, 2))
        x[1, 0] = np.nan
        with pytest.raises(DataError, match="row 1"):
            elm.fit(x, [0, 1, 0], params())

    def test_bad_labels_rejected(self):
        with pytest.raises(DataError):
            elm.fit(np.ones((2, 1)), [0, 2], params())

    def test_least_squares_optimality_under_perturbation(self):
        rs = np.random.RandomState(4)
        x = rs.randn(30, 5)
        y = rs.randint(0, 2, 30)
        model = elm.fit(x, y, params(hidden=8, seed=1))
        h = elm.hidden_layer(x, model.input_weights, model.biases, Activation.TANH)
        t = y.reshape(-1, 1).astype(float)
        base = np.linalg.norm(h @ model.output_weights - t)
        for _ in range(1000):
            delta = rs.randn(8, 1) * 10.0 ** rs.uniform(-6, 0)
            assert base <= np.linalg.norm(h @ (model.output_weights + delta) - t) + 1e-9

    @pytest.mark.parametrize("width", [8, 256])
    @pytest.mark.parametrize("activation", list(Activation))
    def test_beta_equals_pseudoinverse_solution(self, activation, width):
        # LAPACK gelsd (lstsq) against gesdd (pinv) on the same hidden matrix
        rs = np.random.RandomState(12)
        x = rs.randn(300, 6)
        y = rs.randint(0, 2, 300)
        model = elm.fit(x, y, params(hidden=width, activation=activation, seed=3))
        h = elm.hidden_layer(x, model.input_weights, model.biases, activation)
        ref = linalg.pseudoinverse(h) @ y.reshape(-1, 1).astype(float)
        assert np.linalg.norm(model.output_weights - ref) <= 1e-12 * np.linalg.norm(ref)

    @pytest.mark.parametrize("activation", list(Activation))
    def test_multi_block_beta_equals_pseudoinverse_solution(self, activation):
        rs = np.random.RandomState(13)
        x = rs.randn(4 * elm._FOLD_ROWS + 5, 6)
        y = (x[:, 0] + rs.randn(len(x)) > 0).astype(int)
        model = elm.fit(x, y, params(hidden=32, activation=activation, seed=4))
        h = elm.hidden_layer(x, model.input_weights, model.biases, activation)
        ref = linalg.pseudoinverse(h) @ y.reshape(-1, 1).astype(float)
        assert np.linalg.norm(model.output_weights - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_wide_multi_block_beta_equals_pseudoinverse_solution(self, monkeypatch):
        # 40 rows, 100 nodes: every fold adds rows to an R that is still wide
        monkeypatch.setattr(elm, "_FOLD_ROWS", 4)
        rs = np.random.RandomState(14)
        x = rs.randn(40, 6)
        y = rs.randint(0, 2, 40)
        model = elm.fit(x, y, params(hidden=100, seed=6))
        h = elm.hidden_layer(x, model.input_weights, model.biases, Activation.TANH)
        ref = linalg.pseudoinverse(h) @ y.reshape(-1, 1).astype(float)
        assert np.linalg.norm(model.output_weights - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_cutoff_uses_the_shape_of_h_not_of_r(self, monkeypatch):
        # H = U diag(1, 1, 1, 1e-13) V^T with m rows and 4 columns. 1e-13 lies
        # above EPS * 5 (the cutoff for R's shape) and below EPS * m (H's own),
        # so the fit must drop it.
        m = 4 * elm._FOLD_ROWS + 5
        rs = np.random.RandomState(15)
        u = np.linalg.qr(rs.randn(m, 4))[0]
        v = np.linalg.qr(rs.randn(4, 4))[0]
        sigma = np.array([1.0, 1.0, 1.0, 1e-13])
        assert linalg.EPS * 5 < sigma[3] < linalg.EPS * m
        h = (u * sigma) @ v.T

        def rows_of_h(x, *args, out):
            out[...] = h[x[:, 0].astype(int)]
            return out

        monkeypatch.setattr(elm, "hidden_layer", rows_of_h)
        y = rs.randint(0, 2, m)
        model = elm.fit(np.arange(m, dtype=float).reshape(-1, 1), y, params(hidden=4))
        t = y.reshape(-1, 1).astype(float)
        truncated = v[:, :3] @ (u[:, :3].T @ t)
        assert np.linalg.norm(model.output_weights - truncated) <= 1e-10 * np.linalg.norm(truncated)

    def test_repeated_multi_block_fit_bytes_identical(self):
        rs = np.random.RandomState(16)
        x = rs.randn(4 * elm._FOLD_ROWS + 5, 5)
        y = rs.randint(0, 2, len(x))
        first = elm.fit(x, y, params(hidden=48, seed=8))
        second = elm.fit(x, y, params(hidden=48, seed=8))
        assert first.output_weights.tobytes() == second.output_weights.tobytes()

    @pytest.mark.parametrize("activation", list(Activation))
    def test_fit_bytes_equal_a_fold_of_copied_hidden_layers(self, activation):
        # the reference stacks a copy of each fold's hidden layer under R;
        # fit writes the layer into its fold buffer, with the same bits
        rs = np.random.RandomState(18)
        x = rs.randn(2 * elm._FOLD_ROWS + 5, 9)
        y = (x[:, 0] + rs.randn(len(x)) > 0).astype(int)
        p = params(hidden=40, activation=activation, seed=5, gamma=0.1)
        w, b = elm.init_random(p, x.shape[1])
        r = np.empty((0, 41))
        for start in range(0, len(x), elm._FOLD_ROWS):
            h = elm.hidden_layer(x[start : start + elm._FOLD_ROWS], w, b, activation, p.rbf_gamma)
            r = np.linalg.qr(np.vstack([r, np.column_stack([h, y[start : start + elm._FOLD_ROWS]])]), mode="r")
        beta = linalg.r_solver(r, len(x))(40)
        assert elm.fit(x, y, p).output_weights.tobytes() == beta.tobytes()

    @pytest.mark.parametrize("fold_rows", [4, 500])
    def test_block_size_moves_beta_only_in_rounding(self, monkeypatch, fold_rows):
        rs = np.random.RandomState(17)
        x = rs.randn(3000, 6)
        y = (x[:, 1] > 0).astype(int)
        ref = elm.fit(x, y, params(hidden=40, seed=9)).output_weights
        monkeypatch.setattr(elm, "_FOLD_ROWS", fold_rows)
        beta = elm.fit(x, y, params(hidden=40, seed=9)).output_weights
        assert np.linalg.norm(beta - ref) <= 1e-10 * np.linalg.norm(ref)

    def test_model_is_immutable(self):
        model = elm.fit(np.eye(3), [0, 1, 0], params())
        with pytest.raises(ValueError):
            model.output_weights[0, 0] = 9.9


class TestScorePredict:
    @pytest.fixture
    def trained(self):
        rs = np.random.RandomState(5)
        x = rs.randn(40, 3)
        y = (x[:, 0] > 0).astype(int)
        return elm.fit(x, y, params(hidden=16, seed=2)), x, y

    def test_score_length_matches_rows(self, trained):
        model, x, _ = trained
        assert elm.score(model, x).shape == (40,)

    def test_interpolating_model_scores_near_labels(self):
        rs = np.random.RandomState(6)
        x = rs.randn(50, 6)
        y = rs.randint(0, 2, 50)
        y[0], y[1] = 0, 1
        model = elm.fit(x, y, params(hidden=50, seed=0))
        assert np.abs(elm.score(model, x) - y).max() < 1e-6

    def test_empty_input_gives_empty_scores(self, trained):
        model, _, _ = trained
        scores = elm.score(model, np.empty((0, 3)))
        assert scores.shape == (0,) and scores.dtype == np.float64

    def test_duplicated_row_duplicated_score(self, trained):
        model, x, _ = trained
        doubled = np.vstack([x[:1], x[:1]])
        s = elm.score(model, doubled)
        assert s[0] == s[1]

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_nonfinite_row_raises_naming_it(self, trained, monkeypatch, value):
        model, x, _ = trained
        bad = x.copy()
        bad[13, 2] = value
        bad[30, 0] = value
        with pytest.raises(DataError, match="row 13$"):
            elm.score(model, bad)
        with pytest.raises(DataError, match="row 13$"):
            elm.predict(model, bad)
        monkeypatch.setattr(elm, "_SCORE_ROWS", 8)  # row 13 sits in the second block
        with pytest.raises(DataError, match="row 13$"):
            elm.score(model, bad)

    def test_feature_count_mismatch_names_both(self, trained):
        model, _, _ = trained
        with pytest.raises(ShapeError, match="expects 3 features, got 5"):
            elm.score(model, np.ones((2, 5)))

    def test_predict_threshold_boundary_inclusive(self, trained):
        model, x, _ = trained
        scores = elm.score(model, x)
        fake_threshold = float(scores[0])
        labels = elm.predict(model, x, fake_threshold)
        assert labels[0] == 1  # score >= threshold counts as attack

    def test_predict_extreme_thresholds(self, trained):
        model, x, _ = trained
        assert not elm.predict(model, x, 1e18).any()
        assert elm.predict(model, x, -1e18).all()

    def test_predict_monotone_in_threshold(self, trained):
        model, x, _ = trained
        thresholds = sorted(np.random.RandomState(7).uniform(-2, 2, 20))
        previous = elm.predict(model, x, thresholds[0])
        for t in thresholds[1:]:
            current = elm.predict(model, x, t)
            # raising the threshold never turns a 0 into a 1
            assert not ((previous == 0) & (current == 1)).any()
            previous = current


class TestScoreIndependentOfBatch:
    """A row's score has the same bits however the rows are grouped."""

    @pytest.mark.parametrize("activation", list(Activation))
    def test_row_bits_equal_alone_in_blocks_and_in_full_batch(self, monkeypatch, activation):
        rs = np.random.RandomState(8)
        x = rs.randn(203, 7)
        model = elm.fit(x, (x[:, 0] + x[:, 1] > 0).astype(int), params(24, activation, seed=3))
        full = elm.score(model, x).tobytes()
        assert np.concatenate([elm.score(model, x[i : i + 1]) for i in range(len(x))]).tobytes() == full
        for size in range(1, 18):
            blocks = [elm.score(model, x[i : i + size]) for i in range(0, len(x), size)]
            assert np.concatenate(blocks).tobytes() == full, f"blocks of {size} rows"
        assert elm.score(model, x[:200]).tobytes() == full[: 200 * 8]
        monkeypatch.setattr(elm, "_SCORE_ROWS", 16)
        assert elm.score(model, x).tobytes() == full, "blocks of 16 rows inside score"

    @pytest.mark.parametrize("activation", list(Activation))
    def test_rows_across_blocks_keep_their_bits(self, activation):
        rs = np.random.RandomState(9)
        x = rs.randn(2 * elm._SCORE_ROWS + 5, 7)
        model = elm.fit(x[:500], (x[:500, 0] > 0).astype(int), params(24, activation, seed=3))
        full = elm.score(model, x).tobytes()
        assert np.concatenate([elm.score(model, x[i : i + 1]) for i in range(len(x))]).tobytes() == full
        blocks = [elm.score(model, x[i : i + 13]) for i in range(0, len(x), 13)]
        assert np.concatenate(blocks).tobytes() == full


class TestBoundedMemory:
    """fit and score never hold the whole hidden layer."""

    @pytest.mark.parametrize("step", ["fit", "score"])
    def test_peak_allocation_under_half_of_h(self, step):
        rs = np.random.RandomState(11)
        x = rs.randn(6 * elm._FOLD_ROWS + 5, 10)
        y = (x[:, 0] > 0).astype(int)
        p = params(hidden=512, seed=1)
        model = elm.fit(x[:600], y[:600], p) if step == "score" else None
        full_h_bytes = x.shape[0] * 512 * 8
        tracemalloc.start()  # numpy reports its array buffers to tracemalloc
        try:
            elm.fit(x, y, p) if step == "fit" else elm.score(model, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < full_h_bytes / 2, f"peak {peak} bytes, one H is {full_h_bytes}"


class TestNestedWidths:
    """fold_rows and linalg.r_solver: one R factor of the widest layer
    serves the network of every leading set of its nodes."""

    @pytest.mark.parametrize("activation", list(Activation))
    def test_width_k_from_the_widest_r_matches_a_fit_of_the_first_k_nodes(self, activation):
        rs = np.random.RandomState(19)
        x = rs.randn(2000, 12)
        y = (x[:, 0] + 0.5 * rs.randn(2000) > 0).astype(int)
        w, b = elm.init_random(params(hidden=256, activation=activation, seed=11, gamma=0.1), x.shape[1])
        solve = linalg.r_solver(elm.fold_rows(x, y, w, b, activation, 0.1), len(x))
        for k in (8, 16, 32, 256):
            alone = elm.fold_rows(x, y, w[:, :k], b[:, :k], activation, 0.1)
            h = elm.hidden_layer(x, w[:, :k], b[:, :k], activation, 0.1)
            fitted = h @ solve(k)
            expected = h @ linalg.r_solver(alone, len(x))(k)
            assert np.linalg.norm(fitted - expected) <= 1e-10 * np.linalg.norm(expected)

    def test_fit_is_fold_rows_then_r_solver(self):
        rs = np.random.RandomState(20)
        x = rs.randn(300, 7)
        y = rs.randint(0, 2, 300)
        p = params(hidden=24, activation=Activation.SIGMOID, seed=3)
        w, b = elm.init_random(p, x.shape[1])
        beta = linalg.r_solver(elm.fold_rows(x, y, w, b, p.activation), len(x))(24)
        assert elm.fit(x, y, p).output_weights.tobytes() == beta.tobytes()

    @pytest.mark.parametrize("activation", list(Activation))
    def test_score_widths_equals_each_width_scored_alone(self, monkeypatch, activation):
        monkeypatch.setattr(elm, "_SCORE_ROWS", 64)
        rs = np.random.RandomState(21)
        x = rs.randn(203, 6)
        w, b = elm.init_random(params(hidden=40, activation=activation, seed=2), 6)
        betas = [rs.randn(k, 1) for k in (40, 5, 17)]
        scores = elm.score_widths(x, w, b, activation, 1.0, betas)
        for beta, got in zip(betas, scores):
            k = beta.shape[0]
            model = elm.ElmModel(w[:, :k], b[:, :k], beta, params(hidden=k, activation=activation), 6)
            expected = elm.score(model, x)
            assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()

    def test_score_widths_names_a_non_finite_row(self):
        w, b = elm.init_random(params(hidden=4), 2)
        x = np.zeros((10, 2))
        x[7, 1] = np.inf
        with pytest.raises(DataError, match="non-finite feature value in row 7"):
            elm.score_widths(x, w, b, Activation.TANH, 1.0, [np.ones((4, 1))])
