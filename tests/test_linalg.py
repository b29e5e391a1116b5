import warnings

import numpy as np
import pytest

from flowelm import elm, linalg
from flowelm.elm import Activation, ElmParams
from flowelm.errors import DataError, NumericError, ShapeError


def gauss_solve(a, b):
    """Partial-pivot Gauss elimination solving a @ x = b for square a."""
    n = a.shape[0]
    aug = np.hstack([a.astype(float).copy(), b.astype(float).copy()])
    for col in range(n):
        pivot = col + np.argmax(np.abs(aug[col:, col]))
        if abs(aug[pivot, col]) < 1e-12:
            raise ValueError("singular system")
        aug[[col, pivot]] = aug[[pivot, col]]
        aug[col] /= aug[col, col]
        for row in range(n):
            if row != col:
                aug[row] -= aug[row, col] * aug[col]
    return aug[:, n:]


def penrose_errors(a, p):
    def sym_err(m):
        return np.linalg.norm(m - m.T) / max(1.0, np.linalg.norm(m))

    return (
        np.linalg.norm(a @ p @ a - a) / max(1.0, np.linalg.norm(a)),
        np.linalg.norm(p @ a @ p - p) / max(1.0, np.linalg.norm(p)),
        sym_err(a @ p),
        sym_err(p @ a),
    )


# numpy function behind each solver, and a call of the solver on a matrix
SOLVERS = {
    "lstsq": lambda a: linalg.lstsq(a, np.ones((np.shape(a)[0], 1))),
    "pinv": linalg.pseudoinverse,
}


class TestChecks:
    @pytest.mark.parametrize("numpy_name", SOLVERS)
    def test_rejects_empty_and_nonfinite(self, numpy_name):
        with pytest.raises(ShapeError):
            SOLVERS[numpy_name](np.empty((0, 3)))
        with pytest.raises(DataError):
            SOLVERS[numpy_name]([[1.0, np.nan]])

    @pytest.mark.parametrize("numpy_name", SOLVERS)
    def test_lapack_failure_is_numeric_error(self, monkeypatch, numpy_name):
        def no_convergence(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, numpy_name, no_convergence)
        with pytest.raises(NumericError, match="did not converge"):
            SOLVERS[numpy_name](np.eye(3))

    def test_cutoff_is_eps_times_largest_dimension(self):
        # cutoff eps * 3 * sigma_max = 6.7e-16: 1e-12 is kept, 1e-17 is not
        a = np.diag([1.0, 1e-12, 1e-17])
        expected = np.diag([1.0, 1e12, 0.0])
        assert np.allclose(linalg.pseudoinverse(a), expected, rtol=1e-12, atol=1e-300)
        assert np.allclose(linalg.lstsq(a, np.eye(3)), expected, rtol=1e-12, atol=1e-300)

    def test_cutoff_counts_the_rows_of_the_factored_matrix(self):
        # R's leading block of a 1000-row matrix: cutoff eps * 1000 = 2.2e-13
        a = np.diag([1.0, 1e-14])
        assert np.allclose(linalg.lstsq(a, np.eye(2)), np.diag([1.0, 1e14]), rtol=1e-12)
        r = [[1.0, 0.0, 1.0], [0.0, 1e-14, 1.0]]
        assert np.array_equal(linalg.r_solver(r, 1000)(2), [[1.0], [0.0]])

    @pytest.mark.parametrize("numpy_name", SOLVERS)
    def test_no_warning_from_numpy(self, numpy_name):
        # a newer numpy that deprecates rcond= fails here instead of warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            SOLVERS[numpy_name](np.random.RandomState(11).randn(6, 4))


class TestPseudoinverse:
    def test_diagonal(self):
        assert np.allclose(
            linalg.pseudoinverse(np.diag([2.0, 4.0])), np.diag([0.5, 0.25])
        )

    def test_zero_matrix_gives_zero_transpose_shape(self):
        p = linalg.pseudoinverse(np.zeros((3, 2)))
        assert p.shape == (2, 3)
        assert np.array_equal(p, np.zeros((2, 3)))

    def test_full_rank_matches_normal_equations_oracle(self):
        rs = np.random.RandomState(6)
        a = rs.randn(8, 5)
        # (A^T A)^-1 A^T via an independent Gauss-elimination solve
        oracle = gauss_solve(a.T @ a, a.T)
        assert np.abs(linalg.pseudoinverse(a) - oracle).max() < 1e-8

    @pytest.mark.parametrize("case", ["square", "tall", "wide", "rank1", "zero"])
    def test_penrose_conditions(self, case):
        rs = np.random.RandomState(hash(case) % (2**32))
        a = {
            "square": lambda: rs.randn(6, 6),
            "tall": lambda: rs.randn(9, 4),
            "wide": lambda: rs.randn(4, 9),
            "rank1": lambda: np.outer(rs.randn(7), rs.randn(5)),
            "zero": lambda: np.zeros((4, 3)),
        }[case]()
        p = linalg.pseudoinverse(a)
        assert max(penrose_errors(a, p)) <= 1e-8


class TestLstsq:
    def test_identity_system(self):
        t = np.array([[1.0], [2.0], [3.0]])
        assert np.allclose(linalg.lstsq(np.eye(3), t), t)

    def test_consistent_overdetermined_recovers_solution(self):
        rs = np.random.RandomState(7)
        a = rs.randn(4, 2)
        x0 = rs.randn(2, 1)
        t = a @ x0
        x = linalg.lstsq(a, t)
        assert np.abs(x - x0).max() < 1e-10
        assert np.linalg.norm(a @ x - t) < 1e-12

    def test_rank_deficient_minimum_norm(self):
        # A has null space spanned by (-1, -1, 1); T = A @ [1, 1, 1]^T
        a = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [0.0, 1.0, 1.0]])
        t = a @ np.array([[1.0], [1.0], [1.0]])
        x = linalg.lstsq(a, t)
        # enumerate candidate minimizers along the null direction
        direction = np.array([[-1.0], [-1.0], [1.0]]) / np.sqrt(3.0)
        base_residual = np.linalg.norm(a @ x - t)
        for step in np.arange(-3.0, 3.01, 0.25):
            candidate = x + step * direction
            assert np.linalg.norm(a @ candidate - t) <= base_residual + 1e-9
            assert np.linalg.norm(candidate) >= np.linalg.norm(x) - 1e-9
        assert np.allclose(x, [[2.0 / 3.0], [2.0 / 3.0], [4.0 / 3.0]], atol=1e-9)

    def test_row_mismatch(self):
        with pytest.raises(ShapeError):
            linalg.lstsq(np.ones((3, 2)), np.ones((4, 1)))

    def test_residual_local_optimality(self):
        rs = np.random.RandomState(8)
        a = rs.randn(12, 5)
        t = rs.randn(12, 2)
        x = linalg.lstsq(a, t)
        residual = np.linalg.norm(a @ x - t)
        for _ in range(1000):
            delta = rs.randn(5, 2) * 10.0 ** rs.uniform(-6, 1)
            assert residual <= np.linalg.norm(a @ (x + delta) - t) + 1e-9


class TestPenroseSweep:
    def test_random_matrices_up_to_50x50(self):
        rs = np.random.RandomState(9)
        rt = np.random.RandomState(10)  # targets, drawn apart so the matrices stay the same
        for i in range(25):
            m = rs.randint(1, 51)
            n = rs.randint(1, 51)
            if i % 3 == 0:
                rank = rs.randint(1, min(m, n) + 1)
                a = rs.randn(m, rank) @ rs.randn(rank, n)
            else:
                a = rs.randn(m, n) * 10.0 ** rs.randint(-3, 4)
            p = linalg.pseudoinverse(a)
            assert max(penrose_errors(a, p)) <= 1e-8, f"failed on {m}x{n} (case {i})"
            t = rt.randn(m, 3)
            ref = p @ t
            x = linalg.lstsq(a, t)
            assert np.linalg.norm(x - ref) <= 1e-10 * np.linalg.norm(ref), f"lstsq on {m}x{n} (case {i})"


@pytest.fixture
def numpy_calls(monkeypatch):
    """Shapes of the matrices passed to np.linalg.lstsq (gelsd) and np.linalg.inv."""
    calls = {"lstsq": [], "inv": []}
    for name in calls:
        def spy(a, *args, _name=name, _real=getattr(np.linalg, name), **kwargs):
            calls[_name].append(np.shape(a))
            return _real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, spy)
    return calls


class TestInverseRule:
    """r_solver on a square R factor returns R^-1 @ targets when
    ||R||_F * ||R^-1||_F proves the cutoff cuts nothing, and gelsd's answer
    otherwise."""

    @pytest.mark.parametrize("width", [8, 16, 32, 64, 128, 256])
    @pytest.mark.parametrize("activation", list(Activation))
    def test_hidden_layer_r_factors_take_the_inverse(self, numpy_calls, activation, width):
        rs = np.random.RandomState(31)
        x = rs.randn(2000, 12)
        t = (x[:, :1] + 0.5 * rs.randn(2000, 1) > 0).astype(float)
        w, b = elm.init_random(ElmParams(width, activation, seed=5), x.shape[1])
        h = elm.hidden_layer(x, w, b, activation)
        r = np.linalg.qr(np.column_stack([h, t]), mode="r")
        a, qt = r[:width, :width], r[:width, width:]
        got = linalg.r_solver(r, len(x))(width)
        assert numpy_calls["lstsq"] == []
        gelsd = np.linalg.lstsq(a, qt, rcond=linalg.EPS * len(x))[0]
        assert np.linalg.norm(h @ got - h @ gelsd) <= 1e-12 * np.linalg.norm(h @ gelsd)

    @pytest.mark.parametrize("case", ["repeated column", "zero diagonal", "tiny diagonal"])
    def test_r_factors_near_the_cutoff_take_gelsd(self, numpy_calls, case):
        rs = np.random.RandomState(32)
        if case == "repeated column":
            h = rs.randn(500, 16)
            h[:, 9] = h[:, 3]
            a = np.linalg.qr(h, mode="r")
        else:
            a = np.triu(rs.randn(16, 16)) + 4.0 * np.eye(16)
            a[5, 5] = 0.0 if case == "zero diagonal" else 1e-300
        t = rs.randn(16, 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = linalg.r_solver(np.column_stack([a, t]), 500)(16)
        assert numpy_calls["lstsq"] == [(16, 16)]
        ref = linalg.pseudoinverse(a) @ t
        assert np.linalg.norm(got - ref) <= 1e-10 * np.linalg.norm(ref)


@pytest.fixture(scope="module")
def sigmoid_r():
    """The R factor of a 2560-row, 1024-node sigmoid layer and its targets."""
    rs = np.random.RandomState(41)
    x = rs.randn(2560, 12)
    t = (x[:, :1] + 0.5 * rs.randn(2560, 1) > 0).astype(float)
    w, b = elm.init_random(ElmParams(1024, Activation.SIGMOID, seed=6), x.shape[1])
    return np.linalg.qr(np.column_stack([elm.hidden_layer(x, w, b, Activation.SIGMOID), t]), mode="r")


def relative(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


class TestTriangularInverse:
    """R's inverse by the 2x2 block recursion, np.linalg.inv below
    _INVERSE_BLOCK columns."""

    @pytest.mark.parametrize("n", [1, 8, 64, 127])
    def test_narrow_r_keeps_inv_bits(self, sigmoid_r, n):
        a = sigmoid_r[:n, :n]
        assert linalg._inverse(a).tobytes() == np.linalg.inv(a).tobytes()

    @pytest.mark.parametrize("n", [128, 129, 256, 513, 1024])
    def test_wide_r_matches_inv(self, sigmoid_r, n):
        a = sigmoid_r[:n, :n]
        got = linalg._inverse(a)
        assert relative(got, np.linalg.inv(a)) <= 1e-14
        assert not np.tril(got, -1).any()

    @pytest.mark.parametrize("k", [1, 16, 100, 128, 300, 512, 1000])
    def test_leading_block_is_the_leading_blocks_inverse(self, sigmoid_r, k):
        inverse = linalg._inverse(sigmoid_r[:1024, :1024])
        assert relative(inverse[:k, :k], np.linalg.inv(sigmoid_r[:k, :k])) <= 1e-14


class TestRSolver:
    """r_solver: one inverse of R's widest block serves every width, each
    width with its own cutoff, bound and gelsd fallback."""

    @pytest.mark.parametrize("widths", [(16, 100, 256, 1024), (8,)])
    def test_each_width_matches_lstsq_on_its_block(self, sigmoid_r, numpy_calls, widths):
        solve = linalg.r_solver(sigmoid_r[:, [*range(max(widths)), 1024]][: max(widths) + 1], 2560)
        for k in widths:
            # every block is far from singular, so lstsq's answer is the solve's
            ref = np.linalg.solve(sigmoid_r[:k, :k], sigmoid_r[:k, 1024:])
            assert relative(solve(k), ref) <= 1e-12
        assert numpy_calls["lstsq"] == []

    @pytest.mark.parametrize("trailing", [0.0, 1e-20])
    def test_rank_deficient_trailing_block_sends_only_the_wide_width_to_gelsd(self, numpy_calls, trailing):
        rs = np.random.RandomState(43)
        r = np.triu(rs.randn(257, 257)) + 8.0 * np.eye(257)
        r[230, 230] = trailing  # the R factor of 256 nodes whose 231st is a combination of the others
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            solve = linalg.r_solver(r, 256)
            betas = {k: solve(k) for k in (16, 128, 192, 256)}
        assert numpy_calls["lstsq"] == [(256, 256)]
        for k in (16, 128, 192):
            assert relative(betas[k], np.linalg.solve(r[:k, :k], r[:k, 256:])) <= 1e-12
        ref = linalg.pseudoinverse(r[:256, :256]) @ r[:256, 256:]
        assert relative(betas[256], ref) <= 1e-10

    def test_width_past_the_rows_of_a_wide_r_takes_gelsd(self, numpy_calls):
        # 40 rows, 64 nodes: widths up to 40 are square blocks of R
        rs = np.random.RandomState(44)
        h, t = rs.randn(40, 64), rs.randn(40, 1)
        r = np.linalg.qr(np.column_stack([h, t]), mode="r")
        ref = linalg.pseudoinverse(h[:, :16]) @ t
        solve = linalg.r_solver(r, 40)
        assert relative(solve(16), ref) <= 1e-12
        assert numpy_calls["lstsq"] == []
        assert relative(solve(64), linalg.pseudoinverse(h) @ t) <= 1e-10
        assert numpy_calls["lstsq"] == [(40, 64)]

    def test_non_finite_r_is_a_data_error(self):
        r = np.eye(5)
        r[2, 4] = np.nan
        with pytest.raises(DataError, match="R factor has a non-finite entry at row 2, column 4"):
            linalg.r_solver(r, 100)
