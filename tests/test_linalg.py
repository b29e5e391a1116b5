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
        assert np.array_equal(linalg.lstsq(a, np.eye(2), rows=1000), np.diag([1.0, 0.0]))

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
    """lstsq on a square R factor (rows= given) returns R^-1 @ targets when
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
        got = linalg.lstsq(a, qt, rows=len(x))
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
        t = rs.randn(16, 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = linalg.lstsq(a, t, rows=500)
        assert numpy_calls["lstsq"] == [(16, 16)]
        ref = linalg.pseudoinverse(a) @ t
        assert np.linalg.norm(got - ref) <= 1e-10 * np.linalg.norm(ref)

    def test_wide_short_r_goes_straight_to_gelsd(self, numpy_calls):
        # the R factor of a matrix with fewer rows than columns is wide
        rs = np.random.RandomState(33)
        a = np.triu(rs.randn(5, 9))
        t = rs.randn(5, 1)
        got = linalg.lstsq(a, t, rows=5)
        assert numpy_calls == {"lstsq": [(5, 9)], "inv": []}
        ref = linalg.pseudoinverse(a) @ t
        assert np.linalg.norm(got - ref) <= 1e-10 * np.linalg.norm(ref)
