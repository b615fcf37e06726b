"""Linear-algebra kernel tests with independent pure-Python oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sleepvar.errors import NotPositiveDefiniteError, SingularDesignError
from sleepvar.linalg import (
    cholesky_lower,
    companion_matrix,
    log_det_pd,
    solve_least_squares,
    solve_stacked_least_squares,
    spectral_radius,
)
from sleepvar.simulate import substream
from sleepvar.var import _lagged_design


def gauss_solve(a, b):
    """Plain-Python Gaussian elimination with partial pivoting."""
    n = len(b)
    m = [row[:] + [bv] for row, bv in zip(a, b)]
    for c in range(n):
        piv = max(range(c, n), key=lambda r: abs(m[r][c]))
        m[c], m[piv] = m[piv], m[c]
        for r in range(c + 1, n):
            f = m[r][c] / m[c][c]
            for j in range(c, n + 1):
                m[r][j] -= f * m[c][j]
    x = [0.0] * n
    for r in range(n - 1, -1, -1):
        x[r] = (m[r][n] - sum(m[r][j] * x[j] for j in range(r + 1, n))) / m[r][r]
    return x


def normal_equations_oracle(design, target):
    """Least squares via explicitly formed normal equations (pure Python)."""
    rows = [list(map(float, r)) for r in design]
    y = list(map(float, target))
    m = len(rows[0])
    xtx = [[sum(r[i] * r[j] for r in rows) for j in range(m)] for i in range(m)]
    xty = [sum(r[i] * t for r, t in zip(rows, y)) for i in range(m)]
    return gauss_solve(xtx, xty)


def det_by_cofactors(a):
    """Recursive cofactor expansion (pure Python)."""
    n = len(a)
    if n == 1:
        return a[0][0]
    total = 0.0
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in a[1:]]
        total += (-1) ** j * a[0][j] * det_by_cofactors(minor)
    return total


class TestSolveLeastSquares:
    def test_identity_design(self):
        coef, resid, nmi = solve_least_squares(np.eye(3), np.array([[1.0], [2.0], [3.0]]))
        assert np.allclose(coef.ravel(), [1, 2, 3], atol=1e-14)
        assert np.allclose(resid, 0, atol=1e-14)
        assert np.allclose(nmi, np.eye(3), atol=1e-14)

    def test_exact_line(self):
        x = np.array([0.0, 1.0, 2.0])
        design = np.column_stack([np.ones(3), x])
        coef, resid, _ = solve_least_squares(design, (2 * x + 1).reshape(-1, 1))
        assert np.allclose(coef.ravel(), [1.0, 2.0], atol=1e-12)
        assert np.allclose(resid, 0, atol=1e-12)

    def test_against_normal_equations_oracle(self):
        gen = substream(314, 0)
        design = gen.standard_normal((50, 3)) + 1.0
        target = gen.standard_normal(50)
        coef, _, _ = solve_least_squares(design, target.reshape(-1, 1))
        oracle = normal_equations_oracle(design.tolist(), target.tolist())
        assert np.abs(coef.ravel() - oracle).max() < 1e-8

    def test_normal_matrix_inverse(self):
        gen = substream(7, 0)
        design = gen.standard_normal((40, 4))
        _, _, nmi = solve_least_squares(design, gen.standard_normal((40, 2)))
        assert np.allclose(nmi @ (design.T @ design), np.eye(4), atol=1e-9)

    def test_singular_design_names_column(self):
        base = substream(1, 0).standard_normal(30)
        design = np.column_stack([np.ones(30), base, 2.0 * base])
        with pytest.raises(SingularDesignError) as err:
            solve_least_squares(design, np.zeros((30, 1)))
        assert err.value.column == 2

    def test_underdetermined_rejected(self):
        with pytest.raises(ValueError, match="underdetermined"):
            solve_least_squares(np.ones((2, 3)), np.zeros((2, 1)))

    def test_residual_orthogonality(self):
        for seed in range(5):
            gen = substream(seed, 0)
            design = gen.standard_normal((60, 4))
            _, resid, _ = solve_least_squares(design, gen.standard_normal((60, 3)))
            assert np.abs(design.T @ resid).max() <= 1e-8


def augmented_stack(paths: np.ndarray, p: int) -> np.ndarray:
    return _lagged_design(paths, p)


class TestSolveStackedLeastSquares:
    @pytest.mark.parametrize("k", [2, 5])
    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_matches_per_path_lstsq(self, k, p):
        paths = substream(k * 10 + p, 0).standard_normal((6, 120, k)) + 0.5
        m = k * p + 1
        solved = solve_stacked_least_squares(augmented_stack(paths, p), m)
        assert solved.failures == {}
        for c in range(paths.shape[0]):
            augmented = _lagged_design(paths[c], p)
            design, targets = augmented[:, :m], augmented[:, m:]
            coef, *_ = np.linalg.lstsq(design, targets, rcond=None)
            resid = targets - design @ coef
            assert np.abs(solved.coefficients[c] - coef).max() <= 1e-12
            assert np.abs(solved.residual_cross[c] - resid.T @ resid).max() <= 1e-12

    def test_constant_column_masks_only_its_replication(self):
        paths = substream(3, 0).standard_normal((5, 80, 3))
        paths[2, :, 1] = 0.0  # variable 1 constant: its R diagonal is exactly zero
        solved = solve_stacked_least_squares(augmented_stack(paths, 2), 3 * 2 + 1)
        assert list(solved.failures) == [2]
        assert "column 2 " in solved.failures[2]
        assert not solved.coefficients[2].any()
        assert np.isfinite(solved.coefficients).all()

    def test_results_independent_of_stack_size(self):
        paths = substream(5, 0).standard_normal((7, 300, 5))
        paths[3] *= 1e-9  # the rank verdict is relative to each replication's own scale
        paths[5] *= 1e6
        aug = augmented_stack(paths, 2)
        whole = solve_stacked_least_squares(aug, 11)
        assert whole.failures == {}
        for c in range(aug.shape[0]):
            alone = solve_stacked_least_squares(aug[c : c + 1], 11)
            assert np.array_equal(alone.coefficients[0], whole.coefficients[c])
            assert np.array_equal(alone.residual_cross[0], whole.residual_cross[c])

    def test_shape_validation(self):
        with pytest.raises(ValueError, match="3-D"):
            solve_stacked_least_squares(np.ones((4, 3)), 2)
        with pytest.raises(ValueError, match="underdetermined"):
            solve_stacked_least_squares(np.ones((1, 3, 4)), 2)
        with pytest.raises(ValueError, match="design width"):
            solve_stacked_least_squares(np.ones((1, 9, 4)), 4)


class TestCholesky:
    def test_identity(self):
        assert np.array_equal(cholesky_lower(np.eye(3)), np.eye(3))

    def test_hand_factorization(self):
        low = cholesky_lower(np.array([[4.0, 2.0], [2.0, 5.0]]))
        assert np.allclose(low, [[2.0, 0.0], [1.0, 2.0]], atol=1e-14)
        assert np.allclose(low @ low.T, [[4, 2], [2, 5]], atol=1e-12)

    def test_indefinite_rejected_with_pivot(self):
        with pytest.raises(NotPositiveDefiniteError) as err:
            cholesky_lower(np.array([[1.0, 2.0], [2.0, 1.0]]))
        assert err.value.pivot == 1

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            cholesky_lower(np.array([[1.0, 0.5], [0.0, 1.0]]))

    @given(st.integers(1, 5), st.integers(0, 1000))
    @settings(max_examples=40)
    def test_recovers_lower_triangular_root(self, k, seed):
        gen = substream(seed, 3)
        low = np.tril(gen.standard_normal((k, k)))
        low[np.diag_indices(k)] = np.abs(low[np.diag_indices(k)]) + 0.5
        again = cholesky_lower(low @ low.T)
        assert np.abs(again - low).max() < 1e-10


class TestLogDet:
    def test_identity_is_zero(self):
        assert log_det_pd(np.eye(5)) == 0.0

    def test_diagonal(self):
        assert log_det_pd(np.diag([2.0, 3.0])) == pytest.approx(np.log(6.0), abs=1e-14)

    def test_against_cofactor_oracle(self):
        gen = substream(11, 0)
        b = gen.standard_normal((4, 4))
        pd = b @ b.T + 4.0 * np.eye(4)
        oracle = np.log(det_by_cofactors(pd.tolist()))
        assert abs(log_det_pd(pd) - oracle) < 1e-9

    def test_propagates_not_pd(self):
        with pytest.raises(NotPositiveDefiniteError):
            log_det_pd(np.array([[0.0, 0.0], [0.0, 1.0]]))


class TestSpectralRadius:
    def test_diagonal(self):
        assert spectral_radius(np.diag([0.5, -0.2])) == pytest.approx(0.5, abs=1e-12)

    def test_scalar_ar1_companion(self):
        comp = companion_matrix(np.array([[[0.9]]]))
        assert spectral_radius(comp) == pytest.approx(0.9, abs=1e-12)

    def test_var2_companion_quadratic_root(self):
        # max modulus root of z^2 - 0.5 z - 0.3 by the quadratic formula
        comp = companion_matrix(np.array([0.5 * np.eye(2), 0.3 * np.eye(2)]))
        expected = (0.5 + np.sqrt(0.25 + 1.2)) / 2.0
        assert spectral_radius(comp) == pytest.approx(expected, abs=1e-10)

    def test_empty_matrix(self):
        assert spectral_radius(np.zeros((0, 0))) == 0.0

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="square"):
            spectral_radius(np.ones((2, 3)))

    @given(st.floats(-4.0, 4.0), st.integers(0, 500))
    @settings(max_examples=40)
    def test_absolute_homogeneity(self, c, seed):
        m = substream(seed, 5).standard_normal((4, 4))
        assert spectral_radius(c * m) == pytest.approx(
            abs(c) * spectral_radius(m), rel=1e-9, abs=1e-12
        )


class TestCompanion:
    def test_blocks(self):
        a1 = np.array([[1.0, 2.0], [3.0, 4.0]])
        a2 = np.array([[5.0, 6.0], [7.0, 8.0]])
        comp = companion_matrix(np.stack([a1, a2]))
        assert comp.shape == (4, 4)
        assert np.array_equal(comp[:2, :2], a1)
        assert np.array_equal(comp[:2, 2:], a2)
        assert np.array_equal(comp[2:, :2], np.eye(2))
        assert np.array_equal(comp[2:, 2:], np.zeros((2, 2)))
