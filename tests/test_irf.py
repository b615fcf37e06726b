"""Impulse-response recursion, orthogonalization, and bootstrap band tests."""

import dataclasses

import numpy as np
import pytest

import sleepvar as sv
from sleepvar.errors import DataError, NumericError
from sleepvar.linalg import cholesky_lower, solve_least_squares
from sleepvar.simulate import DEFAULT_BURN_IN, iterate_paths, substream

from conftest import VAR2_SPEC


def random_stable_fit(seed: int, k: int = 2, p: int = 2) -> sv.VarFit:
    gen = substream(seed, 7)
    while True:
        coef = gen.standard_normal((p, k, k)) * 0.4
        from sleepvar.linalg import companion_matrix, spectral_radius

        if spectral_radius(companion_matrix(coef)) < 0.95:
            break
    b = gen.standard_normal((k, k))
    spec = sv.VarProcessSpec(
        tuple(f"v{i}" for i in range(k)), p, gen.standard_normal(k) * 0.2,
        coef, b @ b.T + 0.5 * np.eye(k),
    )
    return sv.fit_var(sv.simulate_var(spec, 500, seed=seed), p)


def shock_propagation_oracle(fit: sv.VarFit, horizon: int) -> np.ndarray:
    """Difference between a shocked and an unshocked zero-noise forward run."""
    k = fit.n_vars
    out = np.empty((horizon + 1, k, k))

    def run(initial_shock):
        path = []
        for h in range(horizon + 1):
            acc = np.array(fit.intercept)
            for lag in range(1, fit.p + 1):
                prev = path[h - lag] if h - lag >= 0 else np.zeros(k)
                acc = acc + fit.coef[lag - 1] @ prev
            if h == 0:
                acc = acc + initial_shock
            path.append(acc)
        return np.array(path)

    quiet = run(np.zeros(k))
    for j in range(k):
        out[:, :, j] = run(np.eye(k)[j]) - quiet
    return out


def looped_bands(fit: sv.VarFit, horizon: int, level: float, replications: int, seed: int):
    """Reference bootstrap: one QR least-squares refit per replication."""
    k, p, t_eff = fit.n_vars, fit.p, fit.t_eff
    chol = cholesky_lower(fit.sigma_u)
    shocks = np.stack([substream(seed, r + 1).standard_normal((DEFAULT_BURN_IN + t_eff, k))
                       @ chol.T for r in range(replications)])
    mean = np.linalg.solve(np.eye(k) - fit.coef.sum(axis=0), fit.intercept)
    paths = iterate_paths(fit.intercept, fit.coef, shocks, mean)[:, DEFAULT_BURN_IN:]
    draws = []
    for path in paths:
        design = np.column_stack([np.ones(t_eff - p)]
                                 + [path[p - lag : t_eff - lag] for lag in range(1, p + 1)])
        coef, resid, _ = solve_least_squares(design, path[p:])
        refit = dataclasses.replace(fit, coef=coef[1:].reshape(p, k, k).transpose(0, 2, 1))
        dof = t_eff - p - design.shape[1]
        draws.append(sv.ma_coefficients(refit, horizon) @ cholesky_lower(resid.T @ resid / dof))
    tail = (1.0 - level) / 2.0
    return np.quantile(np.array(draws), [tail, 1.0 - tail], axis=0)


class TestMaCoefficients:
    def test_identity_at_horizon_zero(self):
        fit = random_stable_fit(0)
        assert np.array_equal(sv.ma_coefficients(fit, 5)[0], np.eye(2))

    def test_var1_geometric_decay(self):
        spec = sv.VarProcessSpec(("a", "b"), 1, np.zeros(2),
                                 np.array([0.5 * np.eye(2)]), np.eye(2))
        fit = sv.fit_var(sv.simulate_var(spec, 400, seed=1), 1)
        # exact statement on the true process, via a synthetic fit object
        fit = dataclasses.replace(fit, coef=np.array([0.5 * np.eye(2)]))
        phi = sv.ma_coefficients(fit, 6)
        for h in range(7):
            assert np.allclose(phi[h], 0.5**h * np.eye(2), atol=1e-14)

    def test_matches_shock_propagation_oracle(self):
        for seed in range(20):
            fit = random_stable_fit(seed)
            phi = sv.ma_coefficients(fit, 10)
            oracle = shock_propagation_oracle(fit, 10)
            assert np.abs(phi - oracle).max() < 1e-10

    def test_stable_fit_decays(self):
        for seed in range(5):
            fit = random_stable_fit(seed)
            phi = sv.ma_coefficients(fit, 50)
            assert np.abs(phi[50]).max() < np.abs(phi[10]).max()

    def test_negative_horizon(self):
        with pytest.raises(DataError):
            sv.ma_coefficients(random_stable_fit(1), -1)


class TestOrthogonalizedIrf:
    def test_identity_covariance_keeps_phi(self):
        fit = random_stable_fit(2)
        fit = dataclasses.replace(fit, sigma_u=np.eye(2))
        assert np.allclose(
            sv.orthogonalized_irf(fit, 8), sv.ma_coefficients(fit, 8), atol=1e-14
        )

    def test_horizon_zero_is_cholesky_factor(self):
        fit = random_stable_fit(3)
        assert np.array_equal(sv.orthogonalized_irf(fit, 4)[0], cholesky_lower(fit.sigma_u))

    def test_lower_triangular_identification(self):
        fit = random_stable_fit(4)
        theta0 = sv.orthogonalized_irf(fit, 2)[0]
        assert np.allclose(theta0, np.tril(theta0), atol=1e-14)

    def test_diagonal_covariance_no_dynamics(self):
        fit = random_stable_fit(5)
        fit = dataclasses.replace(
            fit,
            coef=np.zeros((2, 2, 2)),
            sigma_u=np.diag([4.0, 1.0]),
        )
        theta = sv.orthogonalized_irf(fit, 3)
        assert np.allclose(theta[0], np.diag([2.0, 1.0]), atol=1e-14)
        assert np.allclose(theta[1:], 0.0, atol=1e-14)


class TestIrfWithBands:
    def test_point_inside_band_and_ordering(self):
        fit = sv.fit_var(sv.simulate_var(VAR2_SPEC, 800, seed=5), 2)
        res = sv.irf_with_bands(fit, horizon=8, replications=200, seed=1)
        assert (res.lower <= res.responses).all()
        assert (res.responses <= res.upper).all()
        assert res.lower.shape == (9, 2, 2)

    def test_bit_identical_for_same_seed(self):
        fit = sv.fit_var(sv.simulate_var(VAR2_SPEC, 400, seed=6), 2)
        a = sv.irf_with_bands(fit, horizon=5, replications=150, seed=9)
        b = sv.irf_with_bands(fit, horizon=5, replications=150, seed=9)
        assert np.array_equal(a.responses, b.responses)
        assert np.array_equal(a.lower, b.lower)
        assert np.array_equal(a.upper, b.upper)

    def test_different_seed_moves_bands(self):
        fit = sv.fit_var(sv.simulate_var(VAR2_SPEC, 400, seed=6), 2)
        a = sv.irf_with_bands(fit, horizon=5, replications=150, seed=1)
        b = sv.irf_with_bands(fit, horizon=5, replications=150, seed=2)
        assert not np.array_equal(a.lower, b.lower)

    def test_replication_prefix_is_stable(self):
        # growing the replication count must not change earlier draws
        fit = sv.fit_var(sv.simulate_var(VAR2_SPEC, 400, seed=6), 2)
        a = sv.irf_with_bands(fit, horizon=4, replications=150, seed=3)
        b = sv.irf_with_bands(fit, horizon=4, replications=300, seed=3)
        assert np.array_equal(a.responses, b.responses)
        assert not np.array_equal(a.lower, b.lower)  # quantiles over more draws

    def test_empirical_mode_runs_and_differs(self):
        fit = sv.fit_var(sv.simulate_var(VAR2_SPEC, 400, seed=6), 2)
        g = sv.irf_with_bands(fit, horizon=4, replications=150, seed=3)
        e = sv.irf_with_bands(fit, horizon=4, replications=150, seed=3,
                              innovations="empirical")
        assert np.array_equal(g.responses, e.responses)
        assert not np.array_equal(g.lower, e.lower)

    def test_non_orthogonalized_h0_band_degenerates_to_identity(self):
        fit = sv.fit_var(sv.simulate_var(VAR2_SPEC, 400, seed=6), 2)
        res = sv.irf_with_bands(fit, horizon=3, replications=150, seed=2,
                                orthogonalized=False)
        assert np.array_equal(res.responses[0], np.eye(2))
        assert np.array_equal(res.lower[0], np.eye(2))
        assert np.array_equal(res.upper[0], np.eye(2))

    def test_unstable_fit_rejected(self):
        fit = sv.fit_var(sv.simulate_var(VAR2_SPEC, 400, seed=6), 2)
        bad = dataclasses.replace(fit, coef=np.array([1.05 * np.eye(2), np.zeros((2, 2))]))
        with pytest.raises(NumericError, match="unstable"):
            sv.irf_with_bands(bad, horizon=4, replications=150, seed=0)

    def test_parameter_validation(self):
        fit = sv.fit_var(sv.simulate_var(VAR2_SPEC, 400, seed=6), 2)
        with pytest.raises(DataError, match="replications"):
            sv.irf_with_bands(fit, replications=50)
        with pytest.raises(DataError, match="level"):
            sv.irf_with_bands(fit, level=1.2, replications=150)
        with pytest.raises(DataError, match="innovation mode"):
            sv.irf_with_bands(fit, replications=150, innovations="bayes")

    def test_stacked_refits_match_per_replication_loop(self):
        fit = sv.fit_var(sv.simulate_var(VAR2_SPEC, 400, seed=6), 2)
        res = sv.irf_with_bands(fit, horizon=6, replications=150, seed=4)
        lower, upper = looped_bands(fit, 6, 0.95, 150, 4)
        assert np.abs(res.lower - lower).max() <= 1e-12
        assert np.abs(res.upper - upper).max() <= 1e-12
        assert res.n_failed == 0 and res.failures == ()

    def test_band_convergence_in_replications(self):
        fit = sv.fit_var(sv.simulate_var(VAR2_SPEC, 2000, seed=5000), 2)
        a = sv.irf_with_bands(fit, 10, 0.95, 500, seed=9)
        b = sv.irf_with_bands(fit, 10, 0.95, 1000, seed=9)
        scale = np.abs(b.upper - b.lower).max()
        rel = max(np.abs(a.lower - b.lower).max(), np.abs(a.upper - b.upper).max()) / scale
        assert rel < 0.05

    def test_dataset_mood_response_peaks_then_decays(self, dataset_fit):
        # sleep-to-depressed panel: effect builds for a couple of days,
        # peaks, then decays toward zero over the ten-day window
        res = sv.irf_with_bands(dataset_fit, horizon=10, replications=300, seed=0)
        i = dataset_fit.var_names.index("depressed")
        j = dataset_fit.var_names.index("score")
        magnitude = np.abs(res.responses[:, i, j])
        peak = int(np.argmax(magnitude))
        assert peak in (2, 3, 4)
        assert magnitude[10] < magnitude[peak] / 3.0
        width = res.upper[:, i, j] - res.lower[:, i, j]
        assert width[10] < width[peak]

    def test_dataset_refits_all_succeed(self, dataset_fit):
        res = sv.irf_with_bands(dataset_fit, horizon=10, replications=100, seed=0)
        assert res.n_failed == 0 and res.failures == ()
