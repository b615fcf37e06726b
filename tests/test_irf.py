"""Impulse-response recursion, orthogonalization, and bootstrap band tests."""

import dataclasses
import datetime as dt
import tracemalloc

import numpy as np
import pytest

import sleepvar as sv
import sleepvar.irf as irf_mod
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


def with_covariance(fit: sv.VarFit, cov: np.ndarray, **changes) -> sv.VarFit:
    """``fit`` with residuals whose df-adjusted covariance is ``cov`` up to
    rounding: sqrt(dof) L' in the first K rows, where L L' = cov, and zeros below."""
    resid = np.zeros_like(fit.residuals)
    resid[: fit.n_vars] = np.sqrt(fit.t_eff - fit.n_params) * np.linalg.cholesky(cov).T
    return dataclasses.replace(fit, residuals=resid, **changes)


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


def looped_bands(fit: sv.VarFit, horizon: int, level: float, replications: int, seed: int,
                 skip=()):
    """Reference bootstrap: one QR least-squares refit per replication,
    leaving out the replications in ``skip``."""
    k, p, t_eff = fit.n_vars, fit.p, fit.t_eff
    chol = cholesky_lower(fit.sigma_u)
    shocks = np.stack([substream(seed, r + 1).standard_normal((DEFAULT_BURN_IN + t_eff, k))
                       @ chol.T for r in range(replications)])
    mean = np.linalg.solve(np.eye(k) - fit.coef.sum(axis=0), fit.intercept)
    paths = iterate_paths(fit.intercept, fit.coef, shocks, mean)[:, DEFAULT_BURN_IN:]
    draws = []
    for r, path in enumerate(paths):
        if r in skip:
            continue
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
        fit = with_covariance(random_stable_fit(2), np.eye(2))
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
        fit = with_covariance(random_stable_fit(5), np.diag([4.0, 1.0]), coef=np.zeros((2, 2, 2)))
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
        fit0 = sv.fit_var(sv.simulate_var(VAR2_SPEC, 400, seed=6), 0)
        with pytest.raises(DataError, match="impulse-response bands require a fitted lag order "
                                            "of at least 1"):
            sv.irf_with_bands(fit0, replications=150)

    def test_refits_need_one_degree_of_freedom_only(self):
        # K=2, p=1, T=6: each refit has 4 rows for 3 regressors and 2 targets
        values = substream(0, 0).standard_normal((6, 2))
        fit = sv.fit_var(sv.SeriesFrame(dt.date(2020, 1, 1), ("x", "y"), values), 1)
        res = sv.irf_with_bands(fit, horizon=3, replications=100, orthogonalized=False)
        assert res.n_failed == 0 and np.isfinite(res.lower).all()
        # orthogonalized bands need K: 1 leaves each refit's 2x2 covariance singular
        with pytest.raises(DataError, match=r"at least K=2 residual degrees .* got dof=1"):
            sv.irf_with_bands(fit, horizon=3, replications=100)
        short = sv.fit_var(sv.SeriesFrame(dt.date(2020, 1, 1), ("x", "y"), values[:5]), 1)
        with pytest.raises(DataError, match="bootstrap refits: t_eff=4 leaves 3 rows"):
            sv.irf_with_bands(short, horizon=3, replications=100, orthogonalized=False)

    def test_stacked_refits_match_per_replication_loop(self):
        fit = sv.fit_var(sv.simulate_var(VAR2_SPEC, 400, seed=6), 2)
        res = sv.irf_with_bands(fit, horizon=6, replications=150, seed=4)
        lower, upper = looped_bands(fit, 6, 0.95, 150, 4)
        assert np.abs(res.lower - lower).max() <= 1e-12
        assert np.abs(res.upper - upper).max() <= 1e-12
        assert res.n_failed == 0 and res.failures == ()

    def test_non_positive_definite_refit_is_masked_and_named(self, monkeypatch):
        # one refit's R_yy loses its last diagonal, so its residual covariance
        # R_yy' R_yy / dof is singular: only that replication may be dropped
        fit = sv.fit_var(sv.simulate_var(VAR2_SPEC, 400, seed=6), 2)
        solve = irf_mod.solve_augmented
        stacks = []

        def singular_second_refit(augmented, m, **kwargs):
            solved = solve(augmented, m, **kwargs)
            if not stacks:
                solved.r[1, -1, -1] = 0.0
            stacks.append(len(augmented))
            return solved

        monkeypatch.setattr(irf_mod, "solve_augmented", singular_second_refit)
        res = sv.irf_with_bands(fit, horizon=6, replications=150, seed=4)
        assert stacks[0] > 2
        assert res.n_failed == 1
        assert len(res.failures) == 1
        assert res.failures[0] == ("replication 1: residual covariance is singular: "
                                   "residual 1 is collinear with earlier ones")
        lower, upper = looped_bands(fit, 6, 0.95, 150, 4, skip={1})
        assert np.abs(res.lower - lower).max() <= 1e-12
        assert np.abs(res.upper - upper).max() <= 1e-12

    @staticmethod
    def singular_block_starts(monkeypatch, fit, n_blocks):
        """Blocks of 7 replications, each refit in one stack, and the first
        refit of each of the first ``n_blocks`` stacks loses its last R_yy
        diagonal; returns the list of stack sizes the bootstrap refits."""
        per_replication = (2 * (DEFAULT_BURN_IN + fit.t_eff) + fit.p) * fit.n_vars * 8
        monkeypatch.setattr(irf_mod, "PATH_BLOCK_BYTES", 7 * per_replication)
        solve = irf_mod.solve_augmented
        stacks = []

        def singular_first_refit(augmented, m, **kwargs):
            solved = solve(augmented, m, **kwargs)
            if len(stacks) < n_blocks:
                solved.r[0, -1, -1] = 0.0
            stacks.append(len(augmented))
            return solved

        monkeypatch.setattr(irf_mod, "solve_augmented", singular_first_refit)
        return stacks

    def test_too_many_failed_refits_abort_with_the_first_five(self, monkeypatch):
        fit = sv.fit_var(sv.simulate_var(VAR2_SPEC, 400, seed=6), 2)
        stacks = self.singular_block_starts(monkeypatch, fit, n_blocks=22)
        with pytest.raises(NumericError) as info:
            sv.irf_with_bands(fit, horizon=6, replications=150, seed=4)
        assert stacks == [7] * 21 + [3]
        reason = "residual covariance is singular: residual 1 is collinear with earlier ones"
        assert str(info.value) == (
            "bootstrap refits failed in 22/150 replications; first failures: "
            + "; ".join(f"replication {r}: {reason}" for r in (0, 7, 14, 21, 28))
        )

    def test_failed_refits_listed_in_replication_order(self, monkeypatch):
        fit = sv.fit_var(sv.simulate_var(VAR2_SPEC, 400, seed=6), 2)
        stacks = self.singular_block_starts(monkeypatch, fit, n_blocks=2)
        res = sv.irf_with_bands(fit, horizon=6, replications=200, seed=4)
        assert stacks[:2] == [7, 7]
        assert res.n_failed == 2
        reason = "residual covariance is singular: residual 1 is collinear with earlier ones"
        assert res.failures == (f"replication 0: {reason}", f"replication 7: {reason}")
        lower, upper = looped_bands(fit, 6, 0.95, 200, 4, skip={0, 7})
        assert np.abs(res.lower - lower).max() <= 1e-12
        assert np.abs(res.upper - upper).max() <= 1e-12

    def test_tiny_variable_keeps_every_refit(self, dataset_frame, dataset_fit):
        # elevated * 1e-8 is the smallest power of ten the fit's own rank rule
        # accepts (3e-9 fails at L1.elevated): the refits' R_yy rule must not
        # be stricter, and the bands scale with the data, D times the unscaled
        d = np.ones(dataset_frame.n_vars)
        d[dataset_frame.index_of("elevated")] = 1e-8
        scaled = sv.fit_var(dataclasses.replace(dataset_frame, values=dataset_frame.values * d), 2)
        res = sv.irf_with_bands(scaled, horizon=10, replications=200, seed=0)
        base = sv.irf_with_bands(dataset_fit, horizon=10, replications=200, seed=0)
        assert res.n_failed == 0
        for band, unscaled in ((res.lower, base.lower), (res.upper, base.upper)):
            assert np.abs(band / d[:, None] - unscaled).max() <= 1e-12 * np.abs(unscaled).max()

    def test_peak_memory_near_its_buffers(self, dataset_fit):
        # one path buffer for the widest block and one design buffer for a
        # stack, each allocated once per call: the traced peak is those two,
        # the response draws and small temporaries (1.06x measured; with a
        # shock array, a path buffer per block and a design per stack, 2.0x)
        fit, replications, horizon = dataset_fit, 200, 10
        k, p, t_eff = fit.n_vars, fit.p, fit.t_eff
        n_steps, m = DEFAULT_BURN_IN + t_eff, k * p + 1
        per_replication = (2 * n_steps + p) * k * 8
        n_blocks = -(-replications // (irf_mod.PATH_BLOCK_BYTES // per_replication))
        block = -(-replications // n_blocks)
        stack = min(block, irf_mod.REFIT_STACK_BYTES // ((t_eff - p) * (m + k) * 8))
        buffers = ((p + n_steps) * k * block + stack * (t_eff - p) * (m + k)
                   + replications * (horizon + 1) * k * k) * 8
        sv.irf_with_bands(fit, 1, replications=100)  # first-call imports and caches
        tracemalloc.start()
        try:
            sv.irf_with_bands(fit, horizon, replications=replications)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.15 * buffers, (peak, buffers)

    @pytest.mark.parametrize("which", ["dataset", "k2"])
    def test_bands_independent_of_block_partition(self, which, dataset_fit, monkeypatch):
        fit = dataset_fit if which == "dataset" else sv.fit_var(
            sv.simulate_var(VAR2_SPEC, 400, seed=6), 2)
        # shock and path bytes of one replication
        per_replication = (2 * (DEFAULT_BURN_IN + fit.t_eff) + fit.p) * fit.n_vars * 8
        bands = set()
        # one replication per block, an odd block size, the whole run in one block
        for budget in (1, 7 * per_replication, 1 << 40):
            monkeypatch.setattr(irf_mod, "PATH_BLOCK_BYTES", budget)
            res = sv.irf_with_bands(fit, horizon=6, replications=120, seed=5)
            bands.add(res.lower.tobytes() + res.upper.tobytes())
        assert len(bands) == 1

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
