"""ADF, differencing, decomposition, and PACF tests.

Monte-Carlo checks here use reduced seed counts; the full-size calibration
studies live in test_acceptance.py.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sleepvar as sv
from sleepvar.errors import DataError
from sleepvar.simulate import substream
from sleepvar.stationarity import _adf_augmented


def ar1_sample(phi: float, t: int, seed: int, mean: float = 0.0) -> np.ndarray:
    e = sv.white_noise(t, seed)
    out = np.empty(t)
    out[0] = mean + e[0]
    for i in range(1, t):
        out[i] = mean * (1 - phi) + phi * out[i - 1] + e[i]
    return out


def adf_ols_oracle(y, regression, max_lag):
    """ADF statistic and AIC-chosen order by one np.linalg.lstsq per order.

    Rows are t = k+1..T-1 with regressors [1, (t,) y_{t-1}, dy_{t-1}..dy_{t-k}];
    the order search trims at max_lag, the final fit uses every row, and the
    standard error comes from an explicit inv(X'X).
    """
    dy = np.diff(y)

    def design(k):
        rows = range(k + 1, y.size)
        cols = [[1.0] * len(rows)]
        if regression == "constant_and_trend":
            cols.append([float(i + 1) for i in range(len(rows))])
        cols.append([y[t - 1] for t in rows])
        for j in range(1, k + 1):
            cols.append([dy[t - 1 - j] for t in rows])
        return np.array(cols).T, np.array([dy[t - 1] for t in rows])

    x_full, target = design(max_lag)
    base = x_full.shape[1] - max_lag
    aics = []
    for k in range(max_lag + 1):
        x = x_full[:, : base + k]
        beta, *_ = np.linalg.lstsq(x, target, rcond=None)
        ssr = np.sum((target - x @ beta) ** 2)
        aics.append(target.size * np.log(ssr / target.size) + 2.0 * x.shape[1])
    used_lag = int(np.argmin(aics))
    x, target = design(used_lag)
    beta, *_ = np.linalg.lstsq(x, target, rcond=None)
    resid = target - x @ beta
    sigma2 = resid @ resid / (x.shape[0] - x.shape[1])
    level = base - 1
    se = np.sqrt(sigma2 * np.linalg.inv(x.T @ x)[level, level])
    return beta[level] / se, used_lag


def adf_design_oracle(y, k, ntrend):
    """The column-by-column ADF design the shared lagged-design builder replaced.

    Rows are t = k+1 .. T-1.  Columns: constant, (trend,) level y_{t-1},
    then lagged differences dy_{t-1} .. dy_{t-k}; the target is dy_t.
    """
    t_total = y.size
    dy = np.diff(y)
    n = t_total - 1 - k
    cols = [np.ones(n)]
    if ntrend == 2:
        cols.append(np.arange(1.0, n + 1.0))
    cols.append(y[k : t_total - 1])
    for j in range(1, k + 1):
        cols.append(dy[k - j : t_total - 1 - j])
    return np.column_stack(cols), dy[k:]


class TestAdfMatrices:
    @pytest.mark.parametrize("ntrend", [1, 2])
    @pytest.mark.parametrize("k", [0, 1, 2, 5, 12])
    def test_builder_matches_column_stack(self, ntrend, k):
        series = (sv.random_walk(80, seed=k) + 10.0, np.arange(1.0, 41.0), np.tile([1.0, 2.0, 4.0], 9))
        for y in series:
            x, target = adf_design_oracle(y, k, ntrend)
            m = x.shape[1]
            augmented = _adf_augmented(y, k, ntrend)
            assert augmented.flags.f_contiguous
            assert np.array_equal(augmented, np.column_stack([x, target]))
            # The final regression's matrix: the level column moved last, as adf_test orders it.
            order = [*range(ntrend), *range(ntrend + 1, m), ntrend]
            level_last = augmented[:, [*order, m]]
            assert level_last.flags.f_contiguous
            assert np.array_equal(level_last, np.column_stack([x[:, order], target]))


class TestAdf:
    def test_random_walks_keep_the_null(self):
        keep = sum(sv.adf_test(sv.random_walk(1000, seed=i)).p_value > 0.05 for i in range(30))
        assert keep >= 26

    def test_stationary_ar1_rejects(self):
        reject = sum(
            sv.adf_test(ar1_sample(0.5, 500, seed=1000 + i)).p_value < 0.01
            for i in range(30)
        )
        assert reject >= 28

    def test_linear_ramp_with_trend_terms_is_finite(self):
        res = sv.adf_test(np.arange(1.0, 101.0), regression="constant_and_trend")
        assert np.isfinite(res.statistic)
        assert 0.0 <= res.p_value <= 1.0

    @pytest.mark.parametrize("regression", ["constant", "constant_and_trend"])
    def test_exact_ramp_is_affine_invariant_with_zero_statistic(self, regression):
        # Differences of a ramp are a constant, fitted exactly: no evidence
        # either way, whatever the slope and offset.
        ramp = np.arange(1.0, 101.0)
        results = [
            sv.adf_test(a * ramp + b, regression=regression)
            for a, b in ((1.0, 0.0), (3.0, 7.0), (-2.0, 5.0), (0.25, -40.0), (1e-3, 0.0))
        ]
        assert results[0].statistic == 0.0
        assert all(res == results[0] for res in results)

    def test_level_in_trend_span_gives_zero_statistic(self):
        # y_{t-1} is exactly linear in the regression rows, but the last
        # difference breaks the exact fit: the level coefficient is unidentified.
        for a, b in ((1.0, 0.0), (3.0, 7.0), (-2.0, 5.0)):
            y = a * np.arange(1.0, 101.0) + b
            y[-1] += 4.0 * a
            assert sv.adf_test(y, regression="constant_and_trend").statistic == 0.0

    @pytest.mark.parametrize("regression", ["constant", "constant_and_trend"])
    def test_collinear_lag_columns_are_not_candidate_orders(self, regression):
        # Every lagged difference of a bumped ramp is the same constant, so
        # no augmentation order adds a usable column: the search stays at 0
        # whatever the slope and offset, instead of ranking rounding noise.
        results = []
        for a, b in ((1.0, 0.0), (-2.0, 5.0), (3.0, 7.0), (0.25, -40.0), (1e-3, 0.0)):
            y = a * np.arange(1.0, 101.0) + b
            y[-1] += 4.0 * a
            results.append(sv.adf_test(y, regression=regression))
        first = results[0]
        assert first.used_lag == 0
        for res in results:
            assert (res.used_lag, res.n_obs, res.critical_values, res.regression) == (
                first.used_lag, first.n_obs, first.critical_values, first.regression
            )
            assert res.statistic == pytest.approx(first.statistic, rel=1e-12, abs=1e-12)
            assert res.p_value == pytest.approx(first.p_value, rel=1e-12, abs=1e-12)

    @given(power=st.integers(-150, 150))
    @settings(max_examples=25, deadline=None)
    def test_statistic_keeps_its_bits_in_any_units(self, power):
        # a power-of-two scale is exact, and the rank rule reads each column
        # against its own scale, so neither the order nor the t-ratio moves
        y = np.cumsum(sv.white_noise(500, 3))
        want, got = sv.adf_test(y), sv.adf_test(np.ldexp(y, power))
        assert (got.statistic, got.used_lag) == (want.statistic, want.used_lag)

    @pytest.mark.parametrize("regression", ["constant", "constant_and_trend"])
    def test_matches_plain_ols_oracle(self, regression):
        series = [sv.random_walk(400, seed=s) + 10.0 for s in range(4)]
        series += [ar1_sample(0.5, 300, seed=40 + s, mean=3.0) for s in range(4)]
        for y in series:
            for max_lag in (0, 4, 10):
                res = sv.adf_test(y, regression=regression, max_lag=max_lag)
                stat, used_lag = adf_ols_oracle(y, regression, max_lag)
                assert res.used_lag == used_lag
                assert res.statistic == pytest.approx(stat, rel=1e-9)

    def test_result_fields_and_critical_value_ordering(self):
        res = sv.adf_test(sv.random_walk(300, seed=3))
        assert res.regression == "constant"
        assert res.n_obs == 300 - 1 - res.used_lag
        cv = res.critical_values
        assert cv["1%"] < cv["5%"] < cv["10%"]

    def test_p_value_monotone_in_statistic(self):
        from sleepvar.mackinnon import approx_p_value

        grid = np.linspace(-18.5, 2.5, 400)
        ps = [approx_p_value(s, "constant") for s in grid]
        assert all(a <= b + 1e-12 for a, b in zip(ps, ps[1:]))
        ps = [approx_p_value(s, "constant_and_trend") for s in grid]
        assert all(a <= b + 1e-12 for a, b in zip(ps, ps[1:]))

    def test_affine_invariance(self):
        y = ar1_sample(0.6, 400, seed=9, mean=50.0)
        base = sv.adf_test(y, max_lag=6).statistic
        for a, b in ((2.5, 0.0), (-1.0, 0.0), (0.3, 120.0), (-7.0, -4.0)):
            assert sv.adf_test(a * y + b, max_lag=6).statistic == pytest.approx(
                base, abs=1e-8
            )

    def test_input_validation(self):
        with pytest.raises(DataError, match="too short"):
            sv.adf_test(np.arange(10.0))
        with pytest.raises(DataError, match="missing"):
            sv.adf_test(np.r_[np.arange(20.0), np.nan])
        with pytest.raises(DataError, match="constant"):
            sv.adf_test(np.full(50, 3.0))
        with pytest.raises(DataError, match="regression"):
            sv.adf_test(np.arange(20.0) % 5, regression="quadratic")
        with pytest.raises(DataError, match="max_lag"):
            sv.adf_test(sv.random_walk(30, seed=0), max_lag=200)

    def test_matches_statsmodels(self):
        adfuller = pytest.importorskip("statsmodels.tsa.stattools").adfuller
        cases = [
            (sv.random_walk(400, seed=5) + 10.0, "constant", "c", 12),
            (ar1_sample(0.5, 300, seed=8), "constant", "c", 8),
            (ar1_sample(0.7, 350, seed=4, mean=20.0), "constant_and_trend", "ct", 10),
        ]
        for series, mine_reg, sm_reg, maxlag in cases:
            mine = sv.adf_test(series, regression=mine_reg, max_lag=maxlag)
            stat, p, lag, nobs, crit, _ = adfuller(
                series, maxlag=maxlag, regression=sm_reg, autolag="AIC"
            )
            assert mine.statistic == pytest.approx(stat, abs=1e-8)
            assert mine.p_value == pytest.approx(p, abs=1e-8)
            assert mine.used_lag == lag
            assert mine.n_obs == nobs
            for level in ("1%", "5%", "10%"):
                assert mine.critical_values[level] == pytest.approx(crit[level], abs=1e-10)


class TestMacKinnonSurface:
    @pytest.mark.parametrize("regression, published", [
        ("constant", {"1%": -3.4304, "5%": -2.8615, "10%": -2.5668}),
        ("constant_and_trend", {"1%": -3.9588, "5%": -3.4105, "10%": -3.1271}),
    ])
    def test_asymptotic_critical_values(self, regression, published):
        # MacKinnon (2010), Table 1, N = 1 series: the surface's limit as T grows.
        from sleepvar.mackinnon import critical_values

        got = critical_values(regression, 10**9)
        assert set(got) == set(published)
        for level, value in published.items():
            assert got[level] == pytest.approx(value, abs=1e-4)


class TestRecommendDifferencing:
    def test_stationary_series(self):
        p, needs = sv.recommend_differencing(ar1_sample(0.5, 500, seed=2), alpha=0.05)
        assert p < 0.05 and needs is False

    def test_random_walk(self):
        p, needs = sv.recommend_differencing(sv.random_walk(500, seed=3), alpha=0.05)
        assert p > 0.05 and needs is True

    def test_alpha_zero_with_saturated_p(self):
        # strongly stationary input saturates the response surface at p = 0
        y = sv.white_noise(2000, seed=6)
        p, needs = sv.recommend_differencing(y, alpha=0.0)
        assert p == 0.0 and needs is False


class TestDifference:
    def test_first_and_second_order(self):
        x = np.array([1.0, 3.0, 6.0, 10.0])
        assert list(sv.difference(x, 1)) == [2.0, 3.0, 4.0]
        assert list(sv.difference(x, 2)) == [1.0, 1.0]

    def test_errors(self):
        with pytest.raises(DataError):
            sv.difference(np.arange(3.0), order=0)
        with pytest.raises(DataError, match="too short"):
            sv.difference(np.arange(3.0), order=3)

    @given(st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=2, max_size=50))
    def test_inverse_of_cumsum(self, draws):
        x = np.asarray(draws)
        assert np.allclose(sv.difference(np.cumsum(x), 1), x[1:], atol=1e-6)

    def test_ar1_sample_never_raises(self):
        out = sv.difference(ar1_sample(0.5, 200, seed=1), 1)
        assert out.size == 199


class TestClassicalDecompose:
    def test_noiseless_sawtooth_plus_constant(self):
        period = 7
        profile = np.arange(period, dtype=float)
        profile -= profile.mean()
        x = 10.0 + np.resize(profile, 70)
        dec = sv.classical_decompose(x, period)
        assert np.allclose(dec.seasonal, np.resize(profile, 70), atol=1e-9)
        interior = ~np.isnan(dec.trend)
        assert np.allclose(dec.residual[interior], 0.0, atol=1e-9)
        assert np.allclose(dec.trend[interior], 10.0, atol=1e-9)

    def test_constant_series(self):
        dec = sv.classical_decompose(np.full(30, 4.0), 7)
        assert np.allclose(dec.seasonal, 0.0, atol=1e-12)
        interior = ~np.isnan(dec.trend)
        assert np.allclose(dec.residual[interior], 0.0, atol=1e-12)

    def test_even_period_boundary_width(self):
        dec = sv.classical_decompose(np.arange(40.0) + sv.white_noise(40, 1), 4)
        assert np.isnan(dec.trend[:2]).all() and np.isnan(dec.trend[-2:]).all()
        assert not np.isnan(dec.trend[2:-2]).any()

    def test_recovers_known_components_under_noise(self):
        period, t, noise_sd = 7, 700, 1.0
        trend = 20.0 + 0.01 * np.arange(t)
        profile = np.array([3.0, 1.0, -1.0, -2.0, -2.5, 0.5, 1.0])
        profile -= profile.mean()
        seasonal = np.resize(profile, t)
        noise = sv.white_noise(t, seed=42, sd=noise_sd)
        dec = sv.classical_decompose(trend + seasonal + noise, period)
        interior = ~np.isnan(dec.trend)
        assert np.sqrt(np.mean((dec.trend[interior] - trend[interior]) ** 2)) < noise_sd
        assert np.sqrt(np.mean((dec.seasonal - seasonal) ** 2)) < noise_sd
        assert np.sqrt(np.mean(dec.residual[interior] ** 2)) < noise_sd

    def test_seasonal_sums_to_zero_per_cycle(self):
        x = sv.random_walk(100, seed=12) + 5.0 * np.sin(np.arange(100.0))
        dec = sv.classical_decompose(x, 5)
        assert abs(dec.seasonal[:5].sum()) < 1e-9

    def test_errors(self):
        with pytest.raises(DataError, match="period"):
            sv.classical_decompose(np.arange(30.0), 1)
        with pytest.raises(DataError, match="too short"):
            sv.classical_decompose(np.arange(10.0), 7)
        with pytest.raises(DataError, match="missing"):
            sv.classical_decompose(np.r_[np.arange(20.0), np.nan, np.arange(20.0)], 7)

    @given(st.integers(2, 9), st.integers(0, 10_000))
    @settings(max_examples=40)
    def test_reconstruction_identity(self, period, seed):
        x = substream(seed, 2).standard_normal(4 * period) * 10.0
        dec = sv.classical_decompose(x, period)
        interior = ~np.isnan(dec.trend)
        recon = dec.trend + dec.seasonal + dec.residual
        assert np.allclose(recon[interior], x[interior], atol=1e-9)


class TestPacf:
    def test_lag_zero_is_one(self):
        res = sv.pacf(sv.white_noise(100, 1), 10)
        assert res.values[0] == 1.0
        assert res.band == pytest.approx(1.96 / np.sqrt(100), abs=1e-12)

    def test_white_noise_band(self):
        passes = 0
        for i in range(20):
            res = sv.pacf(sv.white_noise(5000, seed=i), 40)
            passes += int((np.abs(res.values[1:]) > res.band).sum()) <= 3
        assert passes >= 16

    def test_ar1_shape(self):
        x = ar1_sample(0.6, 5000, seed=77)
        res = sv.pacf(x, 10)
        assert res.values[1] == pytest.approx(0.6, abs=0.05)
        assert np.abs(res.values[2:]).max() < 0.08

    def test_matches_yule_walker_oracle(self):
        # independent route: solve the Yule-Walker system per lag directly
        x = ar1_sample(0.4, 800, seed=5, mean=3.0)
        n_lags = 12
        res = sv.pacf(x, n_lags)
        centered = x - x.mean()
        acov = np.array(
            [centered[: x.size - k] @ centered[k:] / (x.size - k) for k in range(n_lags + 1)]
        )
        r = acov / acov[0]
        for k in range(1, n_lags + 1):
            toeplitz = np.array([[r[abs(i - j)] for j in range(k)] for i in range(k)])
            phi = np.linalg.solve(toeplitz, r[1 : k + 1])
            assert res.values[k] == pytest.approx(phi[-1], abs=1e-10)

    def test_negation_symmetry(self):
        x = ar1_sample(0.3, 300, seed=8)
        a = sv.pacf(x, 15).values
        b = sv.pacf(-x, 15).values
        assert np.allclose(a, b, atol=1e-12)

    def test_small_scale_keeps_its_bits(self):
        # at 2**-600 the lag products underflow, and 0/0 would be NaN
        x = ar1_sample(0.5, 300, seed=9)
        assert np.array_equal(sv.pacf(x * 2.0**-600, 10).values, sv.pacf(x, 10).values)

    def test_errors(self):
        with pytest.raises(DataError, match="n_lags"):
            sv.pacf(np.arange(20.0), 10)
        with pytest.raises(DataError, match="constant"):
            sv.pacf(np.full(50, 2.0), 5)
        with pytest.raises(DataError, match="missing"):
            sv.pacf(np.r_[np.arange(30.0) % 7, np.nan], 5)
