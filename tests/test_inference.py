"""Granger causality and F-distribution helper tests."""

import dataclasses
import math

import numpy as np
import pytest

import sleepvar as sv
from sleepvar.errors import DataError, NumericError
from sleepvar.inference import f_cdf, f_ppf, f_sf

from conftest import VAR2_SPEC

PLANTED = sv.VarProcessSpec(
    var_names=("x", "y"),
    p=1,
    intercept=np.zeros(2),
    coef=np.array([[[0.5, 0.0], [0.5, 0.5]]]),  # x drives y, y never drives x
    innovation_cov=np.eye(2),
)


class TestFDistribution:
    def test_large_df_critical_value(self):
        # matches the classical chi2_2/2 limit of 2.996
        assert abs(f_ppf(0.95, 2, 10**6) - 2.996) < 0.01

    def test_cdf_ppf_consistency(self):
        for alpha in (0.01, 0.05, 0.10):
            for dfn, dfd in ((1, 30), (2, 6535), (4, 100), (10, 2000)):
                q = f_ppf(1.0 - alpha, dfn, dfd)
                assert abs(f_cdf(q, dfn, dfd) - (1.0 - alpha)) < 1e-8

    def test_sf_complements_cdf(self):
        assert f_sf(2.5, 3, 50) == pytest.approx(1.0 - f_cdf(2.5, 3, 50), abs=1e-12)

    def test_edge_values(self):
        assert f_cdf(0.0, 2, 30) == 0.0
        assert f_sf(0.0, 2, 30) == 1.0
        assert f_sf(math.inf, 2, 30) == 0.0
        assert f_cdf(math.inf, 2, 30) == 1.0
        assert f_ppf(0.0, 2, 30) == 0.0
        assert f_ppf(1.0, 2, 30) == math.inf

    def test_invalid_arguments_are_data_errors(self):
        with pytest.raises(DataError, match="degrees of freedom"):
            f_sf(1.0, 0, 30)
        with pytest.raises(DataError, match="probability"):
            f_ppf(1.5, 2, 30)

    def test_quantile_past_the_float_range_is_data_error(self):
        # F(1, 1) has CDF ~ (2/pi) sqrt(x) near 0, so q = 1e-300 sits at x ~ 1e-600
        with pytest.raises(DataError, match="lower tail .* outside the float range .* below"):
            f_ppf(1e-300, 1, 1)
        # F(1, 2)'s survival function ~ 1/x: alpha = 1e-310 sits at x ~ 1e310
        fit = sv.fit_var(sv.simulate_var(PLANTED, 5, seed=3), 1)
        res = sv.granger_test(fit, "x", "y", alpha=1e-300)
        assert (res.df_num, res.df_den) == (1, 2) and 0.9e300 < res.critical_value < 1.1e300
        with pytest.raises(DataError, match="upper tail .* outside the float range .* above"):
            sv.granger_test(fit, "x", "y", alpha=1e-310)


# The scipy oracle grid: numerator df up to a 150-restriction joint test,
# denominator df from 1 to 10**6 (the dataset's model has 7210).
ORACLE_DF_NUM = (1, 2, 3, 5, 10, 20, 60, 150)
ORACLE_DF_DEN = (1, 4, 30, 100, 2000, 7210, 18000, 10**6)
ORACLE_STATISTICS = np.geomspace(1e-4, 200.0, 25)
ORACLE_LEVELS = (0.5, 0.9, 0.95, 0.99, 0.999)


class TestFDistributionOracle:
    """The in-repo tails against scipy.stats.f, relative error 1e-10."""

    @pytest.fixture(scope="class")
    def f_ref(self):
        return pytest.importorskip("scipy.stats").f

    @pytest.mark.parametrize("df_num", ORACLE_DF_NUM)
    def test_cdf_and_sf(self, f_ref, df_num):
        for df_den in ORACLE_DF_DEN:
            for x in ORACLE_STATISTICS:
                for mine, ref in ((f_cdf, f_ref.cdf), (f_sf, f_ref.sf)):
                    expected = float(ref(x, df_num, df_den))
                    if expected > 1e-300:
                        assert mine(x, df_num, df_den) == pytest.approx(expected, rel=1e-10), (
                            mine.__name__, x, df_num, df_den
                        )

    @pytest.mark.parametrize("df_num", ORACLE_DF_NUM)
    def test_ppf(self, f_ref, df_num):
        for df_den in ORACLE_DF_DEN:
            for q in ORACLE_LEVELS:
                expected = float(f_ref.ppf(q, df_num, df_den))
                assert f_ppf(q, df_num, df_den) == pytest.approx(expected, rel=1e-10), (
                    q, df_num, df_den
                )

    @pytest.mark.parametrize("df_num", (1, 2, 5, 20))
    def test_tails_near_the_switch_at_large_df_den(self, df_num):
        # Around u = (a + 1) / (a + b + 2) at df_den = 10**6 the continued
        # fraction's u lies within 1e-5 of 1, where its rounding alone moved
        # the tail by up to 7e-11 (scipy's own sf errs by up to 3e-11 here),
        # so the reference is a 40-digit incomplete beta.
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 40
        df_den = 10**6
        for x in np.geomspace(0.5, 8.0, 20):
            xm = mp.mpf(float(x))
            u = df_num * xm / (df_num * xm + df_den)
            cdf = mp.betainc(mp.mpf(df_num) / 2, mp.mpf(df_den) / 2, 0, u, regularized=True)
            sf = mp.betainc(mp.mpf(df_den) / 2, mp.mpf(df_num) / 2, 0, 1 - u, regularized=True)
            assert f_cdf(x, df_num, df_den) == pytest.approx(float(cdf), rel=1e-13), x
            assert f_sf(x, df_num, df_den) == pytest.approx(float(sf), rel=1e-13), x

    def test_dataset_granger_tails(self, f_ref, dataset_fit):
        for res in sv.granger_all_pairs(dataset_fit, "score"):
            assert res.p_value == pytest.approx(
                f_ref.sf(res.statistic, res.df_num, res.df_den), rel=1e-12
            )
            assert res.critical_value == pytest.approx(
                f_ref.ppf(1.0 - res.alpha, res.df_num, res.df_den), rel=1e-12
            )

    @pytest.mark.parametrize("alpha", [1e-12, 1e-17, 1e-300])
    def test_critical_value_far_in_the_upper_tail(self, dataset_fit, alpha):
        # scipy's f.isf forms 1 - alpha, which rounds to 1 below 1e-16, so the
        # reference inverts the survival function I_w(df_den/2, df_num/2) at
        # w = df_den / (df_num x + df_den) directly
        special = pytest.importorskip("scipy.special")
        res = sv.granger_test(dataset_fit, "score", "depressed", alpha=alpha)
        w = special.betaincinv(res.df_den / 2, res.df_num / 2, alpha)
        assert math.isfinite(res.critical_value)
        assert res.critical_value == pytest.approx(
            res.df_den * (1.0 - w) / (res.df_num * w), rel=1e-10
        )


class TestGrangerTest:
    def test_planted_direction_detected(self):
        hits_true, hits_false = 0, 0
        for seed in range(20):
            fit = sv.fit_var(sv.simulate_var(PLANTED, 1000, seed=seed), 1)
            hits_true += sv.granger_test(fit, "x", "y").reject_null
            hits_false += sv.granger_test(fit, "y", "x").reject_null
        assert hits_true == 20
        assert hits_false <= 3

    def test_record_shape_and_consistency(self):
        fit = sv.fit_var(sv.simulate_var(PLANTED, 500, seed=3), 1)
        res = sv.granger_test(fit, "x", "y", alpha=0.05)
        assert res.causing == ("x",) and res.caused == ("y",)
        assert res.df_num == 1
        assert res.df_den == 2 * (fit.t_eff - 2 * 1 - 1)
        assert res.reject_null == (res.p_value < res.alpha)
        assert res.reject_null == (res.statistic > res.critical_value)

    def test_df_num_counts_all_restrictions(self):
        fit = sv.fit_var(sv.simulate_var(VAR2_SPEC, 400, seed=2), 2)
        res = sv.granger_test(fit, "x", "y")
        assert res.df_num == 2  # p=2, one causing, one caused

    def test_self_causation_rejected(self):
        fit = sv.fit_var(sv.simulate_var(PLANTED, 300, seed=1), 1)
        with pytest.raises(DataError, match="overlap"):
            sv.granger_test(fit, "x", "x")

    def test_input_validation(self):
        fit = sv.fit_var(sv.simulate_var(PLANTED, 300, seed=1), 1)
        with pytest.raises(DataError, match="unknown variable"):
            sv.granger_test(fit, "zzz", "y")
        with pytest.raises(DataError, match="non-empty"):
            sv.granger_test(fit, (), "y")
        with pytest.raises(DataError, match="alpha"):
            sv.granger_test(fit, "x", "y", alpha=1.5)
        fit0 = sv.fit_var(sv.simulate_var(PLANTED, 300, seed=1), 0)
        with pytest.raises(DataError, match="lag order"):
            sv.granger_test(fit0, "x", "y")

    def test_singular_restriction_covariance_names_the_pivot(self, dataset_fit):
        # a zero residual column zeroes "anxious"'s rows of sigma_u, so the
        # restrictions on its equation (the 3rd and 4th at p = 2) have no variance
        resid = np.array(dataset_fit.residuals)
        resid[:, dataset_fit.var_names.index("anxious")] = 0.0
        fit = dataclasses.replace(dataset_fit, residuals=resid)
        with pytest.raises(NumericError) as err:
            sv.granger_test(fit, "score", ("depressed", "anxious"))
        assert str(err.value) == ("restriction covariance is singular: matrix is not positive "
                                  "definite: pivot 2 is 0.000e+00")

    def test_affine_rescaling_invariance(self):
        frame = sv.simulate_var(VAR2_SPEC, 600, seed=7)
        base = sv.granger_test(sv.fit_var(frame, 2), "x", "y")
        scaled_vals = np.array(frame.values)
        scaled_vals[:, 0] *= -12.5
        scaled = sv.granger_test(
            sv.fit_var(sv.SeriesFrame(frame.start_date, frame.names, scaled_vals), 2),
            "x", "y",
        )
        assert scaled.statistic == pytest.approx(base.statistic, abs=1e-8)

    def test_matches_statsmodels(self):
        pd = pytest.importorskip("pandas")
        VAR = pytest.importorskip("statsmodels.tsa.api").VAR

        frame = sv.simulate_var(VAR2_SPEC, 1200, seed=11)
        fit = sv.fit_var(frame, 2)
        res = VAR(pd.DataFrame(np.asarray(frame.values), columns=["x", "y"])).fit(2, trend="c")
        sm = res.test_causality("y", ["x"], kind="f")
        mine = sv.granger_test(fit, "x", "y")
        assert mine.statistic == pytest.approx(sm.test_statistic, abs=1e-10)
        assert mine.p_value == pytest.approx(sm.pvalue, abs=1e-12)
        assert (mine.df_num, mine.df_den) == sm.df
        assert mine.critical_value == pytest.approx(sm.crit_value, abs=1e-10)

    def test_multi_caused_set_matches_statsmodels(self):
        pd = pytest.importorskip("pandas")
        VAR = pytest.importorskip("statsmodels.tsa.api").VAR

        spec3 = sv.VarProcessSpec(
            ("a", "b", "c"), 1, np.zeros(3),
            np.array([[[0.4, 0.2, 0.0], [0.0, 0.3, 0.1], [0.1, 0.0, 0.2]]]),
            np.eye(3),
        )
        frame = sv.simulate_var(spec3, 800, seed=4)
        fit = sv.fit_var(frame, 1)
        res = VAR(pd.DataFrame(np.asarray(frame.values), columns=["a", "b", "c"])).fit(
            1, trend="c"
        )
        sm = res.test_causality(["b", "c"], ["a"], kind="f")
        mine = sv.granger_test(fit, "a", ("b", "c"))
        assert mine.statistic == pytest.approx(sm.test_statistic, abs=1e-10)
        assert (mine.df_num, mine.df_den) == sm.df


def wald_oracle(frame, p, causing, caused):
    """Granger F statistic of Lütkepohl (2005, section 3.6.1), built explicitly.

    beta stacks each equation's OLS coefficients (per-equation lstsq on
    Z = [1, y_{t-1}, ..., y_{t-p}]); its covariance is Sigma_u (x) (Z'Z)^-1
    with the df-adjusted Sigma_u; C has one row per restricted coefficient,
    and lambda_W = (C beta)' [C cov C']^-1 (C beta), divided by rank C.
    """
    y = np.asarray(frame.values)
    t, k = y.shape
    z = np.hstack([np.ones((t - p, 1))] + [y[p - lag : t - lag] for lag in range(1, p + 1)])
    m = z.shape[1]
    coefs, resid = [], []
    for i in range(k):
        b = np.linalg.lstsq(z, y[p:, i], rcond=None)[0]
        coefs.append(b)
        resid.append(y[p:, i] - z @ b)
    beta = np.concatenate(coefs)                      # equation i owns beta[i*m:(i+1)*m]
    u = np.array(resid).T
    sigma_u = u.T @ u / (t - p - m)
    cov = np.kron(sigma_u, np.linalg.inv(z.T @ z))
    names = list(frame.names)
    rows = []
    for out in caused:
        for src in causing:
            for lag in range(p):
                r = np.zeros(k * m)
                r[names.index(out) * m + 1 + lag * k + names.index(src)] = 1.0
                rows.append(r)
    c = np.array(rows)
    cb = c @ beta
    return float(cb @ np.linalg.solve(c @ cov @ c.T, cb)) / len(rows)


class TestGrangerWaldOracle:
    @pytest.mark.parametrize("p", [1, 2])
    @pytest.mark.parametrize("causing, caused", [
        (("score",), ("depressed",)),
        (("score",), ("depressed", "anxious", "elevated")),
        (("score", "irritable"), ("anxious", "depressed")),  # caused out of fit order
    ])
    def test_dataset_statistic(self, dataset_frame, p, causing, caused):
        mine = sv.granger_test(sv.fit_var(dataset_frame, p), causing, caused)
        assert mine.df_num == p * len(causing) * len(caused)
        assert mine.statistic == pytest.approx(
            wald_oracle(dataset_frame, p, causing, caused), rel=1e-10)


class TestGrangerAllPairs:
    def test_row_order_preserved(self, dataset_fit):
        results = sv.granger_all_pairs(dataset_fit, "score")
        assert [r.caused[0] for r in results] == [
            "depressed", "anxious", "irritable", "elevated"
        ]
        assert all(r.causing == ("score",) for r in results)
        assert all(r.df_num == 2 for r in results)

    def test_bundled_dataset_story(self, dataset_fit):
        # the planted links of the synthetic dataset, and only those
        flags = {r.caused[0]: r.reject_null for r in sv.granger_all_pairs(dataset_fit, "score")}
        assert flags == {
            "depressed": True, "anxious": True, "irritable": False, "elevated": False
        }

    def test_two_variable_fit(self):
        fit = sv.fit_var(sv.simulate_var(PLANTED, 300, seed=0), 1)
        results = sv.granger_all_pairs(fit, "x")
        assert len(results) == 1 and results[0].caused == ("y",)

    def test_unknown_name(self):
        frame = sv.simulate_var(PLANTED, 300, seed=0)
        with pytest.raises(DataError, match="unknown variable"):
            sv.granger_all_pairs(sv.fit_var(frame, 1), "nope")
        alone = sv.SeriesFrame(frame.start_date, ("x",), frame.values[:, :1])
        with pytest.raises(DataError, match="all-pairs testing needs at least two variables"):
            sv.granger_all_pairs(sv.fit_var(alone, 1), "x")
