"""VAR estimation, criteria, order selection, and persistence tests."""

import dataclasses
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sleepvar as sv
from sleepvar.errors import (
    DataError,
    ModelFormatError,
    NumericError,
    SingularDesignError,
)
from sleepvar._util import packed
from sleepvar.simulate import substream
from sleepvar.var import _lagged_design, _require_full_rank, stack_params

from conftest import VAR2_SPEC, make_frame, v1_model_text
from test_linalg import gauss_solve


def scalar_ar_ols(series, p):
    """Independent AR(p) OLS oracle: normal equations in pure Python."""
    y = list(map(float, series))
    rows, targets = [], []
    for t in range(p, len(y)):
        rows.append([1.0] + [y[t - lag] for lag in range(1, p + 1)])
        targets.append(y[t])
    m = p + 1
    xtx = [[sum(r[i] * r[j] for r in rows) for j in range(m)] for i in range(m)]
    xty = [sum(r[i] * t for r, t in zip(rows, targets)) for i in range(m)]
    return gauss_solve(xtx, xty)


def per_equation_ols(values, p):
    """Coefficients and standard errors of a VAR(p), each (K*p+1, K) in the
    stacked layout: one ``np.linalg.lstsq`` per equation on a design built
    row by row, and SEs sqrt(sigma_ii diag((X'X)^-1)) with sigma_ii =
    u_i'u_i / (t_eff - K*p - 1) (Lutkepohl 2005, 3.2)."""
    t_total, k = values.shape
    x = np.array([[1.0] + [values[t - lag, j] for lag in range(1, p + 1) for j in range(k)]
                  for t in range(p, t_total)])
    xtx_inv = np.linalg.inv(x.T @ x)
    dof = x.shape[0] - x.shape[1]
    params, ses = [], []
    for i in range(k):
        y = values[p:, i]
        b = np.linalg.lstsq(x, y, rcond=None)[0]
        u = y - x @ b
        params.append(b)
        ses.append(np.sqrt(u @ u / dof * np.diag(xtx_inv)))
    return np.array(params).T, np.array(ses).T


def per_lag_criteria(values, max_lags):
    """(AIC, BIC, FPE, HQIC) per lag, one np.linalg.lstsq fit per lag on the
    sample trimmed at max_lags (Lutkepohl 2005, 4.3)."""
    t_total, k = values.shape
    t_star = t_total - max_lags
    targets = values[max_lags:]
    rows = []
    for p in range(max_lags + 1):
        design = np.column_stack(
            [np.ones(t_star)] + [values[max_lags - lag : t_total - lag] for lag in range(1, p + 1)]
        )
        coef, *_ = np.linalg.lstsq(design, targets, rcond=None)
        resid = targets - design @ coef
        _, ld = np.linalg.slogdet(resid.T @ resid / t_star)
        n_coef = p * k * k + k
        regressors = k * p + 1
        rows.append([
            ld + 2.0 * n_coef / t_star,
            ld + n_coef * math.log(t_star) / t_star,
            ((t_star + regressors) / (t_star - regressors)) ** k * math.exp(ld),
            ld + 2.0 * n_coef * math.log(math.log(t_star)) / t_star,
        ])
    return np.array(rows)


class TestLaggedDesign:
    def test_hand_example(self):
        f = make_frame({"y": [1, 2, 3, 4, 5]})
        design, targets = sv.build_lagged_design(f, 2)
        assert np.array_equal(design, [[1, 2, 1], [1, 3, 2], [1, 4, 3]])
        assert np.array_equal(targets.ravel(), [3, 4, 5])

    def test_shapes_k2_p1(self):
        f = make_frame({"a": [1, 2, 3], "b": [4, 5, 6]})
        design, targets = sv.build_lagged_design(f, 1)
        assert design.shape == (2, 3) and targets.shape == (2, 2)

    @pytest.mark.parametrize("k", [1, 5])
    @pytest.mark.parametrize("p", [0, 1, 2])
    @pytest.mark.parametrize("b", [1, 2, 7])
    def test_out_buffer_gives_the_allocating_bytes(self, k, p, b):
        # the bootstrap's paths: a strided view of a time-major buffer
        values = substream(k * 100 + p * 10 + b, 6).standard_normal((30, k, b)).transpose(2, 0, 1)
        want = _lagged_design(values, p)
        out = np.full((b, 1 + k * p + k, 30 - p), np.nan).swapaxes(-1, -2)
        got = _lagged_design(values, p, out=out)
        assert got is out and got.strides == want.strides
        assert got.tobytes() == want.tobytes()

    def test_missing_rejected(self):
        f = make_frame({"a": [1.0, None, 3.0, 4.0]})
        with pytest.raises(DataError, match="missing"):
            sv.build_lagged_design(f, 1)

    def test_too_short(self):
        f = make_frame({"a": [1, 2, 3], "b": [4, 5, 6]})
        with pytest.raises(DataError, match="not enough observations"):
            sv.build_lagged_design(f, 3)
        # the design itself fits on 3 rows at p=1, but inference cannot
        with pytest.raises(DataError, match="not enough observations"):
            sv.fit_var(f, 1)


class TestFitVar:
    def test_noiseless_recursion(self):
        vals = [1.0]
        for _ in range(49):
            vals.append(0.2 + 0.5 * vals[-1])
        fit = sv.fit_var(make_frame({"y": vals}), 1)
        assert fit.intercept[0] == pytest.approx(0.2, abs=1e-9)
        assert fit.coef[0, 0, 0] == pytest.approx(0.5, abs=1e-9)
        assert np.abs(fit.residuals).max() < 1e-9
        assert fit.t_eff == 49

    def test_recovery_within_three_se(self):
        hits = 0
        for seed in range(20):
            frame = sv.simulate_var(VAR2_SPEC, 2000, seed=seed)
            fit = sv.fit_var(frame, 2)
            ok = (np.abs(fit.intercept - VAR2_SPEC.intercept) <= 3 * fit.intercept_se).all()
            ok &= (np.abs(fit.coef - VAR2_SPEC.coef) <= 3 * fit.coef_se).all()
            hits += bool(ok)
        assert hits >= 18

    def test_scalar_matches_ar_oracle(self):
        for seed, p in [(0, 1), (1, 2), (2, 3)]:
            series = 5.0 + np.cumsum(sv.white_noise(150, seed=seed)) * 0.05 \
                + sv.white_noise(150, seed=seed + 100)
            fit = sv.fit_var(make_frame({"y": list(series)}), p)
            oracle = scalar_ar_ols(series, p)
            mine = [fit.intercept[0]] + [fit.coef[lag, 0, 0] for lag in range(p)]
            assert np.abs(np.array(mine) - oracle).max() < 1e-10

    @pytest.mark.parametrize("case", ["dataset-p0", "dataset-p1", "dataset-p2", "dataset-p3",
                                      "var2-p2"])
    def test_matches_per_equation_lstsq(self, case, dataset_frame):
        # the coefficients and the standard errors VarFit derives, against an
        # oracle that shares no code with fit_var
        source, p = case.split("-p")
        frame = dataset_frame if source == "dataset" else sv.simulate_var(VAR2_SPEC, 400, seed=2)
        fit = sv.fit_var(frame, int(p))
        params, ses = per_equation_ols(np.asarray(frame.values), int(p))
        assert np.allclose(fit.params_matrix(), params, rtol=1e-9, atol=1e-12)
        assert np.allclose(stack_params(fit.intercept_se, fit.coef_se), ses, rtol=1e-9, atol=0.0)

    def test_deterministic(self):
        frame = sv.simulate_var(VAR2_SPEC, 300, seed=5)
        a, b = sv.fit_var(frame, 2), sv.fit_var(frame, 2)
        for name in ("intercept", "coef", "sigma_u", "coef_se", "coef_t", "coef_p",
                     "residuals", "normal_matrix_inverse"):
            assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_t_and_p_consistency(self):
        fit = sv.fit_var(sv.simulate_var(VAR2_SPEC, 400, seed=9), 2)
        assert np.allclose(fit.coef_t, fit.coef / fit.coef_se, atol=1e-12)
        assert ((fit.coef_p >= 0) & (fit.coef_p <= 1)).all()
        assert fit.t_eff == 400 - 2

    def test_p_values_match_scipy_normal_tail(self, dataset_fit):
        norm = pytest.importorskip("scipy.stats").norm
        for t, p in ((dataset_fit.coef_t, dataset_fit.coef_p),
                     (dataset_fit.intercept_t, dataset_fit.intercept_p)):
            assert np.allclose(p, 2.0 * norm.sf(np.abs(t)), rtol=1e-12, atol=0.0)

    def test_residuals_orthogonal_to_design(self):
        frame = sv.simulate_var(VAR2_SPEC, 500, seed=3)
        design, _ = sv.build_lagged_design(frame, 2)
        fit = sv.fit_var(frame, 2)
        assert np.abs(design.T @ fit.residuals).max() <= 1e-8

    def test_sigma_divisors(self):
        frame = sv.simulate_var(VAR2_SPEC, 300, seed=1)
        fit = sv.fit_var(frame, 2)
        u = fit.residuals
        assert np.allclose(fit.sigma_u_ml, u.T @ u / fit.t_eff, atol=1e-12)
        assert np.allclose(fit.sigma_u, u.T @ u / (fit.t_eff - 2 * 2 - 1), atol=1e-12)

    def test_affine_rescaling(self):
        frame = sv.simulate_var(VAR2_SPEC, 600, seed=4)
        base = sv.fit_var(frame, 2)
        a = 3.5
        scaled_vals = np.array(frame.values)
        scaled_vals[:, 1] *= a
        scaled = sv.fit_var(
            sv.SeriesFrame(frame.start_date, frame.names, scaled_vals), 2
        )
        assert np.allclose(scaled.coef_t, base.coef_t, atol=1e-8)
        assert np.allclose(scaled.intercept_t, base.intercept_t, atol=1e-8)
        factors = np.array([[1.0, 1.0 / a], [a, 1.0]])
        for lag in range(2):
            assert np.allclose(scaled.coef[lag], base.coef[lag] * factors, atol=1e-10)

    def test_constant_column_names_offender(self):
        f = make_frame({"score": [70, 71, 72, 70, 73, 74, 72, 71, 70, 72],
                        "elevated": [0.0] * 10})
        with pytest.raises(SingularDesignError, match=r"L1\.elevated"):
            sv.fit_var(f, 1)

    def test_companion_radius_on_stable_data(self):
        stable = 0
        for seed in range(100):
            fit = sv.fit_var(sv.simulate_var(VAR2_SPEC, 500, seed=seed), 2)
            stable += fit.stability_radius() < 1.0
        assert stable >= 99

    def test_intercept_only_p0(self):
        frame = sv.simulate_var(VAR2_SPEC, 100, seed=2)
        fit = sv.fit_var(frame, 0)
        assert fit.p == 0 and fit.coef.shape == (0, 2, 2)
        assert np.allclose(fit.intercept, np.asarray(frame.values).mean(axis=0), atol=1e-12)


class TestInformationCriteria:
    def test_scalar_hand_computation(self):
        series = list(sv.white_noise(20, seed=6) + 2.0)
        frame = make_frame({"y": series})
        # with max_lags = p = 1 the common sample is the lag-1 fit's own
        aic, bic, fpe, hqic = sv.select_order(frame, 1).table[1]
        beta = scalar_ar_ols(series, 1)
        resid = [series[t] - beta[0] - beta[1] * series[t - 1] for t in range(1, 20)]
        t_star = 19.0
        sigma_ml = sum(r * r for r in resid) / t_star
        ld = math.log(sigma_ml)
        m = 2.0
        assert aic == pytest.approx(ld + 2 * m / t_star, abs=1e-10)
        assert bic == pytest.approx(ld + m * math.log(t_star) / t_star, abs=1e-10)
        assert hqic == pytest.approx(
            ld + 2 * m * math.log(math.log(t_star)) / t_star, abs=1e-10
        )
        assert fpe == pytest.approx(
            ((t_star + 2) / (t_star - 2)) * sigma_ml, abs=1e-10
        )

    def test_fpe_formula_point(self):
        frame = sv.simulate_var(VAR2_SPEC, 60, seed=5)
        fpe = sv.select_order(frame, 3).table[:, 2]
        oracle = per_lag_criteria(np.asarray(frame.values), 3)[:, 2]
        assert fpe == pytest.approx(oracle, rel=1e-12)

    def test_white_noise_prefers_lag_zero(self):
        # comparable-sample AIC at lag 0 vs lag 5 on pure noise
        wins = 0
        for seed in range(100):
            frame = make_frame({"y": list(sv.white_noise(800, seed=10000 + seed))})
            table = sv.select_order(frame, 5).table
            wins += table[0, 0] < table[5, 0]
        assert wins >= 90

    def test_determinant_underflow_reported(self):
        with pytest.raises(NumericError, match="underflow"):
            sv.select_order(make_frame({"y": [0.0] * 50}), 0)


class TestSelectOrder:
    def test_var2_generator_is_found(self):
        hits = 0
        for seed in range(20):
            sel = sv.select_order(sv.simulate_var(VAR2_SPEC, 2000, seed=150000 + seed), 4)
            hits += sel.minima["aic"] == 2
        assert hits >= 17

    def test_max_lags_zero(self):
        sel = sv.select_order(sv.simulate_var(VAR2_SPEC, 100, seed=0), 0)
        assert sel.table.shape == (1, 4)
        assert sel.selected == 0 and sel.minima["aic"] == 0

    def test_override(self):
        frame = sv.simulate_var(VAR2_SPEC, 400, seed=1)
        sel = sv.select_order(frame, 4, override=3)
        assert sel.selected == 3 and sel.selection_rule == "override(3)"
        with pytest.raises(DataError, match="override"):
            sv.select_order(frame, 4, override=9)

    def test_criteria_can_disagree(self, dataset_frame):
        # sparse mood discretization makes AIC/FPE and BIC/HQIC split lags
        sel = sv.select_order(dataset_frame, 8)
        assert sel.minima["aic"] == sel.minima["fpe"] == 2
        assert sel.minima["bic"] == sel.minima["hqic"] == 1
        assert sel.selected == 2

    @pytest.mark.parametrize("case", ["dataset", "var2"])
    def test_table_matches_per_lag_lstsq(self, case, dataset_frame):
        if case == "dataset":
            frame, max_lags = dataset_frame, 15
        else:
            frame, max_lags = sv.simulate_var(VAR2_SPEC, 2000, seed=21), 30
        sel = sv.select_order(frame, max_lags)
        oracle = per_lag_criteria(np.asarray(frame.values), max_lags)
        assert np.abs(sel.table / oracle - 1.0).max() <= 1e-10

    def test_constant_variable_names_offender(self):
        values = np.asarray(sv.simulate_var(VAR2_SPEC, 120, seed=4).values)
        frame = make_frame({"x": list(values[:, 0]), "elevated": [1.0] * 120,
                            "y": list(values[:, 1])})
        with pytest.raises(SingularDesignError, match=r"L1\.elevated") as err:
            sv.select_order(frame, 3)
        with pytest.raises(SingularDesignError) as fit_err:
            sv.fit_var(frame, 1)
        assert err.value.column == fit_err.value.column == "L1.elevated"

    def test_singular_column_named_by_design_label(self, dataset_fit):
        labels = dataset_fit.lag_labels()
        _require_full_rank(np.zeros(len(labels), dtype=bool), dataset_fit.var_names)
        for c, label in enumerate(labels):
            deficient = np.arange(len(labels)) >= c  # the first marked column is named
            with pytest.raises(SingularDesignError) as err:
                _require_full_rank(deficient, dataset_fit.var_names)
            assert err.value.column == label

    def test_collinear_residual_named_by_variable(self, dataset_frame):
        # at lag 0 the residuals are the centered variables, and dup's is an
        # exact multiple of depressed's: the criteria name it, not a pivot
        with pytest.raises(NumericError, match=r"the residual of 'dup' is collinear with "
                                               r"earlier ones, or the log-determinant underflow"):
            sv.select_order(with_dup(dataset_frame), 0)

    def test_underflowed_first_residual_is_not_called_collinear(self, dataset_frame):
        # times 1e-170 the residual cross-product underflows to 0; 'score'
        # comes first, so nothing precedes it to be collinear with
        tiny = sv.SeriesFrame(dataset_frame.start_date, dataset_frame.names,
                              dataset_frame.values * 1e-170)
        with pytest.raises(NumericError, match=r"the residual of 'score' .*underflow") as err:
            sv.select_order(tiny, 15)
        assert "collinear with earlier ones" not in str(err.value)

    def test_fpe_overflow_is_data_error(self, dataset_frame):
        # log det of the residual covariance passes 709, past math.exp's range
        big = sv.SeriesFrame(dataset_frame.start_date, dataset_frame.names,
                             dataset_frame.values * 1e60)
        with pytest.raises(DataError, match="frame values are too large: the final prediction "
                                            "error overflows at lag 0"):
            sv.select_order(big, 15)

    def test_common_sample_matches_statsmodels(self):
        VAR = pytest.importorskip("statsmodels.tsa.api").VAR
        frame = sv.simulate_var(VAR2_SPEC, 800, seed=11)
        sel = sv.select_order(frame, 6)
        sm_sel = VAR(np.asarray(frame.values)).select_order(6)
        for i, name in enumerate(("aic", "bic", "fpe", "hqic")):
            col = np.array([sm_sel.ics[name][lag] for lag in range(7)])
            assert np.allclose(sel.table[:, i], col, atol=1e-10)
            assert sel.minima[name] == int(sm_sel.selected_orders[name])


def with_dup(frame: sv.SeriesFrame) -> sv.SeriesFrame:
    """``frame`` plus a last column ``dup``, depressed * 2^-40: exactly collinear."""
    dup = frame.values[:, frame.index_of("depressed")] * 2.0**-40
    return dataclasses.replace(frame, names=(*frame.names, "dup"),
                               values=np.column_stack([frame.values, dup]))


def scaled(frame: sv.SeriesFrame, powers) -> tuple[sv.SeriesFrame, np.ndarray]:
    """``frame`` with variable i in units 2^powers[i] times smaller, and the factors."""
    c = np.ldexp(1.0, np.asarray(powers))
    return dataclasses.replace(frame, values=frame.values * c), c


class TestUnitFree:
    """Scaling a variable by a power of two is exact, and so must every
    estimate be: coefficients and responses scale, statistics keep their
    bits, and no rank verdict depends on the units (Lutkepohl 2005, 3.2)."""

    @pytest.fixture(scope="class")
    def unscaled(self, dataset_fit):
        bands = sv.irf_with_bands(dataset_fit, horizon=10, replications=200, seed=0)
        return bands, sv.granger_all_pairs(dataset_fit, "score")

    @given(powers=st.lists(st.integers(-150, 150), min_size=5, max_size=5))
    @settings(max_examples=10, deadline=None)
    def test_fit_tests_and_bands_scale_exactly(self, dataset_frame, dataset_fit, unscaled,
                                               powers):
        frame, c = scaled(dataset_frame, powers)
        fit = sv.fit_var(frame, 2)
        assert np.array_equal(fit.intercept, dataset_fit.intercept * c)
        assert np.array_equal(fit.coef, dataset_fit.coef * c[:, None] / c)
        assert np.array_equal(fit.coef_t, dataset_fit.coef_t)
        bands, tests = unscaled
        for got, want in zip(sv.granger_all_pairs(fit, "score"), tests):
            assert (got.statistic, got.p_value) == (want.statistic, want.p_value)
        res = sv.irf_with_bands(fit, horizon=10, replications=200, seed=0)
        assert res.n_failed == 0
        for name in ("responses", "lower", "upper"):
            assert np.array_equal(getattr(res, name), getattr(bands, name) * c[:, None])

    @given(powers=st.lists(st.integers(-150, 100), min_size=5, max_size=5))
    @settings(max_examples=10, deadline=None)
    def test_order_selection_keeps_its_choice(self, dataset_frame, powers):
        # from 2^110 the final prediction error overflows, by design
        want = sv.select_order(dataset_frame, 15)
        got = sv.select_order(scaled(dataset_frame, powers)[0], 15)
        assert (got.selected, got.minima) == (want.selected, want.minima)

    @pytest.mark.parametrize("power", [-110, -200, -300])
    def test_fpe_keeps_its_choice_where_its_value_underflows(self, dataset_frame, power):
        # det(sigma) underflows to 0 at every lag, but its log does not
        want = sv.select_order(dataset_frame, 15)
        got = sv.select_order(scaled(dataset_frame, [power] * 5)[0], 15)
        assert got.minima == want.minima

    @pytest.mark.parametrize("scale", [1e160, 1e-160])
    def test_cross_product_overflow_is_data_error(self, dataset_frame, scale):
        # the rank rule accepts any units, but (X'X)^-1 or u'u of a frame this
        # far from unit scale leaves the float range: a DataError, no warning
        frame = dataclasses.replace(dataset_frame, values=dataset_frame.values * scale)
        with pytest.raises(DataError, match="frame values are too large or too small: the fit "
                                            "overflows"):
            sv.fit_var(frame, 2)
        if scale > 1:
            with pytest.raises(DataError, match="too large: the order search overflows"):
                sv.select_order(frame, 15)

    @pytest.mark.parametrize("power", [0, -100, 100])
    def test_collinear_column_named_at_any_scale(self, dataset_frame, power):
        frame, _ = scaled(with_dup(dataset_frame), [power] * 6)
        with pytest.raises(SingularDesignError) as err:
            sv.fit_var(frame, 2)
        assert err.value.column == "L1.dup"


class TestPersistence:
    def test_round_trip_identity(self):
        fit = sv.fit_var(sv.simulate_var(VAR2_SPEC, 150, seed=8), 2)
        buf = io.StringIO()
        sv.save_model(fit, buf)
        again = sv.load_model(io.StringIO(buf.getvalue()))
        assert again.var_names == fit.var_names
        assert again.p == fit.p and again.t_eff == fit.t_eff
        for name in ("intercept", "coef", "sigma_u", "sigma_u_ml", "intercept_se",
                     "intercept_t", "intercept_p", "coef_se", "coef_t", "coef_p",
                     "residuals", "normal_matrix_inverse"):
            assert np.array_equal(getattr(again, name), getattr(fit, name)), name

    def test_truncated_document(self):
        fit = sv.fit_var(sv.simulate_var(VAR2_SPEC, 120, seed=8), 1)
        buf = io.StringIO()
        sv.save_model(fit, buf)
        with pytest.raises(ModelFormatError, match="corrupted"):
            sv.load_model(io.StringIO(buf.getvalue()[: len(buf.getvalue()) // 2]))

    def test_missing_field(self):
        fit = sv.fit_var(sv.simulate_var(VAR2_SPEC, 120, seed=8), 1)
        buf = io.StringIO()
        sv.save_model(fit, buf)
        doc = json.loads(buf.getvalue())
        del doc["coef"]
        with pytest.raises(ModelFormatError, match="missing field 'coef'"):
            sv.load_model(io.StringIO(json.dumps(doc)))

    def test_wrong_version(self):
        fit = sv.fit_var(sv.simulate_var(VAR2_SPEC, 120, seed=8), 1)
        buf = io.StringIO()
        sv.save_model(fit, buf)
        doc = json.loads(buf.getvalue())
        doc["version"] = 3
        with pytest.raises(ModelFormatError, match="version"):
            sv.load_model(io.StringIO(json.dumps(doc)))
        with pytest.raises(ModelFormatError,
                           match="corrupted model document: top level must be an object"):
            sv.load_model(io.StringIO("[]"))

    def test_shape_corruption(self):
        fit = sv.fit_var(sv.simulate_var(VAR2_SPEC, 120, seed=8), 1)
        buf = io.StringIO()
        sv.save_model(fit, buf)
        doc = json.loads(buf.getvalue())
        doc["intercept"] = [1.0, 2.0, 3.0]
        with pytest.raises(ModelFormatError, match="corrupted"):
            sv.load_model(io.StringIO(json.dumps(doc)))

    @pytest.mark.parametrize("field, value", [
        ("var_names", ["score"] * 5),
        ("var_names", [1, 2, 3, 4, 5]),
        ("p", 2.7), ("p", True), ("p", "2"),
        ("t_eff", 1453.0),
        ("intercept", [10**400] * 5),  # too large for a float
        ("intercept", [True, 30.1, 0, 0, 0]),  # numpy would read true as 1.0
        ("intercept", [1, "30.1", 0, 0, 0]),  # and "30.1" as 30.1
    ])
    def test_bad_field_rejected(self, dataset_fit, field, value):
        buf = io.StringIO()
        sv.save_model(dataset_fit, buf)
        doc = json.loads(buf.getvalue())
        doc[field] = value
        with pytest.raises(ModelFormatError, match=f"corrupted model document: {field} must"):
            sv.load_model(io.StringIO(json.dumps(doc)))

    def test_p0_round_trip(self):
        fit = sv.fit_var(sv.simulate_var(VAR2_SPEC, 90, seed=1), 0)
        buf = io.StringIO()
        sv.save_model(fit, buf)
        again = sv.load_model(io.StringIO(buf.getvalue()))
        assert again.p == 0 and again.coef.shape == (0, 2, 2)

    def test_document_holds_the_estimate(self, dataset_fit):
        buf = io.StringIO()
        sv.save_model(dataset_fit, buf)
        doc = json.loads(buf.getvalue())
        assert list(doc) == ["version", "var_names", "p", "t_eff", "intercept", "coef",
                             "residuals", "normal_matrix_inverse"]
        assert doc["version"] == 2
        assert doc["residuals"] == packed(dataset_fit.residuals)
        assert doc["residuals"]["shape"] == [dataset_fit.t_eff, 5]
        assert doc["coef"] == dataset_fit.coef.tolist()

    def test_version1_document_loads(self, dataset_fit):
        doc = json.loads(v1_model_text(dataset_fit))
        doc["sigma_u"][0][1] += 1.0  # derived fields of a version-1 document are not read
        doc["coef_p"] = "ignored"
        again = sv.load_model(io.StringIO(json.dumps(doc)))
        for name in ("intercept", "coef", "sigma_u", "sigma_u_ml", "intercept_se",
                     "intercept_t", "intercept_p", "coef_se", "coef_t", "coef_p",
                     "residuals", "normal_matrix_inverse"):
            assert np.array_equal(getattr(again, name), getattr(dataset_fit, name)), name

    @pytest.mark.parametrize("edit, message", [
        (lambda r: {**r, "float64le": packed(np.zeros((1452, 5)))["float64le"]},
         r"holds 58080 bytes, shape \(1453, 5\) needs 58120"),
        (lambda r: {**r, "float64le": r["float64le"] + "AAAA"}, "not valid base64"),
        (lambda r: {**r, "float64le": "\n" + r["float64le"]}, "not valid base64"),
        (lambda r: {**r, "float64le": r["float64le"].replace("A", "*", 1)}, "not valid base64"),
        (lambda r: {**r, "float64le": 7}, "float64le must be a base64 string"),
        (lambda r: {**r, "shape": [-1, 5]}, "shape entry must be a non-negative integer, got -1"),
        (lambda r: {**r, "shape": [5, 1453]}, r"must have shape \(1453, 5\), got \(5, 1453\)"),
        (lambda r: {**r, "shape": [1453, 5, 1]}, "must have shape"),
        (lambda r: {**r, "shape": "1453,5"}, "shape must be a list of counts"),
        (lambda r: {"shape": r["shape"]}, "must be an array of numbers or hold"),
        (lambda r: {**r, "dtype": "f8"}, "must be an array of numbers or hold"),
        (lambda r: packed(np.full((1453, 5), np.nan)), "contains non-finite entries"),
        (lambda r: packed(np.full((1453, 5), -np.inf)), "contains non-finite entries"),
    ], ids=["short", "padding-inside", "newline", "bad-alphabet", "not-text", "negative-shape",
            "transposed-shape", "3d-shape", "shape-text", "no-data", "extra-key", "nan", "-inf"])
    def test_packed_residuals_checked(self, dataset_fit, edit, message):
        buf = io.StringIO()
        sv.save_model(dataset_fit, buf)
        doc = json.loads(buf.getvalue())
        doc["residuals"] = edit(doc["residuals"])
        with pytest.raises(ModelFormatError,
                           match=f"corrupted model document: residuals.*{message}"):
            sv.load_model(io.StringIO(json.dumps(doc)))
