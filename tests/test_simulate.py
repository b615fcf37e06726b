"""Simulator oracle tests: determinism, analytic moments, spec validation."""

import io
import json

import numpy as np
import pytest

import sleepvar as sv
from sleepvar.errors import DataError, ModelFormatError
from sleepvar.simulate import iterate_paths, substream

from conftest import VAR2_SPEC


class TestVarProcessSpec:
    def test_unstable_rejected(self):
        with pytest.raises(DataError, match="unstable"):
            sv.VarProcessSpec(("x",), 1, np.zeros(1), np.array([[[1.01]]]), np.eye(1))

    def test_non_pd_covariance_rejected(self):
        with pytest.raises(DataError, match="positive definite"):
            sv.VarProcessSpec(
                ("x", "y"), 1, np.zeros(2), np.zeros((1, 2, 2)),
                np.array([[1.0, 2.0], [2.0, 1.0]]),
            )

    def test_shape_validation(self):
        with pytest.raises(DataError, match="intercept"):
            sv.VarProcessSpec(("x",), 1, np.zeros(2), np.zeros((1, 1, 1)), np.eye(1))

    def test_unconditional_mean(self):
        mu = VAR2_SPEC.unconditional_mean()
        a_sum = VAR2_SPEC.coef.sum(axis=0)
        assert np.allclose((np.eye(2) - a_sum) @ mu, VAR2_SPEC.intercept, atol=1e-12)


class TestSimulateVar:
    def test_zero_noise_limit_sits_at_fixed_point(self):
        spec = sv.VarProcessSpec(
            ("x", "y"), 1, np.zeros(2), np.array([0.5 * np.eye(2)]),
            1e-12 * np.eye(2),
        )
        frame = sv.simulate_var(spec, 200, seed=0)
        assert np.abs(frame.values).max() < 1e-4

    def test_sample_mean_matches_analytic_mean(self):
        # diagonal VAR(1), so the long-run variance has a closed scalar form
        a, sd = 0.6, 1.0
        spec = sv.VarProcessSpec(
            ("x", "y"), 1, np.array([1.0, -2.0]),
            np.array([a * np.eye(2)]), sd**2 * np.eye(2),
        )
        t = 50_000
        frame = sv.simulate_var(spec, t, seed=123)
        mu = spec.unconditional_mean()
        se_mean = sd / ((1.0 - a) * np.sqrt(t))
        assert np.abs(np.asarray(frame.values).mean(axis=0) - mu).max() < 3 * se_mean

    def test_deterministic_per_seed(self):
        a = sv.simulate_var(VAR2_SPEC, 100, seed=9)
        b = sv.simulate_var(VAR2_SPEC, 100, seed=9)
        c = sv.simulate_var(VAR2_SPEC, 100, seed=10)
        assert np.array_equal(a.values, b.values)
        assert not np.array_equal(a.values, c.values)

    def test_frame_shape_and_names(self):
        frame = sv.simulate_var(VAR2_SPEC, 37, seed=2)
        assert frame.n_obs == 37 and frame.names == ("x", "y")
        assert not frame.has_missing()

    def test_refit_recovers_innovation_covariance(self):
        frame = sv.simulate_var(VAR2_SPEC, 5000, seed=21)
        fit = sv.fit_var(frame, 2)
        err = np.linalg.norm(fit.sigma_u - VAR2_SPEC.innovation_cov, "fro")
        assert err / np.linalg.norm(VAR2_SPEC.innovation_cov, "fro") < 0.10

    def test_t_validation(self):
        with pytest.raises(DataError):
            sv.simulate_var(VAR2_SPEC, 0, seed=1)


def stepwise_paths(intercept, coef, innovations, start):
    """Oracle: y_t = nu + sum_i A_i y_{t-i} + u_t, one scalar at a time."""
    b, n, k = innovations.shape
    p = len(coef)
    out = np.empty((b, n, k))
    for r in range(b):
        history = [[float(x) for x in np.broadcast_to(start, (b, k))[r]] for _ in range(p)]
        for t in range(n):
            y = []
            for u in range(k):
                acc = float(intercept[u]) + float(innovations[r, t, u])
                for lag in range(1, p + 1):
                    prev = history[-lag]
                    acc += sum(float(coef[lag - 1][u][v]) * prev[v] for v in range(k))
                y.append(acc)
            history.append(y)
            out[r, t] = y
    return out


class TestIteratePaths:
    @pytest.mark.parametrize("k", [1, 2, 5])
    @pytest.mark.parametrize("p", [0, 1, 2, 3])
    @pytest.mark.parametrize("b", [1, 7])
    def test_matches_stepwise_oracle(self, k, p, b):
        gen = substream(k * 100 + p * 10 + b, 3)
        coef = gen.standard_normal((p, k, k)) * (0.3 / max(k * p, 1))
        intercept = gen.standard_normal(k)
        innovations = gen.standard_normal((b, 40, k)) * 2.0
        start = gen.standard_normal((b, k))
        got = iterate_paths(intercept, coef, innovations, start)
        want = stepwise_paths(intercept, coef, innovations, start)
        assert got.shape == (b, 40, k)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_path_independent_of_its_batch(self, k):
        # a path's bits do not depend on the batch size or its column
        gen = substream(k, 4)
        coef = gen.standard_normal((2, k, k)) * 0.15
        intercept = gen.standard_normal(k)
        innovations = gen.standard_normal((9, 30, k))
        batch = iterate_paths(intercept, coef, innovations, np.zeros(k))
        for lo, hi in ((0, 1), (3, 4), (8, 9), (1, 4), (2, 9)):
            part = iterate_paths(intercept, coef, innovations[lo:hi], np.zeros(k))
            assert np.array_equal(part, batch[lo:hi])


class TestNoiseGenerators:
    def test_random_walk_differs_to_noise_draws(self):
        walk = sv.random_walk(500, seed=4)
        draws = sv.white_noise(500, seed=4)
        assert np.allclose(np.diff(walk), draws[1:], atol=1e-10)
        assert walk[0] == draws[0]

    def test_white_noise_sd(self):
        x = sv.white_noise(100_000, seed=8, sd=2.5)
        assert abs(x.std(ddof=1) - 2.5) / 2.5 < 0.02

    def test_length_one(self):
        assert sv.random_walk(1, seed=0).shape == (1,)

    def test_validation(self):
        with pytest.raises(DataError):
            sv.white_noise(10, seed=0, sd=0.0)
        with pytest.raises(DataError):
            sv.random_walk(0, seed=0)


class TestSubstreams:
    def test_streams_are_independent_and_reproducible(self):
        a1 = sv.substream(5, 1).standard_normal(8)
        a2 = sv.substream(5, 1).standard_normal(8)
        b = sv.substream(5, 2).standard_normal(8)
        c = sv.substream(6, 1).standard_normal(8)
        assert np.array_equal(a1, a2)
        assert not np.array_equal(a1, b)
        assert not np.array_equal(a1, c)


class TestProcessSpecDocument:
    def spec_doc(self) -> dict:
        return {
            "version": 1,
            "var_names": ["x", "y"],
            "p": 2,
            "intercept": VAR2_SPEC.intercept.tolist(),
            "coef": VAR2_SPEC.coef.tolist(),
            "sigma_u": VAR2_SPEC.innovation_cov.tolist(),
            "burn_in": 150,
        }

    def test_load_round_trip(self):
        spec = sv.load_process_spec(io.StringIO(json.dumps(self.spec_doc())))
        assert spec.var_names == ("x", "y") and spec.p == 2 and spec.burn_in == 150
        assert np.array_equal(spec.coef, VAR2_SPEC.coef)

    def test_innovation_cov_alias(self):
        doc = self.spec_doc()
        doc["innovation_cov"] = doc.pop("sigma_u")
        spec = sv.load_process_spec(io.StringIO(json.dumps(doc)))
        assert np.array_equal(spec.innovation_cov, VAR2_SPEC.innovation_cov)

    def test_missing_field(self):
        doc = self.spec_doc()
        del doc["coef"]
        with pytest.raises(ModelFormatError, match="missing"):
            sv.load_process_spec(io.StringIO(json.dumps(doc)))

    def test_bad_version(self):
        doc = self.spec_doc()
        doc["version"] = 9
        with pytest.raises(ModelFormatError, match="version"):
            sv.load_process_spec(io.StringIO(json.dumps(doc)))

    @pytest.mark.parametrize("field, value", [
        ("burn_in", 10.9), ("burn_in", -1), ("p", 2.0), ("var_names", ["x", "x"]),
        ("intercept", [True, 0.5]),
    ])
    def test_bad_field_rejected(self, field, value):
        doc = self.spec_doc()
        doc[field] = value
        with pytest.raises(ModelFormatError, match=f"corrupted process document: {field} must"):
            sv.load_process_spec(io.StringIO(json.dumps(doc)))

    def test_corrupted_json(self):
        with pytest.raises(ModelFormatError, match="corrupted"):
            sv.load_process_spec(io.StringIO("{not json"))

    def test_model_document_is_a_valid_process_spec(self):
        # the fitted-model schema minus inference fields loads as a process
        fit = sv.fit_var(sv.simulate_var(VAR2_SPEC, 300, seed=3), 2)
        buf = io.StringIO()
        sv.save_model(fit, buf)
        spec = sv.load_process_spec(io.StringIO(buf.getvalue()))
        assert spec.p == 2 and np.array_equal(spec.coef, fit.coef)

    def test_model_document_derives_sigma_u(self):
        # a version-2 model stores no sigma_u: the spec derives it from the
        # residuals as VarFit does, to the bit
        fit = sv.fit_var(sv.simulate_var(VAR2_SPEC, 300, seed=3), 2)
        buf = io.StringIO()
        sv.save_model(fit, buf)
        assert "sigma_u" not in json.loads(buf.getvalue())
        spec = sv.load_process_spec(io.StringIO(buf.getvalue()))
        assert np.array_equal(spec.innovation_cov, fit.sigma_u)

    @pytest.mark.parametrize("edit, message", [
        (lambda doc: doc.pop("t_eff"), "missing field 't_eff'"),
        (lambda doc: doc.update(t_eff=5), r"residuals must have shape \(5, 2\)"),
        (lambda doc: doc.update(t_eff=4, residuals=[[0.0, 0.0]] * 4),
         "not enough observations for inference: t_eff=4 with 5 regressors"),
        (lambda doc: doc["residuals"].update(float64le="@"),
         "residuals float64le is not valid base64"),
        (lambda doc: doc.pop("residuals"), "missing field 'sigma_u'"),
    ], ids=["no-t_eff", "wrong-t_eff", "too-few-rows", "bad-base64", "no-residuals"])
    def test_model_document_residuals_checked(self, edit, message):
        buf = io.StringIO()
        sv.save_model(sv.fit_var(sv.simulate_var(VAR2_SPEC, 300, seed=3), 2), buf)
        doc = json.loads(buf.getvalue())
        edit(doc)
        with pytest.raises(ModelFormatError, match=f"corrupted process document: {message}"):
            sv.load_process_spec(io.StringIO(json.dumps(doc)))
