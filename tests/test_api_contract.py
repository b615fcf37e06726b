"""The library's argument contract: a public callable given a bad count,
seed, probability, standard deviation, series or variable name raises a
SleepVarError (a DataError) and nothing else, as the CLI does for bad input."""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sleepvar as sv
from sleepvar import report
from sleepvar.errors import DataError, SleepVarError

SPEC = sv.VarProcessSpec(("x", "y"), 1, [0.1, -0.2], [[[0.5, 0.1], [0.0, 0.3]]],
                         [[1.0, 0.2], [0.2, 1.0]])
FRAME = sv.simulate_var(SPEC, 40, seed=1)
GAPPY = sv.SeriesFrame(FRAME.start_date, FRAME.names,
                       np.where(np.arange(80).reshape(40, 2) % 7 == 3, np.nan, FRAME.values))
FIT = sv.fit_var(FRAME, 1)
SERIES = FRAME.column("x")

# One entry per (callable, argument): the call with every other argument
# valid and small, so an accepted value runs to the end in milliseconds.
CALLS = {
    "impute.max_gap": lambda v: sv.impute(GAPPY, max_gap=v),
    "impute.policy": lambda v: sv.impute(GAPPY, policy=v),
    "adf_test.regression": lambda v: sv.adf_test(SERIES, regression=v),
    "irf_with_bands.innovations": lambda v: sv.irf_with_bands(FIT, 2, replications=100,
                                                              innovations=v),
    "SeriesFrame.start_date": lambda v: sv.SeriesFrame(v, ("x",), [[1.0]]).end_date,
    "select_order.max_lags": lambda v: sv.select_order(FRAME, v),
    "select_order.override": lambda v: sv.select_order(FRAME, 3, override=v),
    "fit_var.p": lambda v: sv.fit_var(FRAME, v),
    "build_lagged_design.p": lambda v: sv.build_lagged_design(FRAME, v),
    "adf_test.series": lambda v: sv.adf_test(v),
    "adf_test.max_lag": lambda v: sv.adf_test(SERIES, max_lag=v),
    "recommend_differencing.series": lambda v: sv.recommend_differencing(v),
    "recommend_differencing.alpha": lambda v: sv.recommend_differencing(SERIES, alpha=v),
    "difference.series": lambda v: sv.difference(v),
    "difference.order": lambda v: sv.difference(SERIES, v),
    "classical_decompose.series": lambda v: sv.classical_decompose(v),
    "classical_decompose.period": lambda v: sv.classical_decompose(SERIES, v),
    "pacf.series": lambda v: sv.pacf(v, 2),
    "pacf.n_lags": lambda v: sv.pacf(SERIES, v),
    "granger_test.causing": lambda v: sv.granger_test(FIT, v, "y"),
    "granger_test.alpha": lambda v: sv.granger_test(FIT, "x", "y", alpha=v),
    "granger_all_pairs.causing": lambda v: sv.granger_all_pairs(FIT, v),
    "granger_all_pairs.alpha": lambda v: sv.granger_all_pairs(FIT, "x", alpha=v),
    "ma_coefficients.horizon": lambda v: sv.ma_coefficients(FIT, v),
    "orthogonalized_irf.horizon": lambda v: sv.orthogonalized_irf(FIT, v),
    "irf_with_bands.horizon": lambda v: sv.irf_with_bands(FIT, v, replications=100),
    "irf_with_bands.level": lambda v: sv.irf_with_bands(FIT, 2, v, replications=100),
    "irf_with_bands.replications": lambda v: sv.irf_with_bands(FIT, 2, replications=v),
    "irf_with_bands.seed": lambda v: sv.irf_with_bands(FIT, 2, replications=100, seed=v),
    "simulate_var.t": lambda v: sv.simulate_var(SPEC, v, 0),
    "simulate_var.seed": lambda v: sv.simulate_var(SPEC, 5, v),
    "VarProcessSpec.burn_in": lambda v: sv.simulate_var(dataclasses.replace(SPEC, burn_in=v), 5, 0),
    "random_walk.t": lambda v: sv.random_walk(v, 0),
    "random_walk.seed": lambda v: sv.random_walk(5, v),
    "white_noise.t": lambda v: sv.white_noise(v, 0),
    "white_noise.seed": lambda v: sv.white_noise(5, v),
    "white_noise.sd": lambda v: sv.white_noise(5, 0, sd=v),
    "substream.seed": lambda v: sv.substream(v, 1).standard_normal(),
    "substream.stream": lambda v: sv.substream(1, v).standard_normal(),
}

# Huge counts are refused before any allocation, or are sizes no address
# space holds (at least 10**15 elements); nothing between 13 and 10**15 is
# drawn, as malloc may grant such an array and fill the machine's memory.
INTS = st.one_of(
    st.integers(-3, 12),
    st.sampled_from([-10**30, -2**63, 10**15, 2**63 - 1, 2**63, 2**64 - 1, 2**64, 10**30]),
)
NUMPY_INTS = st.one_of(
    st.integers(-3, 12).map(np.int64),
    st.sampled_from([np.int64(-2**63), np.int64(2**63 - 1), np.uint64(2**64 - 1)]),
)
SCALARS = st.one_of(
    INTS, NUMPY_INTS, st.floats(), st.floats().map(np.float64), st.floats(width=32).map(np.float32),
    st.booleans(), st.booleans().map(np.bool_), st.text(max_size=3), st.none(),
    st.complex_numbers(max_magnitude=10.0),
)
# Entries of the short arrays: finite floats of any size (arithmetic that
# overflows is a DataError), the non-finite ones, and non-numbers.
FINITE = st.floats(allow_nan=False, allow_infinity=False)
ENTRIES = st.one_of(INTS, FINITE, st.sampled_from([np.nan, np.inf, -np.inf]),
                    st.booleans(), st.text(max_size=2), st.none())
ARRAYS = st.lists(ENTRIES, max_size=4)
VALUES = st.one_of(SCALARS, ARRAYS, ARRAYS.map(lambda a: np.array(a, dtype=object)),
                   st.lists(FINITE, max_size=4).map(np.array),
                   st.lists(INTS, min_size=2, max_size=2).map(lambda a: [a, a]))


@pytest.mark.parametrize("name", sorted(CALLS))
@given(value=VALUES)
@settings(max_examples=25, deadline=None)
def test_only_sleepvar_errors_escape(name, value):
    try:
        CALLS[name](value)
    except SleepVarError:
        pass


# Calls that ran on a bad argument, or raised a raw TypeError, ValueError,
# MemoryError or OverflowError, before every argument kind had one rule.
PROBES = {
    "pacf(x, True)": lambda: sv.pacf(SERIES, True),
    "ma_coefficients(fit, True)": lambda: sv.ma_coefficients(FIT, True),
    "adf_test(x, max_lag=True)": lambda: sv.adf_test(SERIES, max_lag=True),
    "impute(y, max_gap=1.0)": lambda: sv.impute(GAPPY, max_gap=1.0),
    "select_order(y, 3, override=1.0)": lambda: sv.select_order(FRAME, 3, override=1.0),
    "fit_var(y, 1.0)": lambda: sv.fit_var(FRAME, 1.0),
    "select_order(y, 3.0)": lambda: sv.select_order(FRAME, 3.0),
    "difference(x, 1.0)": lambda: sv.difference(SERIES, 1.0),
    "classical_decompose(x, 7.0)": lambda: sv.classical_decompose(SERIES, 7.0),
    "pacf(x, 2.0)": lambda: sv.pacf(SERIES, 2.0),
    "ma_coefficients(fit, 2.0)": lambda: sv.ma_coefficients(FIT, 2.0),
    "random_walk(10.0, 0)": lambda: sv.random_walk(10.0, 0),
    "irf_with_bands(fit, 5.0)": lambda: sv.irf_with_bands(FIT, 5.0),
    "irf_with_bands(fit, replications=500.0)": lambda: sv.irf_with_bands(FIT, 2, replications=500.0),
    "pacf('abc', 2)": lambda: sv.pacf("abc", 2),
    "difference('abc')": lambda: sv.difference("abc"),
    "adf_test('abc')": lambda: sv.adf_test("abc"),
    "adf_test(numeric strings)": lambda: sv.adf_test([repr(v) for v in SERIES]),
    "adf_test(x + 1j)": lambda: sv.adf_test(SERIES + 1j),
    "SeriesFrame(values='abc')": lambda: sv.SeriesFrame(FRAME.start_date, ("x",), "abc"),
    "irf_with_bands(fit, level='x')": lambda: sv.irf_with_bands(FIT, level="x"),
    "granger_test(fit, alpha='x')": lambda: sv.granger_test(FIT, "x", "y", alpha="x"),
    "granger_test(fit, 5, 'y')": lambda: sv.granger_test(FIT, 5, "y"),
    "granger_test(fit, [['x']], 'y')": lambda: sv.granger_test(FIT, [["x"]], "y"),
    "granger_all_pairs(fit, array of names)": lambda: sv.granger_all_pairs(FIT, np.array(["x", "y"])),
    "recommend_differencing(x, alpha='x')": lambda: sv.recommend_differencing(SERIES, alpha="x"),
    "substream(1.5, 1)": lambda: sv.substream(1.5, 1),
    "substream('3', 1)": lambda: sv.substream("3", 1),
    "substream(3, 1.0)": lambda: sv.substream(3, 1.0),
    "simulate_var(spec, 50, 0.5)": lambda: sv.simulate_var(SPEC, 50, 0.5),
    "irf_with_bands(fit, seed='2')": lambda: sv.irf_with_bands(FIT, 2, replications=100, seed="2"),
    "random_walk(10**15, 0)": lambda: sv.random_walk(10**15, 0),
    "white_noise(10**15, 0)": lambda: sv.white_noise(10**15, 0),
    "random_walk(10**30, 0)": lambda: sv.random_walk(10**30, 0),
    "white_noise(5, 0, sd=inf)": lambda: sv.white_noise(5, 0, sd=float("inf")),
    "white_noise(5, 0, sd='x')": lambda: sv.white_noise(5, 0, sd="x"),
    "white_noise(50, 0, sd=1e308)": lambda: sv.white_noise(50, 0, sd=1e308),
    "impute(y, policy=array)": lambda: sv.impute(GAPPY, policy=np.array(["linear", "none"])),
    "adf_test(x, regression=array)": lambda: sv.adf_test(
        SERIES, regression=np.array(["constant", "constant_and_trend"])),
    "irf_with_bands(fit, innovations=array)": lambda: sv.irf_with_bands(
        FIT, 2, replications=100, innovations=np.array(["gaussian", "empirical"])),
    "SeriesFrame('2020-01-01', ...)": lambda: sv.SeriesFrame("2020-01-01", ("x",), [[1.0]]).end_date,
    "SeriesFrame(20200101, ...)": lambda: sv.SeriesFrame(20200101, ("x",), [[1.0]]).end_date,
    "SeriesFrame(None, ...)": lambda: sv.SeriesFrame(None, ("x",), [[1.0]]).end_date,
    # Arithmetic that overflows the float range, which numpy only warned of.
    "difference(near float max)": lambda: sv.difference([1e308, -1e308]),
    "pacf(near float max)": lambda: sv.pacf([1e308, -1e308] * 20, 3),
    "adf_test(near float max)": lambda: sv.adf_test([1e308, -1e308, 5e307] * 10),
    "classical_decompose(near float max)": lambda: sv.classical_decompose([1e308, -1e308] * 10, 2),
    "describe(near float max)": lambda: sv.describe(
        sv.SeriesFrame(FRAME.start_date, ("x",), [[1e308], [1e308]]), "x"),
}


@pytest.mark.parametrize("name", sorted(PROBES))
@pytest.mark.filterwarnings("error::RuntimeWarning")  # numpy's own warnings too
def test_probe_raises_data_error(name):
    with pytest.raises(DataError):
        PROBES[name]()


def test_one_dimensional_frame_values_name_their_shape():
    with pytest.raises(DataError, match=r"frame values must be 2-D, got shape \(2,\)"):
        sv.SeriesFrame(FRAME.start_date, ("x",), [1.0, 2.0])


@pytest.mark.parametrize("seed", [0, 3, -1, 2**63 - 1])
def test_numpy_integer_seed_draws_like_int(seed):
    for stream in (0, 1, 7):
        want = sv.substream(seed, stream).standard_normal(8)
        assert np.array_equal(sv.substream(np.int64(seed), np.int64(stream)).standard_normal(8), want)
    assert np.array_equal(sv.simulate_var(SPEC, 50, np.int64(seed)).values,
                          sv.simulate_var(SPEC, 50, seed).values)


def test_seed_keying_is_modulo_2_64():
    """Negative and over-64-bit seeds keep the streams they always had."""
    for seed in (-1, 2**64 + 5, -(2**70) + 3):
        want = sv.substream(seed % 2**64, 2).standard_normal(4)
        assert np.array_equal(sv.substream(seed, 2).standard_normal(4), want)


def test_irf_result_seed_is_int():
    res = sv.irf_with_bands(FIT, np.int64(2), replications=100, seed=np.int64(2))
    assert type(res.seed) is int and res.seed == 2
    assert type(res.horizon) is int and res.horizon == 2
    json.dumps(report.irf_dict(res))
    ref = sv.irf_with_bands(FIT, 2, replications=100, seed=2)
    assert np.array_equal(res.lower, ref.lower) and np.array_equal(res.upper, ref.upper)


def test_white_noise_sd_is_a_finite_positive_real():
    for sd in (0.0, -1.0, float("inf"), float("nan"), "1", True, None):
        with pytest.raises(DataError, match="sd must lie in"):
            sv.white_noise(5, 0, sd=sd)
    assert np.array_equal(sv.white_noise(5, 0, sd=np.float64(2.0)), 2.0 * sv.white_noise(5, 0))


def test_numpy_counts_and_reals_are_accepted():
    assert np.array_equal(sv.pacf(SERIES, np.int64(3)).values, sv.pacf(SERIES, 3).values)
    assert sv.fit_var(FRAME, np.uint8(1)).p == 1
    assert sv.granger_test(FIT, "x", "y", alpha=np.float64(0.1)).alpha == 0.1


def test_select_order_override_is_int():
    sel = sv.select_order(FRAME, 3, override=np.int64(1))
    assert type(sel.selected) is int and sel.selected == 1
    json.dumps(report.order_selection_dict(sel))
