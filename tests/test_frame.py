"""Frame construction, ingestion, alignment, imputation, and summaries."""

import datetime as dt
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sleepvar as sv
from sleepvar.errors import DataError

from conftest import DATA_DIR, frames_equal, make_frame

D = dt.date


def sleep_csv(rows: str) -> io.StringIO:
    return io.StringIO("date,score\n" + rows)

def mood_csv(rows: str) -> io.StringIO:
    return io.StringIO("date,depressed,anxious,irritable,elevated\n" + rows)


class TestSeriesFrame:
    def test_invariants(self):
        with pytest.raises(DataError):
            sv.SeriesFrame(D(2019, 1, 1), ("a", "a"), np.zeros((3, 2)))
        with pytest.raises(DataError):
            sv.SeriesFrame(D(2019, 1, 1), ("a", ""), np.zeros((3, 2)))
        with pytest.raises(DataError):
            sv.SeriesFrame(D(2019, 1, 1), ("a",), np.zeros((0, 1)))
        with pytest.raises(DataError):
            sv.SeriesFrame(D(2019, 1, 1), ("a",), np.array([[np.inf]]))
        with pytest.raises(DataError):
            sv.SeriesFrame(D(2019, 1, 1), ("a", "b"), np.zeros((3, 1)))

    @pytest.mark.parametrize("start", ["2020-01-01", 20200101, None, dt.datetime(2020, 1, 1)])
    def test_start_date_must_be_a_date(self, start):
        with pytest.raises(DataError, match="start date must be a datetime.date"):
            sv.SeriesFrame(start, ("x",), [[1.0]])

    def test_immutable(self):
        f = make_frame({"a": [1, 2, 3]})
        with pytest.raises(ValueError):
            f.values[0, 0] = 9.0

    def test_dates_and_lookup(self):
        f = make_frame({"a": [1, 2], "b": [3, None]}, start=D(2020, 12, 31))
        assert f.dates() == [D(2020, 12, 31), D(2021, 1, 1)]
        assert f.end_date == D(2021, 1, 1)
        assert f.column("b")[0] == 3.0
        assert f.has_missing()
        with pytest.raises(DataError):
            f.column("zzz")


class TestIngestSleep:
    def test_gap_materialization(self):
        f = sv.ingest_sleep(sleep_csv("2019-02-01,75\n2019-02-03,80\n"))
        assert f.n_obs == 3 and f.names == ("score",)
        col = f.column("score")
        assert col[0] == 75 and col[2] == 80 and np.isnan(col[1])

    def test_bundled_export_total_and_missing(self):
        # 1455-night grid with a single absent night.
        f = sv.ingest_sleep(DATA_DIR / "sleep.csv")
        stats = sv.describe(f, "score")
        assert stats.total == 1455
        assert stats.missing == 1

    def test_empty_cell_is_missing(self):
        f = sv.ingest_sleep(sleep_csv("2019-02-01,75\n2019-02-02,\n2019-02-03,80\n"))
        assert np.isnan(f.column("score")[1])

    def test_out_of_range_score(self):
        with pytest.raises(DataError, match=r"outside \[1, 100\]"):
            sv.ingest_sleep(sleep_csv("2019-02-01,130\n"))
        with pytest.raises(DataError, match="outside"):
            sv.ingest_sleep(sleep_csv("2019-02-01,0\n"))

    def test_malformed_inputs(self):
        with pytest.raises(DataError, match="malformed date"):
            sv.ingest_sleep(sleep_csv("02/01/2019,75\n"))
        with pytest.raises(DataError, match="duplicate date"):
            sv.ingest_sleep(sleep_csv("2019-02-01,75\n2019-02-01,76\n"))
        with pytest.raises(DataError, match="integer"):
            sv.ingest_sleep(sleep_csv("2019-02-01,75.5\n"))
        with pytest.raises(DataError, match="no data rows"):
            sv.ingest_sleep(sleep_csv(""))
        with pytest.raises(DataError, match="header"):
            sv.ingest_sleep(io.StringIO("day,score\n2019-02-01,75\n"))
        with pytest.raises(DataError, match="header"):
            sv.ingest_sleep(io.StringIO(""))

    def test_crlf_and_bom(self, tmp_path):
        p = tmp_path / "sleep.csv"
        p.write_bytes(b"\xef\xbb\xbfdate,score\r\n2019-02-01,75\r\n2019-02-02,80\r\n")
        f = sv.ingest_sleep(p)
        assert f.n_obs == 2 and f.column("score")[1] == 80


class TestIngestMood:
    def test_most_severe_per_day(self):
        f = sv.ingest_mood(mood_csv("2020-01-05,1,0,0,0\n2020-01-05,2,0,1,0\n"))
        assert f.n_obs == 1
        assert f.column("depressed")[0] == 2
        assert f.column("irritable")[0] == 1

    def test_bundled_nonzero_counts(self):
        f = sv.ingest_mood(DATA_DIR / "mood.csv")
        counts = {n: int((f.column(n) > 0).sum()) for n in sv.MOOD_VARIABLES}
        assert counts == {"depressed": 103, "anxious": 88, "irritable": 100, "elevated": 48}

    def test_absent_as_zero_default(self):
        f = sv.ingest_mood(mood_csv("2020-01-01,1,0,0,0\n2020-01-03,0,2,0,0\n"))
        assert f.n_obs == 3
        assert list(f.values[1]) == [0, 0, 0, 0]

    def test_absent_preserved_when_policy_off(self):
        f = sv.ingest_mood(
            mood_csv("2020-01-01,1,0,0,0\n2020-01-03,0,2,0,0\n"), absent_as_zero=False
        )
        assert np.isnan(f.values[1]).all()
        assert f.column("anxious")[2] == 2

    def test_invalid_values(self):
        with pytest.raises(DataError, match="outside 0-3"):
            sv.ingest_mood(mood_csv("2020-01-01,4,0,0,0\n"))
        with pytest.raises(DataError, match="integer"):
            sv.ingest_mood(mood_csv("2020-01-01,,0,0,0\n"))
        with pytest.raises(DataError, match="malformed date"):
            sv.ingest_mood(mood_csv("garbage,1,0,0,0\n"))


class TestMerge:
    def test_same_span_alignment(self):
        a = make_frame({"score": [70, 71, 72]})
        b = make_frame({"depressed": [0, 1, 0], "anxious": [1, 0, 0],
                        "irritable": [0, 0, 0], "elevated": [0, 0, 2]})
        m = sv.merge([a, b])
        assert m.n_vars == 5 and m.n_obs == 3
        assert m.names == ("score", "depressed", "anxious", "irritable", "elevated")

    def test_disjoint_spans_union_grid(self):
        a = make_frame({"a": [1, 2, 3]}, start=D(2020, 1, 1))
        b = make_frame({"b": [4, 5, 6]}, start=D(2020, 1, 5))
        m = sv.merge([a, b])
        assert m.n_obs == 7
        assert np.isnan(m.column("a")[3:]).all()
        assert np.isnan(m.column("b")[:4]).all()
        assert m.column("b")[4] == 4

    def test_name_collision(self):
        a = make_frame({"score": [1]})
        b = make_frame({"score": [2]})
        with pytest.raises(DataError, match="duplicate variable name"):
            sv.merge([a, b])

    def test_name_collision_message_caps_the_name(self):
        a = make_frame({"s" * 100_000: [1]})
        with pytest.raises(DataError, match="duplicate variable name") as info:
            sv.merge([a, a])
        assert len(str(info.value)) < 300

    def test_empty_list(self):
        with pytest.raises(DataError):
            sv.merge([])

    def test_order_insensitive_on_dates(self):
        a = make_frame({"a": [1, None, 3]}, start=D(2020, 1, 1))
        b = make_frame({"b": [4, 5]}, start=D(2020, 1, 3))
        ab = sv.merge([a, b])
        ba = sv.merge([b, a])
        assert ab.start_date == ba.start_date and ab.n_obs == ba.n_obs
        for name in ("a", "b"):
            assert np.array_equal(ab.column(name), ba.column(name), equal_nan=True)


def row_loop_impute(values: np.ndarray, policy: str, max_gap: int) -> np.ndarray:
    """The reference gap fill: scan each column for maximal missing runs and
    fill each run of at most ``max_gap`` cells on its own."""
    out = np.array(values)
    n = out.shape[0]
    for x in out.T:
        i = 0
        while i < n:
            if not np.isnan(x[i]):
                i += 1
                continue
            e = i
            while e < n and np.isnan(x[e]):
                e += 1
            if e - i <= max_gap and i > 0:
                if policy == "forward_fill":
                    x[i:e] = x[i - 1]
                elif policy == "linear" and e < n:
                    x[i:e] = np.linspace(x[i - 1], x[e], e - i + 2)[1:-1]
            i = e
    return out


class TestImpute:
    def test_linear_midpoint(self):
        f = make_frame({"s": [75, None, 80]})
        out = sv.impute(f, policy="linear", max_gap=1)
        assert list(out.column("s")) == [75.0, 77.5, 80.0]

    def test_forward_fill(self):
        f = make_frame({"s": [75, None, 80]})
        out = sv.impute(f, policy="forward_fill", max_gap=1)
        assert list(out.column("s")) == [75.0, 75.0, 80.0]

    def test_gap_exceeding_cap_unchanged(self):
        f = make_frame({"s": [75, None, None, None, 80]})
        out = sv.impute(f, policy="forward_fill", max_gap=1)
        assert frames_equal(out, f)

    def test_leading_run_never_forward_filled(self):
        f = make_frame({"s": [None, 75, 80]})
        out = sv.impute(f, policy="forward_fill", max_gap=3)
        assert np.isnan(out.column("s")[0])

    def test_trailing_run_forward_filled_but_not_linear(self):
        f = make_frame({"s": [75, 80, None]})
        assert sv.impute(f, "forward_fill", 3).column("s")[2] == 80
        assert np.isnan(sv.impute(f, "linear", 3).column("s")[2])

    def test_none_is_identity(self):
        f = make_frame({"s": [75, None, 80]})
        assert frames_equal(sv.impute(f, policy="none"), f)

    def test_bad_policy(self):
        with pytest.raises(DataError, match="policy"):
            sv.impute(make_frame({"s": [1]}), policy="mean")

    def test_bad_policy_message_is_cut(self):
        with pytest.raises(DataError) as err:
            sv.impute(make_frame({"s": [1]}), policy="x" * 500)
        assert len(str(err.value)) < 120
        assert str(err.value).endswith("choose from ('forward_fill', 'linear', 'none')")

    def test_linear_step_below_the_smallest_subnormal(self):
        # np.linspace scales by i/div before delta when delta/div rounds to 0
        f = make_frame({"s": [0.0, None, None, 5e-324]})
        got = sv.impute(f, "linear", 2).column("s")
        assert got.tolist() == [0.0, 0.0, 5e-324, 5e-324]
        assert np.array_equal(got, row_loop_impute(f.values, "linear", 2)[:, 0])

    def test_linear_fill_between_flanks_near_the_float_maximum(self):
        # hi - lo overflows, but every value between the flanks is a float
        f = make_frame({"s": [1e308, None, -1e308, None, None, None, 1e308, None, 1.5e308]})
        got = sv.impute(f, "linear", 3).column("s")
        assert got.tolist() == [1e308, 0.0, -1e308, -5e307, 0.0, 5e307, 1e308, 1.25e308, 1.5e308]

    @given(
        data=st.lists(
            st.one_of(st.none(), st.floats(-1e6, 1e6, allow_nan=False)),
            min_size=1, max_size=40,
        ),
        policy=st.sampled_from(["forward_fill", "linear", "none"]),
        max_gap=st.integers(0, 5),
    )
    def test_never_touches_observed_cells(self, data, policy, max_gap):
        f = make_frame({"s": data})
        out = sv.impute(f, policy=policy, max_gap=max_gap)
        assert out.n_obs == f.n_obs and out.n_vars == f.n_vars
        observed = ~np.isnan(f.values)
        assert np.array_equal(f.values[observed], out.values[observed])
        # filling only ever shrinks the missing set
        assert not (np.isnan(f.values) < np.isnan(out.values)).any()

    @given(
        data=st.lists(
            st.lists(st.one_of(st.none(), st.floats(-1e6, 1e6, allow_nan=False)),
                     min_size=3, max_size=3),
            min_size=1, max_size=30,
        ),
        policy=st.sampled_from(["forward_fill", "linear"]),
        gap=st.integers(0, 31),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_row_loop(self, data, policy, gap):
        f = make_frame({name: [row[c] for row in data] for c, name in enumerate("abc")})
        max_gap = min(gap, f.n_obs + 1)
        got = sv.impute(f, policy=policy, max_gap=max_gap).values
        want = row_loop_impute(f.values, policy, max_gap)
        assert np.array_equal(got, want, equal_nan=True)
        assert np.array_equal(np.signbit(got), np.signbit(want))


class TestDescribe:
    def test_constant_column(self):
        stats = sv.describe(make_frame({"s": [5.0] * 10}), "s")
        assert stats.mean == 5.0 and stats.sd == 0.0
        assert stats.min == 5.0 and stats.max == 5.0

    def test_min_max(self):
        stats = sv.describe(make_frame({"s": [30, 97]}), "s")
        assert stats.min == 30.0 and stats.max == 97.0

    def test_sample_sd(self):
        stats = sv.describe(make_frame({"s": [1, 2, 3, 4]}), "s")
        assert stats.mean == 2.5
        # hand computation, n-1 divisor: sqrt(5/3)
        assert stats.sd == pytest.approx(1.2909944487358056, abs=1e-12)

    def test_missing_counted_not_included(self):
        stats = sv.describe(make_frame({"s": [1, None, 3]}), "s")
        assert stats.total == 3 and stats.missing == 1
        assert stats.mean == 2.0

    def test_errors(self):
        with pytest.raises(DataError, match="unknown column"):
            sv.describe(make_frame({"s": [1]}), "t")
        with pytest.raises(DataError, match="no non-missing"):
            sv.describe(make_frame({"s": [None, None]}), "s")

    @given(
        data=st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=1, max_size=50)
    )
    def test_mean_between_min_and_max(self, data):
        stats = sv.describe(make_frame({"s": data}), "s")
        assert stats.min - 1e-9 <= stats.mean <= stats.max + 1e-9
        assert stats.sd >= 0.0


class TestCsvRoundTrip:
    def test_sleep_round_trip(self):
        f = sv.ingest_sleep(sleep_csv("2019-02-01,75\n2019-02-03,80\n"))
        buf = io.StringIO()
        sv.write_frame_csv(f, buf)
        again = sv.ingest_sleep(io.StringIO(buf.getvalue()))
        assert frames_equal(f, again)

    def test_generic_round_trip_with_floats(self):
        f = make_frame({"a": [1.5, None, -2.25e-3], "b": [0.1, 0.2, 0.3]})
        buf = io.StringIO()
        sv.write_frame_csv(f, buf)
        assert frames_equal(f, sv.read_frame_csv(io.StringIO(buf.getvalue())))

    def test_header_and_grid_validation(self):
        with pytest.raises(DataError, match="header"):
            sv.read_frame_csv(io.StringIO("time,a\n2020-01-01,1\n"))
        with pytest.raises(DataError, match="contiguous"):
            sv.read_frame_csv(io.StringIO("date,a\n2020-01-01,1\n2020-01-03,2\n"))
        with pytest.raises(DataError, match="malformed number"):
            sv.read_frame_csv(io.StringIO("date,a\n2020-01-01,abc\n"))

    @given(
        data=st.lists(
            st.one_of(st.none(), st.floats(-1e12, 1e12, allow_nan=False)),
            min_size=1, max_size=30,
        )
    )
    @settings(max_examples=60)
    def test_round_trip_property(self, data):
        f = make_frame({"v": data})
        buf = io.StringIO()
        sv.write_frame_csv(f, buf)
        assert frames_equal(f, sv.read_frame_csv(io.StringIO(buf.getvalue())))
