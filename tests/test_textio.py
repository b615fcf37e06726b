"""Text I/O: the column parsers and the CSV writer against row-loop oracles,
and the file writer.

The oracles below are the row-by-row parsers the column parsers replaced,
kept as the reference: one ``csv.reader`` record at a time, one
``date.fromisoformat``/``int``/``float`` per cell.  Every generated input
must give the same frame, bit for bit, or the same ``DataError`` message.
The row-loop writers the one CSV writer replaced are kept the same way:
every document must keep its bytes.
"""

import csv
import datetime as dt
import io
import json
import math
import os
import stat
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sleepvar as sv
from sleepvar import report
from sleepvar._util import csv_text, write_text
from sleepvar.cli import main
from sleepvar.errors import DataError
from sleepvar.simulate import substream

from conftest import DATA_DIR

MOOD_HEADER = ("date",) + sv.MOOD_VARIABLES


# --- Oracles: the row-loop parsers --------------------------------------------

def _oracle_rows(fh, expected_header):
    reader = csv.reader(fh)
    header = next(reader, None)
    if header is None:
        raise DataError("empty file: missing header row")
    header = [h.strip() for h in header]
    if header != list(expected_header):
        raise DataError(f"unexpected header {header!r}; expected {list(expected_header)!r}")
    n_rows = 0
    for line_no, row in enumerate(reader, start=2):
        if not row or all(not c.strip() for c in row):
            continue
        if len(row) != len(expected_header):
            raise DataError(
                f"line {line_no}: expected {len(expected_header)} fields, got {len(row)}"
            )
        n_rows += 1
        yield line_no, row
    if n_rows == 0:
        raise DataError("empty file: no data rows")


def _oracle_date(cell, line_no):
    try:
        return dt.date.fromisoformat(cell.strip())
    except ValueError:
        raise DataError(f"line {line_no}: malformed date {cell.strip()!r} (expected YYYY-MM-DD)")


def _opened(source):
    if hasattr(source, "read"):
        return source
    return open(source, "r", encoding="utf-8-sig", newline="")


def oracle_sleep(source):
    seen = {}
    with _opened(source) as fh:
        for line_no, row in _oracle_rows(fh, ("date", "score")):
            day = _oracle_date(row[0], line_no)
            if day in seen:
                raise DataError(f"line {line_no}: duplicate date {day.isoformat()}")
            cell = row[1].strip()
            if cell == "":
                seen[day] = math.nan
                continue
            try:
                score = int(cell)
            except ValueError:
                raise DataError(
                    f"line {line_no}: sleep score must be an integer or empty, got {cell!r}"
                )
            if not 1 <= score <= 100:
                raise DataError(f"line {line_no}: sleep score {score} outside [1, 100]")
            seen[day] = float(score)
    start = min(seen)
    col = np.full((max(seen) - start).days + 1, np.nan)
    for day, value in seen.items():
        col[(day - start).days] = value
    return sv.SeriesFrame(start, ("score",), col.reshape(-1, 1))


def oracle_mood(source, absent_as_zero=True):
    by_day = {}
    with _opened(source) as fh:
        for line_no, row in _oracle_rows(fh, MOOD_HEADER):
            day = _oracle_date(row[0], line_no)
            levels = np.empty(len(sv.MOOD_VARIABLES))
            for j, cell in enumerate(row[1:]):
                cell = cell.strip()
                try:
                    value = int(cell)
                except ValueError:
                    raise DataError(
                        f"line {line_no}: {sv.MOOD_VARIABLES[j]} must be an integer 0-3, got {cell!r}"
                    )
                if value not in (0, 1, 2, 3):
                    raise DataError(
                        f"line {line_no}: {sv.MOOD_VARIABLES[j]} value {value} outside 0-3"
                    )
                levels[j] = float(value)
            prev = by_day.get(day)
            by_day[day] = levels if prev is None else np.maximum(prev, levels)
    start = min(by_day)
    vals = np.full(((max(by_day) - start).days + 1, len(sv.MOOD_VARIABLES)),
                   0.0 if absent_as_zero else np.nan)
    for day, levels in by_day.items():
        vals[(day - start).days] = levels
    return sv.SeriesFrame(start, sv.MOOD_VARIABLES, vals)


def oracle_frame(source):
    with _opened(source) as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if not header or header[0].strip() != "date" or len(header) < 2:
            raise DataError("frame CSV must start with header 'date,<name1>,...'")
        names = tuple(h.strip() for h in header[1:])
        rows, start = [], None
        for line_no, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != len(header):
                raise DataError(f"line {line_no}: expected {len(header)} fields, got {len(row)}")
            day = _oracle_date(row[0], line_no)
            if start is None:
                start = day
            elif (day - start).days != len(rows):
                if (dt.date.max - start).days < len(rows):  # the grid has run past date.max
                    expected = f"no date follows {dt.date.max.isoformat()}"
                else:
                    expected = f"expected {(start + dt.timedelta(days=len(rows))).isoformat()}"
                raise DataError(f"line {line_no}: dates must be contiguous daily; "
                                f"{expected}, got {day.isoformat()}")
            parsed = []
            for j, cell in enumerate(row[1:]):
                cell = cell.strip()
                if cell == "":
                    parsed.append(math.nan)
                    continue
                try:
                    parsed.append(float(cell))
                except ValueError:
                    raise DataError(f"line {line_no}: malformed number {cell!r} in {names[j]!r}")
            rows.append(parsed)
    if start is None:
        raise DataError("empty file: no data rows")
    return sv.SeriesFrame(start, names, np.array(rows))


def oracle_write(frame):
    def cell(v):
        if math.isnan(v):
            return ""
        if v == int(v) and abs(v) < 1e15:
            return str(int(v))
        return repr(float(v))

    fh = io.StringIO()
    fh.write("date," + ",".join(frame.names) + "\n")
    for i, day in enumerate(frame.dates()):
        fh.write(f"{day.isoformat()},{','.join(cell(v) for v in frame.values[i])}\n")
    return fh.getvalue()


def oracle_decomposition_csv(observed, dec):
    def cell(v: float) -> str:
        return "" if np.isnan(v) else repr(float(v))

    lines = ["index,observed,trend,seasonal,residual"]
    for i in range(observed.size):
        lines.append(
            f"{i},{cell(observed[i])},{cell(dec.trend[i])},"
            f"{cell(dec.seasonal[i])},{cell(dec.residual[i])}"
        )
    return "\n".join(lines) + "\n"


def oracle_pacf_csv(res):
    lines = ["lag,pacf,band"]
    for lag, v in enumerate(res.values):
        lines.append(f"{lag},{float(v)!r},{float(res.band)!r}")
    return "\n".join(lines) + "\n"


def oracle_irf_csv(res):
    lines = ["horizon,impulse,response,estimate,lower,upper"]
    for h in range(res.horizon + 1):
        for j, impulse in enumerate(res.var_names):
            for i, response in enumerate(res.var_names):
                lines.append(
                    f"{h},{impulse},{response},{float(res.responses[h, i, j])!r},"
                    f"{float(res.lower[h, i, j])!r},{float(res.upper[h, i, j])!r}"
                )
    return "\n".join(lines) + "\n"


# --- Generated inputs ----------------------------------------------------------

BASE = dt.date(2019, 1, 28)
ODD_DATES = ["20190201", "2019-02", "2019-02-01T00", "2019-W05-5", "2019-02-30",
             "02/01/2019", "", " ", "garbage", '"2019-02-01"', "2019-02-01 "]
BOM = "\ufeff"


def mostly(usual, odd, one_in=10):
    """``usual``, except one draw in ``one_in`` from ``odd``."""
    return st.integers(1, one_in).flatmap(lambda i: odd if i == 1 else usual)


def padded(cells):
    return st.tuples(st.sampled_from(["", " ", "  ", "\t"]), cells).map(lambda t: t[0] + t[1] + t[0])


def date_cell(span):
    iso = st.integers(0, span).map(lambda i: (BASE + dt.timedelta(days=i)).isoformat())
    return mostly(iso, st.one_of(padded(iso), st.sampled_from(ODD_DATES)))


def int_cell(lo, hi):
    odd = ["+3", "03", "3_0", " 2 ", "", " ", "1.5", "abc", "-1", "\u0663", '"2"', '"1,2"',
           "99999999999999999999999", "1e2"]
    return mostly(st.integers(lo, hi).map(str),
                  st.one_of(st.integers(-5, 120).map(str), st.sampled_from(odd)), one_in=20)


def float_cell():
    usual = st.one_of(st.floats(-1e6, 1e6, allow_nan=False).map(repr),
                      st.integers(-50, 50).map(str), st.just(""))
    return mostly(usual, st.sampled_from(["", " ", "nan", "-nan", "inf", "1e5", " 2.5 ",
                                          "1_0", "abc", "+3", '"4.5"', '"1,2"']), one_in=20)


def blank_line(width):
    return st.sampled_from(["", " ", "," * (width - 1), " ," * (width - 1), "\t"])


def row_of(cells):
    return st.tuples(*cells).map(",".join)


def any_width(cells):
    """A row of ``cells``, except one draw in 20 with one cell too few or too many."""
    return mostly(row_of(cells), st.one_of(row_of(cells[:-1]), row_of(cells + cells[-1:])),
                  one_in=20)


def header_line(names):
    good = ",".join(names)
    odd = [",".join(f" {n} " for n in names), good.replace("date", "day"),
           good.rsplit(",", 1)[0], "", '"date",' + good.split(",", 1)[1]]
    return mostly(st.just(good), st.sampled_from(odd))


def document(header, rows, width):
    """A CSV text: header, data rows with some blank lines, mixed line ends."""
    lines = st.lists(mostly(rows, blank_line(width)), min_size=1, max_size=12)
    ends = st.lists(mostly(st.just("\n"), st.sampled_from(["\r\n", "\r"]), one_in=3),
                    min_size=13, max_size=13)
    return st.tuples(mostly(st.just(""), st.just(BOM), one_in=4), header, lines, ends,
                     st.booleans()).map(lambda t: _join(*t))


def _join(bom, header, lines, ends, trailing):
    all_lines = [header] + lines
    text = "".join(line + ends[i] for i, line in enumerate(all_lines))
    if not trailing:
        text = text[: -len(ends[len(all_lines) - 1])]
    return bom + text


SLEEP_DOCS = document(header_line(("date", "score")),
                      any_width([date_cell(60), mostly(int_cell(1, 100), st.just(""), one_in=5)]), 2)
MOOD_DOCS = document(header_line(MOOD_HEADER), any_width([date_cell(8)] + [int_cell(0, 3)] * 4), 5)


def frame_lines(n):
    """``n`` rows whose k-th date is BASE + k days, unless drawn odd."""
    dates = [mostly(st.just((BASE + dt.timedelta(days=i)).isoformat()), date_cell(8), one_in=25)
             for i in range(n)]
    return st.tuples(*[row_of([d, float_cell(), float_cell()]) for d in dates])


FRAME_DOCS = st.tuples(
    mostly(st.just(""), st.just(BOM), one_in=4),
    mostly(st.just("date,a,b"),
           st.sampled_from([" date , a , b ", "date,a,a", "time,a,b", "date,a", ""])),
    st.integers(1, 10).flatmap(frame_lines),
    st.sampled_from(["\n", "\r\n", "\r"]),
    st.lists(st.integers(0, 10), max_size=2),
).map(lambda t: _frame_doc(*t))


def _frame_doc(bom, header, rows, end, blanks):
    lines = [header] + list(rows)
    for at in blanks:
        lines.insert(min(at, len(lines)), ",,")
    return bom + end.join(lines) + end


def outcome(parse, source):
    try:
        frame = parse(source)
    except DataError as exc:
        return ("error", str(exc))
    # tobytes() reads C order whatever the layout, so the layout is compared too.
    return ("frame", frame.start_date, frame.names, frame.values.dtype,
            frame.values.shape, frame.values.flags.c_contiguous, frame.values.tobytes())


@pytest.fixture(scope="module")
def scratch_file(tmp_path_factory):
    return tmp_path_factory.mktemp("textio") / "input.csv"


def assert_same(parse, oracle, text, path):
    path.write_bytes(text.encode("utf-8"))
    assert outcome(parse, path) == outcome(oracle, path)
    if "\r" not in text.replace("\r\n", ""):  # a file object splits lines on "\n" alone
        assert outcome(parse, io.StringIO(text)) == outcome(oracle, io.StringIO(text))


class TestParsersMatchRowLoop:
    @given(text=SLEEP_DOCS)
    @settings(max_examples=250, deadline=None)
    def test_sleep(self, text, scratch_file):
        assert_same(sv.ingest_sleep, oracle_sleep, text, scratch_file)

    @given(text=MOOD_DOCS, absent_as_zero=st.booleans())
    @settings(max_examples=250, deadline=None)
    def test_mood(self, text, absent_as_zero, scratch_file):
        assert_same(lambda s: sv.ingest_mood(s, absent_as_zero),
                    lambda s: oracle_mood(s, absent_as_zero), text, scratch_file)

    @given(text=FRAME_DOCS)
    @settings(max_examples=250, deadline=None)
    def test_frame_csv(self, text, scratch_file):
        assert_same(sv.read_frame_csv, oracle_frame, text, scratch_file)

    @pytest.mark.parametrize("cell, message", [
        ("+3", None), ("03", None), (" 2 ", None),
        ("3_0", "line 2: depressed value 30 outside 0-3"),
        ("4", "line 2: depressed value 4 outside 0-3"),
        ("", "line 2: depressed must be an integer 0-3, got ''"),
    ])
    def test_mood_integer_spellings(self, cell, message):
        text = f"date,depressed,anxious,irritable,elevated\n2020-01-01,{cell},0,0,0\n"
        got = outcome(sv.ingest_mood, io.StringIO(text))
        assert got == outcome(oracle_mood, io.StringIO(text))
        assert got[0] == ("frame" if message is None else "error")
        if message is not None:
            assert got[1] == message

    @pytest.mark.parametrize("parse, oracle, text, message", [
        # a bad cell before a row of another width: the cell's line
        (sv.ingest_sleep, oracle_sleep, "date,score\n2020-01-01,abc\n2020-01-02,70,1\n",
         "line 2: sleep score must be an integer or empty, got 'abc'"),
        # a row of another width before a bad cell: the width error
        (sv.ingest_mood, oracle_mood,
         "date,depressed,anxious,irritable,elevated\n2020-01-01,0,0\n2020-01-02,9,0,0,0\n",
         "line 2: expected 5 fields, got 3"),
        (sv.read_frame_csv, oracle_frame, "date,a\n2020-01-01,1\n2020-01-02\n\n2020-13-01,2\n",
         "line 3: expected 2 fields, got 1"),
    ])
    def test_width_fault_order(self, parse, oracle, text, message):
        got = outcome(parse, io.StringIO(text))
        assert got == outcome(oracle, io.StringIO(text)) == ("error", message)

    @pytest.mark.parametrize("text, message", [
        ("date,a\n9999-12-31,1\n9999-12-30,2\n",
         "line 3: dates must be contiguous daily; no date follows 9999-12-31, got 9999-12-30"),
        ("date,a\n9999-12-30,1\n9999-12-31,2\n9999-12-31,3\n",
         "line 4: dates must be contiguous daily; no date follows 9999-12-31, got 9999-12-31"),
        ("date,a\n9999-12-30,1\n9999-12-31,2\n", None),
    ])
    def test_grid_ending_at_the_last_date(self, text, message):
        # no date follows date.max, so neither parser may compute one
        got = outcome(sv.read_frame_csv, io.StringIO(text))
        assert got == outcome(oracle_frame, io.StringIO(text))
        assert got[:2] == (("error", message) if message else ("frame", dt.date(9999, 12, 30)))

    def test_describe_past_the_last_date_exits_2(self, tmp_path, capsys):
        path = tmp_path / "f.csv"
        path.write_text("date,a\n9999-12-31,1\n9999-12-30,2\n")
        assert main(["describe", str(path)]) == 2
        err = capsys.readouterr().err
        assert "no date follows 9999-12-31" in err and "Traceback" not in err

    @pytest.mark.parametrize("date", ["20190201", "2019-02"])
    def test_dates_numpy_reads_otherwise(self, date):
        # date.fromisoformat takes the basic form and rejects a bare month;
        # the parsers follow it, not numpy's datetime64.
        text = f"date,score\n{date},70\n"
        assert outcome(sv.ingest_sleep, io.StringIO(text)) == outcome(oracle_sleep, io.StringIO(text))

    @pytest.mark.parametrize("text", ["", "\n", "\r\n", BOM, BOM + "\n", "date,score",
                                      "date,score\n", "date,score\n\n,\n \n"])
    @pytest.mark.parametrize("parse, oracle", [(sv.ingest_sleep, oracle_sleep),
                                               (sv.ingest_mood, oracle_mood),
                                               (sv.read_frame_csv, oracle_frame)])
    def test_documents_without_data(self, parse, oracle, text, tmp_path):
        path = tmp_path / "input.csv"
        path.write_bytes(text.encode("utf-8"))
        got = outcome(parse, path)
        assert got[0] == "error" and got == outcome(oracle, path)

    def test_bundled_and_written_files(self, tmp_path):
        for parse, oracle, path in ((sv.ingest_sleep, oracle_sleep, DATA_DIR / "sleep.csv"),
                                    (sv.ingest_mood, oracle_mood, DATA_DIR / "mood.csv")):
            assert outcome(parse, path) == outcome(oracle, path)
        frame = sv.impute(sv.merge([sv.ingest_sleep(DATA_DIR / "sleep.csv"),
                                    sv.ingest_mood(DATA_DIR / "mood.csv", absent_as_zero=False)]),
                          policy="none")
        sv.write_frame_csv(frame, tmp_path / "frame.csv")
        assert outcome(sv.read_frame_csv, tmp_path / "frame.csv") == outcome(
            oracle_frame, tmp_path / "frame.csv")


class TestFrameWriterMatchesRowLoop:
    @given(
        start=st.dates(dt.date(1, 1, 1), dt.date(9999, 12, 1)),
        cells=st.lists(st.lists(st.one_of(
            st.none(), st.integers(-150, 150), st.sampled_from([0.0, -0.0, 1e15, -1e15, 1e16]),
            st.floats(-1e20, 1e20, allow_nan=False)), min_size=2, max_size=2),
            min_size=1, max_size=30),
    )
    @settings(max_examples=200, deadline=None)
    def test_same_text(self, start, cells):
        frame = sv.SeriesFrame(start, ("a", "b"), np.array(
            [[np.nan if v is None else float(v) for v in row] for row in cells]))
        buf = io.StringIO()
        sv.write_frame_csv(frame, buf)
        assert buf.getvalue() == oracle_write(frame)


ODD_FLOATS = [0.0, -0.0, 1.0, -3.0, 0.1, 1 / 3, 1e-300, 5e-324, 1e15, 1e16, -1.5e300]
ODD_NAMES = ("a,b", 'c"d', "e\r\nf")


def irf_result(names, horizon=10, seed=0):
    gen = substream(seed, 0)
    shape = (horizon + 1, len(names), len(names))
    arrays = [gen.standard_normal(shape) * 10.0 ** gen.integers(-300, 300, shape) for _ in range(3)]
    arrays[0].flat[: len(ODD_FLOATS)] = ODD_FLOATS[: arrays[0].size]
    return sv.IrfResult(horizon=horizon, responses=arrays[0], lower=arrays[1], upper=arrays[2],
                        orthogonalized=True, level=0.95, replications=100, seed=seed,
                        var_names=tuple(names))


class TestReportWritersMatchRowLoop:
    @pytest.mark.parametrize("period", [6, 7])
    def test_decomposition(self, dataset_frame, period):
        series = [dataset_frame.column("score"), np.array(ODD_FLOATS * 2),
                  substream(period, 0).standard_normal(50) * 1e3]
        for y in series:
            dec = sv.classical_decompose(y, period)
            assert np.isnan(dec.trend[[0, -1]]).all()
            assert report.decomposition_csv(y, dec) == oracle_decomposition_csv(y, dec)

    def test_pacf(self, dataset_frame):
        res = sv.pacf(dataset_frame.column("score"), 40)
        assert report.pacf_csv(res) == oracle_pacf_csv(res)

    @pytest.mark.parametrize("names", [("score",), sv.MOOD_VARIABLES + ("score",)])
    def test_irf(self, names):
        res = irf_result(names, seed=len(names))
        assert report.irf_csv(res) == oracle_irf_csv(res)


class TestTextCellsQuoted:
    @given(st.lists(st.one_of(st.text(min_size=1), st.text(',"\r\n a', min_size=1)),
                    min_size=1, max_size=4))
    @settings(max_examples=200, deadline=None)
    def test_header_as_csv_writer_writes_it(self, header):
        buf = io.StringIO()
        csv.writer(buf).writerow(header)
        text = csv_text(header, [[] for _ in header])
        assert text == buf.getvalue()[: -len("\r\n")] + "\n"
        assert next(csv.reader(io.StringIO(text))) == header

    def test_simulate_round_trip_keeps_names(self, tmp_path, capsys):
        spec = {"var_names": list(ODD_NAMES), "p": 1, "intercept": [0, 0, 0],
                "coef": [np.diag([0.5, 0.2, -0.3]).tolist()], "sigma_u": np.eye(3).tolist()}
        (tmp_path / "s.json").write_text(json.dumps(spec))
        sim = tmp_path / "sim.csv"
        assert main(["simulate", "--spec", str(tmp_path / "s.json"), "--t", "3", "-o", str(sim)]) == 0
        assert sv.read_frame_csv(sim).names == ODD_NAMES
        assert main(["describe", str(sim)]) == 0

    def test_irf_rows_split_into_six_fields(self):
        rows = list(csv.reader(io.StringIO(report.irf_csv(irf_result(ODD_NAMES, horizon=2)))))
        assert len(rows) == 1 + 3 * 3 * 3
        assert all(len(row) == 6 for row in rows)
        assert [row[1:3] for row in rows[1:10]] == [[a, b] for a in ODD_NAMES for b in ODD_NAMES]


# --- The writer ------------------------------------------------------------------

def leftovers(directory):
    return sorted(p.name for p in directory.iterdir() if p.name.endswith(".tmp"))


@pytest.fixture
def fit(dataset_frame):
    return sv.fit_var(dataset_frame, 1)


class TestWriter:
    def test_rewrite_keeps_mode(self, tmp_path, fit, dataset_frame):
        model, frame_csv = tmp_path / "model.json", tmp_path / "frame.csv"
        model.write_text("old")
        frame_csv.write_text("old")
        model.chmod(0o640)
        frame_csv.chmod(0o604)
        sv.save_model(fit, model)
        sv.write_frame_csv(dataset_frame, frame_csv)
        assert stat.S_IMODE(model.stat().st_mode) == 0o640
        assert stat.S_IMODE(frame_csv.stat().st_mode) == 0o604
        assert sv.load_model(model).coef.tolist() == fit.coef.tolist()
        assert leftovers(tmp_path) == []

    def test_new_file_mode_follows_umask(self, tmp_path):
        old = os.umask(0o027)
        try:
            write_text(tmp_path / "new.txt", "x\n")
        finally:
            os.umask(old)
        assert stat.S_IMODE((tmp_path / "new.txt").stat().st_mode) == 0o640
        assert leftovers(tmp_path) == []

    def test_bytes_as_given(self, tmp_path):
        write_text(tmp_path / "t.txt", "a\r\nb\né")
        assert (tmp_path / "t.txt").read_bytes() == b"a\r\nb\n\xc3\xa9"

    def test_symlink_target_updated_in_place(self, tmp_path, fit):
        target, link = tmp_path / "target.json", tmp_path / "link.json"
        target.write_text("old")
        link.symlink_to(target)
        inode = target.stat().st_ino
        sv.save_model(fit, link)
        assert link.is_symlink()
        assert target.stat().st_ino == inode
        assert sv.load_model(target).p == 1
        assert leftovers(tmp_path) == []

    def test_hard_link_updated_in_place(self, tmp_path, dataset_frame):
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        first.write_text("old")
        os.link(first, second)
        sv.write_frame_csv(dataset_frame, first)
        assert first.stat().st_ino == second.stat().st_ino
        assert second.read_bytes() == first.read_bytes() != b"old"
        assert leftovers(tmp_path) == []

    def test_file_not_to_replace_written_in_place(self, tmp_path, dataset_frame):
        path = tmp_path / "frame.csv"
        path.write_text("old")
        if os.geteuid() == 0:
            # Another user's file, or another group's: a rename would make it ours.
            other = tmp_path / "other_group.csv"
            other.write_text("old")
            os.chown(path, 4321, -1)
            os.chown(other, -1, 4321)
            for p in (path, other):
                before = p.stat()
                sv.write_frame_csv(dataset_frame, p)
                after = p.stat()
                assert (after.st_ino, after.st_uid, after.st_gid) == (
                    before.st_ino, before.st_uid, before.st_gid)
                assert p.read_text().startswith("date,")
        else:
            # A file this process may not write: the open fails, as it always did.
            path.chmod(0o444)
            with pytest.raises(PermissionError):
                sv.write_frame_csv(dataset_frame, path)
            assert path.read_text() == "old"
        assert leftovers(tmp_path) == []

    def test_fifo_written_in_place(self, tmp_path):
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        got = []
        reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
        reader.start()
        write_text(fifo, "through the pipe\n")
        reader.join(timeout=30)
        assert not reader.is_alive()
        assert got == [b"through the pipe\n"]
        assert stat.S_ISFIFO(os.lstat(fifo).st_mode)

    def test_failed_replace_leaves_old_file(self, tmp_path, fit, monkeypatch):
        model = tmp_path / "model.json"
        model.write_text("old document\n")

        def refuse(src, dst):
            raise OSError("replace refused")

        monkeypatch.setattr("sleepvar._util.os.replace", refuse)
        with pytest.raises(OSError, match="replace refused"):
            sv.save_model(fit, model)
        assert model.read_bytes() == b"old document\n"
        assert leftovers(tmp_path) == []

    def test_file_object_written_directly(self, fit):
        buf = io.StringIO()
        sv.save_model(fit, buf)
        assert sv.load_model(io.StringIO(buf.getvalue())).coef.tolist() == fit.coef.tolist()

    def test_missing_directory_is_the_open_error(self, tmp_path, capsys):
        code = main(["ingest", "--oura", str(DATA_DIR / "sleep.csv"),
                     "-o", str(tmp_path / "no" / "such.csv")])
        err = capsys.readouterr().err
        assert code == 2 and "No such file or directory" in err

    def test_dash_output_goes_to_stdout(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        merged = tmp_path / "merged.csv"
        assert main(["ingest", "--oura", str(DATA_DIR / "sleep.csv"), "-o", str(merged)]) == 0
        capsys.readouterr()
        assert main(["describe", str(merged), "-o", "-"]) == 0
        assert capsys.readouterr().out.startswith("score\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["merged.csv"]

    def test_cli_rewrite_keeps_mode(self, tmp_path, capsys):
        out = tmp_path / "merged.csv"
        argv = ["ingest", "--oura", str(DATA_DIR / "sleep.csv"), "-o", str(out)]
        assert main(argv) == 0
        first = out.read_bytes()
        out.chmod(0o600)
        assert main(argv) == 0
        assert out.read_bytes() == first
        assert stat.S_IMODE(out.stat().st_mode) == 0o600
        assert leftovers(tmp_path) == []
