"""Panel CSV reader and writer against the per-cell oracle in csv_oracle.py:
same bytes written, bit-identical panels read, the same ParseError messages."""

import csv
import os
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import csv_oracle
from listfold import data
from listfold.data import FactorPanel, ParseError, generate_synthetic_panel, load_panel, save_panel

SPECIAL = [np.nan, 0.0, -0.0, np.inf, -np.inf, 5e-324, -2.2250738585072e-308, 1e-310,
           1.0000000000000002, 1e16, 1e-5]
FLOATS = st.one_of(st.sampled_from(SPECIAL), st.floats(allow_nan=True, allow_infinity=True))
# ids that csv.writer must quote (comma, quote, line break) next to plain ones
IDS = st.text(alphabet='AB,"\n\r é', min_size=1, max_size=4)
# 1, 2 and 3 cut every panel into several chunks, next to the real chunk size
CHUNKS = st.sampled_from([1, 2, 3, data._CHUNK_ROWS])


def outcome(load, path):
    """What loading path gives: the panel with its arrays as bit patterns, or
    the ParseError message."""
    try:
        p = load(path)
    except ParseError as exc:
        return ("ParseError", str(exc))
    return (p.dates, p.stocks, p.factor_names,
            p.factors.view(np.uint64).tolist(), p.fwd_return.view(np.uint64).tolist())


def same_as_oracle(path, chunk=data._CHUNK_ROWS):
    with mock.patch.object(data, "_CHUNK_ROWS", chunk):
        got = outcome(load_panel, path)
    assert got == outcome(csv_oracle.load_panel, path)
    return got


@st.composite
def panels(draw):
    weeks = draw(st.integers(1, 4))
    stocks = draw(st.lists(IDS, min_size=1, max_size=4, unique=True))
    n_f = draw(st.integers(1, 3))
    cells = draw(st.lists(FLOATS, min_size=weeks * len(stocks) * (1 + n_f),
                          max_size=weeks * len(stocks) * (1 + n_f)))
    values = np.array(cells).reshape(weeks, len(stocks), 1 + n_f)
    # whole (date, stock) rows missing, which the writer leaves out
    gone = draw(st.lists(st.booleans(), min_size=weeks * len(stocks),
                         max_size=weeks * len(stocks)))
    values[np.array(gone).reshape(weeks, len(stocks))] = np.nan
    dates = tuple(f"2020-01-{d + 1:02d}" for d in range(weeks))
    return FactorPanel(dates, tuple(stocks), tuple(f"f{k}" for k in range(n_f)),
                       values[..., 1:].copy(), values[..., 0].copy())


class TestAgainstOracle:
    @settings(max_examples=150, deadline=None)
    @given(panel=panels(), chunk=CHUNKS)
    def test_same_bytes_and_bit_identical_panel(self, tmp_path_factory, panel, chunk):
        root = tmp_path_factory.mktemp("rt")
        ours, theirs = root / "ours.csv", root / "theirs.csv"
        with mock.patch.object(data, "_CHUNK_ROWS", chunk):
            save_panel(panel, ours)
        csv_oracle.save_panel(panel, theirs)
        assert ours.read_bytes() == theirs.read_bytes()
        same_as_oracle(ours, chunk)

    # cells that float() and np.loadtxt read alike, read differently, or refuse
    TOKENS = ["1.5", "-0.0", "", "inf", "-nan", "5e-324", "1_0", "１", " 1.5 ", "Infinity",
              "nan(1)", "0x10", "x", "\x1c2", "2\x1f", "\xa02", "\t3\x0b", '"4"', '""', '"5',
              "\x00"]

    @settings(max_examples=300, deadline=None)
    @given(rows=st.lists(st.tuples(st.sampled_from(["d1", "d2", "d1,x", ""]),
                                   st.sampled_from(["A", "B", '"C,D"', "Eé"]),
                                   st.lists(st.sampled_from(TOKENS), min_size=0, max_size=4),
                                   st.sampled_from(["\n", "\r\n", "\r", "\n\n"])),
                         max_size=8),
           chunk=CHUNKS)
    def test_fuzzed_files_read_alike(self, tmp_path_factory, rows, chunk):
        # header of 4 fields: rows of 2..6 fields are short, exact or long
        text = "date,stock,fwd_ret,f1\n" + "".join(
            ",".join([d, s, *cells]) + end for d, s, cells, end in rows)
        path = tmp_path_factory.mktemp("fz") / "p.csv"
        path.write_bytes(text.encode())
        same_as_oracle(path, chunk)


def write(tmp_path, text):
    path = tmp_path / "p.csv"
    path.write_bytes(text.encode())
    return path


def body(n, bad=None, token="oops"):
    """n well-formed rows of one factor, the cell of row number bad replaced."""
    lines = [f"2020-01-{(r % 28) + 1:02d},S{r // 28},{r * 0.01!r},{r * 0.5!r}"
             for r in range(n)]
    if bad is not None:
        lines[bad - 2] = lines[bad - 2].rsplit(",", 1)[0] + "," + token
    return "date,stock,fwd_ret,alpha\n" + "\n".join(lines) + "\n"


class TestMalformedAsOracle:
    """Each file raises the oracle's exact ParseError, or gives its panel."""

    @pytest.mark.parametrize("bad", [2, 40])
    def test_bad_cell_in_first_chunk(self, tmp_path, bad):
        got = same_as_oracle(write(tmp_path, body(60, bad)))
        assert got == ("ParseError", f"row {bad}: column 'alpha': non-numeric value 'oops'")

    def test_bad_cell_after_the_first_chunk_names_the_absolute_row(self, tmp_path):
        row = data._CHUNK_ROWS + 700
        got = same_as_oracle(write(tmp_path, body(data._CHUNK_ROWS + 1000, row)))
        assert got == ("ParseError", f"row {row}: column 'alpha': non-numeric value 'oops'")

    def test_short_row(self, tmp_path):
        text = body(10).replace("\n2020-01-05,S0,0.04,2.0\n", "\n2020-01-05,S0,0.04\n")
        assert same_as_oracle(write(tmp_path, text)) == (
            "ParseError", "row 6: 3 fields, the header has 4")

    def test_duplicate_key(self, tmp_path):
        text = body(10) + "2020-01-03,S0,0.5,0.5\n"
        assert same_as_oracle(write(tmp_path, text)) == (
            "ParseError", "row 12: duplicate (date, stock) = ('2020-01-03', 'S0')")

    @pytest.mark.parametrize("chunk", [1, 4, data._CHUNK_ROWS])
    def test_first_error_in_row_order_wins(self, tmp_path, chunk):
        # a duplicate at row 12 beats a bad cell at row 13 and a short row at
        # row 14; in its own row a duplicate beats a bad cell
        text = body(10) + "2020-01-03,S0,0.5,0.5\n2020-02-01,S9,1,x\n2020-02-02,S9\n"
        assert same_as_oracle(write(tmp_path, text), chunk)[1].startswith("row 12: duplicate")
        text = body(10) + "2020-02-01,S9,1,x\n2020-01-03,S0,0.5,0.5\n"
        assert same_as_oracle(write(tmp_path, text), chunk)[1].startswith("row 12: column")
        text = body(10) + "2020-01-03,S0,0.5,x\n"
        assert same_as_oracle(write(tmp_path, text), chunk)[1].startswith("row 12: duplicate")

    @pytest.mark.parametrize("text, message", [
        ("", "empty file"),
        ("date,stock,fwd_ret\n2020-01-03,S0,0.1\n", "no factor columns found"),
    ])
    def test_file_without_factor_columns(self, tmp_path, text, message):
        path = write(tmp_path, text)
        assert same_as_oracle(path) == ("ParseError", f"{path}: {message}")

    def test_blank_lines_are_skipped_and_counted(self, tmp_path):
        text = body(5).replace("\n", "\n\n", 3) + "\n\n2020-02-01,S9,1,x\n"
        got = same_as_oracle(write(tmp_path, text))
        assert got == ("ParseError", "row 12: column 'alpha': non-numeric value 'x'")
        same_as_oracle(write(tmp_path, body(5).replace("\n", "\n\n")))

    def test_crlf_endings(self, tmp_path):
        assert same_as_oracle(write(tmp_path, body(30).replace("\n", "\r\n")))[0] != "ParseError"

    def test_rows_longer_than_the_header(self, tmp_path):
        text = body(8).replace("\n", ",7,,z\n").replace("alpha,7,,z", "alpha", 1)
        assert same_as_oracle(write(tmp_path, text))[0] != "ParseError"

    def test_required_columns_in_any_position(self, tmp_path):
        text = "alpha,fwd_ret,beta,stock,date\n" + "".join(
            f"{k * 0.5!r},{k * 0.01!r},{-k!r},S{k % 3},2020-01-0{k // 3 + 1}\n"
            for k in range(9))
        got = same_as_oracle(write(tmp_path, text))
        assert got[:3] == (("2020-01-01", "2020-01-02", "2020-01-03"), ("S0", "S1", "S2"),
                           ("alpha", "beta"))
        bad = text + "x,0.5,1,S9,2020-01-09\n"
        assert same_as_oracle(write(tmp_path, bad)) == (
            "ParseError", "row 11: column 'alpha': non-numeric value 'x'")

    @pytest.mark.parametrize("token, value", [("1_0", 10.0), ("１", 1.0),
                                              (" 1.5 ", 1.5), ("Infinity", np.inf)])
    def test_tokens_python_float_accepts(self, tmp_path, token, value):
        got = same_as_oracle(write(tmp_path, body(20, 15, token)))
        assert np.array(got[3], dtype=np.uint64).view(float)[13, 0, 0] == value

    @pytest.mark.parametrize("token", ["nan(1)", "0x10", "\x1c1.5"])
    def test_tokens_python_float_refuses(self, tmp_path, token):
        assert same_as_oracle(write(tmp_path, body(20, 15, token))) == (
            "ParseError", f"row 15: column 'alpha': non-numeric value {token!r}")

    def test_gaps_read_as_nan_without_the_per_cell_path(self, tmp_path, monkeypatch):
        text = body(6).replace(",0.5\n", ",\n").replace(",0.02,", ",,")
        monkeypatch.setattr(data, "_parse_cells", lambda *a: pytest.fail("per-cell path"))
        panel = load_panel(write(tmp_path, text))
        assert np.isnan(panel.factors[1, 0, 0]) and np.isnan(panel.fwd_return[2, 0])
        monkeypatch.undo()
        same_as_oracle(write(tmp_path, text))


def edge_rows(chunk):
    """Rows of the chunk-edge files: three small chunks, or one full and a bit."""
    return 3 * chunk if chunk < data._CHUNK_ROWS else chunk + 6


def edge_body(chunk, defect):
    """A file of edge_rows(chunk) rows whose one defect sits in the last
    row of a chunk: the second chunk's if it is full, else the first's."""
    last = 2 * chunk - 1 if chunk < data._CHUNK_ROWS else chunk - 1
    lines = body(edge_rows(chunk)).splitlines()
    fields = lines[last + 1].split(",")
    lines[last + 1] = {
        "empty cell": ",".join(fields[:-1]) + ",",
        "short row": ",".join(fields[:-1]),
        "blank line": "",
        "1_0 cell": ",".join(fields[:-1]) + ",1_0",
        "quoted stock": ",".join([fields[0], f'"{fields[1]}"', *fields[2:]]),
    }[defect]
    return "\n".join(lines) + "\n"


class TestChunkEdges:
    """A defect in the last row of a chunk reads as the oracle reads it, and
    a chunk without quotes costs one np.loadtxt call, or two with gaps."""

    @pytest.mark.parametrize("chunk", [1, 4, data._CHUNK_ROWS])
    @pytest.mark.parametrize("defect", ["empty cell", "short row", "blank line", "1_0 cell",
                                        "quoted stock"])
    def test_defect_in_the_last_row_of_a_chunk(self, tmp_path, chunk, defect):
        got = same_as_oracle(write(tmp_path, edge_body(chunk, defect)), chunk)
        row = 2 * chunk + 1 if chunk < data._CHUNK_ROWS else chunk + 1
        if defect == "short row":
            assert got == ("ParseError", f"row {row}: 3 fields, the header has 4")
        else:
            assert got[0] != "ParseError"

    def loadtxt_calls(self, path, chunk, monkeypatch):
        spy = mock.Mock(wraps=np.loadtxt)
        monkeypatch.setattr(np, "loadtxt", spy)
        monkeypatch.setattr(data, "_parse_cells", lambda *a: pytest.fail("per-cell path"))
        with mock.patch.object(data, "_CHUNK_ROWS", chunk):
            load_panel(path)
        monkeypatch.undo()
        same_as_oracle(path, chunk)
        return spy.call_count

    @pytest.mark.parametrize("chunk", [1, 4, data._CHUNK_ROWS])
    def test_clean_chunk_is_one_loadtxt_call(self, tmp_path, chunk, monkeypatch):
        path = write(tmp_path, body(edge_rows(chunk)))
        assert self.loadtxt_calls(path, chunk, monkeypatch) == -(-edge_rows(chunk) // chunk)

    @pytest.mark.parametrize("chunk", [1, 4, data._CHUNK_ROWS])
    def test_chunk_with_gaps_is_at_most_two_loadtxt_calls(self, tmp_path, chunk, monkeypatch):
        path = write(tmp_path, edge_body(chunk, "empty cell"))
        # one gappy chunk among -(-rows // chunk)
        assert self.loadtxt_calls(path, chunk, monkeypatch) <= -(-edge_rows(chunk) // chunk) + 1


# cells of the short-row test: fine, empty, or refused by both readers
ROW_CELLS = st.sampled_from(["0.5", "-2e3", "", "inf", "x"])


@st.composite
def short_row_files(draw):
    """A header whose last column is the date or the stock, and rows with
    one or two trailing fields missing, one extra, or the header's count."""
    last = draw(st.sampled_from(["date", "stock"]))
    rest = ["date", "stock", "fwd_ret", *[f"f{k}" for k in range(draw(st.integers(1, 2)))]]
    rest.remove(last)
    header = [*draw(st.permutations(rest)), last]
    lines = [",".join(header)]
    for _ in range(draw(st.integers(1, 8))):
        cells = {"date": draw(st.sampled_from(["d1", "d2", "d3"])),
                 "stock": draw(st.sampled_from(["A", "B", "C", "D"]))}
        fields = [cells.get(name) or draw(ROW_CELLS) for name in header]
        extra = draw(st.sampled_from([-2, -1, 0, 0, 1]))
        fields = fields[:len(fields) + extra] if extra < 0 else fields + ["7"] * extra
        lines.append(",".join(fields))
    return "\n".join(lines) + "\n"


class TestShortRows:
    @settings(max_examples=200, deadline=None)
    @given(text=short_row_files(), chunk=CHUNKS)
    def test_short_and_long_rows_read_as_the_oracle(self, tmp_path_factory, text, chunk):
        path = tmp_path_factory.mktemp("sr") / "p.csv"
        path.write_bytes(text.encode())
        same_as_oracle(path, chunk)


class TestEncoding:
    def test_not_utf8_names_file_and_row(self, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes(body(30).replace(",S1,", ",Sé,", 1).encode("latin-1"))
        with pytest.raises(ParseError) as info:
            load_panel(path)
        assert str(info.value) == f"{path}: row 30: not UTF-8 (invalid continuation byte)"

    def test_byte_order_mark_before_the_header(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbf" + body(30).encode())
        plain = write(tmp_path, body(30))
        assert outcome(load_panel, path) == outcome(load_panel, plain)


class TestFieldSizeLimit:
    """A quoted field over the csv module's field size limit is a ParseError
    naming the file and the row, not the csv module's own error."""

    BIG = "S" * 140001

    def with_id(self, tmp_path, stock, row=6):
        lines = body(30).splitlines()
        fields = lines[row - 1].split(",")
        lines[row - 1] = ",".join([fields[0], stock, *fields[2:]])
        return write(tmp_path, "\n".join(lines) + "\n")

    @pytest.mark.parametrize("chunk", [1, 3, data._CHUNK_ROWS])
    def test_quoted_field_over_the_limit(self, tmp_path, chunk):
        path = self.with_id(tmp_path, f'"{self.BIG}"')
        with mock.patch.object(data, "_CHUNK_ROWS", chunk), pytest.raises(ParseError) as info:
            load_panel(path)
        assert str(info.value) == f"{path}: row 6: field larger than field limit (131072)"
        assert csv.field_size_limit() == 131072

    def test_same_field_unquoted_loads(self, tmp_path):
        panel = load_panel(self.with_id(tmp_path, self.BIG))
        assert self.BIG in panel.stocks

    def test_same_field_unquoted_loads_in_a_chunk_read_cell_by_cell(self, tmp_path):
        # np.loadtxt refuses 1_0, so the chunk goes through _parse_cells
        text = self.with_id(tmp_path, self.BIG).read_text().replace(",0.5\n", ",1_0\n", 1)
        panel = load_panel(write(tmp_path, text))
        assert self.BIG in panel.stocks and 10.0 in panel.factors

    def test_header_field_over_the_limit(self, tmp_path):
        path = write(tmp_path, body(3).replace("alpha", f'"{self.BIG}"', 1))
        with pytest.raises(ParseError) as info:
            load_panel(path)
        assert str(info.value) == f"{path}: row 1: field larger than field limit (131072)"

    def test_earlier_duplicate_is_reported_first(self, tmp_path):
        lines = body(30).splitlines()
        lines[4] = lines[3]  # row 5 repeats row 4
        fields = lines[6].split(",")
        lines[6] = ",".join([fields[0], f'"{self.BIG}"', *fields[2:]])
        path = write(tmp_path, "\n".join(lines) + "\n")
        with pytest.raises(ParseError, match=r"^row 5: duplicate \(date, stock\)"):
            load_panel(path)


class TestMemory:
    def test_load_holds_less_than_the_per_row_dict(self, tmp_path):
        # tables-book panel: the parent reader's per-row dict of float lists
        # peaked at 21.5 MB above the returned arrays; this reader at 6.3 MB
        panel = generate_synthetic_panel(7, weeks=104, stocks=80, factors=68,
                                         signal_strength=0.8, noise_scale=0.5)
        path = tmp_path / "tb.csv"
        save_panel(panel, path)
        tracemalloc.start()
        try:
            back = load_panel(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - back.factors.nbytes - back.fwd_return.nbytes < 10e6

    def test_save_peak_does_not_grow_with_rows(self, tmp_path):
        peaks = []
        for weeks in (64, 256):
            panel = generate_synthetic_panel(1, weeks=weeks, stocks=80, factors=2,
                                             signal_strength=0.5)
            tracemalloc.start()
            try:
                save_panel(panel, tmp_path / "s.csv")
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 1.05 * peaks[0]


def saved_lines(tmp_path, weeks, stocks, factors=3):
    """The header and the data lines of a complete panel as save_panel
    writes it: every (date, stock) once, in (date, stock) order."""
    path = tmp_path / "saved.csv"
    save_panel(generate_synthetic_panel(3, weeks=weeks, stocks=stocks, factors=factors,
                                        signal_strength=0.5), path)
    header, *lines = path.read_text().splitlines(keepends=True)
    return header, lines


def no_scatter(monkeypatch):
    """Fail the test if load_panel builds a NaN-filled panel to scatter into."""
    full = np.full
    monkeypatch.setattr(np, "full", lambda shape, fill, *a, **k: pytest.fail("scattered")
                        if np.isnan(fill) else full(shape, fill, *a, **k))


class TestRowBuffers:
    """A complete file in (date, stock) order loads into the row buffers
    themselves; any other order, missing rows and a first chunk that
    undersizes the buffers read as the oracle reads them."""

    @pytest.mark.parametrize("chunk", [1, 4, data._CHUNK_ROWS])
    def test_file_in_panel_order_is_not_scattered(self, tmp_path, chunk, monkeypatch):
        header, lines = saved_lines(tmp_path, weeks=30, stocks=50)
        path = write(tmp_path, header + "".join(lines))
        no_scatter(monkeypatch)
        with mock.patch.object(data, "_CHUNK_ROWS", chunk):
            panel = load_panel(path)
        monkeypatch.undo()
        assert panel.factors.flags.c_contiguous and panel.fwd_return.flags.c_contiguous
        same_as_oracle(path, chunk)

    @pytest.mark.parametrize("chunk", [1, 4, data._CHUNK_ROWS])
    def test_shuffled_rows(self, tmp_path, chunk):
        header, lines = saved_lines(tmp_path, weeks=30, stocks=50)
        np.random.default_rng(chunk).shuffle(lines)
        got = same_as_oracle(write(tmp_path, header + "".join(lines)), chunk)
        assert len(got[0]) == 30 and len(got[1]) == 50

    @pytest.mark.parametrize("chunk", [1, 4, data._CHUNK_ROWS])
    @pytest.mark.parametrize("gone", [[0], [7, 8, 1499], list(range(50, 100))],
                             ids=["first", "scattered", "a-week"])
    def test_missing_rows(self, tmp_path, chunk, gone):
        header, lines = saved_lines(tmp_path, weeks=30, stocks=50)
        kept = [line for i, line in enumerate(lines) if i not in gone]
        got = same_as_oracle(write(tmp_path, header + "".join(kept)), chunk)
        assert np.isnan(np.array(got[4], dtype=np.uint64).view(float)).sum() == (
            len(gone) if len(gone) < 50 else 0)

    def grown(self, path, chunk):
        """Whether loading path sized its buffers more than once."""
        spy = mock.Mock(wraps=data._capacity)
        with mock.patch.object(data, "_capacity", spy), \
                mock.patch.object(data, "_CHUNK_ROWS", chunk):
            load_panel(path)
        return spy.call_count > 1

    @pytest.mark.parametrize("chunk", [1, 4, data._CHUNK_ROWS])
    def test_long_first_chunk_grows_the_buffers(self, tmp_path, chunk):
        # rows in (stock, date) order; the first 35 stocks' ids are 500
        # characters long, so the first chunk's mean line length sizes
        # the buffers for about 1110 of the 1500 rows
        header, lines = saved_lines(tmp_path, weeks=30, stocks=50)
        rows = sorted((line.split(",", 2) for line in lines), key=lambda row: row[1])
        path = write(tmp_path, header + "".join(
            ",".join([date, "L" * 500 + stock if stock < "S0035" else stock, rest])
            for date, stock, rest in rows))
        assert self.grown(path, chunk)
        same_as_oracle(path, chunk)

    @pytest.mark.parametrize("chunk", [1, 4, data._CHUNK_ROWS])
    def test_long_first_chunk_in_panel_order(self, tmp_path, chunk, monkeypatch):
        # the first 21 weeks' cells are 17-digit floats, the rest 1.0
        header, lines = saved_lines(tmp_path, weeks=30, stocks=50)
        lines[21 * 50:] = [",".join([*line.split(",")[:2], "1.0", "1.0", "1.0", "1.0"]) + "\n"
                           for line in lines[21 * 50:]]
        path = write(tmp_path, header + "".join(lines))
        no_scatter(monkeypatch)
        assert self.grown(path, chunk)
        monkeypatch.undo()
        same_as_oracle(path, chunk)

    def test_blank_lines_first_do_not_oversize_the_buffers(self, tmp_path, monkeypatch):
        # a first chunk of one-character lines would size them for a row a byte
        header, lines = saved_lines(tmp_path, weeks=30, stocks=50)
        path = write(tmp_path, header + "\n" * 1500 + "".join(lines))
        capacity, caps = data._capacity, []
        monkeypatch.setattr(data, "_capacity", lambda *a: caps.append(capacity(*a)) or caps[-1])
        load_panel(path)
        monkeypatch.undo()
        fields = len(header.split(","))
        assert max(caps) <= path.stat().st_size // fields * 65 // 64
        same_as_oracle(path)

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
    def test_pipe_of_unknown_size(self, tmp_path):
        header, lines = saved_lines(tmp_path, weeks=30, stocks=50)
        text = header + "".join(lines)
        fifo = tmp_path / "pipe.csv"
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_text, args=(text,))
        writer.start()
        try:
            got = outcome(load_panel, fifo)
        finally:
            writer.join()
        assert got == outcome(load_panel, write(tmp_path, text))

    def test_load_peak_under_2_1_panels(self, tmp_path):
        # tables-book panel in save_panel's order: the reader that kept
        # every chunk's block and concatenated them before scattering
        # peaked at 2.36 times the panel's bytes; this one at about 1.9
        panel = generate_synthetic_panel(7, weeks=104, stocks=80, factors=68,
                                         signal_strength=0.8, noise_scale=0.5)
        path = tmp_path / "tb.csv"
        save_panel(panel, path)
        del panel
        tracemalloc.start()
        try:
            back = load_panel(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.1 * (back.factors.nbytes + back.fwd_return.nbytes)
