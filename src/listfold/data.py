"""Factor panels: CSV ingestion, window plans, min-max normalization, rank
labels, and a synthetic panel generator.

On-disk format is a flat CSV, one row per (date, stock):

    date,stock,fwd_ret,<factor_1>,...,<factor_F>

Every column other than date, stock and fwd_ret is a factor. A missing
cell is NaN in the panel; a week that a ranked list is built from must
have none, and no infinite factor cell.

Dates are ISO-8601 (YYYY-MM-DD) week identifiers, missing cells are empty
strings, decimal point is ``.``, encoding UTF-8. ``save_panel`` writes the
same schema, and floats round-trip bit identically through ``repr``.
"""

from __future__ import annotations

import bisect
import contextlib
import csv
import io
import itertools
import os
from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "DataError",
    "ParseError",
    "FactorPanel",
    "RankedBatch",
    "WindowPlan",
    "load_panel",
    "save_panel",
    "fit_norm_params",
    "apply_norm_params",
    "minmax_normalize",
    "decile_labels",
    "rolling_windows",
    "build_ranked_batch",
    "ranked_train_weeks",
    "generate_synthetic_panel",
    "planted_coefficients",
]


class DataError(Exception):
    """Base class for data-layer failures."""


class ParseError(DataError):
    pass


@dataclass(frozen=True)
class FactorPanel:
    """A date x stock x factor tensor with one-period-ahead returns.

    Missing cells are NaN. Panels are immutable after construction; all
    transformations return new panels.
    """

    dates: tuple[str, ...]
    stocks: tuple[str, ...]
    factor_names: tuple[str, ...]
    factors: np.ndarray  # (n_dates, n_stocks, n_factors)
    fwd_return: np.ndarray  # (n_dates, n_stocks)

    def __post_init__(self):
        if len(self.dates) != len(set(self.dates)):
            raise DataError("duplicate dates in panel")
        if len(self.stocks) != len(set(self.stocks)):
            raise DataError("duplicate stock ids in panel")
        if list(self.dates) != sorted(self.dates):
            raise DataError("dates must be strictly increasing")
        d, s, f = len(self.dates), len(self.stocks), len(self.factor_names)
        if self.factors.shape != (d, s, f):
            raise DataError(f"factors shape {self.factors.shape} != {(d, s, f)}")
        if self.fwd_return.shape != (d, s):
            raise DataError(f"fwd_return shape {self.fwd_return.shape} != {(d, s)}")
        object.__setattr__(self, "_date_index", {dt: i for i, dt in enumerate(self.dates)})

    @property
    def n_weeks(self) -> int:
        return len(self.dates)

    @property
    def n_stocks(self) -> int:
        return len(self.stocks)

    @property
    def n_factors(self) -> int:
        return len(self.factor_names)

    def week_index(self, date: str) -> int:
        try:
            return self._date_index[date]
        except KeyError:
            raise DataError(f"unknown week: {date}") from None

    def week_features(self, date: str) -> np.ndarray:
        return self.factors[self.week_index(date)]

    def check_factor_cells(self, start: int, stop: int) -> None:
        """Raise DataError naming the week, factor and stock of the first
        missing or infinite factor cell in weeks [start, stop): a scored
        week needs every stock's factors, and so does a training week."""
        block = self.factors[start:stop]
        if not np.all(np.isfinite(block)):
            week, stock, factor = np.argwhere(~np.isfinite(block))[0]
            kind = "missing" if np.isnan(block[week, stock, factor]) else "infinite"
            raise DataError(f"week {self.dates[start + week]}: {kind} factor "
                            f"{self.factor_names[factor]} for stock {self.stocks[stock]}")

    def check_returns(self, start: int, stop: int) -> None:
        """Raise DataError naming the week and stock of the first missing or
        infinite forward return in weeks [start, stop): a training week
        ranks every stock by its return, and so do a test week's metrics."""
        block = self.fwd_return[start:stop]
        if not np.all(np.isfinite(block)):
            week, stock = np.argwhere(~np.isfinite(block))[0]
            kind = "missing" if np.isnan(block[week, stock]) else "infinite"
            raise DataError(f"week {self.dates[start + week]}: {kind} forward return "
                            f"for stock {self.stocks[stock]}")

    def week_returns(self, date: str) -> np.ndarray:
        return self.fwd_return[self.week_index(date)]

    def slice_weeks(self, start: int, stop: int) -> "FactorPanel":
        return FactorPanel(
            dates=self.dates[start:stop],
            stocks=self.stocks,
            factor_names=self.factor_names,
            factors=self.factors[start:stop],
            fwd_return=self.fwd_return[start:stop],
        )


@dataclass(frozen=True)
class RankedBatch:
    """One cross-section ordered by realized return.

    truth_order maps rank position -> row index, position 0 being the
    highest realized return.
    """

    features: np.ndarray  # (list_length, n_factors)
    truth_order: np.ndarray  # (list_length,) int
    returns: np.ndarray  # (list_length,)

    def __post_init__(self):
        order = np.asarray(self.truth_order)
        n = self.returns.size
        if not np.array_equal(np.sort(order), np.arange(n)):
            raise DataError("truth_order must be a bijection on 0..n-1")
        ranked = self.returns[order]
        if np.any(np.diff(ranked) > 0):
            raise DataError("returns must be non-increasing along truth_order")

    @property
    def list_length(self) -> int:
        return self.returns.size


@dataclass(frozen=True)
class WindowPlan:
    """Half-open week-index intervals for one train/test split: a non-empty
    train range and the test range that starts where it ends."""

    train_range: tuple[int, int]
    test_range: tuple[int, int]

    def __post_init__(self):
        if self.train_range[1] <= self.train_range[0]:
            raise DataError("empty train range")
        if self.test_range[0] != self.train_range[1]:
            raise DataError("test range must immediately follow train range")

    @property
    def train_len(self) -> int:
        return self.train_range[1] - self.train_range[0]

    @property
    def test_len(self) -> int:
        return self.test_range[1] - self.test_range[0]


# Rows per chunk, read or written: a load holds one chunk's lines and
# parsed block beside its row buffers (see load_panel), a save one
# chunk's text.
_CHUNK_ROWS = 1024
# np.loadtxt splits at every comma, so it cannot take csv quoting; and it
# strips "\x1c".."\x1f" around a number, which Python's float rejects. A
# chunk holding any of these characters is parsed cell by cell.
_PER_CELL_CHARS = '"\x1c\x1d\x1e\x1f'


def _parse_cell(text: str, row_num: int, col: str) -> float:
    if text == "":
        return np.nan
    try:
        return float(text)
    except ValueError:
        raise ParseError(f"row {row_num}: column {col!r}: non-numeric value {text!r}") from None


def _parse_cells(records, rows, cols, names):
    """Columns cols of each record, one _parse_cell per cell. Returns the
    (records, cols) values and None, or on the first bad cell the values,
    set for the records before it only, and (its row number, the
    ParseError)."""
    out = np.empty((len(records), len(cols)))
    for n, (rec, row) in enumerate(zip(records, rows)):
        try:
            out[n] = [_parse_cell(rec[j], row, name) for j, name in zip(cols, names)]
        except ParseError as exc:
            return out, (row, exc)
    return out, None


def _fill_gaps(line: str) -> str:
    """The line with "nan" in every empty field, which np.loadtxt refuses."""
    line = line.replace(",,", ",nan,").replace(",,", ",nan,")
    if line[0] == ",":
        line = "nan" + line
    if line[-1] == ",":
        line += "nan"
    return line


def _loadtxt(lines, cols):
    return np.loadtxt(lines, delimiter=",", comments=None, usecols=cols, ndmin=2)


def _parse_lines(lines, di, si, cols):
    """The (date, stock) of each comma-separated line without csv quoting
    and the (len(lines), len(cols)) float values of columns cols, or None
    if a line has too few fields to hold its date and stock (a blank line
    has one) or np.loadtxt refuses a cell even with the gaps filled.

    Each line's split is dropped once its date and stock are taken, so
    none of it is held while np.loadtxt runs. The values are one
    np.loadtxt call, or a second with _fill_gaps on every line when the
    first refuses. No line's fields are counted: a row shorter than the
    header lacks the header's last column, which is the date or the
    stock, or a column of cols that np.loadtxt finds missing.
    """
    last = max(di, si)
    try:
        keys = [(f[di], f[si]) for f in (line.rstrip("\r\n").split(",", last + 1)
                                         for line in lines)]
    except IndexError:
        return None
    try:
        values = _loadtxt(lines, cols)
    except ValueError:
        try:
            values = _loadtxt([_fill_gaps(line.rstrip("\r\n")) for line in lines], cols)
        except ValueError:
            return None
    return keys, values


def _needs_csv(lines) -> bool:
    """Whether the lines hold a _PER_CELL_CHARS character."""
    text = "".join(lines)
    return any(c in text for c in _PER_CELL_CHARS)


def _csv_records(lines, source):
    """The csv records of lines; a quoted field open at the last line takes
    the rest of its record from the line iterator source."""
    reader = csv.reader(itertools.chain(lines, source))
    while reader.line_num < len(lines):
        yield next(reader)


def _split_records(lines):
    """The records of lines that hold no quote, as _csv_records gives them
    but without the csv module's field size limit."""
    for line in lines:
        line = line.rstrip("\r\n")
        yield line.split(",") if line else []


def _capacity(need: int, chars: int, size: int, fields: int) -> int:
    """Rows to make room for once need lines have been read in chars
    characters of a size-byte file whose rows have fields fields: the
    lines the file holds at that mean line length, but no more rows than
    fit at one comma or line end per field, with 1/64 to spare; or twice
    need when the size is unknown (0, as for a pipe)."""
    if not size:
        return 2 * need
    guess = min(need * size // chars, size // fields)
    return max(need, guess + guess // 64)


class _Rows:
    """The data rows read so far, each value held once: rows [0, n) of a
    (cap, F) factor buffer, a (cap,) fwd_ret buffer and a (cap, 2) buffer
    of date and stock codes. Codes number the dates, and the stocks, in
    the order first seen. blanks holds n at each blank record skipped."""

    def __init__(self, n_factors: int):
        self.factors = np.empty((0, n_factors))
        self.fwd = np.empty(0)
        self.codes = np.empty((0, 2), np.intp)
        self.dates: dict[str, int] = {}
        self.stocks: dict[str, int] = {}
        self.blanks: list[int] = []
        self.n = 0

    def reserve(self, need: int, chars: int, size: int, fields: int) -> None:
        """Room for need rows, sized by _capacity if there is none."""
        if need <= self.fwd.size:
            return
        cap = _capacity(need, chars, size, fields)
        if self.n == 0:
            # fresh pages: none is touched before its row is written
            self.factors = np.empty((cap, self.factors.shape[1]))
            self.fwd = np.empty(cap)
            self.codes = np.empty((cap, 2), np.intp)
        else:
            self.resize(cap)

    def resize(self, cap: int) -> None:
        """Resize the buffers to cap rows by realloc, which copies the
        rows kept only if it has to move them. No view of a buffer may
        be alive."""
        for buf in (self.factors, self.fwd, self.codes):
            buf.resize((cap, *buf.shape[1:]), refcheck=False)

    def add(self, keys, block) -> None:
        """Append rows: their (date, stock) keys and their values, fwd_ret
        first and then the factors."""
        if not keys:
            return
        end = self.n + len(keys)
        dates, stocks = self.dates, self.stocks
        self.codes[self.n:end, 0] = [dates.setdefault(d, len(dates)) for d, _ in keys]
        self.codes[self.n:end, 1] = [stocks.setdefault(s, len(stocks)) for _, s in keys]
        self.fwd[self.n:end] = block[:, 0]
        self.factors[self.n:end] = block[:, 1:]
        self.n = end

    def grid(self):
        """The sorted distinct dates and stocks, and each row's key: its
        index date * n_stocks + stock in the flattened (date, stock) grid."""
        date_ids, stock_ids = sorted(self.dates), sorted(self.stocks)
        codes = self.codes[:self.n]
        key = (_ranks(self.dates, date_ids)[codes[:, 0]] * len(stock_ids)
               + _ranks(self.stocks, stock_ids)[codes[:, 1]])
        return date_ids, stock_ids, key

    def row_number(self, i: int) -> int:
        """The file row of data row i, the header being row 1."""
        return i + 2 + bisect.bisect_right(self.blanks, i)


def _read_rows(path, source, size, header, di, si, cols, names):
    """Read the data rows from the line iterator source of the size-byte
    file path (0 if unknown), which has passed the header, in chunks of
    _CHUNK_ROWS lines.

    Returns the _Rows read and the first short row, bad cell or csv module
    error as (row number, ParseError), or None; reading stops at that row.
    The buffers are sized by the first chunk's mean line length and grow
    only when that estimate falls short. Values and errors are those of
    _parse_cell on every cell: a chunk is read by _parse_lines unless it
    holds a _PER_CELL_CHARS character or _parse_lines gives None, and then
    record by record with _parse_cells, the records of _csv_records or,
    with no _PER_CELL_CHARS character, of _split_records.
    """
    rows = _Rows(len(cols) - 1)
    chars = 0
    error = None
    row = 1
    while error is None:
        lines = list(itertools.islice(source, _CHUNK_ROWS))
        if not lines:
            break
        chars += sum(map(len, lines))
        rows.reserve(rows.n + len(lines), chars, size, len(header))
        needs_csv = _needs_csv(lines)
        parsed = None if needs_csv else _parse_lines(lines, di, si, cols)
        if parsed is not None:
            rows.add(*parsed)
            row += len(lines)
            continue
        records = _csv_records(lines, source) if needs_csv else _split_records(lines)
        kept, kept_rows = [], []
        try:
            for rec in records:
                row += 1
                if not rec:
                    rows.blanks.append(rows.n + len(kept))
                    continue
                if len(rec) < len(header):
                    error = (row, _short_row(row, len(rec), len(header)))
                    break
                kept.append(rec)
                kept_rows.append(row)
        except csv.Error as exc:
            error = (row + 1, ParseError(f"{path}: row {row + 1}: {exc}"))
        block, bad = _parse_cells(kept, kept_rows, cols, names)
        # the rows from a bad cell's on keep their keys, so that a duplicate
        # (date, stock) in or before its row is still the error reported
        rows.add([(rec[di], rec[si]) for rec in kept], block)
        if bad is not None:
            error = bad  # it precedes the short row, if the chunk has one
    return rows, error


def _short_row(row: int, n_fields: int, n_header: int) -> ParseError:
    return ParseError(f"row {row}: {n_fields} fields, the header has {n_header}")


def _decoded_lines(fh, path):
    """The lines of the text file fh; bytes that are not UTF-8 raise
    ParseError naming the first line (the header is row 1) that holds some.
    The decoder reads ahead of the lines, so that line is found by decoding
    the file's lines one by one: no UTF-8 sequence spans a line break."""
    try:
        yield from fh
    except UnicodeDecodeError as exc:
        with open(path, "rb") as raw:
            row = next(row for row, line in enumerate(raw, start=1)
                       if not _is_utf8(line))
        raise ParseError(f"{path}: row {row}: not UTF-8 ({exc.reason})") from None


def _is_utf8(line: bytes) -> bool:
    try:
        line.decode("utf-8")
    except UnicodeDecodeError:
        return False
    return True


def _ranks(codes: dict[str, int], ids: list[str]) -> np.ndarray:
    """The position in the sorted ids of each code's name."""
    rank = np.empty(len(ids), np.intp)
    rank[[codes[name] for name in ids]] = np.arange(len(ids))
    return rank


def load_panel(path) -> FactorPanel:
    """Read a CSV into a FactorPanel, grouping rows into weekly cross-sections.

    The date, stock and fwd_ret columns may sit anywhere in the header;
    every other column is a factor. A header that names a column twice
    raises ParseError naming the column. Duplicate (date, stock) rows,
    rows with fewer fields than the header, non-numeric cells, non-UTF-8
    bytes and fields over the csv module's field size limit raise
    ParseError naming the first offending row. A UTF-8 byte order mark
    before the header is skipped.

    Rows are read in chunks of _CHUNK_ROWS lines. A chunk without quotes
    or "\\x1c".."\\x1f" is one np.loadtxt call, or two if it has empty
    cells; the rest, and a chunk np.loadtxt refuses, are parsed cell by
    cell with float. Every value and error is the one float gives.

    Each chunk's values are copied into one pair of row buffers. When the
    file holds every (date, stock) once in (date, stock) order, as
    save_panel writes it, those buffers are the panel's arrays, so the
    load holds the values once plus one chunk. Any other file is
    scattered into NaN-filled arrays, and the buffers are freed before
    the panel is returned.
    """
    try:
        fh = open(path, newline="", encoding="utf-8-sig")
    except OSError as exc:
        raise DataError(f"cannot read panel file {path}: {exc}") from exc
    with fh:
        source = _decoded_lines(fh, path)
        reader = csv.reader(source)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path}: empty file") from None
        except csv.Error as exc:
            raise ParseError(f"{path}: row 1: {exc}") from None
        col_pos = {name: i for i, name in enumerate(header)}
        if len(col_pos) < len(header):
            # col_pos keeps a repeated name's last position only
            dup = next(name for i, name in enumerate(header) if col_pos[name] != i)
            raise ParseError(f"{path}: duplicate column {dup!r} in the header")
        required = ("date", "stock", "fwd_ret")
        for key in required:
            if key not in col_pos:
                raise ParseError(f"{path}: missing required column {key!r}")
        factor_names = [c for c in header if c not in required]
        if not factor_names:
            raise ParseError(f"{path}: no factor columns found")
        di, si, ri = (col_pos[k] for k in required)
        cols = [ri, *(col_pos[c] for c in factor_names)]
        # st_size is 0 where the size is unknown, as for a pipe
        rows, error = _read_rows(path, source, os.fstat(fh.fileno()).st_size, header,
                                 di, si, cols, ["fwd_ret", *factor_names])

    in_order = False
    if rows.n:
        date_ids, stock_ids, key = rows.grid()
        # every (date, stock) once, in (date, stock) order
        in_order = (key.size == len(date_ids) * len(stock_ids)
                    and np.array_equal(key, np.arange(key.size)))
        if not in_order:
            first = np.zeros(key.size, dtype=bool)
            first[np.unique(key, return_index=True)[1]] = True
            n = int(np.argmin(first))  # the first row whose key came before
            row = rows.row_number(n)
            if not first[n] and (error is None or row <= error[0]):
                dup = (date_ids[key[n] // len(stock_ids)], stock_ids[key[n] % len(stock_ids)])
                error = (row, ParseError(f"row {row}: duplicate (date, stock) = {dup}"))
    if error is not None:
        raise error[1]
    if not rows.n:
        raise ParseError(f"{path}: no data rows")
    shape = (len(date_ids), len(stock_ids), len(factor_names))
    if in_order:
        rows.resize(rows.n)
        factors, fwd = rows.factors.reshape(shape), rows.fwd.reshape(shape[:2])
    else:
        factors, fwd = np.full(shape, np.nan), np.full(shape[:2], np.nan)
        factors.reshape(-1, shape[2])[key] = rows.factors[:rows.n]
        fwd.reshape(-1)[key] = rows.fwd[:rows.n]
    return FactorPanel(tuple(date_ids), tuple(stock_ids), tuple(factor_names), factors, fwd)


class _Missing:
    """A missing cell in save_panel: its repr is the empty field."""

    def __repr__(self) -> str:
        return ""


_MISSING = _Missing()


@contextlib.contextmanager
def _write_whole(path, mode: str = "w", **kwargs):
    """Open a new temporary file beside path, as open(path, mode, **kwargs)
    would open path, and rename it over path with os.replace once the block
    ends cleanly, so path holds its old bytes or all the new ones, never a
    part. If the block raises, the temporary file is removed and path is
    untouched. Every file listfold writes goes through here."""
    path = os.fspath(path)
    head, tail = os.path.split(path)
    # os.urandom, not the secrets module, whose import costs about 3 ms
    tmp = os.path.join(head, f".{tail}.{os.urandom(4).hex()}.tmp")
    # "x" creates the file as "w" would (mode 0o666 less the umask) but
    # never opens one that exists
    fh = open(tmp, mode.replace("w", "x"), **kwargs)
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _csv_fields(values) -> list[str]:
    """Each value as csv.writer writes it in a row of several fields
    (quoted only where QUOTE_MINIMAL needs it)."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    fields = []
    for value in values:
        writer.writerow([value, ""])
        fields.append(buf.getvalue()[: -len(",\r\n")])
        buf.seek(0)
        buf.truncate()
    return fields


def save_panel(panel: FactorPanel, path) -> None:
    """Write the canonical CSV schema. Rows with every cell missing are
    omitted; remaining missing cells become empty strings. Floats are
    written as their repr, so they read back bit for bit.

    Dates and stock ids go through csv.writer once each; a data row is
    then its quoted date and stock and the ``repr`` of its cells joined by
    commas (a missing cell's repr is empty), with one writelines call per
    chunk of up to 1024 rows."""
    weeks = max(1, _CHUNK_ROWS // max(1, panel.n_stocks))
    stocks = _csv_fields(panel.stocks)
    with _write_whole(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(["date", "stock", "fwd_ret", *panel.factor_names])
        for lo in range(0, panel.n_weeks, weeks):
            dates = _csv_fields(panel.dates[lo:lo + weeks])
            values = np.concatenate([panel.fwd_return[lo:lo + weeks, :, None],
                                     panel.factors[lo:lo + weeks]], axis=2)
            missing = np.isnan(values)
            ii, jj = np.nonzero(~missing.all(axis=2))
            cells = values[ii, jj].tolist()
            for r, k in np.argwhere(missing[ii, jj]).tolist():
                cells[r][k] = _MISSING
            fh.writelines(f"{dates[i]},{stocks[j]},{','.join(map(repr, row))}\r\n"
                          for i, j, row in zip(ii.tolist(), jj.tolist(), cells))


def fit_norm_params(panel: FactorPanel, plan: WindowPlan) -> tuple[np.ndarray, np.ndarray]:
    """Per-factor (mins, maxs) over the train range only; test weeks never
    contribute statistics."""
    lo, hi = plan.train_range
    train = panel.factors[lo:hi]
    return np.nanmin(train, axis=(0, 1)), np.nanmax(train, axis=(0, 1))


def apply_norm_params(factors: np.ndarray, mins: np.ndarray, maxs: np.ndarray,
                      out: np.ndarray | None = None) -> np.ndarray:
    """(x - min)/(max - min) along the last axis; constant factors map to
    the inert midpoint 0.5. Values outside the fitted range are allowed to
    leave [0, 1]. The result is written into out when given, which may be
    factors itself."""
    span = maxs - mins
    degenerate = span == 0
    safe_span = np.where(degenerate, 1.0, span)
    scaled = np.subtract(factors, mins, out=out)
    scaled /= safe_span
    scaled[..., degenerate] = 0.5
    return scaled


def minmax_normalize(panel: FactorPanel, plan: WindowPlan) -> FactorPanel:
    """Map each factor to (x - min)/(max - min) with the plan's
    fit_norm_params and return the panel sliced to its train+test span.

    Test-window values may fall outside [0, 1]; constant factors map to the
    inert midpoint 0.5. The backtest does not call this: its networks apply
    the window's map to each row they read (ScoringNet.norm_params). This
    whole-window copy is the reference that path is checked against.
    """
    window = panel.slice_weeks(plan.train_range[0], plan.test_range[1])
    return replace(window, factors=apply_norm_params(window.factors,
                                                     *fit_norm_params(panel, plan)))


def decile_labels(returns, levels: int = 10) -> np.ndarray:
    """Integer relevance labels 1..levels from returns along the last axis,
    highest first.

    The top 1/levels fraction gets the label ``levels`` and so on down to 1.
    When the length is not divisible, the leftover items go to the top
    buckets first. Ties keep stable input order.
    """
    r = np.asarray(returns, dtype=float)
    if r.size == 0:
        raise DataError("empty returns vector")
    if np.any(np.isnan(r)):
        raise DataError("returns contain missing values")
    if levels < 2:
        raise DataError("levels must be >= 2")
    n = r.shape[-1]
    if n < levels:
        raise DataError(f"need at least {levels} items for {levels} levels, got {n}")
    order = np.argsort(-r, axis=-1, kind="stable")
    base, rem = divmod(n, levels)
    sizes = base + (np.arange(levels) < rem)
    labels = np.empty(r.shape, dtype=int)
    np.put_along_axis(labels, order, np.repeat(levels - np.arange(levels), sizes), axis=-1)
    return labels


def rolling_windows(total_weeks: int, train_len: int, test_len: int) -> list[WindowPlan]:
    """Tile the post-burn-in period with non-overlapping test ranges, each
    preceded by its train_len training weeks."""
    if train_len < 1 or test_len < 1:
        raise DataError("window lengths must be positive")
    if total_weeks < train_len + test_len:
        raise DataError(
            f"insufficient data: {total_weeks} weeks < train {train_len} + test {test_len}"
        )
    count = (total_weeks - train_len) // test_len
    plans = []
    for k in range(count):
        start = k * test_len
        t0 = start + train_len
        plans.append(WindowPlan((start, t0), (t0, t0 + test_len)))
    return plans


def build_ranked_batch(panel: FactorPanel, date: str, require_even: bool = False) -> RankedBatch:
    """Assemble one week's cross-section sorted by realized return.

    With require_even set and an odd universe, the median-ranked stock (the
    least informative for a long-short book) is dropped. A non-finite
    forward return or factor cell raises DataError naming the week and the
    stock (and, for a factor cell, the factor).
    """
    week = panel.week_index(date)
    feats, rets = panel.factors[week], panel.fwd_return[week]
    panel.check_returns(week, week + 1)
    panel.check_factor_cells(week, week + 1)
    if require_even and rets.size % 2 != 0:
        order = np.argsort(-rets, kind="stable")
        drop = order[rets.size // 2]
        keep = np.ones(rets.size, dtype=bool)
        keep[drop] = False
        feats, rets = feats[keep], rets[keep]
    if rets.size < 2:
        raise DataError(f"week {date}: a ranked list needs at least 2 stocks, got {rets.size}")
    order = np.argsort(-rets, kind="stable")
    return RankedBatch(features=feats, truth_order=order, returns=rets)


def ranked_train_weeks(panel: FactorPanel, window: WindowPlan,
                       require_even: bool = False) -> list[RankedBatch]:
    """One RankedBatch per week of window.train_range, in week order.

    The batches hold views of the panel's arrays unless a median stock is
    dropped, so models trained on one window can share them.
    """
    return [build_ranked_batch(panel, panel.dates[idx], require_even=require_even)
            for idx in range(*window.train_range)]


def planted_coefficients(seed: int, n_factors: int):
    """The factor subset and unit-norm weights the synthetic generator
    plants. Must replay the generator's first RNG draws exactly."""
    rng = np.random.default_rng(seed)
    q = min(8, n_factors)
    subset = np.sort(rng.choice(n_factors, size=q, replace=False))
    beta = rng.normal(size=q)
    beta /= np.linalg.norm(beta)
    return subset, beta, rng


def generate_synthetic_panel(seed: int, weeks: int, stocks: int, factors: int,
                             signal_strength: float, noise_scale: float = 0.5) -> FactorPanel:
    """Deterministic synthetic panel: iid standard-normal factors and

        fwd_ret = 0.02 * (signal_strength * planted_score + noise_scale * eps)

    where planted_score is a fixed linear combination of a factor subset
    (see planted_coefficients) and eps is iid standard normal.
    """
    if min(weeks, stocks, factors) < 1:
        raise DataError("weeks, stocks and factors must all be >= 1")
    subset, beta, rng = planted_coefficients(seed, factors)
    x = rng.standard_normal((weeks, stocks, factors))
    eps = rng.standard_normal((weeks, stocks))
    signal = x[:, :, subset] @ beta
    fwd = 0.02 * (signal_strength * signal + noise_scale * eps)
    start = np.datetime64("2000-01-07")
    dates = tuple(str(start + np.timedelta64(7 * i, "D")) for i in range(weeks))
    names_s = tuple(f"S{j:04d}" for j in range(stocks))
    names_f = tuple(f"f{k + 1:02d}" for k in range(factors))
    return FactorPanel(dates, names_s, names_f, x, fwd)
