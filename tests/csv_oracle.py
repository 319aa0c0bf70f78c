"""The former per-cell panel CSV reader and writer, kept only as a test
oracle for ``listfold.data.load_panel`` and ``listfold.data.save_panel``.

``load_panel`` parses every cell with Python's ``float`` into a dict of rows
keyed by (date, stock); ``save_panel`` calls ``np.isnan`` and ``repr`` once
per cell. The fast versions must write the same bytes, return bit-identical
arrays and raise the same ``ParseError`` messages on UTF-8 input.
"""

from __future__ import annotations

import csv

import numpy as np

from listfold.data import DataError, FactorPanel, ParseError

def _parse_cell(text: str, row_num: int, col: str) -> float:
    if text == "":
        return np.nan
    try:
        return float(text)
    except ValueError:
        raise ParseError(f"row {row_num}: column {col!r}: non-numeric value {text!r}") from None


def load_panel(path) -> FactorPanel:
    try:
        fh = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot read panel file {path}: {exc}") from exc
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path}: empty file") from None
        col_pos = {name: i for i, name in enumerate(header)}
        if len(col_pos) < len(header):
            dup = next(name for i, name in enumerate(header) if col_pos[name] != i)
            raise ParseError(f"{path}: duplicate column {dup!r} in the header")
        for key in ("date", "stock", "fwd_ret"):
            if key not in col_pos:
                raise ParseError(f"{path}: missing required column {key!r}")
        factor_names = [c for c in header if c not in ("date", "stock", "fwd_ret")]
        if not factor_names:
            raise ParseError(f"{path}: no factor columns found")
        di, si, ri = (col_pos[k] for k in ("date", "stock", "fwd_ret"))
        fi = [col_pos[c] for c in factor_names]

        cells: dict[tuple[str, str], tuple[float, list[float]]] = {}
        for row_num, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) < len(header):
                raise ParseError(f"row {row_num}: {len(row)} fields, "
                                 f"the header has {len(header)}")
            date, stock = row[di], row[si]
            key = (date, stock)
            if key in cells:
                raise ParseError(f"row {row_num}: duplicate (date, stock) = {key}")
            ret = _parse_cell(row[ri], row_num, "fwd_ret")
            vals = [_parse_cell(row[j], row_num, header[j]) for j in fi]
            cells[key] = (ret, vals)

    if not cells:
        raise ParseError(f"{path}: no data rows")
    dates = sorted({k[0] for k in cells})
    stocks = sorted({k[1] for k in cells})
    d_index = {d: i for i, d in enumerate(dates)}
    s_index = {s: i for i, s in enumerate(stocks)}
    factors = np.full((len(dates), len(stocks), len(factor_names)), np.nan)
    fwd = np.full((len(dates), len(stocks)), np.nan)
    for (date, stock), (ret, vals) in cells.items():
        i, j = d_index[date], s_index[stock]
        fwd[i, j] = ret
        factors[i, j, :] = vals
    return FactorPanel(tuple(dates), tuple(stocks), tuple(factor_names), factors, fwd)


def save_panel(panel: FactorPanel, path) -> None:
    def fmt(x: float) -> str:
        return "" if np.isnan(x) else repr(float(x))

    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["date", "stock", "fwd_ret", *panel.factor_names])
        for i, date in enumerate(panel.dates):
            for j, stock in enumerate(panel.stocks):
                ret = panel.fwd_return[i, j]
                vals = panel.factors[i, j]
                if np.isnan(ret) and np.all(np.isnan(vals)):
                    continue
                writer.writerow([date, stock, fmt(ret), *(fmt(v) for v in vals)])
