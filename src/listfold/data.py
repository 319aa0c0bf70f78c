"""Factor panels: CSV ingestion, missing-data filtering, window plans,
min-max normalization, rank labels, and a synthetic panel generator.

On-disk format is a flat CSV, one row per (date, stock):

    date,stock,fwd_ret,<factor_1>,...,<factor_F>

Dates are ISO-8601 (YYYY-MM-DD) week identifiers, missing cells are empty
strings, decimal point is ``.``, encoding UTF-8. ``save_panel`` writes the
same schema, and floats round-trip bit identically through ``repr``.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "DataError",
    "ParseError",
    "EmptyUniverseError",
    "FactorPanel",
    "RankedBatch",
    "WindowPlan",
    "load_panel",
    "save_panel",
    "filter_by_missing",
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


class EmptyUniverseError(DataError):
    pass


@dataclass(frozen=True)
class FactorPanel:
    """A date x stock x factor tensor with one-period-ahead returns.

    Missing cells are NaN. Panels are immutable after construction and safe
    to share across workers; all transformations return new panels.
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
    """Half-open week-index intervals for one train/test split.

    norm_params holds the per-factor (min, max) fitted on the train range
    only; it is None until fit_norm_params has run.
    """

    train_range: tuple[int, int]
    test_range: tuple[int, int]
    norm_params: tuple[np.ndarray, np.ndarray] | None = None

    @property
    def train_len(self) -> int:
        return self.train_range[1] - self.train_range[0]

    @property
    def test_len(self) -> int:
        return self.test_range[1] - self.test_range[0]

    def localized(self) -> "WindowPlan":
        """The same plan re-indexed for a panel sliced to this window."""
        tl, te = self.train_len, self.test_len
        return WindowPlan((0, tl), (tl, tl + te), self.norm_params)


_DEFAULT_SCHEMA = {"date": "date", "stock": "stock", "fwd_ret": "fwd_ret"}


def _parse_cell(text: str, row_num: int, col: str) -> float:
    if text == "":
        return np.nan
    try:
        return float(text)
    except ValueError:
        raise ParseError(f"row {row_num}: column {col!r}: non-numeric value {text!r}") from None


def load_panel(path, schema: dict | None = None) -> FactorPanel:
    """Read a CSV into a FactorPanel, grouping rows into weekly cross-sections.

    schema may remap the date/stock/fwd_ret column names and, via a
    'factors' entry, restrict which columns are factors; any column not
    claimed is ignored. A header that names a column twice raises
    ParseError naming the column. Duplicate (date, stock) rows, rows with
    fewer fields than the header and non-numeric cells raise ParseError
    naming the offending row.
    """
    colmap = dict(_DEFAULT_SCHEMA)
    explicit_factors = None
    if schema:
        explicit_factors = schema.get("factors")
        colmap.update({k: v for k, v in schema.items() if k in _DEFAULT_SCHEMA})
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
            # col_pos keeps a repeated name's last position only
            dup = next(name for i, name in enumerate(header) if col_pos[name] != i)
            raise ParseError(f"{path}: duplicate column {dup!r} in the header")
        for key in ("date", "stock", "fwd_ret"):
            if colmap[key] not in col_pos:
                raise ParseError(f"{path}: missing required column {colmap[key]!r}")
        if explicit_factors is not None:
            factor_names = list(explicit_factors)
            for name in factor_names:
                if name not in col_pos:
                    raise ParseError(f"{path}: missing factor column {name!r}")
        else:
            claimed = {colmap["date"], colmap["stock"], colmap["fwd_ret"]}
            factor_names = [c for c in header if c not in claimed]
        if not factor_names:
            raise ParseError(f"{path}: no factor columns found")
        di, si, ri = (col_pos[colmap[k]] for k in ("date", "stock", "fwd_ret"))
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
            ret = _parse_cell(row[ri], row_num, colmap["fwd_ret"])
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
    """Write the canonical CSV schema. Rows with every cell missing are
    omitted; remaining missing cells become empty strings."""

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


def filter_by_missing(panel: FactorPanel, threshold: float) -> FactorPanel:
    """Keep stocks whose missing factor-cell fraction is strictly below
    threshold, then repair surviving gaps by forward fill along dates and
    zero fill where no prior value exists (no lookahead)."""
    if not 0.0 <= threshold <= 1.0:
        raise DataError(f"threshold must be in [0, 1], got {threshold}")
    missing = np.isnan(panel.factors)
    frac = missing.mean(axis=(0, 2))
    keep = np.where(frac < threshold)[0]
    if keep.size == 0:
        raise EmptyUniverseError(
            f"no stock has missing fraction below {threshold}; universe is empty"
        )
    factors = panel.factors[:, keep, :].copy()
    for j in range(factors.shape[1]):
        for k in range(factors.shape[2]):
            col = factors[:, j, k]
            nan = np.isnan(col)
            if not nan.any():
                continue
            idx = np.where(~nan, np.arange(col.size), -1)
            np.maximum.accumulate(idx, out=idx)
            col[:] = np.where(idx >= 0, col[np.maximum(idx, 0)], 0.0)
    return FactorPanel(
        dates=panel.dates,
        stocks=tuple(panel.stocks[j] for j in keep),
        factor_names=panel.factor_names,
        factors=factors,
        fwd_return=panel.fwd_return[:, keep],
    )


def fit_norm_params(panel: FactorPanel, plan: WindowPlan) -> WindowPlan:
    """Per-factor (min, max) over the train range only; test weeks never
    contribute statistics."""
    lo, hi = plan.train_range
    if hi <= lo:
        raise DataError("empty train range")
    train = panel.factors[lo:hi]
    mins = np.nanmin(train, axis=(0, 1))
    maxs = np.nanmax(train, axis=(0, 1))
    return replace(plan, norm_params=(mins, maxs))


def apply_norm_params(factors: np.ndarray, mins: np.ndarray, maxs: np.ndarray) -> np.ndarray:
    """(x - min)/(max - min) along the last axis; constant factors map to
    the inert midpoint 0.5. Values outside the fitted range are allowed to
    leave [0, 1]."""
    span = maxs - mins
    degenerate = span == 0
    safe_span = np.where(degenerate, 1.0, span)
    scaled = (factors - mins) / safe_span
    scaled[..., degenerate] = 0.5
    return scaled


def minmax_normalize(panel: FactorPanel, plan: WindowPlan) -> FactorPanel:
    """Map each factor to (x - min)/(max - min) with train-window statistics
    and return the panel sliced to the plan's train+test span.

    Test-window values may fall outside [0, 1]; constant factors map to the
    inert midpoint 0.5.
    """
    if plan.norm_params is None:
        plan = fit_norm_params(panel, plan)
    mins, maxs = plan.norm_params
    lo = plan.train_range[0]
    hi = plan.test_range[1]
    if plan.test_range[0] != plan.train_range[1]:
        raise DataError("test range must immediately follow train range")
    window = panel.slice_weeks(lo, hi)
    return replace(window, factors=apply_norm_params(window.factors, mins, maxs))


def decile_labels(returns, levels: int = 10) -> np.ndarray:
    """Integer relevance labels 1..levels from returns, highest first.

    The top 1/levels fraction gets the label ``levels`` and so on down to 1.
    When the length is not divisible, the leftover items go to the top
    buckets first. Ties keep stable input order.
    """
    r = np.asarray(returns, dtype=float).ravel()
    if r.size == 0:
        raise DataError("empty returns vector")
    if np.any(np.isnan(r)):
        raise DataError("returns contain missing values")
    if levels < 2:
        raise DataError("levels must be >= 2")
    if r.size < levels:
        raise DataError(f"need at least {levels} items for {levels} levels, got {r.size}")
    order = np.argsort(-r, kind="stable")
    base, rem = divmod(r.size, levels)
    sizes = base + (np.arange(levels) < rem)
    labels = np.empty(r.size, dtype=int)
    labels[order] = np.repeat(levels - np.arange(levels), sizes)
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
    least informative for a long-short book) is dropped.
    """
    feats = panel.week_features(date)
    rets = panel.week_returns(date)
    if np.any(np.isnan(rets)):
        raise DataError(f"week {date}: missing forward returns")
    if np.any(np.isnan(feats)):
        raise DataError(f"week {date}: missing factor cells (filter/normalize first)")
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


def ranked_train_weeks(panel: FactorPanel, window: WindowPlan, require_even: bool = False,
                       access_log: list | None = None) -> list[RankedBatch]:
    """One RankedBatch per week of window.train_range, in week order.

    The batches hold views of the panel's arrays unless a median stock is
    dropped, so models trained on one window can share them. Pass
    access_log to record every week index read.
    """
    lo, hi = window.train_range
    if hi <= lo:
        raise DataError("empty train range")
    if access_log is not None:
        access_log.extend(range(lo, hi))
    return [build_ranked_batch(panel, panel.dates[idx], require_even=require_even)
            for idx in range(lo, hi)]


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
