"""Price/dividend ingestion, dividend-reinvested total returns, synthetic panels.

Prices are weekly closes. A dividend paid on date t is reinvested into the
paying stock at that date's close, multiplying the share count by
(1 + amount / close). Period returns are simple percentage returns of the
resulting total-return index between two panel dates.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from datetime import date, datetime, timedelta
from functools import cached_property
from pathlib import Path

import numpy as np


class DataError(ValueError):
    """Raised for malformed or inconsistent market data inputs."""


def _parse_date(text: str, where: str) -> date:
    try:
        return datetime.strptime(text.strip(), "%Y-%m-%d").date()
    except (AttributeError, ValueError):  # AttributeError: not a string
        raise DataError(f"{where}: invalid ISO-8601 date {text!r}") from None


def _blank(row: list[str]) -> bool:
    """A CSV row with no fields or one empty field; readers skip it."""
    return not row or (len(row) == 1 and not row[0].strip())


def _number(text: str) -> float:
    """The float a CSV field spells, or nan when it spells none."""
    try:
        return float(text)
    except ValueError:
        return math.nan


@dataclass(frozen=True)
class PricePanel:
    """Weekly closing prices, indexed (date, ticker)."""

    tickers: tuple[str, ...]
    dates: tuple[date, ...]
    close: np.ndarray  # shape (n_dates, n_tickers), all > 0

    def __post_init__(self) -> None:
        if self.close.shape != (len(self.dates), len(self.tickers)):
            raise DataError("close matrix shape does not match dates x tickers")
        if any(b <= a for a, b in zip(self.dates, self.dates[1:])):
            raise DataError("panel dates must be strictly increasing")
        if not np.all(self.close > 0):
            d, t = np.argwhere(~(self.close > 0))[0]
            raise DataError(
                f"non-positive price for ({self.dates[d].isoformat()}, {self.tickers[t]})"
            )

    def date_index(self, d: date) -> int:
        try:
            return self.dates.index(d)
        except ValueError:
            raise DataError(f"date {d.isoformat()} is not a panel date") from None


@dataclass(frozen=True)
class Dividend:
    ticker: str
    payment_date: date
    amount: float  # per share, >= 0


@dataclass(frozen=True)
class DividendTable:
    entries: tuple[Dividend, ...]


@dataclass(frozen=True)
class StudyPeriod:
    label: str
    start: date
    end: date

    def __post_init__(self) -> None:
        if self.start >= self.end:
            raise DataError(f"period {self.label}: start must precede end")


@dataclass(frozen=True)
class ReturnPanel:
    """Per-period total returns (%) and within-period weekly returns."""

    tickers: tuple[str, ...]
    periods: tuple[StudyPeriod, ...]
    total_return: np.ndarray  # (n_periods, n_tickers), percent
    weekly_returns: tuple[np.ndarray, ...]  # per period, (n_weeks, n_tickers)

    def period_index(self, label: str) -> int:
        for i, p in enumerate(self.periods):
            if p.label == label:
                return i
        raise DataError(f"unknown period {label!r}")

    @cached_property
    def column(self) -> dict[str, int]:
        """Ticker -> column of total_return and weekly_returns."""
        return {t: j for j, t in enumerate(self.tickers)}

    def returns_for(self, label: str) -> np.ndarray:
        """Total returns (%) of all tickers for one period."""
        return self.total_return[self.period_index(label)]


PRICE_HEADER = ["date", "ticker", "close"]
DIVIDEND_HEADER = ["ticker", "payment_date", "amount"]


def ingest(price_file: str | Path, dividend_file: str | Path) -> tuple[PricePanel, DividendTable]:
    """Read price and dividend CSVs, validating the schemas strictly.

    Price CSV: header ``date,ticker,close``; dividend CSV: header
    ``ticker,payment_date,amount``. Any missing (date, ticker) price cell,
    malformed row, or out-of-range dividend fails with a located error.

    Each file is read once into columns and checked with array operations;
    only when a check fails does the row-by-row reader run again, to raise
    the error of the first bad line.
    """
    price_file, dividend_file = Path(price_file), Path(dividend_file)
    read = _ingest_columns(price_file, dividend_file)
    return read if read is not None else _ingest_rows(price_file, dividend_file)


def _columns(path: Path, header: list[str]) -> tuple[list[str], list[str], list[str]] | None:
    """The three text columns of a CSV file with this header, blank rows
    skipped; None when the header, a row's field count or the text is bad."""
    columns: tuple[list[str], list[str], list[str]] = ([], [], [])
    first, second, third = (column.append for column in columns)
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            head = next(reader, None)
            if head is None or [h.strip() for h in head] != header:
                return None
            # Each row is dropped as soon as it is split: holding every row
            # list at once costs more in garbage collection than the parse.
            for row in reader:
                if len(row) == 3:
                    first(row[0])
                    second(row[1])
                    third(row[2])
                elif not _blank(row):
                    return None
    except (ValueError, csv.Error):  # undecodable bytes, an oversized field
        return None
    return columns


def _ingest_columns(price_file: Path, dividend_file: Path) -> tuple[PricePanel, DividendTable] | None:
    """``ingest`` of well-formed files from their columns; None when any check
    fails. The checks are those of ``_ingest_rows``."""
    columns = _columns(price_file, PRICE_HEADER)
    if columns is None or not columns[0]:
        return None
    date_text, ticker_text, close_text = columns
    parsed: dict[str, date] = {}  # raw date text -> date
    try:
        for text in set(date_text):
            parsed[text] = _parse_date(text, "")
        close = np.fromiter(map(float, close_text), float, len(close_text))
    except ValueError:
        return None
    stripped = {text: text.strip() for text in set(ticker_text)}
    if "" in stripped.values() or not (np.isfinite(close).all() and (close > 0).all()):
        return None
    dates = tuple(sorted(set(parsed.values())))
    tickers = tuple(sorted(set(stripped.values())))
    # Two texts of one date, or of one stripped ticker, share an index, so
    # they collide as a duplicate cell.
    date_pos = {d: i for i, d in enumerate(dates)}
    date_of = {text: date_pos[d] for text, d in parsed.items()}
    ticker_pos = {t: j for j, t in enumerate(tickers)}
    ticker_of = {text: ticker_pos[t] for text, t in stripped.items()}
    n = len(close_text)
    cell = np.fromiter(map(date_of.__getitem__, date_text), np.intp, n) * len(tickers)
    cell += np.fromiter(map(ticker_of.__getitem__, ticker_text), np.intp, n)
    size = len(dates) * len(tickers)
    # As many rows as cells and no cell twice: no cell is missing either.
    if n != size or np.bincount(cell, minlength=size).max() != 1:
        return None
    grid = np.empty(size)
    grid[cell] = close
    panel = PricePanel(tickers, dates, grid.reshape(len(dates), len(tickers)))

    columns = _columns(dividend_file, DIVIDEND_HEADER)
    if columns is None:
        return None
    payer_text, paid_text, amount_text = columns
    payer = {text: text.strip() for text in set(payer_text)}
    if not set(payer.values()) <= set(tickers):
        return None
    try:
        for text in set(paid_text) - parsed.keys():
            parsed[text] = _parse_date(text, "")
        amounts = list(map(float, amount_text))
    except ValueError:
        return None
    paid = list(map(parsed.__getitem__, paid_text))
    if paid and not (dates[0] <= min(paid) and max(paid) <= dates[-1]):
        return None
    if not all(map(math.isfinite, amounts)) or (amounts and min(amounts) < 0):
        return None
    entries = tuple(map(Dividend, map(payer.__getitem__, payer_text), paid, amounts))
    return panel, DividendTable(entries)


def _ingest_rows(price_file: Path, dividend_file: Path) -> tuple[PricePanel, DividendTable]:
    """``ingest`` one row at a time, raising at the first bad line."""
    cells: dict[tuple[date, str], float] = {}
    parsed: dict[str, date] = {}  # raw date text -> date; every ticker repeats each date

    def parse_date(text: str, where: str) -> date:
        if text not in parsed:
            parsed[text] = _parse_date(text, where)
        return parsed[text]

    with open(price_file, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != PRICE_HEADER:
            raise DataError(f"{price_file}: expected header 'date,ticker,close'")
        for lineno, row in enumerate(reader, start=2):
            if _blank(row):
                continue
            if len(row) != 3:
                raise DataError(f"{price_file}:{lineno}: expected 3 fields, got {len(row)}")
            d = parse_date(row[0], f"{price_file}:{lineno}")
            ticker = row[1].strip()
            if not ticker:
                raise DataError(f"{price_file}:{lineno}: empty ticker")
            close = _number(row[2])
            if not math.isfinite(close):
                raise DataError(f"{price_file}:{lineno}: invalid price {row[2]!r}")
            if close <= 0:
                raise DataError(
                    f"{price_file}:{lineno}: non-positive price for ({d.isoformat()}, {ticker})"
                )
            if (d, ticker) in cells:
                raise DataError(f"{price_file}:{lineno}: duplicate row for ({d.isoformat()}, {ticker})")
            cells[(d, ticker)] = close
    if not cells:
        raise DataError(f"{price_file}: no price rows")

    tickers = tuple(sorted({t for _, t in cells}))
    dates = tuple(sorted({d for d, _ in cells}))
    close = np.empty((len(dates), len(tickers)))
    for i, d in enumerate(dates):
        for j, t in enumerate(tickers):
            if (d, t) not in cells:
                raise DataError(f"{price_file}: missing price cell ({d.isoformat()}, {t})")
            close[i, j] = cells[(d, t)]
    panel = PricePanel(tickers, dates, close)

    entries: list[Dividend] = []
    with open(dividend_file, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != DIVIDEND_HEADER:
            raise DataError(f"{dividend_file}: expected header 'ticker,payment_date,amount'")
        for lineno, row in enumerate(reader, start=2):
            if _blank(row):
                continue
            if len(row) != 3:
                raise DataError(f"{dividend_file}:{lineno}: expected 3 fields, got {len(row)}")
            ticker = row[0].strip()
            if ticker not in panel.tickers:
                raise DataError(f"{dividend_file}:{lineno}: dividend for unknown ticker {ticker!r}")
            d = parse_date(row[1], f"{dividend_file}:{lineno}")
            if not (dates[0] <= d <= dates[-1]):
                raise DataError(
                    f"{dividend_file}:{lineno}: payment date {d.isoformat()} outside panel range"
                )
            amount = _number(row[2])
            if not math.isfinite(amount):
                raise DataError(f"{dividend_file}:{lineno}: invalid amount {row[2]!r}")
            if amount < 0:
                raise DataError(f"{dividend_file}:{lineno}: negative dividend amount")
            entries.append(Dividend(ticker, d, amount))
    return panel, DividendTable(tuple(entries))


def total_return_index(panel: PricePanel, divs: DividendTable) -> np.ndarray:
    """Dividend-reinvested index of every ticker, shape (n_dates, n_tickers).

    Shares start at 1. A dividend paid on (or rolled forward to) date t buys
    amount/close_t extra shares; the index is shares * close. With no
    dividends the index equals the raw price path exactly. Dividends of
    tickers outside the panel are ignored.
    """
    column = {t: j for j, t in enumerate(panel.tickers)}
    paid = [e for e in divs.entries if e.ticker in column]
    cols = np.array([column[e.ticker] for e in paid], dtype=np.intp)
    # Payment dates rolled forward to the next close.
    rows = np.searchsorted(
        [d.toordinal() for d in panel.dates], [e.payment_date.toordinal() for e in paid]
    )
    late = np.flatnonzero(rows == len(panel.dates))
    if late.size:
        entry = paid[late[np.argmin(cols[late])]]  # first panel ticker, then table order
        raise DataError(
            f"dividend for {entry.ticker} on {entry.payment_date.isoformat()} "
            "has no close date at or after it"
        )
    per_date = np.zeros(panel.close.shape)
    # Unbuffered: one cell's amounts are added in table order.
    np.add.at(per_date, (rows, cols), [e.amount for e in paid])
    return np.cumprod(1.0 + per_date / panel.close, axis=0) * panel.close


def period_returns(
    panel: PricePanel, divs: DividendTable, periods: list[StudyPeriod] | tuple[StudyPeriod, ...]
) -> ReturnPanel:
    """Total period returns (%) and weekly simple returns per study period.

    Period boundaries must be exact panel dates; there is no interpolation.
    Weekly returns are week-over-week simple returns of the total-return
    index inside each period (dividend-inclusive).
    """
    periods = tuple(periods)
    tri = total_return_index(panel, divs)
    total = np.empty((len(periods), len(panel.tickers)))
    weekly: list[np.ndarray] = []
    for k, p in enumerate(periods):
        seg = tri[panel.date_index(p.start) : panel.date_index(p.end) + 1]
        total[k] = 100.0 * (seg[-1] / seg[0] - 1.0)
        weekly.append(seg[1:] / seg[:-1] - 1.0)
    return ReturnPanel(panel.tickers, periods, total, tuple(weekly))


@dataclass(frozen=True)
class BlockModelSpec:
    """Block-factor model for synthetic panels.

    Stocks in the same block share a common factor scaled by that block's
    loading; within-block correlation is loading^2*factor_vol^2 over total
    variance, cross-block correlation is zero in expectation. ``block_drift``
    adds a deterministic weekly mean return per block.
    """

    block_sizes: tuple[int, ...]
    loadings: tuple[float, ...]
    idio_vol: float
    weeks: int
    factor_vol: float = 0.02
    block_drift: tuple[float, ...] = ()
    start_price: float = 100.0
    start: date = date(2001, 1, 2)
    dividend_every: int = 0  # weeks between dividends; 0 disables
    dividend_yield: float = 0.005  # per-payment fraction of price

    def __post_init__(self) -> None:
        if len(self.loadings) != len(self.block_sizes):
            raise DataError("one loading per block required")
        if self.block_drift and len(self.block_drift) != len(self.block_sizes):
            raise DataError("one drift per block required")
        if self.idio_vol <= 0 or self.factor_vol <= 0:
            raise DataError("volatilities must be positive")
        if self.weeks < 2 or any(s < 1 for s in self.block_sizes):
            raise DataError("need at least 2 weeks and non-empty blocks")

    @property
    def loading_matrix(self) -> np.ndarray:
        n = sum(self.block_sizes)
        mat = np.zeros((n, len(self.block_sizes)))
        row = 0
        for b, size in enumerate(self.block_sizes):
            mat[row : row + size, b] = self.loadings[b]
            row += size
        return mat

    @property
    def drift_vector(self) -> np.ndarray:
        drift = self.block_drift or (0.0,) * len(self.block_sizes)
        return np.repeat(drift, self.block_sizes)


def panel_from_loadings(
    loadings: np.ndarray,
    idio_vol: float,
    weeks: int,
    seed: int,
    *,
    factor_vol: float = 0.02,
    drift: np.ndarray | None = None,
    tickers: tuple[str, ...] | None = None,
    start: date = date(2001, 1, 2),
    start_price: float = 100.0,
    dividend_every: int = 0,
    dividend_yield: float = 0.005,
) -> tuple[PricePanel, DividendTable]:
    """Synthesize a weekly panel from an explicit (stocks x factors) loading matrix."""
    if idio_vol <= 0:
        raise DataError("idiosyncratic volatility must be positive")
    loadings = np.asarray(loadings, dtype=float)
    n, n_factors = loadings.shape
    if tickers is None:
        tickers = tuple(f"S{i:02d}" for i in range(n))
    rng = np.random.default_rng(seed)
    factors = rng.normal(0.0, factor_vol, size=(weeks, n_factors))
    idio = rng.normal(0.0, idio_vol, size=(weeks, n))
    returns = factors @ loadings.T + idio
    if drift is not None:
        returns = returns + np.asarray(drift)[None, :]
    returns = np.clip(returns, -0.5, None)  # keep prices positive
    prices = start_price * np.vstack([np.ones(n), np.cumprod(1.0 + returns, axis=0)])
    dates = tuple(start + timedelta(weeks=w) for w in range(weeks + 1))
    panel = PricePanel(tickers, dates, prices)
    entries: list[Dividend] = []
    if dividend_every > 0:
        for w in range(dividend_every, weeks + 1, dividend_every):
            for j, t in enumerate(tickers):
                entries.append(Dividend(t, dates[w], dividend_yield * prices[w, j]))
    return panel, DividendTable(tuple(entries))


def synthesize_panel(spec: BlockModelSpec, seed: int) -> tuple[PricePanel, DividendTable]:
    """Deterministic synthetic panel from a block-factor model."""
    return panel_from_loadings(
        spec.loading_matrix,
        spec.idio_vol,
        spec.weeks,
        seed,
        factor_vol=spec.factor_vol,
        drift=spec.drift_vector,
        start=spec.start,
        start_price=spec.start_price,
        dividend_every=spec.dividend_every,
        dividend_yield=spec.dividend_yield,
    )
