"""Price/dividend ingestion and dividend-reinvested total returns.

Prices are weekly closes. A dividend is booked at the first close on or after
its payment date and reinvested into the paying stock at that close,
multiplying the share count by (1 + amount / close). Period returns are
simple percentage returns of the resulting total-return index between two
panel dates. ``load_panel`` saves an ingested panel with its input bytes,
and rebuilds it from that file while the inputs hold the same bytes.
"""

from __future__ import annotations

import json
import math
import re
from bisect import bisect_left
from collections.abc import Iterable
from datetime import date
from functools import cached_property
from itertools import chain, islice
from pathlib import Path

import numpy as np

from .inputs import DataError, StudyPeriod, _date, _invalid_date, read_chunks
from .record import Record

# The outputs write a ticker bare (CSV, Newick, DOT, Nexus), so it holds none
# of their separators, quotes or brackets, and no whitespace.
_TICKER = re.compile(r"[^\s,\"'()\[\]:;\\]+")


def _number(text: str) -> float:
    """The float a CSV field spells, or nan when it spells none."""
    try:
        return float(text)
    except ValueError:
        return math.nan


class PricePanel(Record):
    """Weekly closing prices and the dividends paid at them, indexed (date, ticker)."""

    tickers: tuple[str, ...]
    dates: tuple[date, ...]
    close: np.ndarray  # shape (n_dates, n_tickers), all > 0
    dividends: np.ndarray  # shape of close: per-share amounts booked at each close

    def __post_init__(self) -> None:
        shape = (len(self.dates), len(self.tickers))
        if self.close.shape != shape:
            raise DataError("close matrix shape does not match dates x tickers")
        if self.dividends.shape != shape:
            raise DataError("dividend matrix shape does not match dates x tickers")
        if any(b <= a for a, b in zip(self.dates, self.dates[1:])):
            raise DataError("panel dates must be strictly increasing")
        if not np.all(self.close > 0):
            d, t = np.argwhere(~(self.close > 0))[0]
            raise DataError(
                f"non-positive price for ({self.dates[d].isoformat()}, {self.tickers[t]})"
            )

    def date_index(self, d: date, what: str) -> int:
        """The row of date ``d``; ``what`` names it in the error."""
        try:
            return self.dates.index(d)
        except ValueError:
            raise DataError(f"{what} {d.isoformat()} is not a panel date") from None


class ReturnPanel(Record):
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


def _numbers(texts: list[str]) -> np.ndarray:
    """The float each text spells, nan where it spells none."""
    try:
        return np.fromiter(map(float, texts), float, len(texts))
    except ValueError:
        return np.fromiter(map(_number, texts), float, len(texts))


def _raise_first(path: Path, lines: Iterable[int], stop: DataError | None, checks: list) -> None:
    """Raise the error of the first row of a ``read_chunks`` read that fails
    a check, a row's checks taken in list order; without one, raise ``stop``.
    ``lines`` gives the file line of each row.

    Each check is a (row mask or None, message of a row) pair."""
    failed = [(int(np.argmax(mask)), k) for k, (mask, _) in enumerate(checks)
              if mask is not None and mask.any()]
    if failed:
        row, k = min(failed)
        raise DataError(f"{path}:{next(islice(lines, row, None))}: {checks[k][1](row)}")
    if stop is not None:
        raise stop


def _codes(texts: list[str], index: dict[str, int]) -> np.ndarray:
    """The index of each text in ``index``, which first takes each text new
    to it at the next index."""
    for text in set(texts).difference(index):
        index[text] = len(index)
    return np.fromiter(map(index.__getitem__, texts), np.intp, len(texts))


def _read_coded(path: Path, header: tuple[str, str, str], data: bytes | None
                ) -> tuple[Iterable[int], np.ndarray, np.ndarray, np.ndarray,
                           tuple[dict[str, int], dict[str, int]], str | None, DataError | None]:
    """A CSV file of two text columns and a number column, read a chunk of
    rows at a time into arrays: a code per row for each text column (its
    text's index in that column's dict of distinct texts, which takes each
    new text at the next index) and the number's float. ``data`` is the
    file's bytes when the caller has read them.

    Returns the file line of each row, the two code arrays, the floats, the
    two dicts, the text of the first number that is not finite (None when
    every one is) and the stop.
    """
    most, chunks = read_chunks(path, header, data)
    first, second, value = np.empty(most, np.int32), np.empty(most, np.int32), np.empty(most)
    indexes: tuple[dict[str, int], dict[str, int]] = ({}, {})
    bad = None
    parts, n = [], 0  # each chunk's row lines, and the rows so far
    for lines, (first_text, second_text, number_text), stop in chunks:
        at, n = n, n + len(lines)
        first[at:n] = _codes(first_text, indexes[0])
        second[at:n] = _codes(second_text, indexes[1])
        value[at:n] = _numbers(number_text)
        finite = np.isfinite(value[at:n])
        if bad is None and not finite.all():
            bad = number_text[int(np.argmin(finite))]
        parts.append(lines)
        del first_text, second_text, number_text  # freed before the next chunk is read
    return chain.from_iterable(parts), first[:n], second[:n], value[:n], indexes, bad, stop


def _read_prices(price_file: Path, data: bytes | None
                 ) -> tuple[tuple[date, ...], tuple[str, ...], np.ndarray]:
    """The dates, tickers and (dates x tickers) closes of a price CSV, of
    the bytes ``data`` when the caller has read them.

    The file becomes three arrays a chunk of rows at a time (``_read_coded``).
    The checks run on the codes through one entry per distinct text.
    """
    lines, date_code, ticker_code, close, (date_index, ticker_index), bad_close, stop = (
        _read_coded(price_file, ("date", "ticker", "close"), data))
    n = len(close)
    # Per distinct text, in code order.
    parsed = [_date(text) for text in date_index]
    stripped = [text.strip() for text in ticker_index]
    dates = tuple(sorted({d for d in parsed if d is not None}))
    tickers = tuple(sorted({t for t in stripped if _TICKER.fullmatch(t)}))
    # Cells of a (dates + 1) x (tickers + 1) grid: a bad date takes the last
    # row and an empty or invalid ticker the last column, so they collide only
    # with rows that fail the same earlier check. Two texts of one date, or of
    # one stripped ticker, share an index, so they collide as a duplicate cell.
    date_pos = {d: i for i, d in enumerate(dates)}
    date_row = np.array([date_pos.get(d, len(dates)) for d in parsed], np.intp)
    ticker_pos = {t: j for j, t in enumerate(tickers)}
    ticker_column = np.array([ticker_pos.get(t, len(tickers)) for t in stripped], np.intp)
    width = len(tickers) + 1
    cell = date_row[date_code] * width
    cell += ticker_column[ticker_code]
    count = np.bincount(cell, minlength=(len(dates) + 1) * width)
    duplicate = None
    if n and count.max() > 1:
        duplicate = np.ones(n, bool)
        duplicate[np.unique(cell, return_index=True)[1]] = False

    def cell_name(row: int) -> str:
        i, j = divmod(int(cell[row]), width)
        return f"({dates[i].isoformat()}, {tickers[j]})"

    _raise_first(price_file, lines, stop, [
        ((date_row == len(dates))[date_code],
         lambda row: _invalid_date(list(date_index)[date_code[row]])),
        ((ticker_column == len(tickers))[ticker_code], lambda row:
         f"invalid ticker {t!r}" if (t := stripped[ticker_code[row]]) else "empty ticker"),
        (~np.isfinite(close), lambda row: f"invalid price {bad_close!r}"),
        (close <= 0, lambda row: f"non-positive price for {cell_name(row)}"),
        (duplicate, lambda row: f"duplicate row for {cell_name(row)}"),
    ])
    if not n:
        raise DataError(f"{price_file}: no price rows")
    missing = np.flatnonzero(count.reshape(-1, width)[:-1, :-1] == 0)
    if missing.size:
        i, j = divmod(int(missing[0]), len(tickers))
        raise DataError(f"{price_file}: missing price cell ({dates[i].isoformat()}, {tickers[j]})")
    # Every row is an inner cell now: less its grid row, its dates x tickers cell.
    cell -= cell // width
    grid = np.empty((len(dates), len(tickers)))
    grid.reshape(-1)[cell] = close
    return dates, tickers, grid


def ingest(price_file: str | Path, dividend_file: str | Path,
           data: tuple[bytes, bytes] | None = None) -> PricePanel:
    """Read price and dividend CSVs, validating the schemas strictly;
    ``data`` is their bytes when the caller has read them.

    Price CSV: header ``date,ticker,close``; dividend CSV: header
    ``ticker,payment_date,amount``. Any missing (date, ticker) price cell,
    malformed row, or out-of-range dividend fails with a located error: that
    of the first bad line, each check run once over all rows as a mask.
    Each dividend is added, in table order, to the panel's dividend cell of
    its ticker at the first close on or after its payment date.
    """
    price_data, dividend_data = data or (None, None)
    dates, tickers, close = _read_prices(Path(price_file), price_data)
    dividend_file = Path(dividend_file)
    lines, payer, paid, amount, (payer_index, paid_index), bad_amount, stop = _read_coded(
        dividend_file, ("ticker", "payment_date", "amount"), dividend_data)
    # Per distinct text, in code order: the payer's column (-1 if unknown),
    # and the payment's date and the row of the first close on or after it.
    ticker_pos = {t: j for j, t in enumerate(tickers)}
    column = np.array([ticker_pos.get(text.strip(), -1) for text in payer_index], np.intp)
    day = [_date(text) for text in paid_index]
    row = np.array([-1 if d is None else bisect_left(dates, d) for d in day], np.intp)
    outside = np.array([d is not None and not dates[0] <= d <= dates[-1] for d in day], bool)
    _raise_first(dividend_file, lines, stop, [
        ((column < 0)[payer],
         lambda r: f"dividend for unknown ticker {list(payer_index)[payer[r]].strip()!r}"),
        ((row < 0)[paid], lambda r: _invalid_date(list(paid_index)[paid[r]])),
        (outside[paid], lambda r: f"payment date {day[paid[r]].isoformat()} outside panel range"),
        (~np.isfinite(amount), lambda r: f"invalid amount {bad_amount!r}"),
        (amount < 0, lambda r: "negative dividend amount"),
    ])
    dividends = np.zeros((len(dates), len(tickers)))
    np.add.at(dividends, (row[paid], column[payer]), amount)  # unbuffered: in table order
    return PricePanel(tickers, dates, close, dividends)


# A panel file holds this line, then one JSON line (the tickers, the dates'
# ordinals and the byte sizes of the two input files), then the closes and
# the dividend grid as little-endian float64, then the exact bytes of the
# price and dividend files the panel was ingested from.
_PANEL_MAGIC = b"netfolio price panel 1\n"
# Bytes of an input file compared with its copy at a time.
_BLOCK = 1 << 20


def _panel_file(panel: PricePanel, prices: bytes, dividends: bytes) -> list:
    """The buffers, in order, of the panel file of a panel ingested from
    these input bytes."""
    head = json.dumps({"tickers": panel.tickers, "dates": [d.toordinal() for d in panel.dates],
                       "prices": len(prices), "dividends": len(dividends)})
    return [_PANEL_MAGIC + head.encode() + b"\n", panel.close.astype("<f8", copy=False),
            panel.dividends.astype("<f8", copy=False), prices, dividends]


def _holds(fh, path: str | Path, size: int) -> bool:
    """Whether the next ``size`` bytes of the open file ``fh`` are exactly
    the bytes of the file at ``path``, compared a block at a time."""
    read = 0
    with open(path, "rb") as src:
        while block := src.read(_BLOCK):
            read += len(block)
            if fh.read(len(block)) != block:
                return False
    return read == size


def _restore(panel_file: Path, price_file: str | Path, dividend_file: str | Path
             ) -> PricePanel | None:
    """The panel of the panel file at ``panel_file`` when it was saved from
    exactly the bytes the two input files hold now, else None. A file that
    is no panel file may raise OSError, ValueError, TypeError, KeyError or
    OverflowError instead, and so does a panel that fails its checks."""
    with open(panel_file, "rb") as fh:
        if fh.readline() != _PANEL_MAGIC:
            return None
        head = json.loads(fh.readline())
        tickers, dates = tuple(head["tickers"]), tuple(map(date.fromordinal, head["dates"]))
        if list(tickers) != sorted(set(tickers)) or not all(map(_TICKER.fullmatch, tickers)):
            return None
        grids = np.empty((2, len(dates), len(tickers)), "<f8")
        if not (fh.readinto(grids) == grids.nbytes
                and _holds(fh, price_file, head["prices"])
                and _holds(fh, dividend_file, head["dividends"]) and not fh.read(1)):
            return None
    close, dividend_grid = grids.astype(float, copy=False)
    return PricePanel(tickers, dates, close, dividend_grid)


def load_panel(price_file: str | Path, dividend_file: str | Path, panel_file: Path
               ) -> tuple[PricePanel, list | None]:
    """The panel of a price and a dividend CSV, and the buffers of the panel
    file to save at ``panel_file``: None when the one there is reused.

    The panel is rebuilt from the panel file at ``panel_file`` when that
    holds exactly the two files' bytes, through every check a ``PricePanel``
    runs. Otherwise (no panel file, one of other inputs, a truncated or a
    foreign one) each file is read whole once and ingested from those
    bytes, which the new panel file holds with the panel.
    """
    try:
        panel = _restore(panel_file, price_file, dividend_file)
    except (OSError, ValueError, TypeError, KeyError, OverflowError):
        panel = None
    if panel is not None:
        return panel, None
    data = Path(price_file).read_bytes(), Path(dividend_file).read_bytes()
    panel = ingest(price_file, dividend_file, data)
    return panel, _panel_file(panel, *data)


def total_return_index(panel: PricePanel) -> np.ndarray:
    """Dividend-reinvested index of every ticker, shape (n_dates, n_tickers).

    Shares start at 1. A dividend booked at date t buys amount/close_t extra
    shares; the index is shares * close. With no dividends the index equals
    the raw price path exactly.
    """
    return np.cumprod(1.0 + panel.dividends / panel.close, axis=0) * panel.close


def period_returns(
    panel: PricePanel, periods: list[StudyPeriod] | tuple[StudyPeriod, ...]
) -> ReturnPanel:
    """Total period returns (%) and weekly simple returns per study period.

    Period boundaries must be exact panel dates; there is no interpolation.
    Weekly returns are week-over-week simple returns of the total-return
    index inside each period (dividend-inclusive).
    """
    periods = tuple(periods)
    tri = total_return_index(panel)
    total = np.empty((len(periods), len(panel.tickers)))
    weekly: list[np.ndarray] = []
    for k, p in enumerate(periods):
        where = f"period {p.label!r}:"
        seg = tri[panel.date_index(p.start, f"{where} start")
                  : panel.date_index(p.end, f"{where} end") + 1]
        total[k] = 100.0 * (seg[-1] / seg[0] - 1.0)
        weekly.append(seg[1:] / seg[:-1] - 1.0)
    return ReturnPanel(panel.tickers, periods, total, tuple(weekly))
