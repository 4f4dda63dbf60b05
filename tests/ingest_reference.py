"""The row-by-row ingest: the reference that ``market_data.ingest`` must
match, panel for panel and error message for error message; the
whole-text ``csv.reader`` read that ``read_table`` (the chunks of
``inputs.read_chunks`` joined) must match; and ``_record_lines``, the
whole-text test of a text that ``read_chunks`` splits in every chunk."""

from __future__ import annotations

import csv
import math
from bisect import bisect_left
from collections.abc import Iterable, Sequence
from datetime import date
from itertools import chain
from pathlib import Path

import numpy as np

from netfolio.inputs import (
    _OTHER_BYTES,
    CHUNK,
    DataError,
    _blank,
    _check_header,
    _parse_date,
    read_chunks,
)
from netfolio.market_data import PricePanel, _number

PRICE_HEADER = ["date", "ticker", "close"]
DIVIDEND_HEADER = ["ticker", "payment_date", "amount"]


def _ingest_rows(price_file: Path, dividend_file: Path) -> PricePanel:
    """``ingest`` one row at a time, raising at the first bad line; each
    dividend is added to its cell as its row is read."""
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
        start = reader.line_num + 1
        for row in reader:
            lineno, start = start, reader.line_num + 1  # the line its record starts on
            if _blank(row):
                continue
            if len(row) != 3:
                raise DataError(f"{price_file}:{lineno}: expected 3 fields, got {len(row)}")
            d = parse_date(row[0], f"{price_file}:{lineno}")
            ticker = row[1].strip()
            if not ticker:
                raise DataError(f"{price_file}:{lineno}: empty ticker")
            # The outputs write a ticker bare: no separator, quote, bracket or blank.
            if any(c.isspace() or c in ",\"'()[]:;\\" for c in ticker):
                raise DataError(f"{price_file}:{lineno}: invalid ticker {ticker!r}")
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

    dividends = np.zeros(close.shape)
    with open(dividend_file, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != DIVIDEND_HEADER:
            raise DataError(f"{dividend_file}: expected header 'ticker,payment_date,amount'")
        start = reader.line_num + 1
        for row in reader:
            lineno, start = start, reader.line_num + 1  # the line its record starts on
            if _blank(row):
                continue
            if len(row) != 3:
                raise DataError(f"{dividend_file}:{lineno}: expected 3 fields, got {len(row)}")
            ticker = row[0].strip()
            if ticker not in tickers:
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
            dividends[bisect_left(dates, d), tickers.index(ticker)] += amount
    return PricePanel(tickers, dates, close, dividends)


def _read_rows(path: str | Path, text: Iterable[str], header: tuple[str, ...],
               stop: DataError | None
               ) -> tuple[list[int], tuple[list[str], ...], DataError | None]:
    """``read_table`` of these lines of the file by ``csv.reader``; ``stop``
    ends the read unless a line does first."""
    width, flat, lines = len(header), [], []
    reader = csv.reader(text)
    try:
        _check_header(path, next(reader, None), header)
        # One flat list, sliced into columns at the end, costs less than an
        # append per field. A row is named by the line its record starts on:
        # a quoted field may hold line breaks.
        extend, add = flat.extend, lines.append
        start = reader.line_num + 1
        for row in reader:
            lineno, start = start, reader.line_num + 1
            if len(row) == width:
                extend(row)
                add(lineno)
            elif not _blank(row):
                stop = DataError(f"{path}:{lineno}: expected {width} fields, got {len(row)}")
                break
    except csv.Error as exc:
        stop = DataError(f"{path}:{reader.line_num}: {exc}")
    return lines, tuple(flat[k::width] for k in range(width)), stop


def read_table(path: str | Path, header: tuple[str, ...]
               ) -> tuple[Sequence[int], tuple[list[str], ...], DataError | None]:
    """``read_chunks`` joined: the file line each row starts on (a range
    when every chunk was split), one text list per header field, and the stop."""
    parts, columns = [], tuple([] for _ in header)
    for lines, chunk, stop in read_chunks(path, header)[1]:
        parts.append(lines)
        for column, texts in zip(columns, chunk):
            column.extend(texts)
    if all(isinstance(part, range) for part in parts):
        return range(parts[0].start, parts[-1].stop), columns, stop
    return list(chain.from_iterable(parts)), columns, stop


def _record_lines(text: str, width: int) -> list[str] | None:
    """The lines of a CSV text that is one record per line, each line of
    ``width`` fields, in chunks: the header line, then runs of whole lines
    of about ``CHUNK`` characters, each without its final line break and
    with LF line ends. None for any other text. ``read_chunks`` splits
    every chunk of a text exactly when this gives its chunks (the empty
    text aside, which has no header)."""
    # A line of one field may be empty, which ``csv.reader`` skips.
    if width < 2 or '"' in text or "\0" in text:
        return None
    # A CRLF reads as an LF; a lone carriage return is left to csv.reader.
    crlf = "\r" in text
    if crlf and text.count("\r") != text.count("\r\n"):
        return None
    if not text:
        return []
    chunks, limit = [], csv.field_size_limit()
    line = b"," * (width - 1)  # what a line holds of commas and line breaks
    end = len(text) - text.endswith("\n")  # before the final line break
    start = 0
    while start <= end:
        # The header line alone, then a chunk's worth of text and the rest
        # of the line it stops in.
        cut = text.find("\n", start + CHUNK if chunks else start, end)
        if cut < 0:
            cut = end
        chunk = text[start:cut].replace("\r", "") if crlf else text[start:cut]
        # Every line has width - 1 commas when the chunk's commas and line
        # breaks alone spell that, in C: no byte of the UTF-8 of another
        # character is a comma or a line break. Only a chunk longer than
        # the limit can hold a longer line.
        if (chunk.encode().translate(None, _OTHER_BYTES)
                != (line + b"\n") * chunk.count("\n") + line
                or len(chunk) > limit and max(map(len, chunk.split("\n"))) > limit):
            return None
        chunks.append(chunk)
        start = cut + 1
    return chunks
