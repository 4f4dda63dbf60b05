"""Ingestion, total-return indices, period returns, synthetic panels."""

from __future__ import annotations

import codecs
import contextlib
import csv
import gc
import io
import json
import tempfile
import tracemalloc
from bisect import bisect_left
from datetime import date, datetime, timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from ingest_reference import _ingest_rows, _read_rows, _record_lines, read_table

from netfolio.cli import main
from netfolio.inputs import (
    CHUNK,
    DataError,
    StudyPeriod,
    _date,
    read_chunks,
)
from netfolio.market_data import PricePanel, ingest, period_returns, total_return_index
from synthetic import BlockModelSpec, synthesize_panel


def write_csvs(tmp_path, price_rows, div_rows):
    prices = tmp_path / "prices.csv"
    prices.write_text("date,ticker,close\n" + "".join(f"{r}\n" for r in price_rows))
    divs = tmp_path / "dividends.csv"
    divs.write_text("ticker,payment_date,amount\n" + "".join(f"{r}\n" for r in div_rows))
    return prices, divs


WEEK1, WEEK2, WEEK3 = "2001-01-02", "2001-01-09", "2001-01-16"


def simple_panel(prices=(10.0, 10.0, 10.0), dividends=()):
    """One ticker's panel; ``dividends`` holds (date index, amount) pairs."""
    dates = tuple(date(2001, 1, 2) + timedelta(weeks=w) for w in range(len(prices)))
    close = np.array([[p] for p in prices])
    paid = np.zeros(close.shape)
    for i, amount in dividends:
        paid[i, 0] += amount
    return PricePanel(("AAA",), dates, close, paid)


class TestIngest:
    def test_well_formed(self, tmp_path):
        p, d = write_csvs(
            tmp_path,
            [
                f"{WEEK1},AAA,10", f"{WEEK1},BBB,20",
                f"{WEEK2},AAA,11", f"{WEEK2},BBB,21",
                f"{WEEK3},AAA,12", f"{WEEK3},BBB,22",
            ],
            ["AAA,2001-01-09,0.5"],
        )
        panel = ingest(p, d)
        assert panel.tickers == ("AAA", "BBB")
        assert panel.close.size == 6
        assert panel.dividends.tolist() == [[0.0, 0.0], [0.5, 0.0], [0.0, 0.0]]

    def test_negative_price_names_cell(self, tmp_path):
        p, d = write_csvs(tmp_path, [f"{WEEK1},AAA,10", f"{WEEK2},AAA,-3"], [])
        with pytest.raises(DataError, match=r"2001-01-09, AAA"):
            ingest(p, d)

    def test_missing_cell_named(self, tmp_path):
        p, d = write_csvs(
            tmp_path,
            [f"{WEEK1},AAA,10", f"{WEEK1},BBB,20", f"{WEEK2},AAA,11"],
            [],
        )
        with pytest.raises(DataError, match=r"missing price cell \(2001-01-09, BBB\)"):
            ingest(p, d)

    def test_malformed_row_names_line(self, tmp_path):
        p, d = write_csvs(tmp_path, [f"{WEEK1},AAA,10", "oops"], [])
        with pytest.raises(DataError, match=r":3"):
            ingest(p, d)

    def test_malformed_date_names_line(self, tmp_path):
        p, d = write_csvs(
            tmp_path,
            [f"{WEEK1},AAA,10", f"{WEEK2},AAA,11", f"{WEEK2},BBB,11", "2001-02-30,AAA,12"],
            [],
        )
        with pytest.raises(DataError, match=r"prices\.csv:5: invalid ISO-8601 date '2001-02-30'"):
            ingest(p, d)

    # The outputs write a ticker bare, so one that holds a CSV, Newick, DOT or
    # Nexus separator, a quote, a bracket or whitespace fails at its first row.
    @pytest.mark.parametrize("ticker", ["A,B", 'A"B', "A'B", "A(B", "A)B", "A[B", "A]B", "A:B",
                                        "A;B", "A\\B", "A B", "A\tB", "A\nB"])
    def test_invalid_ticker_names_line(self, tmp_path, ticker):
        rows = [f"{WEEK1},AAA,10", f"{WEEK1},{encode(f' {ticker} ', True)},20", f"{WEEK2},BBB,1"]
        p, d = write_csvs(tmp_path, rows, [])
        with pytest.raises(DataError) as exc:
            ingest(p, d)
        assert str(exc.value) == f"{p}:3: invalid ticker {ticker!r}"

    def test_bad_date_reported_before_invalid_ticker(self, tmp_path):
        p, d = write_csvs(tmp_path, [f"{WEEK1},AAA,10", '2001-02-30,"A,B",20'], [])
        with pytest.raises(DataError) as exc:
            ingest(p, d)
        assert str(exc.value) == f"{p}:3: invalid ISO-8601 date '2001-02-30'"

    def test_dividend_outside_range(self, tmp_path):
        p, d = write_csvs(
            tmp_path,
            [f"{WEEK1},AAA,10", f"{WEEK2},AAA,11"],
            ["AAA,2005-01-01,0.5"],
        )
        with pytest.raises(DataError, match="outside panel range"):
            ingest(p, d)

    def test_dividend_unknown_ticker(self, tmp_path):
        p, d = write_csvs(tmp_path, [f"{WEEK1},AAA,10", f"{WEEK2},AAA,11"], ["ZZZ,2001-01-02,1"])
        with pytest.raises(DataError, match="unknown ticker 'ZZZ'"):
            ingest(p, d)

    # csv.reader ends a line at a lone CR too, so an undecodable byte is
    # located by every line end before it, and the lines before it are
    # checked first.
    @pytest.mark.parametrize("first,message", [
        (WEEK1, "3: cannot decode byte 0xff as UTF-8 (invalid start byte)"),
        ("2001-13-02", "2: invalid ISO-8601 date '2001-13-02'"),
    ], ids=["bad-byte", "earlier-bad-date"])
    def test_undecodable_byte_after_lone_cr_lines(self, tmp_path, first, message):
        p, d = write_csvs(tmp_path, [], [])
        p.write_bytes(f"date,ticker,close\r{first},A,1\r{WEEK2},A,".encode() + b"\xff2\r")
        with pytest.raises(DataError) as exc:
            ingest(p, d)
        assert str(exc.value) == f"{p}:{message}"

    def test_byte_order_mark_is_dropped(self, tmp_path):
        p, d = write_csvs(tmp_path, [f"{WEEK1},AAA,10", f"{WEEK2},AAA,11"], ["AAA,2001-01-09,0.5"])
        want = ingest(p, d)
        for path in (p, d):
            path.write_bytes(codecs.BOM_UTF8 + path.read_bytes())
        got = ingest(p, d)
        assert (got.tickers, got.dates) == (want.tickers, want.dates)
        assert got.close.tobytes() == want.close.tobytes()
        assert got.dividends.tobytes() == want.dividends.tobytes()

    # The byte and the line of an undecodable byte are those of the file:
    # the mark shifts neither.
    @pytest.mark.parametrize("name,text,where", [
        ("prices.csv", b"date,ticker,close\n\xff", "2: cannot decode byte 0xff"),
        ("prices.csv", b"date,ticker,close\n2001-01-02,A,1\n2001-01-09,A,\xfe2\n",
         "3: cannot decode byte 0xfe"),
        ("prices.csv", b"date,\xffticker,close\n", "1: cannot decode byte 0xff"),
        ("dividends.csv", b"ticker,payment_date,amount\nAAA,2001-01-09,\xff\n",
         "2: cannot decode byte 0xff"),
    ], ids=["prices-line-2", "prices-line-3", "prices-header", "dividends"])
    def test_byte_order_mark_before_undecodable_byte(self, tmp_path, name, text, where):
        files = write_csvs(tmp_path, [f"{WEEK1},A,1", f"{WEEK2},A,2", f"{WEEK1},AAA,1",
                                      f"{WEEK2},AAA,2"], [])
        path = tmp_path / name
        path.write_bytes(codecs.BOM_UTF8 + text)
        with pytest.raises(DataError) as exc:
            ingest(*files)
        assert str(exc.value) == f"{path}:{where} as UTF-8 (invalid start byte)"


def test_csv_row_bound_is_the_line_ends(tmp_path):
    """A text that ``csv.reader`` reads holds at most one row per line end,
    a CRLF counted once."""
    path = tmp_path / "prices.csv"
    path.write_bytes(b'"date","ticker","close"\r\n"2001-01-02","A","1"\r\n'
                     b'"2001-01-09","A","2"\r\n')
    most, chunks = read_chunks(path, HEADER)
    assert most == 3
    assert [list(lines) for lines, _, _ in chunks] == [[2, 3]]


class TestTotalReturnIndex:
    def test_constant_price_no_dividends(self):
        tri = total_return_index(simple_panel())[:, 0]
        assert np.array_equal(tri, [10.0, 10.0, 10.0])

    def test_price_doubling(self):
        tri = total_return_index(simple_panel(prices=(10.0, 20.0)))[:, 0]
        assert tri[-1] / tri[0] - 1.0 == 1.0

    def test_dividend_reinvestment_plus_ten_percent(self):
        tri = total_return_index(simple_panel(dividends=((1, 1.0),)))[:, 0]
        assert tri[-1] == pytest.approx(11.0, abs=0)
        assert tri[-1] / tri[0] - 1.0 == pytest.approx(0.10, rel=1e-14)

    def test_zero_dividends_equals_price_path(self, rng):
        prices = tuple(rng.uniform(5, 50, size=20))
        assert np.array_equal(total_return_index(simple_panel(prices=prices))[:, 0], prices)

    def test_two_dividends_multiplicative(self):
        panel = simple_panel(prices=(10.0, 20.0, 40.0), dividends=((1, 2.0), (2, 4.0)))
        tri = total_return_index(panel)[:, 0]
        assert tri[-1] == pytest.approx((1 + 2.0 / 20.0) * (1 + 4.0 / 40.0) * 40.0)

    def test_payment_date_rolls_forward(self, tmp_path):
        # ingest books a payment three days before the second close at it.
        rows = [f"{WEEK1},AAA,10", f"{WEEK2},AAA,20", f"{WEEK3},AAA,40"]
        rolled = ingest(*write_csvs(tmp_path, rows, ["AAA,2001-01-06,2"]))
        at_close = ingest(*write_csvs(tmp_path, rows, ["AAA,2001-01-09,2"]))
        assert rolled.dividends[:, 0].tolist() == [0.0, 2.0, 0.0]
        assert np.array_equal(total_return_index(rolled), total_return_index(at_close))

    def test_other_tickers_unaffected(self):
        dates = tuple(date(2001, 1, 2) + timedelta(weeks=w) for w in range(3))
        paid = np.zeros((3, 2))
        paid[1, 1] = 5.0
        panel = PricePanel(("AAA", "BBB"), dates, np.full((3, 2), 10.0), paid)
        assert np.array_equal(total_return_index(panel)[:, 0], [10.0, 10.0, 10.0])


def reference_index(dates, tickers, close, entries) -> np.ndarray:
    """The per-ticker formula over (ticker, payment date, amount) entries:
    each payment rolled forward with ``bisect_left`` and added in table
    order, then a 1-D cumprod."""
    columns = []
    for j, ticker in enumerate(tickers):
        prices = close[:, j]
        per_date = np.zeros(len(dates))
        for payer, paid, amount in entries:
            if payer == ticker:
                per_date[bisect_left(dates, paid)] += amount
        columns.append(np.cumprod(1.0 + per_date / prices) * prices)
    return np.column_stack(columns)


def hand_built_table(seed: int):
    """Irregular closes and a shuffled dividend table with same-date
    payments and payments between closes: (dates, tickers, close, entries)."""
    rng = np.random.default_rng(seed)
    n_dates, n_tickers = int(rng.integers(1, 30)), int(rng.integers(1, 8))
    tickers = tuple(f"T{j}" for j in range(n_tickers))
    dates = tuple(date(2001, 1, 2) + timedelta(days=int(x))
                  for x in np.cumsum(rng.integers(1, 10, size=n_dates)))
    close = rng.uniform(1.0, 100.0, size=(n_dates, n_tickers)).round(int(rng.integers(0, 4)))
    days = (dates[-1] - dates[0]).days
    entries = [
        (
            str(rng.choice(tickers)),
            dates[0] + timedelta(days=int(rng.integers(0, days + 1))),
            float(rng.choice([0.1, 0.2, 0.3, 1e-9, 7.0, rng.uniform(0, 5)])),
        )
        for _ in range(int(rng.integers(0, 60)))
    ]
    # Same-date payments: repeat some entries, then shuffle the table.
    entries += [entries[i] for i in rng.integers(0, len(entries), size=len(entries) // 3)]
    rng.shuffle(entries)
    return dates, tickers, close, entries


class TestIndexAgainstPerTickerFormula:
    def test_bitwise_equal_through_ingest(self, tmp_path):
        for seed in range(300):
            dates, tickers, close, entries = hand_built_table(seed)
            p, d = write_csvs(
                tmp_path,
                [f"{day},{t},{float(close[i, j])!r}" for i, day in enumerate(dates)
                 for j, t in enumerate(tickers)],
                [f"{t},{paid},{amount!r}" for t, paid, amount in entries])
            got = total_return_index(ingest(p, d))
            want = reference_index(dates, tickers, close, entries)
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), seed


class TestPeriodReturns:
    def test_flat_prices(self):
        panel = simple_panel()
        rp = period_returns(panel, [StudyPeriod("P", panel.dates[0], panel.dates[-1])])
        assert rp.total_return[0, 0] == 0.0
        assert np.all(rp.weekly_returns[0] == 0.0)

    def test_return_from_index_levels(self):
        panel = simple_panel(prices=(100.0, 130.0, 160.8))
        rp = period_returns(panel, [StudyPeriod("P", panel.dates[0], panel.dates[-1])])
        assert rp.total_return[0, 0] == pytest.approx(60.8)
        assert rp.weekly_returns[0].shape == (2, 1)

    def test_reference_period_boundaries_accepted(self):
        start, end = date(2001, 1, 2), date(2013, 5, 14)
        dates, d = [], start
        while d <= end:
            dates.append(d)
            d += timedelta(weeks=1)
        if dates[-1] != end:
            dates.append(end)
        flat = np.full((len(dates), 1), 10.0)
        panel = PricePanel(("AAA",), tuple(dates), flat, np.zeros(flat.shape))
        periods = [
            StudyPeriod("P1", date(2001, 1, 2), date(2004, 1, 6)),
            StudyPeriod("P2", date(2004, 1, 6), date(2007, 1, 2)),
            StudyPeriod("P3", date(2007, 1, 2), date(2010, 1, 5)),
            StudyPeriod("P4", date(2010, 1, 5), date(2013, 5, 14)),
        ]
        rp = period_returns(panel, periods=periods)
        assert [p.label for p in rp.periods] == ["P1", "P2", "P3", "P4"]

    def test_boundary_not_a_panel_date(self):
        panel = simple_panel()
        with pytest.raises(DataError, match="not a panel date"):
            period_returns(panel, [StudyPeriod("P", panel.dates[0], date(2030, 1, 1))])

    def test_composition_across_subperiods(self, rng):
        prices = tuple(rng.uniform(20, 60, size=30))
        panel = simple_panel(prices=prices, dividends=((5, 0.7), (12, 1.1), (20, 0.3)))
        mid = panel.dates[14]
        periods = [
            StudyPeriod("AB", panel.dates[0], mid),
            StudyPeriod("BC", mid, panel.dates[-1]),
            StudyPeriod("AC", panel.dates[0], panel.dates[-1]),
        ]
        rp = period_returns(panel, periods)
        r = rp.total_return[:, 0] / 100.0
        assert (1 + r[0]) * (1 + r[1]) == pytest.approx(1 + r[2], rel=1e-12)


class TestSynthesizePanel:
    SPEC = BlockModelSpec(block_sizes=(4, 4), loadings=(0.9, 0.9), idio_vol=0.01, weeks=156)

    def test_same_seed_bit_identical(self):
        a = synthesize_panel(self.SPEC, seed=3)
        b = synthesize_panel(self.SPEC, seed=3)
        assert np.array_equal(a.close, b.close)
        assert np.array_equal(a.dividends, b.dividends)

    def test_within_block_correlation_exceeds_cross(self):
        panel = synthesize_panel(self.SPEC, seed=3)
        rets = panel.close[1:] / panel.close[:-1] - 1.0
        rho = np.corrcoef(rets, rowvar=False)
        within = np.concatenate([rho[:4, :4][np.triu_indices(4, 1)], rho[4:, 4:][np.triu_indices(4, 1)]])
        cross = rho[:4, 4:].ravel()
        assert within.mean() > cross.mean() + 0.3

    def test_zero_loading_uncorrelated(self):
        spec = BlockModelSpec(block_sizes=(4, 4), loadings=(0.0, 0.0), idio_vol=0.01, weeks=400)
        panel = synthesize_panel(spec, seed=5)
        rets = panel.close[1:] / panel.close[:-1] - 1.0
        rho = np.corrcoef(rets, rowvar=False)
        off = rho[np.triu_indices(8, 1)]
        assert abs(off.mean()) < 3.0 / np.sqrt(400)

    def test_nonpositive_volatility_rejected(self):
        with pytest.raises(DataError, match="positive"):
            BlockModelSpec(block_sizes=(2,), loadings=(0.5,), idio_vol=0.0, weeks=10)

    def test_dividends_generated_when_enabled(self):
        spec = BlockModelSpec(
            block_sizes=(2,), loadings=(0.5,), idio_vol=0.01, weeks=20, dividend_every=10
        )
        panel = synthesize_panel(spec, seed=1)
        assert np.count_nonzero(panel.dividends) == 4  # 2 payments x 2 stocks


# --- One-pass ingest against the row-by-row reference ------------------------

TICKER_CHARS = "ABXYZ."


def encode(text: str, quote: bool) -> str:
    """One CSV field spelling ``text``: quoted when asked or when it must be."""
    if quote or "," in text or '"' in text:
        return '"' + text.replace('"', '""') + '"'
    return text


@st.composite
def spelled_date(draw, d: date) -> str:
    text = draw(st.sampled_from([d.isoformat(), f"{d.year}-{d.month}-{d.day}"]))
    return draw(st.sampled_from(["", " "])) + text + draw(st.sampled_from(["", " "]))


@st.composite
def spelled_number(draw, value: float) -> str:
    return draw(st.sampled_from([repr(value), f"{value:.6e}", f" {value!r} "]))


@st.composite
def valid_inputs(draw):
    """A valid price and dividend file pair as lists of CSV rows (lists of
    encoded fields), and the panel's (dates, tickers) shape. Rows come in any
    order; dates and tickers are spelled in several ways that read as the
    same value. A plain draw quotes no field, so that its text can be one
    record per line."""
    plain = draw(st.booleans())
    quote = st.just(False) if plain else st.booleans()
    tickers = draw(st.lists(st.text(TICKER_CHARS, min_size=1, max_size=4), min_size=1,
                            max_size=4, unique=True))
    offsets = draw(st.lists(st.integers(0, 3000), min_size=1, max_size=5, unique=True))
    dates = [date(2001, 1, 2) + timedelta(days=o) for o in offsets]
    prices = []
    for d in dates:
        for t in tickers:
            close = draw(st.floats(1e-3, 1e6))
            prices.append([
                encode(draw(spelled_date(d)), draw(quote)),
                encode(draw(st.sampled_from(["", " "])) + t + draw(st.sampled_from(["", "  "])),
                       draw(quote)),
                encode(draw(spelled_number(close)), draw(quote)),
            ])
    prices = draw(st.permutations(prices))
    first, last = min(dates), max(dates)
    dividends = []
    for _ in range(draw(st.integers(0, 4))):
        paid = first + timedelta(days=draw(st.integers(0, (last - first).days)))
        amount = draw(st.floats(0.0, 10.0))
        dividends.append([
            encode(" " + draw(st.sampled_from(tickers)), draw(quote)),
            encode(draw(spelled_date(paid)), draw(quote)),
            encode(draw(spelled_number(amount)), draw(quote)),
        ])
    return prices, dividends, (len(dates), len(tickers))


@st.composite
def csv_text(draw, header: str, rows: list[list[str]]) -> str:
    """The file text: rows joined by one line ending, blank and
    whitespace-only lines anywhere after the header. Or, when no field is
    quoted and the draw says so, one record per line, with or without the
    final line break: ``read_table`` splits such a text without csv.reader
    when every row is of the header's width."""
    lines = [",".join(row) for row in rows]
    if draw(st.booleans()) and not any('"' in line for line in lines):
        return "\n".join([header] + lines) + draw(st.sampled_from(["\n", ""]))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["", "   "])))
    return newline.join([header] + lines) + newline


def write_inputs(folder: Path, draw, prices, dividends) -> tuple[Path, Path]:
    price_file, dividend_file = folder / "prices.csv", folder / "dividends.csv"
    price_file.write_text(draw(csv_text("date,ticker,close", prices)), newline="")
    dividend_file.write_text(draw(csv_text("ticker,payment_date,amount", dividends)), newline="")
    return price_file, dividend_file


def corrupt(draw, prices: list[list[str]], dividends: list[list[str]], shape) -> None:
    """Make one cell, row or line of the inputs invalid, in place."""
    kinds = ["close", "date", "ticker", "duplicate", "fields", "drop",
             "payer", "paid", "amount"]
    if len(prices) > 1 and min(shape) == 1:
        kinds.remove("drop")  # the panel would just lose a date or a ticker
    kind = draw(st.sampled_from(kinds))
    bad_dividend = {
        "payer": (0, ["ZZZ", ""]),
        "paid": (1, ["1990-01-01", "2031-1-1", "2001-02-30", "x"]),
        "amount": (2, ["-0.5", "nan", "inf", "abc", ""]),
    }
    if kind in bad_dividend:
        if not dividends:  # a row for the first price row's ticker and date
            dividends.append([prices[0][1], prices[0][0], "1.0"])
        column, values = bad_dividend[kind]
        draw(st.sampled_from(dividends))[column] = draw(st.sampled_from(values))
        return
    i = draw(st.integers(0, len(prices) - 1))
    row = prices[i]
    if kind == "close":  # a slice: an earlier corruption may have cut the row short
        row[2:3] = [draw(st.sampled_from(["abc", "-1", "0", "nan", "-inf", "1e999", ""]))]
    elif kind == "date":
        row[0] = draw(st.sampled_from(["2001-02-30", "01/02/2001", ""]))
    elif kind == "ticker":
        row[1] = draw(st.sampled_from(["", "  "]))
    elif kind == "duplicate":  # a second row for a cell, leaving another one empty
        j = draw(st.integers(0, len(prices) - 1).filter(lambda j: j != i)) if len(prices) > 1 else i
        prices[i] = list(prices[j])
        if i == j:
            prices.append(list(row))
    elif kind == "fields":
        prices[i] = row + ["1"] if draw(st.booleans()) else row[:2]
    else:
        del prices[i]


class TestColumnarIngest:
    """``ingest`` reads columns and checks them as arrays; the row-by-row
    reader of ``ingest_reference`` is its reference, panel for panel and
    message for message."""

    @settings(max_examples=150, deadline=None)
    @given(valid_inputs(), st.data())
    def test_same_panel_as_row_reader(self, inputs, data):
        with tempfile.TemporaryDirectory() as folder:
            files = write_inputs(Path(folder), data.draw, *inputs[:2])
            panel, ref_panel = ingest(*files), _ingest_rows(*files)
        assert panel.tickers == ref_panel.tickers and panel.dates == ref_panel.dates
        assert np.array_equal(panel.close, ref_panel.close)
        assert panel.dividends.tobytes() == ref_panel.dividends.tobytes()

    @settings(max_examples=150, deadline=None)
    @given(valid_inputs(), st.data())
    def test_corruption_gives_row_reader_message(self, inputs, data):
        prices, dividends, shape = inputs
        corrupt(data.draw, prices, dividends, shape)
        with tempfile.TemporaryDirectory() as folder:
            folder = Path(folder)
            files = write_inputs(folder, data.draw, prices, dividends)
            with pytest.raises(DataError) as expected:
                _ingest_rows(*files)
            with pytest.raises(DataError) as got:
                ingest(*files)
            assert str(got.value) == str(expected.value)
            (folder / "periods.json").write_text(
                '[{"label": "P1", "start": "2001-01-02", "end": "2001-01-09"}]')
            (folder / "config.json").write_text(json.dumps(
                {"prices": "prices.csv", "dividends": "dividends.csv", "periods": "periods.json"}))
            stderr = io.StringIO()
            with contextlib.redirect_stderr(stderr):
                code = main(["returns", "--config", str(folder / "config.json"),
                             "--out-dir", str(folder / "out")])
        assert code == 2
        assert stderr.getvalue() == f"error: {expected.value}\n"

    @settings(max_examples=150, deadline=None)
    @given(valid_inputs(), st.data())
    def test_two_corruptions_give_row_reader_message(self, inputs, data):
        """The first bad line wins, whichever check each of two bad lines
        fails, a wrong width included. (Two dropped rows can leave a valid
        panel without one date; then the panels must agree.)"""
        prices, dividends, shape = inputs
        corrupt(data.draw, prices, dividends, shape)
        if prices:
            corrupt(data.draw, prices, dividends, shape)

        def outcome(read, files):
            try:
                panel = read(*files)
            except DataError as exc:
                return str(exc)
            return panel.tickers, panel.dates, panel.close.tolist(), panel.dividends.tolist()

        with tempfile.TemporaryDirectory() as folder:
            files = write_inputs(Path(folder), data.draw, prices, dividends)
            assert outcome(ingest, files) == outcome(_ingest_rows, files)

    @pytest.mark.parametrize("rows,dividend,opened", [
        ([f"{WEEK1},AAA,10", f"{WEEK2},AAA,-3"], "AAA,2001-01-09,1", ["prices.csv"]),
        ([f"{WEEK1},AAA,10", f"{WEEK2},AAA,11"], "AAA,2001-01-09,-1",
         ["dividends.csv", "prices.csv"]),
    ], ids=["price-error", "dividend-error"])
    def test_failing_ingest_reads_each_file_once(self, tmp_path, monkeypatch, rows, dividend,
                                                 opened):
        p, d = write_csvs(tmp_path, rows, [dividend])
        names = []
        real_open = open

        def counted_open(file, *args, **kwargs):
            names.append(Path(file).name)
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr("builtins.open", counted_open)
        with pytest.raises(DataError):
            ingest(p, d)
        assert sorted(names) == opened

    def test_two_spellings_of_a_date_are_a_duplicate(self, tmp_path):
        p, d = write_csvs(tmp_path, [f"{WEEK1},AAA,10", "2001-1-2,AAA,11"], [])
        with pytest.raises(DataError, match=r"prices\.csv:3: duplicate row for \(2001-01-02, AAA\)"):
            ingest(p, d)


# --- Price files of several chunks -------------------------------------------


def price_rows(n_tickers: int, n_dates: int) -> list[list[str]]:
    """Rows of a full (date, ticker) grid of positive closes, date-major."""
    return [[(date(2001, 1, 2) + timedelta(weeks=i)).isoformat(), f"T{j:03d}",
              f"{10 + (31 * i + 17 * j) % 997 / 7:.6f}"]
            for i in range(n_dates) for j in range(n_tickers)]


def write_rows(tmp_path, rows, dividends=()) -> tuple[Path, Path]:
    prices, divs = tmp_path / "prices.csv", tmp_path / "dividends.csv"
    prices.write_text("date,ticker,close\n" + "".join(",".join(r) + "\n" for r in rows))
    divs.write_text("ticker,payment_date,amount\n" + "".join(f"{r}\n" for r in dividends))
    return prices, divs


def late(rows: list[list[str]]) -> int:
    """A row of the last quarter of the file, at least two chunks from its start."""
    row = len(rows) * 4 // 5
    assert sum(len(",".join(r)) + 1 for r in rows[:row]) > 2 * CHUNK
    return row


def set_field(column: int, text: str):
    def corrupt(rows):
        rows[late(rows)][column] = text
    return corrupt


def duplicate_first_row(rows):
    rows[late(rows)] = list(rows[1])  # the first copy is in the first chunk


def drop_late_row(rows):
    del rows[late(rows)]


def widen_late_row(rows):
    rows[late(rows)].append("1")


class TestChunkBoundaries:
    """A price file of several chunks reads as the row-by-row reference reads
    it: the clean file gives its panel bit for bit, and one fault in a late
    chunk gives the reference's message, for every check."""

    ROWS = price_rows(40, 80)  # about 5 chunks
    DIVIDENDS = ("T000,2001-01-09,0.5", "T039,2002-06-01,1.25", "T007,2001-01-09,0.25")

    def test_same_panel_as_row_reader(self, tmp_path):
        files = write_rows(tmp_path, self.ROWS, self.DIVIDENDS)
        assert len(_record_lines(files[0].read_text(), len(HEADER))) > 4  # the header, 4+ chunks
        panel, ref_panel = ingest(*files), _ingest_rows(*files)
        assert panel.tickers == ref_panel.tickers and panel.dates == ref_panel.dates
        assert panel.close.tobytes() == ref_panel.close.tobytes()
        assert panel.dividends.tobytes() == ref_panel.dividends.tobytes()
        split, by_csv = both_parsers(files[0].read_text())
        assert split == by_csv

    @pytest.mark.parametrize("corrupt", [
        set_field(0, "2001-02-30"), set_field(1, " "), set_field(2, "abc"), set_field(2, "-1"),
        duplicate_first_row, drop_late_row, widen_late_row,
    ], ids=["invalid-date", "empty-ticker", "invalid-price", "non-positive-price",
            "duplicate", "missing-cell", "wrong-width"])
    def test_late_fault_gives_row_reader_message(self, tmp_path, corrupt):
        rows = [list(r) for r in self.ROWS]
        corrupt(rows)
        files = write_rows(tmp_path, rows, self.DIVIDENDS)
        with pytest.raises(DataError) as expected:
            _ingest_rows(*files)
        with pytest.raises(DataError) as got:
            ingest(*files)
        assert str(got.value) == str(expected.value)
        split, by_csv = both_parsers(files[0].read_text())
        assert split is None or split == by_csv


def quote_every_field(text: bytes) -> bytes:
    return b"".join(b'"' + line.replace(b",", b'","') + b'"\n' for line in text.splitlines())


@pytest.mark.parametrize("spell", [
    lambda text: text, lambda text: text.replace(b"\n", b"\r\n"), quote_every_field,
], ids=["lf", "crlf", "quoted"])
def test_ingest_heap_peak_is_at_most_three_times_the_file(tmp_path, spell):
    """``ingest`` holds no string per field of the price file: on a 2 MB
    file its heap peak, under tracemalloc, is at most three times the
    file's size (the file's bytes and their text are two of them), whether
    the file is split or read by ``csv.reader``."""
    prices, divs = write_rows(tmp_path, price_rows(120, 640), ["T000,2001-01-09,0.5"])
    assert 1.9e6 < prices.stat().st_size < 2.2e6
    prices.write_bytes(spell(prices.read_bytes()))
    size = prices.stat().st_size
    peak = ingest_heap_peak(prices, divs)
    assert peak <= 3 * size, f"heap peak {peak / 1e6:.2f} MB for a {size / 1e6:.2f} MB file"


def test_ingest_heap_peak_on_dividends_is_at_most_three_times_their_file(tmp_path):
    """``ingest`` holds no string per field of the dividend file either: with
    a small price file and a 1 MB dividend file of 40,000 rows, its heap peak
    is at most three times the dividend file's size."""
    first = date(2001, 1, 2)
    dividends = [f"T{k % 4:03d},{first + timedelta(days=k * 7919 % 400)},{k % 997 / 7:.6f}"
                 for k in range(40_000)]
    prices, divs = write_rows(tmp_path, price_rows(4, 60), dividends)
    size = divs.stat().st_size
    assert 0.9e6 < size < 1.2e6
    peak = ingest_heap_peak(prices, divs)
    assert peak <= 3 * size, f"heap peak {peak / 1e6:.2f} MB for a {size / 1e6:.2f} MB file"


def ingest_heap_peak(prices: Path, divs: Path) -> int:
    """The heap that ``ingest`` of these files holds at most, in bytes,
    under tracemalloc."""
    gc.collect()
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        ingest(prices, divs)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()


# --- A line break, a CRLF or a blank line at a chunk cut ---------------------

QUOTED_TICKER = '"Q\n"'  # the ticker 'Q\n', read as 'Q': a line break in a quoted field


def text_at_cut(newline: str, mark: str, at: int, quoted: str = "", blank: bool = False
                ) -> str:
    """A price file of 8 tickers x 100 dates (about 22 KB), its lines
    joined by ``newline``, whose last ``mark`` before index ``at`` is moved
    to ``at`` by leading spaces in the first close. ``quoted``, when given,
    spells the last ticker; ``blank`` adds a blank line before the cut."""
    lines = ["date,ticker,close"] + [
        ",".join([d, quoted if quoted and t == "T007" else t, c])
        for d, t, c in price_rows(8, 100)]
    if blank:
        lines.insert(CHUNK // 40, "")
    shift = at - "".join(line + newline for line in lines).rindex(mark, 0, at)
    head, _, close = lines[1].rpartition(",")
    lines[1] = f"{head},{' ' * shift}{close}"
    return "".join(line + newline for line in lines)


# The split path cuts at the first line break at least CHUNK characters into
# the text after the header line; csv.reader is fed text cut after the first
# line feed at or past index CHUNK.
SPLIT_CUT = len("date,ticker,close\r\n") + CHUNK


class TestCuts:
    """A quoted field that holds a line break, a CRLF and a blank line, each
    at a chunk cut, read as the row-by-row reference and ``csv.reader`` alone
    read them."""

    @pytest.mark.parametrize("text,splits", [
        (text_at_cut("\n", '\n"', CHUNK, quoted=QUOTED_TICKER), False),
        (text_at_cut("\r\n", '\n"', CHUNK, quoted=QUOTED_TICKER), False),
        (text_at_cut("\r\n", "\r\n", SPLIT_CUT - 1), True),
        (text_at_cut("\r\n", "\r\n", SPLIT_CUT), True),
        (text_at_cut("\r\n", "\r\n", CHUNK - 1, quoted=QUOTED_TICKER), False),
        (text_at_cut("\r\n", "\r\n", CHUNK, quoted=QUOTED_TICKER), False),
        (text_at_cut("\n", "\n\n", CHUNK - 1, blank=True), False),
        (text_at_cut("\n", "\n\n", CHUNK, blank=True), False),
    ], ids=["quoted-field", "quoted-field-crlf", "crlf-split-lf-at-cut", "crlf-split-cr-at-cut",
            "crlf-csv-lf-at-cut", "crlf-csv-cr-at-cut", "blank-line-ends-chunk",
            "blank-line-starts-chunk"])
    def test_same_as_reference(self, tmp_path, text, splits):
        assert (_record_lines(text, len(HEADER)) is not None) == splits
        files = write_rows(tmp_path, [], TestChunkBoundaries.DIVIDENDS[:1])
        files[0].write_bytes(text.encode("utf-8"))
        panel, ref_panel = ingest(*files), _ingest_rows(*files)
        assert panel.tickers == ref_panel.tickers and panel.dates == ref_panel.dates
        assert panel.close.tobytes() == ref_panel.close.tobytes()
        assert panel.dividends.tobytes() == ref_panel.dividends.tobytes()
        by_csv = read_outcome(
            lambda: _read_rows(files[0], io.StringIO(text, newline=""), HEADER, None))
        assert read_outcome(lambda: read_table(files[0], HEADER)) == by_csv

    def test_doubled_quote_at_cut(self, tmp_path):
        """A line break and then a doubled quote in a quoted field at the cut
        read as ``csv.reader`` alone reads them. No output can carry the
        ticker they spell, so ``ingest`` fails on its first row."""
        ticker = 'Q\n"X'
        text = text_at_cut("\n", '\n""', CHUNK, quoted=encode(ticker, True))
        path = tmp_path / "prices.csv"
        path.write_bytes(text.encode("utf-8"))
        by_csv = read_outcome(lambda: _read_rows(path, io.StringIO(text, newline=""), HEADER, None))
        assert read_outcome(lambda: read_table(path, HEADER)) == by_csv
        with pytest.raises(DataError) as failed:
            ingest(path, tmp_path / "dividends.csv")
        line = text[: text.index('"Q')].count("\n") + 1
        assert str(failed.value) == f"{path}:{line}: invalid ticker {ticker!r}"


# --- A text split in its first chunks, then read by csv.reader -------------


class TestHandOver:
    """A price file of about five chunks, one record per line but for a
    quoted ticker on its next-to-last row: its first chunks are split, and
    the chunk that holds the quote goes with the rest of the text to one
    csv.reader. Rows, panel and messages are those of csv.reader alone and
    of the row-by-row reference."""

    def write(self, tmp_path, last_line_end: bytes) -> tuple[Path, Path]:
        rows = [list(r) for r in TestChunkBoundaries.ROWS]
        rows[-2][1] = f'"{rows[-2][1]}"'
        files = write_rows(tmp_path, rows, TestChunkBoundaries.DIVIDENDS)
        files[0].write_bytes(files[0].read_bytes()[:-1] + last_line_end)
        kinds = [isinstance(lines, range) for lines, _, _ in read_chunks(files[0], HEADER)[1]]
        assert kinds == sorted(kinds, reverse=True) and kinds.count(True) >= 4 and not kinds[-1]
        return files

    @pytest.mark.parametrize("last_line_end", [b"\n", b",1\n"], ids=["clean", "wrong-width"])
    def test_same_as_reference(self, tmp_path, last_line_end):
        files = self.write(tmp_path, last_line_end)
        text = files[0].read_text()
        by_csv = read_outcome(
            lambda: _read_rows(files[0], io.StringIO(text, newline=""), HEADER, None))
        assert read_outcome(lambda: read_table(files[0], HEADER)) == by_csv

        def outcome(read):
            try:
                panel = read(*files)
            except DataError as exc:
                return str(exc)
            return panel.tickers, panel.dates, panel.close.tobytes(), panel.dividends.tobytes()

        assert outcome(ingest) == outcome(_ingest_rows)

    def test_undecodable_byte(self, tmp_path):
        files = self.write(tmp_path, b"\xff\n")
        data = files[0].read_bytes()
        line = data.count(b"\n")
        message = f"{files[0]}:{line}: cannot decode byte 0xff as UTF-8 (invalid start byte)"
        before = data[:data.rindex(b"\n", 0, -1) + 1].decode()
        by_csv = read_outcome(lambda: _read_rows(
            files[0], io.StringIO(before, newline=""), HEADER, DataError(message)))
        assert by_csv[2] == message and by_csv[0][-1] == line - 1
        assert read_outcome(lambda: read_table(files[0], HEADER)) == by_csv
        with pytest.raises(DataError) as exc:
            ingest(*files)
        assert str(exc.value) == message


# --- The two parsers of a CSV text, and the two of a date ---------------------

HEADER = ("date", "ticker", "close")
LIMIT = csv.field_size_limit()


def read_outcome(read):
    """A read's lines, columns and stop message, or the message it raised."""
    try:
        lines, columns, stop = read()
    except DataError as exc:
        return str(exc)
    return list(lines), columns, None if stop is None else str(stop)


def both_parsers(text: str, header: tuple[str, ...] = HEADER):
    """What ``str.split`` reads of a text (None when ``_record_lines`` would
    not split it) and what ``csv.reader`` reads of it. A text that reads
    without raising gives row lines that are a range (every chunk split)
    exactly when ``_record_lines`` splits it."""
    with tempfile.TemporaryDirectory() as folder:
        path = Path(folder) / "f.csv"
        path.write_bytes(text.encode("utf-8"))
        by_csv = read_outcome(lambda: _read_rows(path, io.StringIO(text, newline=""), header, None))
        splits = _record_lines(text, len(header)) is not None
        with contextlib.suppress(DataError):
            assert isinstance(read_table(path, header)[0], range) == splits
        if not splits:
            return None, by_csv
        return read_outcome(lambda: read_table(path, header)), by_csv


class TestTwoParsers:
    """``read_table`` splits a text that is one record per line with
    ``str.split``; on every text it splits, ``csv.reader`` reads the same
    lines, columns and stop."""

    @settings(max_examples=150, deadline=None)
    @given(valid_inputs(), st.booleans(), st.data())
    def test_fuzzed_files(self, inputs, corrupted, data):
        prices, dividends, shape = inputs
        if corrupted:
            corrupt(data.draw, prices, dividends, shape)
        text = data.draw(csv_text(",".join(HEADER), prices))
        split, by_csv = both_parsers(text)
        assert split is None or split == by_csv

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(["date,ticker,close\n", " date , ticker,close\n", ""]),
           st.text('ab ,\n\r"\x00\x0b ', max_size=30))
    def test_any_text(self, head, rest):
        split, by_csv = both_parsers(head + rest)
        assert split is None or split == by_csv

    def test_fuzz_reaches_both_parsers(self):
        split = set()

        @settings(max_examples=60, deadline=None, database=None)
        @given(valid_inputs(), st.data())
        def draw(inputs, data):
            text = data.draw(csv_text(",".join(HEADER), inputs[0]))
            split.add(_record_lines(text, len(HEADER)) is not None)

        draw()
        assert split == {True, False}

    @pytest.mark.parametrize("text,splits", [
        ("date,ticker,close\n", True),
        ("date,ticker,close", True),
        ("", True),
        ("date,ticker,close\n2001-01-02,A,1\n2001-01-09,A,2", True),
        ("date,ticker,close\n2001-01-02, A ,1\n2001-01-09,B,x\n", True),
        ("date,ticker,price\n2001-01-02,A,1\n", True),
        ("date,ticker,close\n2001-01-02,A,1\n2001-01-09,A\n", False),
        ("date,ticker,close\n2001-01-02,A\x00,1\n", False),
        ("date,ticker,close\n2001-01-02,A," + "9" * LIMIT + "\n", False),
        ("date,ticker,close\n2001-01-02,A," + "9" * (LIMIT + 1) + "\n", False),
        ("date,ticker,close\n2001-01-02,A," + "9" * (LIMIT - 13) + "\n", True),
        ("date,ticker,close\n2001-01-02,A," + "9" * (LIMIT - 12) + "\n", False),
        ("date,ticker,close\r2001-01-02,A,1\r2001-01-09,A,2\r", False),
        ("date,ticker,close\r\n2001-01-02,A,1\r\n", True),
        ("date,ticker,close\r\n2001-01-02,A,1\r\n2001-01-09,A,2", True),
        ("date,ticker,close\r\n2001-01-02,A,1\r2001-01-09,A,2\r\n", False),
        ('date,ticker,close\r\n2001-01-02,"A",1\r\n', False),
        ("date,ticker,close\r\n\r\n2001-01-02,A,1\r\n", False),
        ("date,ticker,close\n   \n2001-01-02,A,1\n", False),
        ("date,ticker,close\n2001-01-02,A,1\n\n", False),
        ('date,ticker,close\n2001-01-02,"A",1\n', False),
    ], ids=["header-only", "header-only-no-newline", "empty", "no-final-newline",
            "padded-and-bad-fields", "wrong-header", "short-row", "nul", "field-at-limit",
            "field-over-limit", "line-at-limit", "line-over-limit", "cr-only", "crlf",
            "crlf-no-final-newline", "crlf-and-lone-cr", "crlf-quoted", "crlf-blank-line",
            "whitespace-line",
            "blank-last-line", "quoted"])
    def test_edge_texts(self, tmp_path, text, splits):
        """The same result from ``read_table`` as from ``csv.reader`` alone,
        through the parser each text selects. (3.10's csv.reader raises at a
        NUL byte and later versions read it; ``read_table`` does the same.)"""
        assert (_record_lines(text, len(HEADER)) is not None) == splits
        path = tmp_path / "f.csv"
        path.write_bytes(text.encode("utf-8"))
        by_csv = read_outcome(
            lambda: _read_rows(path, io.StringIO(text, newline=""), HEADER, None))
        assert read_outcome(lambda: read_table(path, HEADER)) == by_csv
        split, by_csv_alone = both_parsers(text)
        assert split is None or split == by_csv_alone

    @pytest.mark.parametrize("text", ["ticker\nA\n\n  \nB\n", "ticker\nA\nB\n"])
    def test_one_column(self, tmp_path, text):
        """A line of one field may be empty, which csv.reader skips."""
        path = tmp_path / "f.csv"
        path.write_text(text)
        by_csv = read_outcome(
            lambda: _read_rows(path, io.StringIO(text, newline=""), ("ticker",), None))
        assert read_outcome(lambda: read_table(path, ("ticker",))) == by_csv

    def test_header_only_has_no_rows(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("ticker,payment_date,amount\n")
        lines, columns, stop = read_table(path, ("ticker", "payment_date", "amount"))
        assert (list(lines), columns, stop) == ([], ([], [], []), None)


def strptime_date(value: object) -> date | None:
    """The date ``strptime`` reads from a stripped text; None for any other value."""
    try:
        return datetime.strptime(value.strip(), "%Y-%m-%d").date()
    except (AttributeError, ValueError):
        return None


class TestDateParser:
    """``_date`` reads ten-character ISO dates with ``date.fromisoformat`` and
    every other value with ``strptime``; either way it reads what ``strptime``
    reads."""

    @settings(max_examples=400, deadline=None)
    @given(st.one_of(
        st.dates().map(date.isoformat),
        st.dates().map(lambda d: f"{d.year}-{d.month}-{d.day}"),
        st.tuples(st.sampled_from(["", " ", "\t", "\n "]), st.dates().map(date.isoformat),
                  st.sampled_from(["", " ", "  ", "\n"])).map("".join),
        st.sampled_from(["20010102", "2001-W01-1", "２００１-０１-０２", "2001-０１-02",
                         "2001-02-29", "2004-02-29", "0000-01-01", "0001-01-01", "9999-12-31",
                         "2001-00-10", "2001-13-01", "2001-01-32", "2001-01-00", "+001-01-01",
                         "2001-01-0٣", "2001/01/02", "2001-01-02T00", ""]),
        st.text("0123456789-+ W٣", min_size=8, max_size=12),
        # What periods.json may hold instead of a string.
        st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False),
        st.lists(st.sampled_from(["2001-01-02", 2001, None]), min_size=10, max_size=10),
        st.dictionaries(st.text(max_size=2), st.integers(), min_size=10, max_size=10),
    ))
    def test_same_as_strptime(self, value):
        assert _date(value) == strptime_date(value)
