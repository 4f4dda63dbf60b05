"""Ingestion, total-return indices, period returns, synthetic panels."""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
from bisect import bisect_left
from datetime import date, timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netfolio.cli import main
from netfolio.market_data import (
    BlockModelSpec,
    DataError,
    Dividend,
    DividendTable,
    PricePanel,
    StudyPeriod,
    _ingest_columns,
    _ingest_rows,
    ingest,
    period_returns,
    synthesize_panel,
    total_return_index,
)


def write_csvs(tmp_path, price_rows, div_rows):
    prices = tmp_path / "prices.csv"
    prices.write_text("date,ticker,close\n" + "".join(f"{r}\n" for r in price_rows))
    divs = tmp_path / "dividends.csv"
    divs.write_text("ticker,payment_date,amount\n" + "".join(f"{r}\n" for r in div_rows))
    return prices, divs


WEEK1, WEEK2, WEEK3 = "2001-01-02", "2001-01-09", "2001-01-16"


def simple_panel(prices=(10.0, 10.0, 10.0), dividends=()):
    dates = tuple(date(2001, 1, 2) + timedelta(weeks=w) for w in range(len(prices)))
    close = np.array([[p] for p in prices])
    panel = PricePanel(("AAA",), dates, close)
    table = DividendTable(tuple(Dividend("AAA", dates[i], amt) for i, amt in dividends))
    return panel, table


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
        panel, divs = ingest(p, d)
        assert panel.tickers == ("AAA", "BBB")
        assert panel.close.size == 6
        assert divs.entries[0].amount == 0.5

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


class TestTotalReturnIndex:
    def test_constant_price_no_dividends(self):
        panel, divs = simple_panel()
        tri = total_return_index(panel, divs)[:, 0]
        assert np.array_equal(tri, [10.0, 10.0, 10.0])

    def test_price_doubling(self):
        panel, divs = simple_panel(prices=(10.0, 20.0))
        tri = total_return_index(panel, divs)[:, 0]
        assert tri[-1] / tri[0] - 1.0 == 1.0

    def test_dividend_reinvestment_plus_ten_percent(self):
        panel, divs = simple_panel(dividends=((1, 1.0),))
        tri = total_return_index(panel, divs)[:, 0]
        assert tri[-1] == pytest.approx(11.0, abs=0)
        assert tri[-1] / tri[0] - 1.0 == pytest.approx(0.10, rel=1e-14)

    def test_zero_dividends_equals_price_path(self, rng):
        prices = tuple(rng.uniform(5, 50, size=20))
        panel, divs = simple_panel(prices=prices)
        assert np.array_equal(total_return_index(panel, divs)[:, 0], prices)

    def test_two_dividends_multiplicative(self):
        panel, divs = simple_panel(prices=(10.0, 20.0, 40.0), dividends=((1, 2.0), (2, 4.0)))
        tri = total_return_index(panel, divs)[:, 0]
        assert tri[-1] == pytest.approx((1 + 2.0 / 20.0) * (1 + 4.0 / 40.0) * 40.0)

    def test_payment_date_rolls_forward(self):
        panel, _ = simple_panel(prices=(10.0, 20.0, 40.0))
        divs = DividendTable((Dividend("AAA", panel.dates[1] - timedelta(days=3), 2.0),))
        rolled = total_return_index(panel, divs)[:, 0]
        at_close = total_return_index(
            panel, DividendTable((Dividend("AAA", panel.dates[1], 2.0),))
        )[:, 0]
        assert np.array_equal(rolled, at_close)

    def test_other_tickers_unaffected(self):
        dates = tuple(date(2001, 1, 2) + timedelta(weeks=w) for w in range(3))
        panel = PricePanel(("AAA", "BBB"), dates, np.full((3, 2), 10.0))
        divs = DividendTable((Dividend("BBB", dates[1], 5.0),))
        assert np.array_equal(total_return_index(panel, divs)[:, 0], [10.0, 10.0, 10.0])

    def test_late_dividend_named(self):
        panel, _ = simple_panel()
        late = panel.dates[-1] + timedelta(days=1)
        divs = DividendTable((Dividend("AAA", panel.dates[0], 1.0), Dividend("AAA", late, 2.0)))
        with pytest.raises(
            DataError, match=r"^dividend for AAA on 2001-01-17 has no close date at or after it$"
        ):
            total_return_index(panel, divs)


def reference_index(panel: PricePanel, divs: DividendTable) -> np.ndarray:
    """The per-ticker formula: each payment rolled forward with
    ``bisect_left`` and added in table order, then a 1-D cumprod."""
    columns = []
    for j, ticker in enumerate(panel.tickers):
        prices = panel.close[:, j]
        per_date = np.zeros(len(panel.dates))
        for entry in divs.entries:
            if entry.ticker != ticker:
                continue
            i = bisect_left(panel.dates, entry.payment_date)
            if i >= len(panel.dates):
                raise DataError(
                    f"dividend for {ticker} on {entry.payment_date.isoformat()} "
                    "has no close date at or after it"
                )
            per_date[i] += entry.amount
        columns.append(np.cumprod(1.0 + per_date / prices) * prices)
    return np.column_stack(columns)


def hand_built_table(seed: int) -> tuple[PricePanel, DividendTable]:
    """Irregular closes and a shuffled dividend table with same-date
    payments, payments between closes, tickers outside the panel and, in
    every fifth table, payment dates up to five days past the last close."""
    rng = np.random.default_rng(seed)
    n_dates, n_tickers = int(rng.integers(1, 30)), int(rng.integers(1, 8))
    tickers = tuple(f"T{j}" for j in range(n_tickers))
    dates = tuple(date(2001, 1, 2) + timedelta(days=int(x))
                  for x in np.cumsum(rng.integers(1, 10, size=n_dates)))
    close = rng.uniform(1.0, 100.0, size=(n_dates, n_tickers)).round(int(rng.integers(0, 4)))
    days = (dates[-1] - dates[0]).days + (5 if seed % 5 == 0 else 0)
    entries = [
        Dividend(
            str(rng.choice(tickers + ("ZZZ", "T9"))),
            dates[0] + timedelta(days=int(rng.integers(-3, days + 1))),
            float(rng.choice([0.1, 0.2, 0.3, 1e-9, 7.0, rng.uniform(0, 5)])),
        )
        for _ in range(int(rng.integers(0, 60)))
    ]
    # Same-date payments: repeat some entries, then shuffle the table.
    entries += [entries[i] for i in rng.integers(0, len(entries), size=len(entries) // 3)]
    rng.shuffle(entries)
    return PricePanel(tickers, dates, close), DividendTable(tuple(entries))


class TestIndexAgainstPerTickerFormula:
    def test_bitwise_equal_or_same_error(self):
        raised = 0
        for seed in range(300):
            panel, divs = hand_built_table(seed)
            try:
                want = reference_index(panel, divs)
            except DataError as exc:
                raised += 1
                with pytest.raises(DataError) as got:
                    total_return_index(panel, divs)
                assert str(got.value) == str(exc), seed
                continue
            got = total_return_index(panel, divs)
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), seed
        assert 0 < raised < 100


class TestPeriodReturns:
    def test_flat_prices(self):
        panel, divs = simple_panel()
        rp = period_returns(panel, divs, [StudyPeriod("P", panel.dates[0], panel.dates[-1])])
        assert rp.total_return[0, 0] == 0.0
        assert np.all(rp.weekly_returns[0] == 0.0)

    def test_return_from_index_levels(self):
        panel, divs = simple_panel(prices=(100.0, 130.0, 160.8))
        rp = period_returns(panel, divs, [StudyPeriod("P", panel.dates[0], panel.dates[-1])])
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
        panel = PricePanel(("AAA",), tuple(dates), np.full((len(dates), 1), 10.0))
        periods = [
            StudyPeriod("P1", date(2001, 1, 2), date(2004, 1, 6)),
            StudyPeriod("P2", date(2004, 1, 6), date(2007, 1, 2)),
            StudyPeriod("P3", date(2007, 1, 2), date(2010, 1, 5)),
            StudyPeriod("P4", date(2010, 1, 5), date(2013, 5, 14)),
        ]
        rp = period_returns(panel, divs=DividendTable(()), periods=periods)
        assert [p.label for p in rp.periods] == ["P1", "P2", "P3", "P4"]

    def test_boundary_not_a_panel_date(self):
        panel, divs = simple_panel()
        with pytest.raises(DataError, match="not a panel date"):
            period_returns(panel, divs, [StudyPeriod("P", panel.dates[0], date(2030, 1, 1))])

    def test_composition_across_subperiods(self, rng):
        prices = tuple(rng.uniform(20, 60, size=30))
        panel, _ = simple_panel(prices=prices)
        divs = DividendTable(
            tuple(Dividend("AAA", panel.dates[i], a) for i, a in ((5, 0.7), (12, 1.1), (20, 0.3)))
        )
        mid = panel.dates[14]
        periods = [
            StudyPeriod("AB", panel.dates[0], mid),
            StudyPeriod("BC", mid, panel.dates[-1]),
            StudyPeriod("AC", panel.dates[0], panel.dates[-1]),
        ]
        rp = period_returns(panel, divs, periods)
        r = rp.total_return[:, 0] / 100.0
        assert (1 + r[0]) * (1 + r[1]) == pytest.approx(1 + r[2], rel=1e-12)


class TestSynthesizePanel:
    SPEC = BlockModelSpec(block_sizes=(4, 4), loadings=(0.9, 0.9), idio_vol=0.01, weeks=156)

    def test_same_seed_bit_identical(self):
        a, da = synthesize_panel(self.SPEC, seed=3)
        b, db = synthesize_panel(self.SPEC, seed=3)
        assert np.array_equal(a.close, b.close)
        assert da == db

    def test_within_block_correlation_exceeds_cross(self):
        panel, _ = synthesize_panel(self.SPEC, seed=3)
        rets = panel.close[1:] / panel.close[:-1] - 1.0
        rho = np.corrcoef(rets, rowvar=False)
        within = np.concatenate([rho[:4, :4][np.triu_indices(4, 1)], rho[4:, 4:][np.triu_indices(4, 1)]])
        cross = rho[:4, 4:].ravel()
        assert within.mean() > cross.mean() + 0.3

    def test_zero_loading_uncorrelated(self):
        spec = BlockModelSpec(block_sizes=(4, 4), loadings=(0.0, 0.0), idio_vol=0.01, weeks=400)
        panel, _ = synthesize_panel(spec, seed=5)
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
        _, divs = synthesize_panel(spec, seed=1)
        assert len(divs.entries) == 4  # 2 payments x 2 stocks


# --- Columnar ingest against the row-by-row reader ---------------------------

TICKER_CHARS = "ABXYZ.,"  # ',' forces a quoted field


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
    same value."""
    tickers = draw(st.lists(st.text(TICKER_CHARS, min_size=1, max_size=4), min_size=1,
                            max_size=4, unique=True))
    offsets = draw(st.lists(st.integers(0, 3000), min_size=1, max_size=5, unique=True))
    dates = [date(2001, 1, 2) + timedelta(days=o) for o in offsets]
    prices = []
    for d in dates:
        for t in tickers:
            close = draw(st.floats(1e-3, 1e6))
            prices.append([
                encode(draw(spelled_date(d)), draw(st.booleans())),
                encode(draw(st.sampled_from(["", " "])) + t + draw(st.sampled_from(["", "  "])),
                       draw(st.booleans())),
                encode(draw(spelled_number(close)), draw(st.booleans())),
            ])
    prices = draw(st.permutations(prices))
    first, last = min(dates), max(dates)
    dividends = []
    for _ in range(draw(st.integers(0, 4))):
        paid = first + timedelta(days=draw(st.integers(0, (last - first).days)))
        amount = draw(st.floats(0.0, 10.0))
        dividends.append([
            encode(" " + draw(st.sampled_from(tickers)), draw(st.booleans())),
            encode(draw(spelled_date(paid)), draw(st.booleans())),
            encode(draw(spelled_number(amount)), draw(st.booleans())),
        ])
    return prices, dividends, (len(dates), len(tickers))


@st.composite
def csv_text(draw, header: str, rows: list[list[str]]) -> str:
    """The file text: rows joined by one line ending, blank and
    whitespace-only lines anywhere after the header."""
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    lines = [",".join(row) for row in rows]
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
    if kind == "close":
        row[2] = draw(st.sampled_from(["abc", "-1", "0", "nan", "-inf", "1e999", ""]))
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
    reader is its reference and produces every error message."""

    @settings(max_examples=150, deadline=None)
    @given(valid_inputs(), st.data())
    def test_same_panel_as_row_reader(self, inputs, data):
        with tempfile.TemporaryDirectory() as folder:
            files = write_inputs(Path(folder), data.draw, *inputs[:2])
            fast = _ingest_columns(*files)
            assert fast is not None, "a valid input fell back to the row reader"
            (panel, divs), (ref_panel, ref_divs) = fast, _ingest_rows(*files)
        assert panel.tickers == ref_panel.tickers and panel.dates == ref_panel.dates
        assert np.array_equal(panel.close, ref_panel.close)
        assert divs == ref_divs

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

    def test_two_spellings_of_a_date_are_a_duplicate(self, tmp_path):
        p, d = write_csvs(tmp_path, [f"{WEEK1},AAA,10", "2001-1-2,AAA,11"], [])
        with pytest.raises(DataError, match=r"prices\.csv:3: duplicate row for \(2001-01-02, AAA\)"):
            ingest(p, d)
