"""End-to-end command line tests against synthetic fixtures on disk."""

from __future__ import annotations

import codecs
import contextlib
import gc
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from datetime import date, timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import netfolio
from netfolio import cli, correlation, market_data, neighbor_net, portfolio_sim, tree_cluster
from netfolio.cli import main
from netfolio.inputs import StudyPeriod
from netfolio.reference import SUPER_GROUPS
from synthetic import BlockModelSpec, hub_panel, panel_from_loadings, synthesize_panel


def write_panel_csvs(tmp_path, spec, seed=0):
    return write_panel(tmp_path, synthesize_panel(spec, seed))


def write_panel(tmp_path, panel):
    prices = ["date,ticker,close"]
    dividends = ["ticker,payment_date,amount"]
    for i, d in enumerate(panel.dates):
        for j, t in enumerate(panel.tickers):
            prices.append(f"{d.isoformat()},{t},{panel.close[i, j]:.6f}")
            if panel.dividends[i, j]:
                dividends.append(f"{t},{d.isoformat()},{panel.dividends[i, j]:.6f}")
    (tmp_path / "prices.csv").write_text("\n".join(prices) + "\n")
    (tmp_path / "dividends.csv").write_text("\n".join(dividends) + "\n")
    return panel


@pytest.fixture
def workspace(tmp_path):
    spec = BlockModelSpec(
        block_sizes=(3, 3, 3, 3),
        loadings=(0.9, 0.9, 0.9, 0.9),
        idio_vol=0.01,
        weeks=104,
        block_drift=(0.004, 0.001, -0.001, 0.0025),
        dividend_every=13,
    )
    panel = write_panel_csvs(tmp_path, spec)
    mid = panel.dates[52]
    periods = [
        {"label": "P1", "start": panel.dates[0].isoformat(), "end": mid.isoformat()},
        {"label": "P2", "start": mid.isoformat(), "end": panel.dates[-1].isoformat()},
    ]
    (tmp_path / "periods.json").write_text(json.dumps(periods))
    industry = ["ticker,group"]
    for j, t in enumerate(panel.tickers):
        industry.append(f"{t},{j // 3 + 1}")
    (tmp_path / "industry.csv").write_text("\n".join(industry) + "\n")
    config = {
        "prices": str(tmp_path / "prices.csv"),
        "dividends": str(tmp_path / "dividends.csv"),
        "periods": str(tmp_path / "periods.json"),
        "industry_map": str(tmp_path / "industry.csv"),
        "clustering": {"k": 4},
        "simulation": {
            "reps": 40,
            "sizes": [2, 4],
            "model_period": "P1",
            "test_periods": ["P2"],
            "risk_free": {"P2": 1.0},
        },
    }
    (tmp_path / "config.json").write_text(json.dumps(config))
    return tmp_path


class TestReturnsCommand:
    def test_writes_per_period_files(self, workspace, capsys):
        out = workspace / "out"
        code = main(["returns", "--config", str(workspace / "config.json"),
                     "--out-dir", str(out)])
        assert code == 0
        for label in ("P1", "P2"):
            text = (out / f"returns_{label}.csv").read_text()
            lines = text.strip().splitlines()
            assert lines[0] == "ticker,total_return_pct"
            assert len(lines) == 13

    def test_outputs_are_utf8_in_any_locale(self, workspace):
        # Under the C locale with UTF-8 mode off the locale's encoding is
        # ASCII; a ticker outside it must still be written, as UTF-8.
        for name in ("prices.csv", "dividends.csv"):
            path = workspace / name
            path.write_text(path.read_text().replace("S00", "\u00c9LF"), encoding="utf-8")
        src = Path(netfolio.__file__).resolve().parents[1]
        env = {k: v for k, v in os.environ.items() if not k.startswith(("LC_", "LANG", "PYTHON"))}
        env.update(LC_ALL="C", PYTHONPATH=str(src))
        out = workspace / "out"
        done = subprocess.run(
            [sys.executable, "-X", "utf8=0", "-m", "netfolio.cli", "returns",
             "--config", str(workspace / "config.json"), "--out-dir", str(out)],
            env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        for label in ("P1", "P2"):
            rows = (out / f"returns_{label}.csv").read_bytes().decode("utf-8").splitlines()
            assert sum(row.startswith("\u00c9LF,") for row in rows) == 1

    def test_missing_config(self, tmp_path, capsys):
        assert main(["returns", "--config", str(tmp_path / "nope.json")]) == 2
        assert "does not exist" in capsys.readouterr().err

    def test_missing_input_file(self, workspace, capsys):
        cfg = json.loads((workspace / "config.json").read_text())
        cfg["prices"] = str(workspace / "missing.csv")
        bad = workspace / "bad.json"
        bad.write_text(json.dumps(cfg))
        assert main(["returns", "--config", str(bad)]) == 2
        assert "missing.csv" in capsys.readouterr().err


class TestNetworkCommand:
    @pytest.mark.parametrize("method,artifact", [
        ("hct", "hct_P1.nwk"), ("mst", "mst_P1.dot"), ("nnet", "nnet_P1.nex"),
    ])
    def test_writes_clusters_and_structure(self, workspace, method, artifact, capsys):
        out = workspace / "out"
        code = main(["network", "--config", str(workspace / "config.json"),
                     "--method", method, "--out-dir", str(out)])
        assert code == 0
        clusters = (out / f"clusters_{method}_P1.csv").read_text().strip().splitlines()
        assert clusters[0] == "ticker,cluster"
        assert len(clusters) == 13
        labels = {int(l.split(",")[1]) for l in clusters[1:]}
        assert labels == {1, 2, 3, 4}
        assert (out / artifact).exists()

    def test_dump_matrices(self, workspace, capsys):
        out = workspace / "out"
        main(["network", "--config", str(workspace / "config.json"),
              "--method", "hct", "--dump-matrices", "--out-dir", str(out)])
        corr = (out / "corr_P1.csv").read_text().strip().splitlines()
        assert len(corr) == 13 and corr[0].startswith("ticker,")
        assert (out / "dist_P2.csv").exists()

    def test_blocks_recovered_as_clusters(self, workspace, capsys):
        # The synthetic panel has four independent factor blocks; average
        # linkage at k=4 should recover them exactly.
        out = workspace / "out"
        main(["network", "--config", str(workspace / "config.json"),
              "--method", "hct", "--out-dir", str(out)])
        rows = (out / "clusters_hct_P1.csv").read_text().strip().splitlines()[1:]
        by_cluster: dict[str, set[str]] = {}
        for row in rows:
            t, c = row.split(",")
            by_cluster.setdefault(c, set()).add(t)
        expected = [{f"S{3 * b + i:02d}" for i in range(3)} for b in range(4)]
        assert sorted(by_cluster.values(), key=sorted) == expected

    # Stock S00 of the hub fixture loads on every factor. With it as the hub,
    # the four blocks are the qualifying branches and S00 joins its nearest
    # neighbour's. Around S18, k=2 takes branches of 3 or more and cuts
    # other clusters than the gap mode does.
    @pytest.mark.parametrize("clustering", [
        {"k": 4, "mst_mode": "hub", "hub": "S00", "min_branch": 5},
        {"k": 2, "mst_mode": "hub", "hub": "S18", "min_branch": 3},
    ], ids=["S00", "S18"])
    def test_hub_mode(self, tmp_path, capsys, clustering):
        panel = write_panel(tmp_path, hub_panel())
        (tmp_path / "periods.json").write_text(json.dumps([{
            "label": "P1", "start": panel.dates[0].isoformat(),
            "end": panel.dates[-1].isoformat()}]))
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "prices": "prices.csv", "dividends": "dividends.csv", "periods": "periods.json",
            "clustering": clustering}))
        out = tmp_path / "out"
        assert main(["network", "--config", str(config), "--method", "mst",
                     "--out-dir", str(out)]) == 0
        rows = (out / "clusters_mst_P1.csv").read_text().splitlines()[1:]
        written = dict(row.split(",") for row in rows)

        period = StudyPeriod("P1", panel.dates[0], panel.dates[-1])
        returns = market_data.period_returns(
            market_data.ingest(tmp_path / "prices.csv", tmp_path / "dividends.csv"), [period])
        dist = correlation.ultrametric_distance(
            correlation.pearson_correlation(returns.weekly_returns[0], returns.tickers))
        tree = tree_cluster.minimum_spanning_tree(dist)
        hub = tree_cluster.mst_clusters(tree, dist, clustering["k"], mode="hub",
                                        min_branch=clustering["min_branch"],
                                        hub=clustering["hub"])
        assert written == {t: str(c) for t, c in hub.assignment.items()}

    def test_solver_error_exits_2(self, workspace, monkeypatch, capsys):
        real = neighbor_net.nnls_gram
        monkeypatch.setattr(neighbor_net, "nnls_gram",
                            lambda gram, matvec, rmatvec, b, _, start:
                            real(gram, matvec, rmatvec, b, 0, start))
        out = workspace / "out"
        assert main(["network", "--config", str(workspace / "config.json"),
                     "--method", "nnet", "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: active-set iteration cap 0 exceeded (residual ")
        assert not (out / "nnet_P1.nex").exists()
        assert not (out / "clusters_nnet_P1.csv").exists()


class TestSimulateCommand:
    def test_writes_reports(self, workspace, capsys):
        out = workspace / "out"
        code = main(["simulate", "--config", str(workspace / "config.json"),
                     "--out-dir", str(out), "--seed", "3"])
        assert code == 0
        report = (out / "report_P1_P2.csv").read_text().strip().splitlines()
        assert report[0] == "strategy,size,mean,sd,sharpe,best_flag"
        # 5 strategies x 2 sizes.
        assert len(report) == 11
        levene = (out / "levene_P1_P2.csv").read_text().strip().splitlines()
        assert levene[0] == "size,strategies,W,df1,df2,p"
        assert len(levene) == 3
        assert (out / "report_P1_P2.md").exists()

    def test_levene_excludes_hct_by_default(self, workspace, capsys):
        # HCT's unbalanced clusters can depress its standard deviations, so
        # its draws stay out of Levene's test unless levene_exclude says so.
        cfg = json.loads((workspace / "config.json").read_text())
        cfg["simulation"]["levene_exclude"] = []
        (workspace / "all.json").write_text(json.dumps(cfg))
        tested = []
        for config in ("config.json", "all.json"):
            out = workspace / config.replace(".json", "")
            assert main(["simulate", "--config", str(workspace / config),
                         "--out-dir", str(out)]) == 0
            rows = (out / "levene_P1_P2.csv").read_text().splitlines()[1:]
            tested.append([row.split(",")[:2] for row in rows])
        assert tested == [[[m, "Random+Industry+MST+NN"] for m in "24"],
                          [[m, "Random+Industry+HCT+MST+NN"] for m in "24"]]

    def test_byte_identical_across_workers(self, workspace, capsys):
        texts = []
        for w, tag in ((1, "w1"), (4, "w4")):
            out = workspace / tag
            main(["simulate", "--config", str(workspace / "config.json"),
                  "--out-dir", str(out), "--seed", "3", "--workers", str(w)])
            texts.append((out / "report_P1_P2.csv").read_bytes())
        assert texts[0] == texts[1]

    def test_bad_size_rejected(self, workspace, capsys):
        cfg = json.loads((workspace / "config.json").read_text())
        cfg["simulation"]["sizes"] = [3]
        bad = workspace / "bad.json"
        bad.write_text(json.dumps(cfg))
        assert main(["simulate", "--config", str(bad)]) == 2
        assert "sizes" in capsys.readouterr().err


def contract_files(out: Path) -> dict[str, bytes]:
    """The bytes of each file of an --out-dir but the panel file, which
    holds the input bytes it was read from and is no contract file."""
    return {path.name: path.read_bytes() for path in out.iterdir() if path.name != cli.PANEL_FILE}


def test_byte_order_marks_are_dropped(workspace, capsys):
    """Every input that starts with a UTF-8 byte order mark reads as it does
    without one: the config, the periods, the price, dividend and industry
    CSVs, and the report CSVs that ``report`` reads."""
    out = workspace / "out"
    argv = ["simulate", "--config", str(workspace / "config.json"), "--out-dir", str(out),
            "--seed", "3"]
    report = ["report", "--report-csv", str(out / "report_P1_P2.csv"),
              "--levene-csv", str(out / "levene_P1_P2.csv")]
    assert main(argv) == 0 and main(report) == 0
    want = contract_files(out), capsys.readouterr()
    for name in ("config.json", "periods.json", "prices.csv", "dividends.csv", "industry.csv"):
        path = workspace / name
        path.write_bytes(codecs.BOM_UTF8 + path.read_bytes())
    assert main(argv) == 0
    for name in ("report_P1_P2.csv", "levene_P1_P2.csv"):
        path = out / name
        path.write_bytes(codecs.BOM_UTF8 + path.read_bytes())
    assert main(report) == 0
    got = capsys.readouterr()
    for name in ("report_P1_P2.csv", "levene_P1_P2.csv"):
        path = out / name
        path.write_bytes(path.read_bytes().removeprefix(codecs.BOM_UTF8))
    assert (contract_files(out), got) == want


class TestReportCommand:
    def test_round_trip_render(self, workspace, capsys):
        out = workspace / "out"
        main(["simulate", "--config", str(workspace / "config.json"),
              "--out-dir", str(out), "--seed", "3"])
        capsys.readouterr()
        code = main(["report", "--report-csv", str(out / "report_P1_P2.csv"),
                     "--levene-csv", str(out / "levene_P1_P2.csv")])
        assert code == 0
        text = capsys.readouterr().out
        assert "Sharpe ratio (2-stock)" in text
        assert "Levene p-value" in text

    @pytest.mark.parametrize("text", [
        "name,size,mean\nRandom,2,1.0\n",  # columns missing
        "a,b,c,d,e,f\n",  # header only, wrong columns
        "",
    ], ids=["missing-columns", "wrong-header-only", "empty"])
    def test_report_header_checked(self, tmp_path, capsys, text):
        path = tmp_path / "report.csv"
        path.write_text(text)
        assert main(["report", "--report-csv", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"{path}: expected header 'strategy,size,mean,sd,sharpe,best_flag'" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("text", [
        "size,strategies,W\n2,Random+NN,1.5\n",
        "size,strategy,W,df1,df2,p\n",
    ], ids=["missing-columns", "wrong-header-only"])
    def test_levene_header_checked(self, workspace, capsys, text):
        out = workspace / "out"
        main(["simulate", "--config", str(workspace / "config.json"),
              "--out-dir", str(out), "--seed", "3"])
        path = workspace / "levene.csv"
        path.write_text(text)
        capsys.readouterr()
        assert main(["report", "--report-csv", str(out / "report_P1_P2.csv"),
                     "--levene-csv", str(path)]) == 2
        captured = capsys.readouterr()
        assert f"{path}: expected header 'size,strategies,W,df1,df2,p'" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("column,value", [
        ("mean", "abc"), ("mean", "-inf"), ("sd", "inf"), ("sd", "nan"), ("sharpe", "nan"),
        ("sharpe", "x1"), ("size", "2.5"), ("size", "two"), ("best_flag", "yes"),
        ("best_flag", ""),
        # A name heads a column of the markdown table: a "|" would add a cell
        # to the header row, and a line break would split it.
        ("strategy", "A|B"), ("strategy", "|"), ("strategy", "A\nB"), ("strategy", "A\rB"),
    ])
    def test_bad_report_cell_located(self, tmp_path, capsys, column, value):
        good = dict(zip(cli.REPORT_COLUMNS, ("Random", "2", "1.5", "2.0", "0.25", "1")))
        bad = {**good, "strategy": "NN", column: value}
        path = tmp_path / "report.csv"
        rows = (cli.REPORT_COLUMNS, good.values(), bad.values())
        # A cell with a line break is quoted.
        path.write_text("".join(",".join(f'"{v}"' if {"\n", "\r"} & set(v) else v for v in r)
                                + "\n" for r in rows), newline="")
        assert main(["report", "--report-csv", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {path}:3: invalid {column} {value!r}\n"
        assert captured.out == ""

    @pytest.mark.parametrize("column,value", [
        ("W", "abc"), ("W", "inf"), ("p", "nan"), ("p", "-inf"), ("df1", "1.0"), ("df2", ""),
        ("size", "x"),
    ])
    def test_bad_levene_cell_located(self, tmp_path, capsys, column, value):
        report = tmp_path / "report.csv"
        report.write_text("strategy,size,mean,sd,sharpe,best_flag\nRandom,2,1.5,2.0,,0\n")
        row = {**dict(zip(cli.LEVENE_COLUMNS, ("2", "Random+NN", "1.5", "1", "1998", "0.22"))),
               column: value}
        path = tmp_path / "levene.csv"
        path.write_text(",".join(cli.LEVENE_COLUMNS) + "\n" + ",".join(row.values()) + "\n")
        assert main(["report", "--report-csv", str(report), "--levene-csv", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {path}:2: invalid {column} {value!r}\n"
        assert captured.out == ""

    def test_short_report_row_located(self, tmp_path, capsys):
        path = tmp_path / "report.csv"
        path.write_text("strategy,size,mean,sd,sharpe,best_flag\nRandom,2,1.0\n")
        assert main(["report", "--report-csv", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {path}:2: expected 6 fields, got 3\n"

    def test_repeated_report_row_located(self, tmp_path, capsys):
        path = tmp_path / "report.csv"
        path.write_text("strategy,size,mean,sd,sharpe,best_flag\nRandom,2,1.0,2.0,0.5,1\n"
                        "Random,4,1.0,2.0,0.5,0\nRandom,2,1.5,2.0,0.25,0\n")
        assert main(["report", "--report-csv", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {path}:4: strategy 'Random' size 2 listed twice\n"
        assert captured.out == ""

    def test_repeated_levene_size_located(self, tmp_path, capsys):
        report = tmp_path / "report.csv"
        report.write_text("strategy,size,mean,sd,sharpe,best_flag\nRandom,2,1.5,2.0,,0\n")
        path = tmp_path / "levene.csv"
        path.write_text("size,strategies,W,df1,df2,p\n2,Random+NN,1.5,1,1998,0.22\n"
                        "2,Random+HCT,0.5,1,1998,0.48\n")
        assert main(["report", "--report-csv", str(report), "--levene-csv", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {path}:3: size 2 listed twice\n"
        assert captured.out == ""


NAMES = ("Random", "Industry", "HCT", "MST", "NN")
FINITE = st.floats(-1e6, 1e6).map(repr)


@st.composite
def report_inputs(draw):
    """A report CSV and, or not, a Levene CSV, as lists of rows of valid
    cells; then up to two mutations of them, in place. Returns the two
    tables, the line end and whether every mutation keeps the rows valid."""
    keys = draw(st.lists(st.tuples(st.sampled_from(NAMES), st.integers(1, 12)),
                         min_size=1, max_size=6, unique=True))
    report = [[name, str(m), draw(FINITE), draw(st.floats(0, 1e6).map(repr)),
               draw(st.just("") | FINITE), draw(st.sampled_from("01"))] for name, m in keys]
    levene = None
    if draw(st.booleans()):
        sizes = draw(st.lists(st.integers(1, 12), max_size=4, unique=True))
        levene = [[str(m), "+".join(draw(st.lists(st.sampled_from(NAMES), min_size=2,
                                                  max_size=5, unique=True))),
                   draw(st.floats(0, 1e6).map(repr)), str(draw(st.integers(1, 10))),
                   str(draw(st.integers(1, 10**6))), draw(st.floats(0, 1).map(repr))]
                  for m in sizes]
    newline, valid = "\n", True
    for _ in range(draw(st.integers(0, 2))):
        kind = draw(st.sampled_from(["cell", "short", "long", "repeat", "quote", "crlf",
                                     "strategy"]))
        if kind == "crlf":
            newline = "\r\n"
            continue
        if kind == "strategy":  # a name that the markdown table cannot hold
            draw(st.sampled_from(report))[0] = draw(st.sampled_from(
                ["A|B", "|", '"A\nB"', '"A\rB"', '"NN\r\n"']))
            valid = False
            continue
        rows = draw(st.sampled_from([t for t in (report, levene) if t]))
        row = draw(st.sampled_from(rows))
        if kind == "quote":  # csv.reader reads the same value
            j = draw(st.integers(0, max(len(row) - 1, 0)))
            if row and not row[j].startswith('"'):
                row[j] = f'"{row[j]}"'
            continue
        valid = False
        if kind == "cell":  # float cells (mean, sd, sharpe; W, p) first: hypothesis
            # favours the first choices, and a float cell is where nan would pass
            j = draw(st.sampled_from([*((2, 3, 4) if rows is report else (2, 5)),
                                      *range(len(row))]))
            if j < len(row):
                row[j] = draw(st.sampled_from(["nan", "inf", "-inf", "", "abc"]))
        elif kind == "short" and row:
            row.pop()
        elif kind == "long":
            row.append("1")
        elif kind == "repeat":
            rows.insert(draw(st.integers(0, len(rows))), list(row))
    return report, levene, newline, valid


@settings(max_examples=150, deadline=1000)
@given(report_inputs())
def test_report_boundary_fuzz(inputs):
    """``report`` on generated report and Levene CSVs either renders a table
    whose every number is finite, or exits 2 naming the CSV it failed on."""
    report, levene, newline, valid = inputs
    with tempfile.TemporaryDirectory() as folder:
        paths = [Path(folder, "report.csv"), Path(folder, "levene.csv")]
        argv = ["report", "--report-csv", str(paths[0])]
        for path, columns, rows in zip(paths, (cli.REPORT_COLUMNS, cli.LEVENE_COLUMNS),
                                       (report, levene)):
            if rows is not None:
                lines = [",".join(columns)] + [",".join(row) for row in rows]
                path.write_text(newline.join(lines) + newline, newline="")
        if levene is not None:
            argv += ["--levene-csv", str(paths[1])]
        out, err = io.TextIOWrapper(io.BytesIO(), encoding="utf-8"), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        out.flush()
        table = out.buffer.getvalue().decode("utf-8")
    if code == 2:
        assert table == ""
        assert any(err.getvalue().startswith(f"error: {path}:") for path in paths)
        assert valid is False
        return
    assert code == 0 and err.getvalue() == ""
    # Every body cell but the row label is empty, "undefined" or a finite
    # number, with a "*" on the best Sharpe ratio.
    for line in table.splitlines()[2:]:
        for cell in line.strip("|").split("|")[1:]:
            text = cell.strip().rstrip("*")
            assert text in ("", "undefined") or math.isfinite(float(text)), line


@pytest.fixture(scope="module")
def fuzz_panels(tmp_path_factory):
    """The input paths of two panels of 8 tickers (4 blocks of 2, one
    industry group each) and 40 weekly closes in three periods, by whether
    the panel is the low-volatility one: a twentieth of the other's
    volatility, on which a finite risk-free rate far from the returns can
    overflow a Sharpe ratio."""
    panels = {}
    for low in (False, True):
        folder = tmp_path_factory.mktemp("low" if low else "normal")
        vol = 0.0005 if low else 0.01
        spec = BlockModelSpec(block_sizes=(2, 2, 2, 2), loadings=(0.9, 0.8, 0.7, 0.6),
                              idio_vol=vol, factor_vol=8 * vol, weeks=39,
                              block_drift=(0.004, 0.001, -0.001, 0.0025), dividend_every=13)
        dates = write_panel_csvs(folder, spec).dates
        (folder / "periods.json").write_text(json.dumps([
            {"label": f"P{i + 1}", "start": dates[13 * i].isoformat(),
             "end": dates[13 * i + 13].isoformat()} for i in range(3)]))
        (folder / "industry.csv").write_text(
            "ticker,group\n" + "".join(f"S{j:02d},{j // 2 + 1}\n" for j in range(8)))
        panels[low] = {key: str(folder / name) for key, name in (
            ("prices", "prices.csv"), ("dividends", "dividends.csv"),
            ("periods", "periods.json"), ("industry_map", "industry.csv"))}
    return panels


FUZZ_LABELS = st.sampled_from(["P1", "P2", "P3", "P9"])  # P9 names no period
HUGE = 1.7e308


@st.composite
def simulate_configs(draw):
    """A ``simulation`` and a ``clustering`` object, each key present or not,
    with values near the rule tables' edges and past them, and whether the
    low-volatility panel runs."""
    simulation = draw(st.fixed_dictionaries({}, optional={
        "reps": st.integers(3, 6) | st.sampled_from([1, 2, 2.5, "4", True, None]),
        "sizes": st.lists(st.sampled_from([2, 4, 8]), min_size=1, max_size=3, unique=True),
        "strategies": st.lists(st.sampled_from(list(cli._STRATEGY_LABELS)), min_size=1,
                               max_size=5, unique=True),
        "levene_exclude": st.lists(st.sampled_from(NAMES), max_size=5, unique=True),
        "model_period": FUZZ_LABELS,
        "test_periods": st.lists(FUZZ_LABELS, max_size=4, unique=True),
        "risk_free": st.dictionaries(
            FUZZ_LABELS, st.sampled_from([-HUGE, HUGE, 1e308]) | st.floats(-HUGE, HUGE),
            max_size=3),
    }))
    k = draw(st.sampled_from([2, 4]) | st.integers(1, 5))
    clustering = draw(st.fixed_dictionaries({}, optional={
        "k": st.just(k),
        "mst_mode": st.sampled_from(["gap", "hub"]),
        "min_branch": st.integers(1, 5),
        "manual_breaks": (st.lists(st.integers(0, 7), min_size=k, max_size=k, unique=True)
                          | st.lists(st.integers(-1, 8), max_size=5)),
    }))
    return simulation, clustering, draw(st.booleans())


def run_quietly(argv: list[str]) -> tuple[int, str]:
    """``main``'s exit status and stderr, with stdout discarded (``report``
    writes bytes to it)."""
    out, err = io.TextIOWrapper(io.BytesIO(), encoding="utf-8"), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        return main(argv), err.getvalue()


@settings(max_examples=100, deadline=2000)
@given(simulate_configs())
@example(({"reps": 2}, {}, False))
@example(({"risk_free": {"P1": 1e308}, "test_periods": ["P1"]}, {}, True))
def test_simulate_config_fuzz(fuzz_panels, drawn):
    """``simulate`` on a generated configuration either writes reports whose
    every number is finite and that ``report`` reads back, or exits 2 naming
    the config or an input file, and writes nothing."""
    simulation, clustering, low = drawn
    inputs = fuzz_panels[low]
    with tempfile.TemporaryDirectory() as folder:
        config, out = Path(folder, "config.json"), Path(folder, "out")
        config.write_text(json.dumps({**inputs, "clustering": clustering,
                                      "simulation": simulation}))
        code, err = run_quietly(["simulate", "--config", str(config), "--out-dir", str(out)])
        if code == 2:
            assert any(err.startswith(f"error: {path}") for path in (config, *inputs.values())), err
            assert not out.exists()
            return
        assert code == 0 and err == ""
        for path in out.glob("*.csv"):
            for row in path.read_text().splitlines()[1:]:
                for cell in row.split(","):
                    with contextlib.suppress(ValueError):
                        assert math.isfinite(float(cell)), (path.name, row)
        for path in out.glob("report_*.csv"):
            levene = path.with_name(path.name.replace("report_", "levene_", 1))
            assert run_quietly(["report", "--report-csv", str(path),
                                "--levene-csv", str(levene)]) == (0, "")


def test_unbounded_sharpe_ratio_located(fuzz_panels, tmp_path):
    # A finite risk-free rate far above a low-volatility period's returns
    # makes (mean - rf) / sd overflow: the period is named, and no report is
    # written that ``report`` would refuse.
    config, out = tmp_path / "config.json", tmp_path / "out"
    config.write_text(json.dumps({**fuzz_panels[True], "simulation": {
        "strategies": ["random", "industry"], "sizes": [2, 4], "model_period": "P1",
        "test_periods": ["P2", "P1"], "risk_free": {"P1": 1e308}}}))
    code, err = run_quietly(["simulate", "--config", str(config), "--out-dir", str(out)])
    assert code == 2
    assert err.startswith(f"error: {config}: test period 'P1': Sharpe ratio (")
    assert err.endswith(" is not finite\n")
    assert not out.exists()


class TestConfigValidation:
    def test_bad_period_entry(self, workspace, capsys):
        (workspace / "periods.json").write_text(json.dumps([{"label": "P1"}]))
        assert main(["returns", "--config", str(workspace / "config.json")]) == 2
        assert "bad period entry" in capsys.readouterr().err

    @pytest.mark.parametrize("start", ["2001-13-40", 20010102])
    def test_bad_period_date_located(self, workspace, capsys, start):
        periods = json.loads((workspace / "periods.json").read_text())
        periods[1]["start"] = start
        (workspace / "periods.json").write_text(json.dumps(periods))
        assert main(["returns", "--config", str(workspace / "config.json")]) == 2
        err = capsys.readouterr().err
        assert "periods.json: period 'P2' start: invalid ISO-8601 date" in err
        assert str(start) in err

    @pytest.mark.parametrize("row,message", [
        ("S02,x", "industry.csv:4: invalid group 'x'"),
        ("S02,1,9", "industry.csv:4: expected 2 fields, got 3"),
    ])
    def test_bad_industry_row_located(self, workspace, capsys, row, message):
        lines = (workspace / "industry.csv").read_text().splitlines()
        lines[3] = row
        (workspace / "industry.csv").write_text("\n".join(lines) + "\n")
        out = workspace / "out"
        assert main(["simulate", "--config", str(workspace / "config.json"),
                     "--out-dir", str(out)]) == 2
        assert message in capsys.readouterr().err

    def test_blank_industry_rows_skipped(self, workspace):
        path = workspace / "industry.csv"
        want = cli.load_industry_map(path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:3] + [""] + lines[3:]) + "\n\n")
        assert cli.load_industry_map(path) == want

    @pytest.mark.parametrize("name,value,message", [
        ("prices.csv", "inf", "prices.csv:5: invalid price 'inf'"),
        ("prices.csv", "nan", "prices.csv:5: invalid price 'nan'"),
        ("dividends.csv", "nan", "dividends.csv:5: invalid amount 'nan'"),
        ("dividends.csv", "inf", "dividends.csv:5: invalid amount 'inf'"),
    ])
    def test_non_finite_input_located(self, workspace, capsys, name, value, message):
        lines = (workspace / name).read_text().splitlines()
        lines[4] = lines[4].rsplit(",", 1)[0] + "," + value
        (workspace / name).write_text("\n".join(lines) + "\n")
        assert main(["returns", "--config", str(workspace / "config.json"),
                     "--out-dir", str(workspace / "out")]) == 2
        assert message in capsys.readouterr().err
        assert not (workspace / "out").exists()

    def test_bad_industry_header(self, workspace, capsys):
        (workspace / "industry.csv").write_text("symbol,grp\nA,1\n")
        out = workspace / "out"
        assert main(["simulate", "--config", str(workspace / "config.json"),
                     "--out-dir", str(out)]) == 2
        assert "ticker,group" in capsys.readouterr().err

    def test_invalid_config_json_located(self, workspace, capsys):
        path = workspace / "broken.json"
        path.write_text("{bad")
        assert main(["returns", "--config", str(path)]) == 2
        assert capsys.readouterr().err == (
            f"error: {path}: invalid JSON at line 1 column 2: "
            "Expecting property name enclosed in double quotes\n"
        )

    def test_undecodable_config_located(self, workspace, capsys):
        path = workspace / "config.json"
        path.write_bytes(path.read_bytes().replace(b'"clustering"', b'"cl\xffustering"'))
        line = path.read_bytes().split(b"\xff")[0].count(b"\n") + 1
        assert main(["returns", "--config", str(path)]) == 2
        assert capsys.readouterr().err == (
            f"error: {path}:{line}: cannot decode byte 0xff as UTF-8 (invalid start byte)\n")

    def test_repeated_period_label_rejected(self, workspace, capsys):
        path = workspace / "periods.json"
        periods = json.loads(path.read_text())
        path.write_text(json.dumps(periods + [periods[0]]))
        assert main(["returns", "--config", str(workspace / "config.json"),
                     "--out-dir", str(workspace / "out")]) == 2
        assert capsys.readouterr().err == f"error: {path}: period 'P1' listed twice\n"
        assert not (workspace / "out").exists()

    @pytest.mark.parametrize("key,value", [
        ("k", "x"), ("k", 0), ("k", 2.0), ("mst_mode", "tree"), ("min_branch", 0),
        ("min_branch", "5"), ("hub", 5), ("prune", "abc"), ("prune", float("inf")),
        ("manual_breaks", 3), ("manual_breaks", [0, 1.5]),
    ])
    @pytest.mark.parametrize("command", [["network", "--method", "mst"], ["simulate"]])
    def test_bad_clustering_value_rejected_before_any_data(self, workspace, monkeypatch,
                                                           capsys, command, key, value):
        cfg = json.loads((workspace / "config.json").read_text())
        cfg["clustering"][key] = value
        if command == ["simulate"]:
            cfg["simulation"]["strategies"] = ["random"]
        (workspace / "bad_clustering.json").write_text(json.dumps(cfg))
        monkeypatch.setattr(market_data, "ingest", _forbidden)
        assert main(command + ["--config", str(workspace / "bad_clustering.json"),
                               "--out-dir", str(workspace / "out")]) == 2
        err = capsys.readouterr().err
        if key in REMOVED_KEYS:
            path = workspace / "bad_clustering.json"
            assert err == f"error: {path}: unknown key clustering.{key}\n"
        else:
            assert f"bad_clustering.json: clustering.{key} must be " in err
            assert err.endswith(f", not {value!r}\n") and "Traceback" not in err
        assert not (workspace / "out").exists()

    # Each command checks the sections it reads: network reads no simulation settings.
    @pytest.mark.parametrize("command,section,key", [
        (["network", "--method", "hct"], None, "industry"),
        (["network", "--method", "hct"], "clustering", "K"),
        (["simulate"], None, "industry"),
        (["simulate"], "clustering", "K"),
        (["simulate"], "simulation", "reps_typo"),
    ], ids=["network-top", "network-clustering", "simulate-top", "simulate-clustering",
            "simulate-simulation"])
    def test_unknown_key_rejected_before_any_data(self, workspace, monkeypatch, capsys,
                                                  command, section, key):
        cfg = json.loads((workspace / "config.json").read_text())
        (cfg[section] if section else cfg)[key] = 5
        path = workspace / "typo.json"
        path.write_text(json.dumps(cfg))
        for module, name in DATA_STEPS:
            monkeypatch.setattr(module, name, _forbidden)
        assert main(command + ["--config", str(path), "--out-dir", str(workspace / "out")]) == 2
        name = f"{section}.{key}" if section else key
        assert capsys.readouterr().err == f"error: {path}: unknown key {name}\n"
        assert not (workspace / "out").exists()

    @pytest.mark.parametrize("section", ["clustering", "simulation"])
    def test_section_must_be_an_object(self, workspace, monkeypatch, capsys, section):
        cfg = json.loads((workspace / "config.json").read_text())
        cfg[section] = [4]
        (workspace / "bad_section.json").write_text(json.dumps(cfg))
        monkeypatch.setattr(market_data, "ingest", _forbidden)
        assert main(["simulate", "--config", str(workspace / "bad_section.json")]) == 2
        assert f"bad_section.json: {section} must be a JSON object, not [4]" in (
            capsys.readouterr().err)

    @pytest.mark.parametrize("command", [["returns"], ["network", "--method", "hct"], ["simulate"]],
                             ids=["returns", "network", "simulate"])
    def test_period_order_rejected_before_any_data(self, workspace, monkeypatch, capsys, command):
        path = workspace / "periods.json"
        periods = json.loads(path.read_text())
        periods[1]["end"] = periods[1]["start"]
        path.write_text(json.dumps(periods))
        monkeypatch.setattr(market_data, "ingest", _forbidden)
        assert main(command + ["--config", str(workspace / "config.json"),
                               "--out-dir", str(workspace / "out")]) == 2
        assert capsys.readouterr().err == f"error: {path}: period 'P2': start must precede end\n"
        assert not (workspace / "out").exists()

    @pytest.mark.parametrize("end", ["start", "end"])
    @pytest.mark.parametrize("command", [["returns"], ["network", "--method", "hct"], ["simulate"]],
                             ids=["returns", "network", "simulate"])
    def test_period_boundary_off_the_panel_located(self, workspace, capsys, command, end):
        path = workspace / "periods.json"
        periods = json.loads(path.read_text())
        day = date.fromisoformat(periods[1][end]) + timedelta(days=1 if end == "start" else -1)
        periods[1][end] = day.isoformat()
        path.write_text(json.dumps(periods))
        assert main(command + ["--config", str(workspace / "config.json"),
                               "--out-dir", str(workspace / "out")]) == 2
        assert capsys.readouterr().err == (
            f"error: {path}: period 'P2': {end} {day.isoformat()} is not a panel date\n")
        assert not (workspace / "out").exists()

    @pytest.mark.parametrize("row,message", [
        ("S00,4", "industry.csv:14: ticker 'S00' listed twice"),
        ("ZZZ,x", "industry.csv:14: invalid group 'x'"),
    ], ids=["repeated", "bad_group"])
    def test_industry_map_rejected_before_any_data(self, workspace, monkeypatch, capsys,
                                                   row, message):
        path = workspace / "industry.csv"
        with open(path, "a") as fh:
            fh.write(row + "\n")
        monkeypatch.setattr(market_data, "ingest", _forbidden)
        assert main(["simulate", "--config", str(workspace / "config.json"),
                     "--out-dir", str(workspace / "out")]) == 2
        assert capsys.readouterr().err == f"error: {workspace / message}\n"
        assert not (workspace / "out").exists()

    @pytest.mark.parametrize("label", ["", "P/1", "P\\1", "../escaped", 2],
                             ids=["empty", "slash", "backslash", "dot-dot", "number"])
    def test_period_label_must_be_a_file_name(self, workspace, monkeypatch, capsys, label):
        path = workspace / "periods.json"
        periods = json.loads(path.read_text())
        periods[1]["label"] = label
        path.write_text(json.dumps(periods))
        monkeypatch.setattr(market_data, "ingest", _forbidden)
        out = workspace / "out" / "deep"
        assert main(["returns", "--config", str(workspace / "config.json"),
                     "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: {path}: period {label!r}: label must be a non-empty string, "
            "without '/', '\\' or '..'\n"
        )
        assert not (workspace / "out").exists()

    def test_unknown_period_key_rejected_before_any_data(self, workspace, monkeypatch, capsys):
        path = workspace / "periods.json"
        periods = json.loads(path.read_text())
        periods[0]["colour"] = "red"
        path.write_text(json.dumps(periods))
        monkeypatch.setattr(market_data, "ingest", _forbidden)
        assert main(["returns", "--config", str(workspace / "config.json"),
                     "--out-dir", str(workspace / "out")]) == 2
        assert capsys.readouterr().err == f"error: {path}: period 'P1': unknown key 'colour'\n"
        assert not (workspace / "out").exists()

    @pytest.mark.parametrize("label", ["P\x002", "P\n2", "P\x1f2", "P\x7f2", "P\x852", "P\x9f2"],
                             ids=["nul", "lf", "us", "del", "nel", "apc"])
    def test_period_label_must_hold_no_control_character(self, workspace, monkeypatch, capsys,
                                                         label):
        # A NUL used to stop the first write after another period's file was
        # written, and a LF to become part of a file name.
        path = workspace / "periods.json"
        periods = json.loads(path.read_text())
        periods[1]["label"] = label
        path.write_text(json.dumps(periods))
        monkeypatch.setattr(market_data, "ingest", _forbidden)
        assert main(["returns", "--config", str(workspace / "config.json"),
                     "--out-dir", str(workspace / "out")]) == 2
        assert capsys.readouterr().err == (
            f"error: {path}: period {label!r}: label holds control character "
            f"U+{ord(label[1]):04X}\n")
        assert not (workspace / "out").exists()

    def test_industry_rule_checked_before_any_data(self, workspace, monkeypatch, capsys):
        path = workspace / "industry.csv"
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:1] + [f"{l.split(',')[0]},{j // 2 + 1}"
                                              for j, l in enumerate(lines[1:])]) + "\n")
        cfg = json.loads((workspace / "config.json").read_text())
        cfg["simulation"]["sizes"] = [2, 8]
        (workspace / "m8.json").write_text(json.dumps(cfg))
        monkeypatch.setattr(market_data, "ingest", _forbidden)
        assert main(["simulate", "--config", str(workspace / "m8.json"),
                     "--out-dir", str(workspace / "out")]) == 2
        assert capsys.readouterr().err == (
            f"error: {path}: m=8 industry selection needs exactly 4 groups\n")
        assert not (workspace / "out").exists()

    def test_one_group_industry_map_located(self, workspace, monkeypatch, capsys):
        path = workspace / "industry.csv"
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:1] + [l.split(",")[0] + ",1" for l in lines[1:]]) + "\n")
        monkeypatch.setattr(market_data, "ingest", _forbidden)
        assert main(["simulate", "--config", str(workspace / "config.json"),
                     "--out-dir", str(workspace / "out")]) == 2
        assert capsys.readouterr().err == f"error: {path}: need at least 2 industry groups\n"
        assert not (workspace / "out").exists()

    def test_invalid_periods_json_located(self, workspace, capsys):
        path = workspace / "periods.json"
        path.write_text('[\n  {"label": "P1",}\n]\n')
        assert main(["returns", "--config", str(workspace / "config.json")]) == 2
        assert capsys.readouterr().err == (
            f"error: {path}: invalid JSON at line 2 column 18: "
            "Expecting property name enclosed in double quotes\n"
        )

    def test_empty_periods_rejected(self, workspace, monkeypatch, capsys):
        path = workspace / "periods.json"
        path.write_text("[]\n")
        monkeypatch.setattr(market_data, "ingest", _forbidden)
        assert main(["returns", "--config", str(workspace / "config.json")]) == 2
        assert capsys.readouterr().err == (
            f"error: {path}: periods config must be a non-empty JSON array\n")

    def test_undecodable_periods_located(self, workspace, capsys):
        path = workspace / "periods.json"
        path.write_bytes(b'[\n  {"label": "P\xff1"}\n]\n')
        assert main(["returns", "--config", str(workspace / "config.json")]) == 2
        assert capsys.readouterr().err == (
            f"error: {path}:2: cannot decode byte 0xff as UTF-8 (invalid start byte)\n")


class TestCorrelationErrorsLocated:
    """A period whose correlation cannot be taken names the prices file and
    the period, from ``network`` (every period) and ``simulate`` (the model
    period, P1) alike."""

    COMMANDS = [["network", "--method", "nnet"], ["simulate"]]

    def run(self, workspace, command):
        return main(command + ["--config", str(workspace / "config.json"),
                               "--out-dir", str(workspace / "out")])

    def hold_s04_constant(self, workspace):
        # S04 closes at 50 every week and pays no dividend: its returns are all 0.
        prices = workspace / "prices.csv"
        lines = prices.read_text().splitlines()
        lines[1:] = [l.rsplit(",", 1)[0] + ",50.000000" if ",S04," in l else l
                     for l in lines[1:]]
        prices.write_text("\n".join(lines) + "\n")
        dividends = workspace / "dividends.csv"
        dividends.write_text("".join(l for l in dividends.read_text().splitlines(True)
                                     if not l.startswith("S04,")))
        return prices

    @pytest.mark.parametrize("command", COMMANDS, ids=["network", "simulate"])
    def test_zero_variance_ticker(self, workspace, capsys, command):
        prices = self.hold_s04_constant(workspace)
        assert self.run(workspace, command) == 2
        assert capsys.readouterr().err == (
            f"error: {prices}: period 'P1': ticker S04 has zero-variance returns\n")
        assert not (workspace / "out").exists()

    def test_zero_variance_ticker_unread_without_cluster_strategy(self, workspace):
        # Only a cluster strategy reads the model period's correlation.
        self.hold_s04_constant(workspace)
        cfg = json.loads((workspace / "config.json").read_text())
        cfg["simulation"]["strategies"] = ["random", "industry"]
        (workspace / "config.json").write_text(json.dumps(cfg))
        assert self.run(workspace, ["simulate"]) == 0
        lines = (workspace / "out" / "report_P1_P2.csv").read_text().splitlines()
        assert [l.split(",")[:2] for l in lines[1:]] == [
            ["Random", "2"], ["Industry", "2"], ["Random", "4"], ["Industry", "4"]]
        assert all(math.isfinite(float(v)) for l in lines[1:] for v in l.split(",")[2:])

    @pytest.mark.parametrize("command", COMMANDS, ids=["network", "simulate"])
    def test_period_too_short(self, workspace, capsys, command):
        # P1 runs over three weekly closes, which give two weekly returns.
        path = workspace / "periods.json"
        periods = json.loads(path.read_text())
        dates = [l.split(",", 1)[0] for l in (workspace / "prices.csv").read_text().splitlines()]
        periods[0]["end"] = sorted(set(dates[1:]))[2]
        path.write_text(json.dumps(periods))
        assert self.run(workspace, command) == 2
        assert capsys.readouterr().err == (
            f"error: {workspace / 'prices.csv'}: period 'P1': "
            "needs at least 3 weekly returns, has 2\n")
        assert not (workspace / "out").exists()


class TestClusterErrorsLocated:
    """A clustering setting the model period's distances cannot meet names
    the config and the period, from ``network`` (every period) and
    ``simulate`` (the model period, P1) alike."""

    @pytest.mark.parametrize("command,where", [
        (["network"], "period 'P1'"), (["simulate"], "model period 'P1'"),
    ], ids=["network", "simulate"])
    @pytest.mark.parametrize("method,clustering,message", [
        ("mst", {"k": 2, "mst_mode": "hub", "min_branch": 12},
         "hub mode found 0 branches with >= 12 members but k=2; retry with a smaller min_branch"),
        ("mst", {"mst_mode": "hub", "hub": "ZZ"}, "unknown hub ticker 'ZZ'"),
        ("nnet", {"k": 2, "manual_breaks": [3, 3]},
         "manual breaks must be 2 distinct positions in [0, 12)"),
    ], ids=["hub-branches", "hub-ticker", "manual-breaks"])
    def test_located(self, workspace, capsys, command, where, method, clustering, message):
        cfg = json.loads((workspace / "config.json").read_text())
        cfg["clustering"].update(clustering)
        cfg["simulation"]["strategies"] = ["random", method]
        path = workspace / "clusters.json"
        path.write_text(json.dumps(cfg))
        argv = command + (["--method", method] if command == ["network"] else [])
        assert main(argv + ["--config", str(path), "--out-dir", str(workspace / "out")]) == 2
        assert capsys.readouterr().err == f"error: {path}: {where}: {message}\n"
        assert not (workspace / "out").exists()

    def test_unbalanced_clusters_named(self, tmp_path, capsys):
        # Block S11 shares no factor with the others, so HCT's four clusters
        # are the blocks, one of them a single stock that m=8 cannot draw
        # two from.
        spec = BlockModelSpec(block_sizes=(4, 4, 3, 1), loadings=(0.9, 0.9, 0.9, 0.9),
                              idio_vol=0.01, weeks=60)
        panel = write_panel_csvs(tmp_path, spec)
        (tmp_path / "periods.json").write_text(json.dumps([{
            "label": "P1", "start": panel.dates[0].isoformat(),
            "end": panel.dates[-1].isoformat()}]))
        path = tmp_path / "config.json"
        path.write_text(json.dumps({
            "prices": "prices.csv", "dividends": "dividends.csv", "periods": "periods.json",
            "clustering": {"k": 4},
            "simulation": {"reps": 40, "sizes": [8], "strategies": ["random", "hct"]},
        }))
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(path), "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err == (f"error: {path}: model period 'P1' hct clusters: "
                                           "group 4 has 1 stocks; cannot take 2 distinct\n")
        assert not out.exists()


class TestUnreadableInput:
    """A field longer than ``csv.field_size_limit()`` or a byte that is not
    UTF-8 fails as a located error, in every CSV a command reads."""

    REPORT = "strategy,size,mean,sd,sharpe,best_flag\nRandom,2,1.5,2.0,,0\nNN,2,1.6,2.1,,1\n"
    LEVENE = "size,strategies,W,df1,df2,p\n2,Random+NN,1.5,1,78,0.22\n"

    @pytest.mark.parametrize("payload,problem", [
        (b"9" * 131_073, "field larger than field limit (131072)"),
        (b"1\xff", "cannot decode byte 0xff as UTF-8 (invalid start byte)"),
    ], ids=["oversized-field", "bad-byte"])
    @pytest.mark.parametrize("name,line", [
        ("prices.csv", 1000), ("dividends.csv", 7), ("industry.csv", 5), ("report.csv", 3),
        ("levene.csv", 2),
    ])
    def test_located(self, workspace, monkeypatch, capsys, name, line, payload, problem):
        (workspace / "report.csv").write_text(self.REPORT)
        (workspace / "levene.csv").write_text(self.LEVENE)
        path = workspace / name
        lines = path.read_bytes().split(b"\n")
        lines[line - 1] = lines[line - 1].rpartition(b",")[0] + b"," + payload
        path.write_bytes(b"\n".join(lines))
        if name == "prices.csv":
            assert len(b"\n".join(lines[:line - 1])) > 8192  # past the first decoded chunk
        out = workspace / "out"
        argv = {
            "prices.csv": ["returns", "--config", str(workspace / "config.json")],
            "dividends.csv": ["returns", "--config", str(workspace / "config.json")],
            "industry.csv": ["simulate", "--config", str(workspace / "config.json")],
            "report.csv": ["report", "--report-csv", str(path)],
            "levene.csv": ["report", "--report-csv", str(workspace / "report.csv"),
                           "--levene-csv", str(path)],
        }[name]
        if name == "industry.csv":
            monkeypatch.setattr(market_data, "ingest", _forbidden)
        if argv[0] != "report":
            argv += ["--out-dir", str(out)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {path}:{line}: {problem}\n"
        assert captured.out == "" and not out.exists()


class TestPhysicalLines:
    """A row is named by the physical line its record starts on, so a quoted
    field that holds a line break does not shift the lines after it."""

    @pytest.mark.parametrize("name,first,bad,problem", [
        ("prices.csv", '{d},A,"1.0\n"', '{d},"S00\n",x', "invalid price 'x'"),
        ("dividends.csv", '"S00\n",{d},0.1', '"S01\n",{d},x', "invalid amount 'x'"),
        ("industry.csv", '"A\nB",1', '"S00\n",x', "invalid group 'x'"),
    ])
    def test_quoted_line_break(self, workspace, monkeypatch, capsys, name, first, bad, problem):
        day = (workspace / "prices.csv").read_text().splitlines()[1].split(",")[0]
        path = workspace / name
        header, rest = path.read_text().split("\n", 1)
        # Lines 2-3 hold a good record and lines 4-5 the bad one.
        path.write_text("\n".join([header, first.format(d=day), bad.format(d=day), rest]))
        command = "returns"
        if name == "industry.csv":
            command = "simulate"
            monkeypatch.setattr(market_data, "ingest", _forbidden)
        assert main([command, "--config", str(workspace / "config.json"),
                     "--out-dir", str(workspace / "out")]) == 2
        assert capsys.readouterr().err == f"error: {path}:4: {problem}\n"


def test_ticker_the_outputs_cannot_carry_fails_at_ingest(workspace, capsys):
    # Renamed "A,B" in every input, S00 would reach clusters_hct_P1.csv as the
    # row A,B,1 and hct_P1.nwk as two leaves, A and B.
    for name in ("prices.csv", "dividends.csv", "industry.csv"):
        path = workspace / name
        path.write_text(path.read_text().replace("S00", '"A,B"'))
    out = workspace / "out"
    assert main(["network", "--config", str(workspace / "config.json"), "--method", "hct",
                 "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {workspace / 'prices.csv'}:2: invalid ticker 'A,B'\n"
    assert not out.exists()


def _forbidden(*args, **kwargs):
    raise AssertionError("ran past the input checks")


class TestOutputPath:
    """``main`` writes a command's files once the command has made them all,
    so a command that fails leaves --out-dir as it was."""

    def hold_s04_constant_in_p3(self, workspace):
        # Three periods, and S04 closes at 50 from P3's first close on and
        # pays no dividend: only its P3 returns are all 0.
        prices = workspace / "prices.csv"
        header, *rows = prices.read_text().splitlines()
        dates = sorted({row.split(",", 1)[0] for row in rows})
        (workspace / "periods.json").write_text(json.dumps([
            {"label": f"P{i + 1}", "start": dates[start], "end": dates[end]}
            for i, (start, end) in enumerate([(0, 35), (35, 70), (70, -1)])]))
        prices.write_text("\n".join([header] + [
            row.rsplit(",", 1)[0] + ",50.000000" if ",S04," in row and row >= dates[70] else row
            for row in rows]) + "\n")
        dividends = workspace / "dividends.csv"
        dividends.write_text("".join(line for line in dividends.read_text().splitlines(True)
                                     if not line.startswith("S04,")))
        return prices

    @pytest.mark.parametrize("existing", [{}, {"clusters_hct_P1.csv": b"old\n", "notes": b"x"}],
                             ids=["new-out-dir", "existing-out-dir"])
    def test_late_period_failure_writes_nothing(self, workspace, capsys, existing):
        # P1 and P2 are clustered before P3 fails; their files used to be
        # written all the same.
        prices = self.hold_s04_constant_in_p3(workspace)
        out = workspace / "out"
        if existing:
            out.mkdir()
            for name, data in existing.items():
                (out / name).write_bytes(data)
        assert main(["network", "--method", "hct", "--config", str(workspace / "config.json"),
                     "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: {prices}: period 'P3': ticker S04 has zero-variance returns\n")
        if existing:
            assert {p.name: p.read_bytes() for p in out.iterdir()} == existing
        else:
            assert not out.exists()

    @pytest.mark.parametrize("below", [False, True], ids=["file", "under-a-file"])
    @pytest.mark.parametrize("command", [["returns"], ["network", "--method", "hct"], ["simulate"]],
                             ids=["returns", "network", "simulate"])
    def test_out_dir_that_is_no_directory(self, workspace, monkeypatch, capsys, command, below):
        # It used to fail at the first write, after the whole computation.
        afile = workspace / "afile"
        afile.write_text("kept\n")
        before = sorted(workspace.iterdir())
        out = afile / "sub" if below else afile
        monkeypatch.setattr(market_data, "ingest", _forbidden)
        assert main(command + ["--config", str(workspace / "config.json"),
                               "--out-dir", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: --out-dir {out} is not a directory\n"
        assert captured.out == "" and afile.read_text() == "kept\n"
        assert sorted(workspace.iterdir()) == before

    @pytest.mark.parametrize("command,line", [
        (["returns"], "wrote 2 per-period return files to {out}"),
        (["network", "--method", "hct"], "wrote hct outputs for 2 periods to {out}"),
        (["simulate"], "wrote simulation reports for model period P1 to {out}"),
    ], ids=["returns", "network", "simulate"])
    def test_success_line(self, workspace, capsys, command, line):
        out = workspace / "out"
        assert main(command + ["--config", str(workspace / "config.json"),
                               "--out-dir", str(out)]) == 0
        assert capsys.readouterr() == (line.format(out=out) + "\n", "")

    @pytest.mark.parametrize("state", ["miss", "hit"])
    def test_late_period_failure_writes_no_panel(self, workspace, capsys, state):
        # A panel file is there. The failing command ingests new prices (a
        # miss) or reuses the panel of these prices (a hit), and leaves the
        # panel file, as every other file, as it was.
        out = workspace / "out"
        config = str(workspace / "config.json")
        if state == "hit":
            self.hold_s04_constant_in_p3(workspace)
        assert main(["returns", "--config", config, "--out-dir", str(out)]) == 0
        if state == "miss":
            self.hold_s04_constant_in_p3(workspace)
        capsys.readouterr()
        before = contract_files(out), (out / cli.PANEL_FILE).read_bytes()
        inode = (out / cli.PANEL_FILE).stat().st_ino
        assert main(["network", "--method", "hct", "--config", config,
                     "--out-dir", str(out)]) == 2
        assert "period 'P3': ticker S04 has zero-variance returns" in capsys.readouterr().err
        assert (contract_files(out), (out / cli.PANEL_FILE).read_bytes()) == before
        assert (out / cli.PANEL_FILE).stat().st_ino == inode

    @pytest.mark.parametrize("umask,mode", [(0o022, 0o644), (0o077, 0o600)])
    def test_files_take_the_umask(self, workspace, capsys, umask, mode):
        # Each file was made by tempfile.mkstemp, and so 0o600 under any umask.
        out = workspace / "out"
        old = os.umask(umask)
        try:
            assert main(["returns", "--config", str(workspace / "config.json"),
                         "--out-dir", str(out)]) == 0
        finally:
            os.umask(old)
        modes = {path.name: path.stat().st_mode & 0o777 for path in out.iterdir()}
        assert sorted(modes) == sorted([cli.PANEL_FILE, "returns_P1.csv", "returns_P2.csv"])
        assert set(modes.values()) == {mode}


def counted_ingest(monkeypatch) -> list:
    """Patch ``market_data.ingest`` to note each call; returns the notes."""
    calls, real = [], market_data.ingest
    monkeypatch.setattr(market_data, "ingest", lambda *args: calls.append(args) or real(*args))
    return calls


def edit_last_digit(path: Path, at: int, byte: bytes | None = None) -> int:
    """Replace the last byte of the line of byte ``at`` (a number's last
    digit) by ``byte``, or else by another nonzero digit, so the file keeps
    its size; returns the line's number."""
    data = bytearray(path.read_bytes())
    end = data.index(b"\n", at) - 1
    data[end:end + 1] = byte or str(int(chr(data[end])) % 9 + 1).encode()
    path.write_bytes(bytes(data))
    return data.count(b"\n", 0, end) + 1


# Spellings of one price file, which read as the same panel.
PRICE_SPELLINGS = {
    "LF": lambda data: data,
    "CRLF": lambda data: data.replace(b"\n", b"\r\n"),
    "quoted": lambda data: b"".join(b'"' + line.replace(b",", b'","') + b'"\n'
                                    for line in data.splitlines()),
}


class TestPanelReuse:
    """A command that ingests saves the panel in --out-dir as PANEL_FILE,
    with the exact bytes of the two input files; a later command whose
    inputs hold those bytes rebuilds the panel from it and does not ingest.
    Any other panel file, or none, is a miss: the command ingests as before
    and saves its panel."""

    def argv(self, workspace, command):
        return command + ["--config", str(workspace / "config.json"),
                          "--out-dir", str(workspace / "out")]

    @pytest.mark.parametrize("spelling", PRICE_SPELLINGS)
    @pytest.mark.parametrize("command", [
        ["returns"], ["network", "--method", "hct"], ["network", "--method", "mst"],
        ["network", "--method", "nnet"], ["simulate", "--seed", "3"],
    ], ids=["returns", "hct", "mst", "nnet", "simulate"])
    def test_hit_writes_what_a_cold_run_writes(self, workspace, monkeypatch, capsys, command,
                                               spelling):
        prices, out = workspace / "prices.csv", workspace / "out"
        prices.write_bytes(PRICE_SPELLINGS[spelling](prices.read_bytes()))
        argv = self.argv(workspace, command)
        assert main(argv) == 0
        cold = contract_files(out), capsys.readouterr()
        panel = out / cli.PANEL_FILE
        saved, inode = panel.read_bytes(), panel.stat().st_ino
        for path in out.iterdir():
            if path != panel:
                path.unlink()
        monkeypatch.setattr(market_data, "ingest", _forbidden)
        assert main(argv) == 0
        assert (contract_files(out), capsys.readouterr()) == cold
        # A hit leaves the panel file as it is.
        assert (panel.read_bytes(), panel.stat().st_ino) == (saved, inode)

    def test_one_panel_serves_every_command(self, workspace, monkeypatch, capsys):
        assert main(self.argv(workspace, ["returns"])) == 0
        calls = counted_ingest(monkeypatch)
        for command in (["network", "--method", method] for method in ("hct", "mst", "nnet")):
            assert main(self.argv(workspace, command)) == 0
        assert main(self.argv(workspace, ["simulate"])) == 0
        assert calls == []

    @pytest.mark.parametrize("name", ["prices.csv", "dividends.csv"])
    def test_one_byte_edit_misses(self, workspace, monkeypatch, capsys, name):
        # The edit keeps the file's size and changes one number.
        out = workspace / "out"
        argv = self.argv(workspace, ["returns"])
        assert main(argv) == 0
        old = contract_files(out), (out / cli.PANEL_FILE).read_bytes()
        path = workspace / name
        edit_last_digit(path, path.stat().st_size // 2)
        calls = counted_ingest(monkeypatch)
        assert main(argv) == 0
        assert len(calls) == 1
        got = contract_files(out), (out / cli.PANEL_FILE).read_bytes()
        assert got[0] != old[0] and got[1] != old[1]
        cold = workspace / "cold"
        assert main(["returns", "--config", str(workspace / "config.json"),
                     "--out-dir", str(cold)]) == 0
        assert got == (contract_files(cold), (cold / cli.PANEL_FILE).read_bytes())

    @pytest.mark.parametrize("byte,problem", [(b"x", "invalid price '{field}'"),
                                              (b"\xff", "cannot decode byte 0xff as UTF-8 "
                                                        "(invalid start byte)")],
                             ids=["invalid-price", "undecodable"])
    def test_bad_price_byte_with_a_panel_present(self, workspace, capsys, byte, problem):
        prices, out = workspace / "prices.csv", workspace / "out"
        argv = self.argv(workspace, ["returns"])
        assert main(argv) == 0
        capsys.readouterr()
        before = contract_files(out), (out / cli.PANEL_FILE).read_bytes()
        inode = (out / cli.PANEL_FILE).stat().st_ino
        line = edit_last_digit(prices, prices.stat().st_size // 2, byte)
        field = prices.read_bytes().split(b"\n")[line - 1].rpartition(b",")[2].decode("latin-1")
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == f"error: {prices}:{line}: {problem.format(field=field)}\n"
        assert (contract_files(out), (out / cli.PANEL_FILE).read_bytes()) == before
        assert (out / cli.PANEL_FILE).stat().st_ino == inode
        # A cold run fails the same way.
        assert main(["returns", "--config", str(workspace / "config.json"),
                     "--out-dir", str(workspace / "cold")]) == 2
        assert capsys.readouterr().err == err

    @pytest.mark.parametrize("spoil", [
        lambda data: data[:-1],
        lambda data: data[:len(data) // 2],
        lambda data: b"",
        lambda data: data + b"\0",
        lambda data: b"ticker,total_return_pct\nS00,1.0\n",
        lambda data: data.replace(b'"tickers"', b'"tickerz"', 1),
        lambda data: data.replace(b"\n", b"\n{", 1),
        lambda data: data.replace(b'"S00"', b'"S,0"', 1),
    ], ids=["one-byte-short", "half", "empty", "one-byte-long", "foreign", "renamed-key",
            "bad-json", "bad-ticker"])
    def test_bad_panel_file_is_ingested_again(self, workspace, monkeypatch, capsys, spoil):
        out = workspace / "out"
        argv = self.argv(workspace, ["network", "--method", "hct"])
        assert main(argv) == 0
        want = contract_files(out), capsys.readouterr(), (out / cli.PANEL_FILE).read_bytes()
        (out / cli.PANEL_FILE).write_bytes(spoil(want[2]))
        calls = counted_ingest(monkeypatch)
        assert main(argv) == 0
        assert len(calls) == 1
        assert (contract_files(out), capsys.readouterr(),
                (out / cli.PANEL_FILE).read_bytes()) == want


# The steps that read or draw on data, each in the module the commands call it from.
DATA_STEPS = ((market_data, "ingest"), (cli, "build_clusters"), (portfolio_sim, "draw_matrices"))
# Settings that were removed: a config that still sets one fails as an unknown
# key. simulate's seed is set by --seed alone.
REMOVED_KEYS = ("prune", "levene_center", "pair_m2", "seed")


class TestSimulateInputChecks:
    def simulate(self, config, out):
        return main(["simulate", "--config", str(config), "--out-dir", str(out)])

    def test_industry_ticker_missing_from_panel(self, workspace, monkeypatch, capsys):
        with open(workspace / "industry.csv", "a") as fh:
            fh.write("ZZZ,2\n")
        monkeypatch.setattr(cli, "build_clusters", _forbidden)
        monkeypatch.setattr(portfolio_sim, "draw_matrices", _forbidden)
        assert self.simulate(workspace / "config.json", workspace / "out") == 2
        err = capsys.readouterr().err
        assert "industry.csv" in err and "'ZZZ'" in err and "price panel" in err
        assert not (workspace / "out").exists()

    def test_industry_map_unchecked_without_industry_strategy(self, workspace, capsys):
        with open(workspace / "industry.csv", "a") as fh:
            fh.write("ZZZ,2\n")
        cfg = json.loads((workspace / "config.json").read_text())
        cfg["simulation"]["strategies"] = ["random", "hct"]
        (workspace / "no_industry.json").write_text(json.dumps(cfg))
        assert self.simulate(workspace / "no_industry.json", workspace / "out") == 0

    @pytest.mark.parametrize("problem", ["one-group", "missing"])
    def test_industry_map_unread_without_industry_strategy(self, workspace, capsys, problem):
        path = workspace / "industry.csv"
        if problem == "missing":
            path.unlink()
        else:
            lines = path.read_text().splitlines()
            path.write_text("\n".join(lines[:1] + [l.split(",")[0] + ",1" for l in lines[1:]]))
        cfg = json.loads((workspace / "config.json").read_text())
        cfg["simulation"]["strategies"] = ["random", "hct"]
        (workspace / "no_industry.json").write_text(json.dumps(cfg))
        assert self.simulate(workspace / "no_industry.json", workspace / "out") == 0

    @pytest.mark.parametrize("dropped,more", [
        (("S05",), ""), (("S07", "S02", "S11"), " (and 2 more)"),
    ])
    def test_panel_ticker_missing_from_industry_map(self, workspace, monkeypatch, capsys,
                                                    dropped, more):
        path = workspace / "industry.csv"
        kept = [l for l in path.read_text().splitlines() if l.split(",")[0] not in dropped]
        path.write_text("\n".join(kept) + "\n")
        monkeypatch.setattr(cli, "build_clusters", _forbidden)
        assert self.simulate(workspace / "config.json", workspace / "out") == 2
        err = capsys.readouterr().err
        assert f"industry.csv: price panel ticker {min(dropped)!r} is not in the map{more}\n" in err
        assert not (workspace / "out").exists()

    # An empty model_period names no period: it does not fall back to the first.
    # A risk_free label names a period too: a misspelt one does not run on
    # the built-in rate.
    @pytest.mark.parametrize("key,value", [
        ("model_period", "P9"), ("test_periods", ["P2", "P9"]), ("model_period", ""),
        ("risk_free", {"P2": 1.0, "p2": 1.0}),
    ])
    def test_unknown_period_label(self, workspace, monkeypatch, capsys, key, value):
        cfg = json.loads((workspace / "config.json").read_text())
        cfg["simulation"][key] = value
        (workspace / "bad_period.json").write_text(json.dumps(cfg))
        monkeypatch.setattr(market_data, "ingest", _forbidden)
        assert self.simulate(workspace / "bad_period.json", workspace / "out") == 2
        label = value if key == "model_period" else list(value)[-1]
        assert capsys.readouterr().err == (
            f"error: {workspace / 'bad_period.json'}: simulation {key} names {label!r}, "
            f"which is not a period in {workspace / 'periods.json'}\n")
        assert not (workspace / "out").exists()

    # A test period needs a risk-free rate: one that neither the config nor
    # the built-in table rates fails rather than score at 0 %.
    @pytest.mark.parametrize("risk_free,unrated", [
        ({}, "Q1"), ({"Q1": 1.0}, "Q2"), ({"Q1": 1.0, "Q2": 2.0}, None),
    ], ids=["none-rated", "one-rated", "both-rated"])
    def test_test_period_needs_a_risk_free_rate(self, workspace, monkeypatch, capsys,
                                                 risk_free, unrated):
        periods = json.loads((workspace / "periods.json").read_text())
        for period, label in zip(periods, ("Q1", "Q2")):
            period["label"] = label
        (workspace / "periods.json").write_text(json.dumps(periods))
        cfg = json.loads((workspace / "config.json").read_text())
        cfg["simulation"].update(model_period="Q1", test_periods=["Q1", "Q2"],
                                 risk_free=risk_free)
        (workspace / "config.json").write_text(json.dumps(cfg))
        if unrated is None:
            assert self.simulate(workspace / "config.json", workspace / "out") == 0
            assert (workspace / "out" / "report_Q1_Q2.csv").exists()
            return
        monkeypatch.setattr(market_data, "ingest", _forbidden)
        assert self.simulate(workspace / "config.json", workspace / "out") == 2
        assert capsys.readouterr().err == (
            f"error: {workspace / 'config.json'}: simulation test_periods names {unrated!r}, "
            "which has no risk-free rate in simulation.risk_free or the built-in table\n")
        assert not (workspace / "out").exists()

    @pytest.mark.parametrize("reps", [2, 1, 0, -5, 2.5, "40", True, None])
    def test_bad_reps_rejected_before_any_data(self, workspace, monkeypatch, capsys, reps):
        cfg = json.loads((workspace / "config.json").read_text())
        cfg["simulation"]["reps"] = reps
        (workspace / "bad_reps.json").write_text(json.dumps(cfg))
        for module, name in DATA_STEPS:
            monkeypatch.setattr(module, name, _forbidden)
        assert self.simulate(workspace / "bad_reps.json", workspace / "out") == 2
        err = capsys.readouterr().err
        assert f"bad_reps.json: simulation.reps must be an integer from 3 to 2**32, not {reps!r}" in err
        assert not (workspace / "out").exists()

    @pytest.mark.parametrize("k", [3, 1, 8, 4.0, "4"])
    def test_bad_cluster_count_rejected_before_any_data(self, workspace, monkeypatch, capsys, k):
        cfg = json.loads((workspace / "config.json").read_text())
        cfg["clustering"]["k"] = k
        cfg["simulation"]["strategies"] = ["random", "mst"]
        (workspace / "bad_k.json").write_text(json.dumps(cfg))
        for module, name in DATA_STEPS:
            monkeypatch.setattr(module, name, _forbidden)
        assert self.simulate(workspace / "bad_k.json", workspace / "out") == 2
        err = capsys.readouterr().err
        assert "bad_k.json: clustering.k must be 2 or 4" in err and f"not {k!r}" in err
        assert not (workspace / "out").exists()

    @pytest.mark.parametrize("key,value", [
        ("sizes", 2), ("sizes", [2.7]), ("sizes", "48"), ("sizes", [2, 2]), ("sizes", [True]),
        ("sizes", [3]), ("sizes", []), ("strategies", "random"),
        ("strategies", ["random", "random"]), ("strategies", ["random", "index"]),
        ("strategies", [["random"]]), ("strategies", []),
        ("test_periods", "P2"), ("test_periods", ["P2", "P2"]), ("test_periods", []),
        ("reps", 2**32 + 1),
        ("levene_exclude", "HCT"), ("levene_exclude", ["HCT", "HCT"]),
        ("seed", "abc"), ("seed", 1.5), ("seed", True), ("seed", -1),
        ("risk_free", [1]), ("risk_free", {"P2": "1"}), ("risk_free", {"P2": float("nan")}),
        ("levene_center", "mode"), ("pair_m2", "yes"), ("pair_m2", 1),
        ("model_period", 1), ("levene_exclude", ["hct"]),
    ])
    def test_bad_simulation_value_rejected_before_any_data(self, workspace, monkeypatch,
                                                           capsys, key, value):
        cfg = json.loads((workspace / "config.json").read_text())
        cfg["simulation"][key] = value
        (workspace / "bad_sim.json").write_text(json.dumps(cfg))
        for module, name in DATA_STEPS:
            monkeypatch.setattr(module, name, _forbidden)
        assert self.simulate(workspace / "bad_sim.json", workspace / "out") == 2
        err = capsys.readouterr().err
        if key in REMOVED_KEYS:
            path = workspace / "bad_sim.json"
            assert err == f"error: {path}: unknown key simulation.{key}\n"
        else:
            assert f"bad_sim.json: simulation.{key} must be " in err
            assert err.endswith(f", not {value!r}\n") and "Traceback" not in err
        assert not (workspace / "out").exists()

    def test_negative_seed_flag_rejected_before_any_data(self, workspace, monkeypatch, capsys):
        for module, name in DATA_STEPS + ((cli, "load_industry_map"),):
            monkeypatch.setattr(module, name, _forbidden)
        assert main(["simulate", "--config", str(workspace / "config.json"),
                     "--out-dir", str(workspace / "out"), "--seed", "-1"]) == 2
        assert capsys.readouterr().err == "error: --seed must be an integer >= 0, not -1\n"
        assert not (workspace / "out").exists()

    def test_builtin_industry_map_checked_against_panel(self, workspace, monkeypatch, capsys):
        cfg = json.loads((workspace / "config.json").read_text())
        del cfg["industry_map"]
        (workspace / "builtin.json").write_text(json.dumps(cfg))
        monkeypatch.setattr(cli, "build_clusters", _forbidden)
        assert self.simulate(workspace / "builtin.json", workspace / "out") == 2
        assert capsys.readouterr().err == (
            "error: built-in Dow 30 industry map: ticker 'AA' is not in the price panel "
            "(and 29 more)\n")
        assert not (workspace / "out").exists()

    def test_builtin_industry_map_on_dow_panel(self, tmp_path, capsys):
        # One factor per super-group, over the 30 tickers of the built-in map.
        tickers = tuple(sorted(SUPER_GROUPS))
        loadings = np.zeros((30, 4))
        loadings[np.arange(30), [SUPER_GROUPS[t] - 1 for t in tickers]] = 0.9
        panel = write_panel(tmp_path, panel_from_loadings(loadings, 0.01, 60, seed=0,
                                                          tickers=tickers))
        (tmp_path / "periods.json").write_text(json.dumps([{
            "label": "P1", "start": panel.dates[0].isoformat(),
            "end": panel.dates[-1].isoformat()}]))
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "prices": "prices.csv", "dividends": "dividends.csv", "periods": "periods.json",
            "simulation": {"reps": 40, "strategies": ["random", "industry"]}}))
        assert self.simulate(config, tmp_path / "out") == 0
        rows = (tmp_path / "out" / "report_P1_P1.csv").read_text().splitlines()[1:]
        assert [row.split(",")[:2] for row in rows] == [
            [name, m] for m in "248" for name in ("Random", "Industry")]

    def test_cluster_count_free_without_cluster_strategy(self, workspace, capsys):
        cfg = json.loads((workspace / "config.json").read_text())
        cfg["clustering"]["k"] = 3
        cfg["simulation"]["strategies"] = ["random", "industry"]
        (workspace / "k3.json").write_text(json.dumps(cfg))
        assert self.simulate(workspace / "k3.json", workspace / "out") == 0

    @pytest.mark.parametrize("k", [2, 4])
    def test_two_or_four_clusters_accepted(self, workspace, capsys, k):
        cfg = json.loads((workspace / "config.json").read_text())
        cfg["clustering"]["k"] = k
        (workspace / "k.json").write_text(json.dumps(cfg))
        assert self.simulate(workspace / "k.json", workspace / "out") == 0


@pytest.mark.parametrize("rules", [cli.CLUSTERING_RULES, cli.SIMULATION_RULES],
                         ids=["clustering", "simulation"])
def test_rule_table_defaults(rules):
    # A default that is set passes its own rule, and check_section fills
    # every key a section leaves out with its default.
    for key, (default, ok, _) in rules.items():
        assert default is None or ok(default), key
    defaults = {key: default for key, (default, _, _) in rules.items()}
    assert cli.check_section("c.json", {}, "section", rules) == defaults
    key = next(iter(rules))  # clustering.k or simulation.reps: 3 is valid for either
    got = cli.check_section("c.json", {"section": {key: 3}}, "section", rules)
    assert got == {**defaults, key: 3}


class TestTickerCount:
    """A config value the price panel has too few tickers for fails right
    after ingest, naming the config and the prices file, before any output
    is written."""

    def config(self, tmp_path, n, clustering=None, simulation=None):
        start = date(2001, 1, 2)
        rows = [f"{start + timedelta(weeks=w)},T{j},{10 + j + (w * (j + 2)) % 7}"
                for w in range(12) for j in range(n)]
        (tmp_path / "prices.csv").write_text("date,ticker,close\n" + "\n".join(rows) + "\n")
        (tmp_path / "dividends.csv").write_text("ticker,payment_date,amount\n")
        end = start + timedelta(weeks=11)
        (tmp_path / "periods.json").write_text(json.dumps(
            [{"label": "P1", "start": start.isoformat(), "end": end.isoformat()}]))
        cfg = {"prices": "prices.csv", "dividends": "dividends.csv", "periods": "periods.json",
               "clustering": clustering or {}, "simulation": {"reps": 40, **(simulation or {})}}
        (tmp_path / "config.json").write_text(json.dumps(cfg))
        return tmp_path / "config.json"

    def fails(self, capsys, tmp_path, argv, config, message):
        out = tmp_path / "out"
        assert main(argv + ["--config", str(config), "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("argv,strategies", [
        (["network", "--method", "hct"], None), (["network", "--method", "mst"], None),
        (["network", "--method", "nnet"], None), (["simulate"], ["random", "hct"]),
        (["simulate"], ["mst"]), (["simulate"], ["random", "nnet"]),
    ], ids=["hct", "mst", "nnet", "simulate-hct", "simulate-mst", "simulate-nnet"])
    def test_clusters_above_ticker_count(self, tmp_path, capsys, argv, strategies):
        config = self.config(tmp_path, 3, {"k": 4}, {"strategies": strategies, "sizes": [2]})
        self.fails(capsys, tmp_path, argv, config, f"{config}: clustering.k must be at most 3, "
                   f"the number of tickers in {tmp_path / 'prices.csv'}, not 4")

    @pytest.mark.parametrize("argv,where", [
        (["network", "--method", "nnet"], "--method nnet"),
        (["simulate"], "{config}: simulation.strategies names 'nnet', which"),
    ], ids=["network", "simulate"])
    def test_neighbor_net_below_three_tickers(self, tmp_path, capsys, argv, where):
        config = self.config(tmp_path, 2, {"k": 2}, {"strategies": ["nnet"], "sizes": [2]})
        self.fails(capsys, tmp_path, argv, config, f"{where.format(config=config)} needs at "
                   f"least 3 tickers, and {tmp_path / 'prices.csv'} has 2")

    @pytest.mark.parametrize("strategies", [["random"], ["random", "hct"]])
    def test_size_above_ticker_count(self, tmp_path, capsys, strategies):
        config = self.config(tmp_path, 3, {"k": 2}, {"strategies": strategies, "sizes": [2, 4]})
        self.fails(capsys, tmp_path, ["simulate"], config, f"{config}: simulation.sizes must be "
                   f"at most 3, the number of tickers in {tmp_path / 'prices.csv'}, not 4")

    def test_cluster_count_unchecked_without_cluster_strategy(self, tmp_path, capsys):
        config = self.config(tmp_path, 3, {"k": 4}, {"strategies": ["random"], "sizes": [2]})
        assert main(["simulate", "--config", str(config), "--out-dir", str(tmp_path)]) == 0


class TestRelativeConfigPaths:
    def relative_config(self, workspace, **override):
        cfg = json.loads((workspace / "config.json").read_text())
        for key in ("prices", "dividends", "periods", "industry_map"):
            cfg[key] = Path(cfg[key]).name
        cfg.update(override)
        (workspace / "relative.json").write_text(json.dumps(cfg))
        return f"{workspace.name}/relative.json"

    def test_inputs_resolve_against_config_directory(self, workspace, monkeypatch, capsys):
        config = self.relative_config(workspace)
        monkeypatch.chdir(workspace.parent)
        out = workspace / "out"
        for argv in (["returns"], ["simulate", "--seed", "3"]):
            assert main(argv + ["--config", config, "--out-dir", str(out)]) == 0
        assert (out / "returns_P2.csv").exists()
        assert (out / "report_P1_P2.csv").exists()

    def test_missing_relative_input_names_its_path(self, workspace, monkeypatch, capsys):
        config = self.relative_config(workspace, prices="missing.csv")
        monkeypatch.chdir(workspace.parent)
        assert main(["returns", "--config", config]) == 2
        err = capsys.readouterr().err
        assert f"config prices file {workspace.name}/missing.csv does not exist" in err

    @pytest.mark.parametrize("command,key,value,message", [
        ("returns", "dividends", ".", "config dividends file . is not a file"),
        ("simulate", "industry_map", "nope.csv", "config industry_map file nope.csv does not exist"),
        ("simulate", "industry_map", ".", "config industry_map file . is not a file"),
    ], ids=["dividends-directory", "industry-map-missing", "industry-map-directory"])
    def test_input_path_that_is_no_file_names_its_key(self, workspace, monkeypatch, capsys,
                                                      command, key, value, message):
        self.relative_config(workspace, **{key: value})
        monkeypatch.chdir(workspace)
        out = workspace / "out"
        assert main([command, "--config", "relative.json", "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_config_path_that_is_a_directory(self, workspace, capsys):
        assert main(["returns", "--config", str(workspace)]) == 2
        assert capsys.readouterr().err == f"error: config file {workspace} is not a file\n"

    @pytest.mark.parametrize("key,value,message", [
        ("prices", 5, "relative.json: prices must be a path string, not 5"),
        ("industry_map", ["x.csv"], "relative.json: industry_map must be a path string, not ['x.csv']"),
        ("prices", None, "config missing required key 'prices'"),
    ])
    def test_bad_path_value_located(self, workspace, capsys, key, value, message):
        self.relative_config(workspace, **{key: value})
        assert main(["returns", "--config", str(workspace / "relative.json")]) == 2
        assert message in capsys.readouterr().err

    def test_config_must_be_an_object(self, workspace, capsys):
        (workspace / "list.json").write_text("[1, 2]")
        assert main(["returns", "--config", str(workspace / "list.json")]) == 2
        assert "list.json: config must be a JSON object" in capsys.readouterr().err


def test_cli_import_skips_scipy(workspace):
    # No command imports scipy, not even simulate, whose Levene p-values use
    # the in-house incomplete beta. simulate reads its replication streams
    # through an array kernel and takes Levene's median by sorting, so no
    # command loads numpy.random or numpy.ma either, and its records are
    # built without dataclasses. The commands run in one process, each
    # checked as it ends, so a module that one of them loads is charged to
    # it.
    src = Path(netfolio.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    config, out = str(workspace / "config.json"), str(workspace / "out")
    common = ["--config", config, "--out-dir", out]
    commands = [["returns", *common]]
    commands += [["network", "--method", method, *common] for method in ("hct", "mst", "nnet")]
    commands += [["simulate", *common],
                 ["report", "--report-csv", str(workspace / "out" / "report_P1_P2.csv"),
                  "--levene-csv", str(workspace / "out" / "levene_P1_P2.csv")]]
    code = (
        "import json, sys; from netfolio.cli import main\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    assert main(argv) == 0, argv\n"
        "    loaded = {'scipy', 'numpy.random', 'numpy.ma', 'dataclasses'} & set(sys.modules)\n"
        "    assert not loaded, (argv[:3], loaded)\n"
    )
    subprocess.run([sys.executable, "-c", code, json.dumps(commands)], env=env, check=True,
                   stdout=subprocess.DEVNULL)
    assert (workspace / "out" / "levene_P1_P2.csv").exists()
    assert (workspace / "out" / "nnet_P2.nex").exists()


NUMERIC = ("market_data", "correlation", "clusters", "tree_cluster", "neighbor_net", "nnls",
           "portfolio_sim", "summary")
REPORT_CSV = "strategy,size,mean,sd,sharpe,best_flag\nRandom,2,1.5,2.0,0.25,1\n"


@pytest.mark.parametrize("argv,unloaded", [
    ([], ["inspect",
          *(p.stem for p in Path(netfolio.__file__).parent.glob("*.py") if p.stem != "__init__")]),
    (None, ["numpy", "inspect", *NUMERIC]),
    (["report"], ["numpy", "inspect", *NUMERIC]),
    (["returns"], ["clusters", "correlation", "tree_cluster", "neighbor_net", "nnls",
                   "portfolio_sim"]),
    (["network", "--method", "hct"], ["neighbor_net", "nnls", "portfolio_sim"]),
    (["network", "--method", "mst"], ["neighbor_net", "nnls", "portfolio_sim"]),
    (["network", "--method", "nnet"], ["tree_cluster", "portfolio_sim"]),
], ids=["import", "import-cli", "report", "returns", "hct", "mst", "nnet"])
def test_command_loads_only_its_modules(workspace, argv, unloaded):
    # Each command runs in a fresh interpreter, which then lists its modules;
    # with no command, the package (or with None, ``netfolio.cli``, as the
    # bench's setup_s times it) is only imported. No command loads
    # dataclasses (records are built without it), and numpy is what loads
    # inspect, so a numpy-free process does without it.
    if argv == ["report"]:
        (workspace / "report.csv").write_text(REPORT_CSV)
        argv = ["report", "--report-csv", str(workspace / "report.csv")]
    elif argv:
        argv = argv + ["--config", str(workspace / "config.json"),
                       "--out-dir", str(workspace / "out")]
    code = (
        "import json, sys\n"
        "argv = json.loads(sys.argv[1])\n"
        "if argv is None:\n"
        "    import netfolio.cli\n"
        "elif argv:\n"
        "    from netfolio.cli import main\n"
        "    assert main(argv) == 0, argv\n"
        "else:\n"
        "    import netfolio\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    src = Path(netfolio.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-c", code, json.dumps(argv)], env=env, check=True,
                          capture_output=True, text=True)
    loaded = set(json.loads(done.stdout.splitlines()[-1]))
    forbidden = {"scipy", "numpy.random", "numpy.ma", "dataclasses"}
    forbidden |= {name if name in ("numpy", "inspect") else f"netfolio.{name}"
                  for name in unloaded}
    assert not loaded & forbidden
    assert "netfolio" in loaded


@pytest.mark.parametrize("command", [["returns"], ["network", "--method", "hct"], ["simulate"]],
                         ids=["returns", "network", "simulate"])
def test_hit_loads_what_a_miss_loads(workspace, command):
    # Two fresh interpreters run the command on one --out-dir: the first
    # ingests and saves the panel file, the second reuses it (it does not
    # replace the file).
    code = (
        "import json, sys\n"
        "from netfolio.cli import main\n"
        "assert main(json.loads(sys.argv[1])) == 0\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    out = workspace / "out"
    argv = command + ["--config", str(workspace / "config.json"), "--out-dir", str(out)]
    src = Path(netfolio.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    loaded, inodes = [], []
    for _ in range(2):
        done = subprocess.run([sys.executable, "-c", code, json.dumps(argv)], env=env, check=True,
                              capture_output=True, text=True)
        loaded.append(json.loads(done.stdout.splitlines()[-1]))
        inodes.append((out / cli.PANEL_FILE).stat().st_ino)
    assert inodes[0] == inodes[1]
    assert loaded[0] == loaded[1]


@pytest.mark.parametrize("strategy", ["Random", "Élan"])
def test_report_stdout_is_utf8_in_any_locale(tmp_path, capsys, strategy):
    # Under the C locale, without UTF-8 mode, sys.stdout encodes ASCII; the
    # report goes out as UTF-8 all the same, as the files the commands write.
    path = tmp_path / "report.csv"
    path.write_text(REPORT_CSV.replace("Random", strategy), encoding="utf-8")
    assert main(["report", "--report-csv", str(path)]) == 0
    want = capsys.readouterr().out.encode("utf-8")
    src = Path(netfolio.__file__).resolve().parents[1]
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONIOENCODING", "PYTHONUTF8")}
    env.update(PYTHONPATH=str(src), LC_ALL="C")
    done = subprocess.run([sys.executable, "-X", "utf8=0", "-m", "netfolio.cli", "report",
                           "--report-csv", str(path)], env=env, capture_output=True)
    assert (done.returncode, done.stderr, done.stdout) == (0, b"", want)
    assert strategy.encode("utf-8") in want


# Registered before the program runs, so its handler runs after the
# program's exit began: it prints how many objects the collector froze.
FREEZE_PROBE = (
    "import atexit, gc, runpy, sys\n"
    "atexit.register(lambda: print(gc.get_freeze_count(), file=sys.stderr))\n"
    "runpy.run_module('netfolio.cli', run_name='__main__', alter_sys=True)\n"
)


@pytest.mark.parametrize("command", ["returns", "report"])
def test_program_exits_with_the_collector_frozen(workspace, capsys, command):
    # ``python -m netfolio.cli`` exits through ``run``, which freezes the
    # collector once ``main`` has returned, so the interpreter's shutdown
    # does not collect the objects of every loaded module. ``main`` itself
    # never freezes: a process that calls it goes on collecting. Both
    # write the same bytes.
    (workspace / "report.csv").write_text(REPORT_CSV)

    def argv(out: str) -> list[str]:
        if command == "report":
            return ["report", "--report-csv", str(workspace / "report.csv")]
        return ["returns", "--config", str(workspace / "config.json"),
                "--out-dir", str(workspace / out)]

    assert main(argv("main")) == 0
    assert gc.get_freeze_count() == 0
    want = capsys.readouterr().out.encode("utf-8")
    src = Path(netfolio.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-c", FREEZE_PROBE, *argv("run")], env=env,
                          capture_output=True)
    assert done.returncode == 0, done.stderr
    assert int(done.stderr) > 0
    if command == "report":
        assert done.stdout == want
    else:
        files = sorted(p.name for p in (workspace / "main").iterdir())
        assert files == sorted(p.name for p in (workspace / "run").iterdir())
        assert files and all((workspace / "main" / name).read_bytes()
                             == (workspace / "run" / name).read_bytes() for name in files)
