"""End-to-end command line tests against synthetic fixtures on disk."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from datetime import date, timedelta
from pathlib import Path

import pytest

import netfolio
from netfolio import cli
from netfolio.cli import main
from netfolio.market_data import BlockModelSpec, synthesize_panel


def write_panel_csvs(tmp_path, spec, seed=0):
    panel, divs = synthesize_panel(spec, seed)
    prices = ["date,ticker,close"]
    for i, d in enumerate(panel.dates):
        for j, t in enumerate(panel.tickers):
            prices.append(f"{d.isoformat()},{t},{panel.close[i, j]:.6f}")
    (tmp_path / "prices.csv").write_text("\n".join(prices) + "\n")
    dividends = ["ticker,payment_date,amount"]
    for e in divs.entries:
        dividends.append(f"{e.ticker},{e.payment_date.isoformat()},{e.amount:.6f}")
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
        ("S02,1,9", "industry.csv:4: bad row"),
    ])
    def test_bad_industry_row_located(self, workspace, capsys, row, message):
        lines = (workspace / "industry.csv").read_text().splitlines()
        lines[3] = row
        (workspace / "industry.csv").write_text("\n".join(lines) + "\n")
        out = workspace / "out"
        assert main(["simulate", "--config", str(workspace / "config.json"),
                     "--out-dir", str(out)]) == 2
        assert message in capsys.readouterr().err

    def test_bad_industry_header(self, workspace, capsys):
        (workspace / "industry.csv").write_text("symbol,grp\nA,1\n")
        out = workspace / "out"
        assert main(["simulate", "--config", str(workspace / "config.json"),
                     "--out-dir", str(out)]) == 2
        assert "ticker,group" in capsys.readouterr().err


def _forbidden(*args, **kwargs):
    raise AssertionError("ran past the input checks")


class TestSimulateInputChecks:
    def simulate(self, config, out):
        return main(["simulate", "--config", str(config), "--out-dir", str(out)])

    def test_industry_ticker_missing_from_panel(self, workspace, monkeypatch, capsys):
        with open(workspace / "industry.csv", "a") as fh:
            fh.write("ZZZ,2\n")
        monkeypatch.setattr(cli, "build_clusters", _forbidden)
        monkeypatch.setattr(cli, "draw_matrix", _forbidden)
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

    @pytest.mark.parametrize("key,value", [
        ("model_period", "P9"), ("test_periods", ["P2", "P9"]),
    ])
    def test_unknown_period_label(self, workspace, monkeypatch, capsys, key, value):
        cfg = json.loads((workspace / "config.json").read_text())
        cfg["simulation"][key] = value
        (workspace / "bad_period.json").write_text(json.dumps(cfg))
        monkeypatch.setattr(cli, "ingest", _forbidden)
        assert self.simulate(workspace / "bad_period.json", workspace / "out") == 2
        err = capsys.readouterr().err
        assert "bad_period.json" in err and "'P9'" in err and key in err
        assert not (workspace / "out").exists()


def test_cli_import_skips_scipy():
    # scipy is imported only for Levene p-values, so commands that never
    # run a Levene test do not pay for it.
    src = Path(netfolio.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    code = "import netfolio.cli, sys; assert 'scipy' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
