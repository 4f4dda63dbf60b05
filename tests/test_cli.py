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
    ])
    def test_bad_report_cell_located(self, tmp_path, capsys, column, value):
        good = dict(zip(cli.REPORT_COLUMNS, ("Random", "2", "1.5", "2.0", "0.25", "1")))
        bad = {**good, "strategy": "NN", column: value}
        path = tmp_path / "report.csv"
        path.write_text("".join(",".join(r) + "\n" for r in (cli.REPORT_COLUMNS, good.values(),
                                                           bad.values())))
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
        assert f"{path}:2: bad row" in capsys.readouterr().err


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

    def test_blank_industry_rows_skipped(self, workspace):
        path = workspace / "industry.csv"
        want = cli.load_industry_map(path).groups
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:3] + [""] + lines[3:]) + "\n\n")
        assert cli.load_industry_map(path).groups == want

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
        monkeypatch.setattr(cli, "ingest", _forbidden)
        assert main(command + ["--config", str(workspace / "bad_clustering.json"),
                               "--out-dir", str(workspace / "out")]) == 2
        err = capsys.readouterr().err
        assert f"bad_clustering.json: clustering.{key} must be " in err
        assert err.endswith(f", not {value!r}\n") and "Traceback" not in err
        assert not (workspace / "out").exists()

    @pytest.mark.parametrize("section", ["clustering", "simulation"])
    def test_section_must_be_an_object(self, workspace, monkeypatch, capsys, section):
        cfg = json.loads((workspace / "config.json").read_text())
        cfg[section] = [4]
        (workspace / "bad_section.json").write_text(json.dumps(cfg))
        monkeypatch.setattr(cli, "ingest", _forbidden)
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
        monkeypatch.setattr(cli, "ingest", _forbidden)
        assert main(command + ["--config", str(workspace / "config.json"),
                               "--out-dir", str(workspace / "out")]) == 2
        assert capsys.readouterr().err == f"error: {path}: period 'P2': start must precede end\n"
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
        monkeypatch.setattr(cli, "ingest", _forbidden)
        assert main(["simulate", "--config", str(workspace / "config.json"),
                     "--out-dir", str(workspace / "out")]) == 2
        assert capsys.readouterr().err == f"error: {workspace / message}\n"
        assert not (workspace / "out").exists()

    def test_invalid_periods_json_located(self, workspace, capsys):
        path = workspace / "periods.json"
        path.write_text('[\n  {"label": "P1",}\n]\n')
        assert main(["returns", "--config", str(workspace / "config.json")]) == 2
        assert capsys.readouterr().err == (
            f"error: {path}: invalid JSON at line 2 column 18: "
            "Expecting property name enclosed in double quotes\n"
        )


def _forbidden(*args, **kwargs):
    raise AssertionError("ran past the input checks")


class TestSimulateInputChecks:
    def simulate(self, config, out):
        return main(["simulate", "--config", str(config), "--out-dir", str(out)])

    def test_industry_ticker_missing_from_panel(self, workspace, monkeypatch, capsys):
        with open(workspace / "industry.csv", "a") as fh:
            fh.write("ZZZ,2\n")
        monkeypatch.setattr(cli, "build_clusters", _forbidden)
        monkeypatch.setattr(cli, "draw_matrices", _forbidden)
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


    @pytest.mark.parametrize("reps", [1, 0, -5, 2.5, "40", True, None])
    def test_bad_reps_rejected_before_any_data(self, workspace, monkeypatch, capsys, reps):
        cfg = json.loads((workspace / "config.json").read_text())
        cfg["simulation"]["reps"] = reps
        (workspace / "bad_reps.json").write_text(json.dumps(cfg))
        for name in ("ingest", "build_clusters", "draw_matrices"):
            monkeypatch.setattr(cli, name, _forbidden)
        assert self.simulate(workspace / "bad_reps.json", workspace / "out") == 2
        err = capsys.readouterr().err
        assert f"bad_reps.json: simulation.reps must be an integer >= 2, not {reps!r}" in err
        assert not (workspace / "out").exists()

    @pytest.mark.parametrize("k", [3, 1, 8, 4.0, "4"])
    def test_bad_cluster_count_rejected_before_any_data(self, workspace, monkeypatch, capsys, k):
        cfg = json.loads((workspace / "config.json").read_text())
        cfg["clustering"]["k"] = k
        cfg["simulation"]["strategies"] = ["random", "mst"]
        (workspace / "bad_k.json").write_text(json.dumps(cfg))
        for name in ("ingest", "build_clusters", "draw_matrices"):
            monkeypatch.setattr(cli, name, _forbidden)
        assert self.simulate(workspace / "bad_k.json", workspace / "out") == 2
        err = capsys.readouterr().err
        assert "bad_k.json: clustering.k must be 2 or 4" in err and f"not {k!r}" in err
        assert not (workspace / "out").exists()

    @pytest.mark.parametrize("key,value", [
        ("sizes", 2), ("sizes", [2.7]), ("sizes", "48"), ("sizes", [2, 2]), ("sizes", [True]),
        ("sizes", [3]), ("strategies", "random"), ("strategies", ["random", "random"]),
        ("strategies", ["random", "index"]), ("strategies", [["random"]]),
        ("test_periods", "P2"), ("test_periods", ["P2", "P2"]),
        ("levene_exclude", "HCT"), ("levene_exclude", ["HCT", "HCT"]),
        ("seed", "abc"), ("seed", 1.5), ("seed", True),
        ("risk_free", [1]), ("risk_free", {"P2": "1"}), ("risk_free", {"P2": float("nan")}),
        ("levene_center", "mode"), ("pair_m2", "yes"), ("pair_m2", 1),
    ])
    def test_bad_simulation_value_rejected_before_any_data(self, workspace, monkeypatch,
                                                           capsys, key, value):
        cfg = json.loads((workspace / "config.json").read_text())
        cfg["simulation"][key] = value
        (workspace / "bad_sim.json").write_text(json.dumps(cfg))
        for name in ("ingest", "build_clusters", "draw_matrices"):
            monkeypatch.setattr(cli, name, _forbidden)
        assert self.simulate(workspace / "bad_sim.json", workspace / "out") == 2
        err = capsys.readouterr().err
        assert f"bad_sim.json: simulation.{key} must be " in err
        assert err.endswith(f", not {value!r}\n") and "Traceback" not in err
        assert not (workspace / "out").exists()

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
    # the in-house incomplete beta.
    src = Path(netfolio.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    code = (
        "import sys; from netfolio.cli import main; "
        "assert main(['simulate', '--config', sys.argv[1], '--out-dir', sys.argv[2]]) == 0; "
        "assert 'scipy' not in sys.modules"
    )
    subprocess.run([sys.executable, "-c", code, str(workspace / "config.json"),
                    str(workspace / "out")], env=env, check=True)
    assert (workspace / "out" / "levene_P1_P2.csv").exists()
