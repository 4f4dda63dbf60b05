"""Golden outputs of the simulation engine, compared byte for byte.

Two goldens live under tests/data/:

- ``simulate_seed9/``: the report, Levene and markdown files that
  ``simulate --seed 9`` writes on the criterion-9 fixture;
- ``draws_seed9.json``: the first 50 portfolios each selection rule draws
  for m in {2, 4, 8} from the replication streams of seed 9.

Regenerate with ``PYTHONPATH=src python tests/test_golden.py --write``, and
only for an intended change of simulation output.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from netfolio.cli import main
from netfolio.clusters import pair_by_size, renumber
from netfolio.market_data import BlockModelSpec
from netfolio.portfolio_sim import Strategy, default_industry_map, replication_rng
from test_cli import write_panel_csvs

DATA = Path(__file__).parent / "data"
SIM_DIR = DATA / "simulate_seed9"
DRAWS_FILE = DATA / "draws_seed9.json"
SIM_FILES = ("report_P1_P2.csv", "levene_P1_P2.csv", "report_P1_P2.md")
SEED = 9
DRAWS = 50


def simulate_outputs(tmp_path: Path) -> dict[str, bytes]:
    """Run ``simulate --seed 9`` on the criterion-9 fixture; file name -> bytes."""
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
    (tmp_path / "periods.json").write_text(json.dumps([
        {"label": "P1", "start": panel.dates[0].isoformat(), "end": mid.isoformat()},
        {"label": "P2", "start": mid.isoformat(), "end": panel.dates[-1].isoformat()},
    ]))
    (tmp_path / "industry.csv").write_text(
        "ticker,group\n"
        + "".join(f"{t},{j // 3 + 1}\n" for j, t in enumerate(panel.tickers))
    )
    (tmp_path / "config.json").write_text(json.dumps({
        "prices": str(tmp_path / "prices.csv"),
        "dividends": str(tmp_path / "dividends.csv"),
        "periods": str(tmp_path / "periods.json"),
        "industry_map": str(tmp_path / "industry.csv"),
        "clustering": {"k": 4},
        "simulation": {"reps": 250, "sizes": [2, 4], "model_period": "P1",
                       "test_periods": ["P2"], "risk_free": {"P2": 1.0}},
    }))
    out = tmp_path / "out"
    code = main(["simulate", "--config", str(tmp_path / "config.json"),
                 "--out-dir", str(out), "--seed", str(SEED)])
    assert code == 0
    return {name: (out / name).read_bytes() for name in SIM_FILES}


def golden_strategies() -> list[Strategy]:
    """Every selection rule over the 30-stock default industry universe."""
    industry = default_industry_map()
    tickers = tuple(sorted(industry.groups))
    four = renumber([tickers[:3], tickers[3:8], tickers[8:18], tickers[18:]], "HCT")
    two = renumber([tickers[:11], tickers[11:]], "MST")
    return [
        Strategy("Random", "random", universe=tickers),
        Strategy("Industry", "industry", industry=industry),
        Strategy("Cluster paired", "cluster", assignment=four, pairing=pair_by_size(four)),
        Strategy("Cluster unpaired", "cluster", assignment=four),
        Strategy("Cluster two", "cluster", assignment=two, pairing=pair_by_size(two)),
    ]


def drawn_tickers() -> str:
    """JSON text: strategy -> m -> the space-joined tickers of replications 0..49."""
    table = {
        s.name: {
            str(m): [" ".join(s.draw(m, replication_rng(SEED, rep), rep).tickers)
                     for rep in range(DRAWS)]
            for m in (2, 4, 8)
        }
        for s in golden_strategies()
    }
    return json.dumps({"seed": SEED, "draws": table}, indent=1) + "\n"


def test_simulate_matches_golden(tmp_path):
    got = simulate_outputs(tmp_path)
    for name in SIM_FILES:
        assert got[name] == (SIM_DIR / name).read_bytes(), name


def test_drawn_tickers_match_golden():
    assert drawn_tickers() == DRAWS_FILE.read_text()


if __name__ == "__main__":
    import tempfile

    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --write")
    SIM_DIR.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name, data in simulate_outputs(Path(tmp)).items():
            (SIM_DIR / name).write_bytes(data)
    DRAWS_FILE.write_text(drawn_tickers())
