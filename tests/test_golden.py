"""Golden outputs of the simulation engine and of Neighbor-Net.

Three goldens live under tests/data/:

- ``simulate_seed9/``: the report, Levene and markdown files that
  ``simulate --seed 9`` writes on the criterion-9 fixture, compared byte
  for byte;
- ``draws_seed9.json``: the first 50 portfolios each selection rule draws
  for m in {2, 4, 8} from the replication streams of seed 9, written by the
  scalar ``_draw_row`` and compared byte for byte, and checked row by row
  against ``_draw_row`` and ``draw_matrices``;
- ``neighbornet_cases.json``: the circular ordering, fitted splits and
  residual of ``neighbornet_ordering`` + ``fit_split_weights`` on 40 seeded
  distance matrices (n = 4..48, a third of them rounded to two decimals so
  the tie-breaks run); orderings and split sets must match exactly, weights
  within 1e-9 and the residual within 1e-9 relative;
- ``neighbornet_large.json``: the same record for two seeded block-factor
  distance matrices at n = 64 and n = 100, the sizes where the split fit
  runs hundreds of active-set steps, checked with the same tolerances.

Regenerate with ``PYTHONPATH=src python tests/test_golden.py --write``, and
only for an intended change of output.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from datetime import date
from pathlib import Path

from netfolio.cli import main
import numpy as np
import pytest

from netfolio.clusters import pair_by_size, renumber
from netfolio.correlation import DistanceMatrix
from netfolio.market_data import BlockModelSpec, ReturnPanel, StudyPeriod
from netfolio.neighbor_net import fit_split_weights, neighbornet_ordering
from netfolio.portfolio_sim import (
    Strategy,
    _draw_row,
    cluster_plan,
    default_industry_map,
    draw_matrices,
    random_plan,
    replication_rng,
)
from test_cli import write_panel_csvs

DATA = Path(__file__).parent / "data"
SIM_DIR = DATA / "simulate_seed9"
DRAWS_FILE = DATA / "draws_seed9.json"
SIM_FILES = ("report_P1_P2.csv", "levene_P1_P2.csv", "report_P1_P2.md")
NN_FILE = DATA / "neighbornet_cases.json"
NN_LARGE_FILE = DATA / "neighbornet_large.json"
NN_LARGE_SIZES = (64, 100)
SEED = 9
DRAWS = 50
NN_CASES = 40


def write_simulate_inputs(tmp_path: Path) -> Path:
    """Write the criterion-9 fixture; returns its config file."""
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
    return tmp_path / "config.json"


def simulate_outputs(tmp_path: Path) -> dict[str, bytes]:
    """Run ``simulate --seed 9`` on the criterion-9 fixture; file name -> bytes."""
    config = write_simulate_inputs(tmp_path)
    out = tmp_path / "out"
    code = main(["simulate", "--config", str(config), "--out-dir", str(out), "--seed", str(SEED)])
    assert code == 0
    return {name: (out / name).read_bytes() for name in SIM_FILES}


def golden_strategies() -> list[Strategy]:
    """Every selection rule over the 30-stock default industry universe."""
    industry = default_industry_map()
    tickers = tuple(sorted(industry.groups))
    four = renumber([tickers[:3], tickers[3:8], tickers[8:18], tickers[18:]], "HCT")
    two = renumber([tickers[:11], tickers[11:]], "MST")
    return [
        Strategy("Random", random_plan(tickers)),
        Strategy("Industry", industry.plan),
        Strategy("Cluster paired", cluster_plan(four, pair_by_size(four))),
        Strategy("Cluster unpaired", cluster_plan(four)),
        Strategy("Cluster two", cluster_plan(two, pair_by_size(two))),
    ]


def scalar_draws(strategy: Strategy, m: int) -> list[str]:
    """The space-joined tickers ``_draw_row`` draws in replications 0..49."""
    plan = strategy.plan
    plan.check(m)
    return [" ".join(plan.labels[p] for p in _draw_row(plan, m, replication_rng(SEED, rep)))
            for rep in range(DRAWS)]


def drawn_tickers() -> str:
    """JSON text: strategy -> m -> the space-joined tickers of replications 0..49."""
    table = {s.name: {str(m): scalar_draws(s, m) for m in (2, 4, 8)} for s in golden_strategies()}
    return json.dumps({"seed": SEED, "draws": table}, indent=1) + "\n"


def nn_distance(case: int) -> DistanceMatrix:
    """Seeded distance matrix of golden case ``case``: n runs 4..48; kind 0 is
    uniform noise, kind 1 a correlation distance of block-factor returns and
    kind 2 the same correlation distance rounded to two decimals (ties)."""
    n = 4 + case * 44 // (NN_CASES - 1)
    kind = case % 3
    rng = np.random.default_rng(7000 + case)
    if kind == 0:
        d = rng.uniform(0.05, 2.0, size=(n, n))
        d = (d + d.T) / 2.0
    else:
        blocks = rng.integers(0, max(2, n // 6), size=n)
        factors = rng.normal(size=(60, int(blocks.max()) + 1))
        returns = 0.8 * factors[:, blocks] + rng.normal(size=(60, n))
        d = np.sqrt(np.maximum(2.0 * (1.0 - np.corrcoef(returns, rowvar=False)), 0.0))
        d = (d + d.T) / 2.0
        if kind == 2:
            d = np.round(d, 2)
    np.fill_diagonal(d, 0.0)
    return DistanceMatrix(tuple(f"S{i:02d}" for i in range(n)), d)


def nn_large_distance(n: int) -> DistanceMatrix:
    """Seeded correlation distance of 200 weeks of 6-block factor returns."""
    rng = np.random.default_rng(8000 + n)
    blocks = rng.integers(0, 6, size=n)
    returns = 0.8 * rng.normal(size=(200, 6))[:, blocks] + rng.normal(size=(200, n))
    d = np.sqrt(np.maximum(2.0 * (1.0 - np.corrcoef(returns, rowvar=False)), 0.0))
    d = (d + d.T) / 2.0
    np.fill_diagonal(d, 0.0)
    return DistanceMatrix(tuple(f"S{i:03d}" for i in range(n)), d)


def nn_case(case: int, dist: DistanceMatrix | None = None) -> dict:
    """Ordering, splits (start, length, weight) and residual of one case."""
    if dist is None:
        dist = nn_distance(case)
    system = fit_split_weights(dist, neighbornet_ordering(dist))
    return {
        "case": case,
        "cycle": list(system.ordering),
        "splits": [[s.start, s.length, s.weight] for s in system.splits],
        "residual": system.residual,
    }


def nn_golden_text() -> str:
    return json.dumps({"cases": [nn_case(c) for c in range(NN_CASES)]}) + "\n"


def nn_large_golden_text() -> str:
    cases = [nn_case(n, nn_large_distance(n)) for n in NN_LARGE_SIZES]
    return json.dumps({"cases": cases}) + "\n"


@pytest.fixture(scope="module")
def nn_golden() -> list[dict]:
    return json.loads(NN_FILE.read_text())["cases"]


def assert_nn_case_matches(got: dict, want: dict) -> None:
    assert got["cycle"] == want["cycle"]
    assert [s[:2] for s in got["splits"]] == [s[:2] for s in want["splits"]]
    np.testing.assert_allclose(
        [s[2] for s in got["splits"]], [s[2] for s in want["splits"]], rtol=0, atol=1e-9
    )
    assert got["residual"] == pytest.approx(want["residual"], rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("case", range(NN_CASES))
def test_neighbornet_matches_golden(case, nn_golden):
    assert_nn_case_matches(nn_case(case), nn_golden[case])


@pytest.mark.parametrize("index", range(len(NN_LARGE_SIZES)))
def test_neighbornet_large_matches_golden(index):
    n = NN_LARGE_SIZES[index]
    want = json.loads(NN_LARGE_FILE.read_text())["cases"][index]
    assert want["case"] == n
    assert_nn_case_matches(nn_case(n, nn_large_distance(n)), want)


def test_simulate_matches_golden(tmp_path):
    got = simulate_outputs(tmp_path)
    for name in SIM_FILES:
        assert got[name] == (SIM_DIR / name).read_bytes(), name


# Runs every command, in one interpreter, with a finder that fails every
# import of scipy, as on an install without the test extra.
WITHOUT_SCIPY = """
import json, sys

class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "scipy":
            raise ModuleNotFoundError(f"No module named {name!r}")

sys.meta_path.insert(0, NoScipy())
try:
    import scipy
except ModuleNotFoundError:
    pass
else:
    sys.exit("scipy imported despite the finder")
from netfolio.cli import main

for argv in json.loads(sys.argv[1]):
    if main(argv) != 0:
        sys.exit(f"{argv[0]} failed")
"""


def test_commands_run_without_scipy(tmp_path):
    config, out = str(write_simulate_inputs(tmp_path)), tmp_path / "out"
    common = ["--config", config, "--out-dir", str(out)]
    commands = [["returns", *common]]
    commands += [["network", "--method", method, *common] for method in ("hct", "mst", "nnet")]
    commands += [
        ["simulate", *common, "--seed", str(SEED)],
        ["report", "--report-csv", str(out / "report_P1_P2.csv"),
         "--levene-csv", str(out / "levene_P1_P2.csv")],
    ]
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    subprocess.run([sys.executable, "-c", WITHOUT_SCIPY, json.dumps(commands)],
                   env=env, check=True, stdout=subprocess.DEVNULL)
    for name in SIM_FILES:
        assert (out / name).read_bytes() == (SIM_DIR / name).read_bytes(), name
    assert (out / "nnet_P2.nex").exists()


def test_drawn_tickers_match_golden():
    assert drawn_tickers() == DRAWS_FILE.read_text()


def test_draw_matrix_matches_golden():
    """The scalar draws, replication by replication, and the batched draws,
    all blocks sharing one word matrix, give the golden portfolios."""
    want = json.loads(DRAWS_FILE.read_text())["draws"]
    strategies = golden_strategies()
    tickers = strategies[0].plan.labels
    period = StudyPeriod("P1", date(2001, 1, 2), date(2004, 1, 6))
    panel = ReturnPanel(tickers, (period,), np.zeros((1, len(tickers))),
                        (np.zeros((3, len(tickers))),))
    sizes = (2, 4, 8)
    matrices = iter(draw_matrices(strategies, panel, sizes, DRAWS, SEED))
    for m in sizes:
        for s in strategies:
            assert scalar_draws(s, m) == want[s.name][str(m)], (s.name, m)
            got = [" ".join(tickers[c] for c in row) for row in next(matrices).tolist()]
            assert got == want[s.name][str(m)], (s.name, m)


if __name__ == "__main__":
    import tempfile

    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --write")
    SIM_DIR.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name, data in simulate_outputs(Path(tmp)).items():
            (SIM_DIR / name).write_bytes(data)
    DRAWS_FILE.write_text(drawn_tickers())
    NN_FILE.write_text(nn_golden_text())
    NN_LARGE_FILE.write_text(nn_large_golden_text())
