"""Golden outputs of the simulation engine and of Neighbor-Net.

Seven goldens live under tests/data/:

- ``simulate_seed9/``: the report, Levene and markdown files that
  ``simulate --seed 9`` writes on the criterion-9 fixture, compared byte
  for byte;
- ``draws_seed9.json``: the first 50 portfolios each selection rule draws
  for m in {2, 4, 8} from the replication streams of seed 9, written by the
  scalar reference ``draw_row`` (``tests/draw_reference.py``) and compared
  byte for byte, and checked row by row against ``draw_row`` and
  ``draw_matrices``;
- ``neighbornet_cases.json``: the circular ordering, fitted splits and
  residual of ``neighbornet_ordering`` + ``fit_split_weights`` on 40 seeded
  distance matrices (n = 4..48, a third of them rounded to two decimals so
  the tie-breaks run); orderings and split sets must match exactly, weights
  within 1e-9 and the residual within 1e-9 relative;
- ``neighbornet_large.json``: the same record for two seeded block-factor
  distance matrices at n = 64 and n = 100, the sizes where the split fit
  runs hundreds of active-set steps, checked with the same tolerances;
- ``neighbornet_scale.json``: the same record at n = 240, written by the
  one-split-per-step fit and the per-merge re-gathered ordering; the cycle
  and split set must match exactly, weights within 1e-6;
- ``nexus_cases.json``: the sha256 of the text ``write_nexus`` gives for
  each of the 40 ``neighbornet_cases`` distance matrices and the split
  system its golden record holds (cycle, splits and residual as stored), so
  the writer alone is held byte for byte;
- ``clusters_ties.json``: the average-linkage merges (heights as ``repr``)
  and the hub-mode MST clusters for k in {2, 4} on 32 seeded distance
  matrices (n = 5..60) rounded to steps of 1/2, 1/4, 1/10 or 1/50, so most
  merges and nearest-neighbour attachments are decided by tie-breaks; some
  cases list their tickers out of order. Compared exactly. Every fourth case
  adds noise below 1e-12 to the lower triangle, which ``DistanceMatrix``
  rejects, so its stored record is null.

Regenerate with ``PYTHONPATH=src python tests/test_golden.py --write STEM...``,
only for an intended change of output, and only the goldens it moves, named
by stem (``--write clusters_ties draws_seed9``); with no stem it prints its
usage. The three Neighbor-Net goldens hold weights of earlier fits, which
differ from today's in the last digits that their tolerances accept, so a
rewrite of them moves those digits (and ``nexus_cases``, written from
``neighbornet_cases``) without a change of output.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from datetime import date
from pathlib import Path

from netfolio.cli import main
import numpy as np
import pytest

from netfolio.clusters import ClusterError, pair_by_size, renumber
from netfolio.correlation import CorrelationError, DistanceMatrix
from netfolio.inputs import StudyPeriod
from netfolio.market_data import ReturnPanel
from netfolio import neighbor_net, nnls
from netfolio.neighbor_net import (
    CircularSplitSystem,
    Split,
    fit_split_weights,
    neighbornet_ordering,
    write_nexus,
)
from netfolio.portfolio_sim import (
    DrawPlan,
    cluster_plan,
    draw_matrices,
    industry_plan,
    random_plan,
)
from netfolio.reference import SUPER_GROUPS
from netfolio.tree_cluster import average_linkage_hct, minimum_spanning_tree, mst_clusters
from draw_reference import draw_row, replication_rng
from synthetic import BlockModelSpec
from test_cli import write_panel_csvs

DATA = Path(__file__).parent / "data"
SIM_DIR = DATA / "simulate_seed9"
DRAWS_FILE = DATA / "draws_seed9.json"
SIM_FILES = ("report_P1_P2.csv", "levene_P1_P2.csv", "report_P1_P2.md")
NN_FILE = DATA / "neighbornet_cases.json"
NN_LARGE_FILE = DATA / "neighbornet_large.json"
NN_LARGE_SIZES = (64, 100)
NN_SCALE_FILE = DATA / "neighbornet_scale.json"
NN_SCALE_SIZE = 240
NEXUS_FILE = DATA / "nexus_cases.json"
TIES_FILE = DATA / "clusters_ties.json"
TIE_CASES = 32
TIE_STEPS = (2, 4, 10, 50)
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


def golden_plans() -> dict[str, DrawPlan]:
    """Every selection rule over the 30-stock default industry universe, by
    the name its golden draws are stored under."""
    tickers = tuple(sorted(SUPER_GROUPS))
    four = renumber([tickers[:3], tickers[3:8], tickers[8:18], tickers[18:]])
    two = renumber([tickers[:11], tickers[11:]])
    return {
        "Random": random_plan(tickers),
        "Industry": industry_plan(SUPER_GROUPS),
        "Cluster paired": cluster_plan(four, pair_by_size(four)),
        "Cluster unpaired": cluster_plan(four),
        "Cluster two": cluster_plan(two, pair_by_size(two)),
    }


def scalar_draws(plan: DrawPlan, m: int) -> list[str]:
    """The space-joined tickers ``draw_row`` draws in replications 0..49."""
    plan.check(m)
    return [" ".join(plan.labels[p] for p in draw_row(plan, m, replication_rng(SEED, rep)))
            for rep in range(DRAWS)]


def drawn_tickers() -> str:
    """JSON text: strategy -> m -> the space-joined tickers of replications 0..49."""
    table = {name: {str(m): scalar_draws(plan, m) for m in (2, 4, 8)}
             for name, plan in golden_plans().items()}
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


def nn_scale_golden_text() -> str:
    return json.dumps({"cases": [nn_case(NN_SCALE_SIZE, nn_large_distance(NN_SCALE_SIZE))]}) + "\n"


def nexus_digest(case: int, record: dict) -> str:
    """sha256 of the Nexus text of case ``case`` for the split system that a
    ``neighbornet_cases`` record holds."""
    system = CircularSplitSystem(tuple(record["cycle"]),
                                 tuple(Split(*s) for s in record["splits"]),
                                 record["residual"])
    return hashlib.sha256(write_nexus(nn_distance(case), system).encode()).hexdigest()


def nexus_golden_text() -> str:
    records = json.loads(NN_FILE.read_text())["cases"]
    return json.dumps({"sha256": [nexus_digest(c, records[c]) for c in range(NN_CASES)]},
                      indent=1) + "\n"


def tie_distance(case: int) -> DistanceMatrix:
    """Seeded distance matrix of tie case ``case``: n runs 5..60; even cases are
    uniform noise, odd ones a block-factor correlation distance, all rounded to
    steps of 1/2, 1/4, 1/10 or 1/50. Every third case names its rows out of
    ticker order; every fourth adds noise below 1e-12 to the lower triangle."""
    n = 5 + case * 55 // (TIE_CASES - 1)
    rng = np.random.default_rng(9000 + case)
    if case % 2 == 0:
        d = rng.uniform(0.05, 2.0, size=(n, n))
    else:
        blocks = rng.integers(0, max(2, n // 6), size=n)
        returns = 0.8 * rng.normal(size=(60, int(blocks.max()) + 1))[:, blocks]
        d = np.sqrt(np.maximum(2.0 * (1.0 - np.corrcoef(returns + rng.normal(size=(60, n)),
                                                       rowvar=False)), 0.0))
    step = TIE_STEPS[case % len(TIE_STEPS)]
    d = np.minimum(np.round((d + d.T) / 2.0 * step) / step, 2.0)
    if case % 4 == 3:
        d += np.tril(rng.uniform(0.0, 1e-12, size=(n, n)), -1)
    np.fill_diagonal(d, 0.0)
    names = [f"S{i:02d}" for i in range(n)]
    if case % 3 == 2:
        names = [names[p] for p in rng.permutation(n)]
    return DistanceMatrix(tuple(names), d)


def tie_case(case: int) -> dict:
    """HCT merges and, for k in {2, 4}, the hub-mode MST clusters at the largest
    min_branch in 5..1 that succeeds (null when none does)."""
    dist = tie_distance(case)
    tree = average_linkage_hct(dist)
    mst = minimum_spanning_tree(dist)
    hub = {}
    for k in (2, 4):
        hub[str(k)] = None
        for min_branch in range(5, 0, -1):
            try:
                got = mst_clusters(mst, dist, k, mode="hub", min_branch=min_branch)
            except ClusterError:
                continue
            clusters = [list(c) for _, c in sorted(got.clusters().items())]
            hub[str(k)] = {"min_branch": min_branch, "clusters": clusters}
            break
    return {
        "case": case,
        "tickers": list(dist.tickers),
        "merges": [[m.left, m.right, repr(m.height)] for m in tree.merges],
        "hub": hub,
    }


def ties_golden_text() -> str:
    cases = [None if c % 4 == 3 else tie_case(c) for c in range(TIE_CASES)]
    return json.dumps({"cases": cases}) + "\n"


@pytest.mark.parametrize("case", range(TIE_CASES))
def test_clusters_on_tied_distances_match_golden(case):
    want = json.loads(TIES_FILE.read_text())["cases"][case]
    if case % 4 == 3:
        with pytest.raises(CorrelationError, match="distance matrix must be symmetric"):
            tie_distance(case)
        assert want is None
        return
    assert tie_case(case) == want


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


@pytest.mark.parametrize("case", range(NN_CASES))
def test_write_nexus_matches_golden(case, nn_golden):
    want = json.loads(NEXUS_FILE.read_text())["sha256"][case]
    assert nexus_digest(case, nn_golden[case]) == want


@pytest.mark.parametrize("index", range(len(NN_LARGE_SIZES)))
def test_neighbornet_large_matches_golden(index):
    n = NN_LARGE_SIZES[index]
    want = json.loads(NN_LARGE_FILE.read_text())["cases"][index]
    assert want["case"] == n
    assert_nn_case_matches(nn_case(n, nn_large_distance(n)), want)


@pytest.mark.parametrize("index,cap", [(0, 303), (1, 476)])
def test_split_fit_prefix_reads_halved(index, cap, monkeypatch):
    # A cold Lawson-Hanson start made 606 and 952 prefix reads (A·x and Aᵀ·y)
    # at n = 64 and 100; starting from A⁻¹b must keep at most half of them.
    calls = []
    for name in ("matvec", "rmatvec"):
        real = getattr(neighbor_net.SplitOperators, name)
        monkeypatch.setattr(neighbor_net.SplitOperators, name,
                            lambda self, v, real=real: calls.append(1) or real(self, v))
    cycle = json.loads(NN_LARGE_FILE.read_text())["cases"][index]["cycle"]
    fit_split_weights(nn_large_distance(NN_LARGE_SIZES[index]), tuple(cycle))
    assert len(calls) <= cap


def count_fit_calls(monkeypatch, n: int) -> list:
    """A list that grows by one per prefix read (A·x or Aᵀ·y) of the split
    fit. The fit of n taxa runs with the backup rule out of reach
    (``STALL_STEPS`` = n + 1) and a dependent-column search that fails, so
    block steps alone, none deferring a column, must reach the optimum."""
    reads = []
    for name in ("matvec", "rmatvec"):
        real = getattr(neighbor_net.SplitOperators, name)
        monkeypatch.setattr(neighbor_net.SplitOperators, name,
                            lambda self, v, real=real: reads.append(1) or real(self, v))
    monkeypatch.setattr(nnls, "STALL_STEPS", n + 1)

    def no_dependent(block, known):
        raise AssertionError("a passive block has a dependent column")

    monkeypatch.setattr(nnls, "first_dependent", no_dependent)
    return reads


@pytest.mark.parametrize("index", range(len(NN_LARGE_SIZES)))
def test_split_fit_block_steps_read_bound(index, monkeypatch):
    # Block pivoting from A⁻¹b's largest weights reaches the optimum in 23
    # and 25 prefix reads at n = 64 and 100, where one split per
    # Lawson-Hanson step took 262 and 418.
    n = NN_LARGE_SIZES[index]
    reads = count_fit_calls(monkeypatch, n)
    cycle = json.loads(NN_LARGE_FILE.read_text())["cases"][index]["cycle"]
    fit_split_weights(nn_large_distance(n), tuple(cycle))
    assert len(reads) <= 40


@pytest.mark.parametrize("n", [*NN_LARGE_SIZES, NN_SCALE_SIZE])
def test_split_fit_reads_each_product_once(n, monkeypatch):
    # A block step reads A·x for its residual and Aᵀ·y for its gradient, and
    # the first Aᵀ·b is read once: the last step's residual is the fit's, so
    # no product is read twice (23, 25 and 33 reads at n = 64, 100 and 240).
    reads, grams = [], []
    for name in ("matvec", "rmatvec"):
        real = getattr(neighbor_net.SplitOperators, name)
        monkeypatch.setattr(neighbor_net.SplitOperators, name,
                            lambda self, v, real=real: reads.append(1) or real(self, v))
    gram = neighbor_net.SplitOperators.gram
    monkeypatch.setattr(neighbor_net.SplitOperators, "gram",
                        lambda self, r, c: grams.append(1) or gram(self, r, c))
    dist = nn_large_distance(n)
    fit_split_weights(dist, neighbornet_ordering(dist))
    assert len(reads) == 2 * len(grams) + 1


def test_neighbornet_scale_matches_golden(monkeypatch):
    # At n = 240 the golden was written by the one-split-per-step fit, in
    # 1,056 prefix reads; the block steps take 33.
    want = json.loads(NN_SCALE_FILE.read_text())["cases"][0]
    dist = nn_large_distance(NN_SCALE_SIZE)
    cycle = neighbornet_ordering(dist)
    assert list(cycle) == want["cycle"]
    reads = count_fit_calls(monkeypatch, NN_SCALE_SIZE)
    system = fit_split_weights(dist, cycle)
    assert len(reads) <= 60
    got = [[s.start, s.length, s.weight] for s in system.splits]
    assert [s[:2] for s in got] == [s[:2] for s in want["splits"]]
    np.testing.assert_allclose([s[2] for s in got], [s[2] for s in want["splits"]],
                               rtol=0, atol=1e-6)
    assert system.residual == pytest.approx(want["residual"], rel=1e-9)


def neumaier_sum(values, start=0):
    """The builtin ``sum`` of floats from Python 3.12 on: Neumaier-compensated."""
    total, comp = float(start), 0.0
    for v in values:
        t = total + v
        comp += (total - t) + v if abs(total) >= abs(v) else (v - t) + total
        total = t
    return total + comp if comp and np.isfinite(comp) else total


def test_neighbornet_cycles_do_not_depend_on_builtin_sum(monkeypatch, nn_golden):
    # requires-python admits 3.10 and 3.11, whose sum adds in order, and 3.12+,
    # whose sum compensates: the ordering must not follow either.
    monkeypatch.setattr(neighbor_net, "sum", neumaier_sum, raising=False)
    for case in range(NN_CASES):
        assert list(neighbornet_ordering(nn_distance(case))) == nn_golden[case]["cycle"], case


def test_simulate_matches_golden(tmp_path):
    got = simulate_outputs(tmp_path)
    for name in SIM_FILES:
        assert got[name] == (SIM_DIR / name).read_bytes(), name


def test_simulate_fits_no_splits(tmp_path, monkeypatch):
    # Neighbor-Net clusters are arcs of the circular ordering; only the
    # Nexus file of ``network --method nnet`` reads split weights.
    def no_fit(*args, **kwargs):
        raise AssertionError("simulate fitted split weights")

    monkeypatch.setattr(neighbor_net, "fit_split_weights", no_fit)
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
    plans = golden_plans()
    tickers = plans["Random"].labels
    period = StudyPeriod("P1", date(2001, 1, 2), date(2004, 1, 6))
    panel = ReturnPanel(tickers, (period,), np.zeros((1, len(tickers))),
                        (np.zeros((3, len(tickers))),))
    sizes = (2, 4, 8)
    matrices = iter(draw_matrices(list(plans.values()), panel, sizes, DRAWS, SEED))
    for m in sizes:
        for name, plan in plans.items():
            assert scalar_draws(plan, m) == want[name][str(m)], (name, m)
            got = [" ".join(tickers[c] for c in row) for row in next(matrices).tolist()]
            assert got == want[name][str(m)], (name, m)


if __name__ == "__main__":
    import tempfile

    def write_simulate() -> None:
        SIM_DIR.mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory() as tmp:
            for name, data in simulate_outputs(Path(tmp)).items():
                (SIM_DIR / name).write_bytes(data)

    # In dependency order: nexus_cases is written from neighbornet_cases.
    writers = {SIM_DIR.name: write_simulate}
    for path, text in ((DRAWS_FILE, drawn_tickers), (NN_FILE, nn_golden_text),
                       (NN_LARGE_FILE, nn_large_golden_text), (NN_SCALE_FILE, nn_scale_golden_text),
                       (NEXUS_FILE, nexus_golden_text), (TIES_FILE, ties_golden_text)):
        writers[path.stem] = lambda path=path, text=text: path.write_text(text())
    stems = sys.argv[2:]
    if sys.argv[1:2] != ["--write"] or not stems or not set(stems) <= writers.keys():
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --write STEM...\n"
                 f"where each STEM is one of: {' '.join(writers)}")
    for stem, write in writers.items():
        if stem in stems:
            write()
