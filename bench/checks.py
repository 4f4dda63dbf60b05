"""Output checks behind the benchmark's failure count.

Three layers of checking, each independent of the program's code:

* goldens: for every input case (see ``GOLDEN_CASES``), every report, Levene,
  cluster, returns, Newick, DOT and edge CSV output must be byte-identical to
  the one captured from the seed commit. Nexus files must keep the same
  text, CYCLE and split membership, with split weights within
  ``WEIGHT_ATOL`` and the fit residual within ``RESIDUAL_RTOL``.
* reference: for every seed, the benchmark recomputes total returns and
  correlation distances from the inputs it generated and checks the returns
  CSVs, the MST weight (against scipy), the HCT partition (against scipy
  average linkage), cluster partitions, Nexus structure and report shape.
* determinism: every pipeline of a run must reproduce the first one's bytes.

A failing file is charged to the command that wrote it.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import re
from pathlib import Path

import numpy as np
from scipy.cluster.hierarchy import fcluster, linkage
from scipy.sparse.csgraph import minimum_spanning_tree
from scipy.spatial.distance import squareform

from workloads import Workload

GOLDEN_DIR = Path(__file__).resolve().parent / "goldens"
# Input cases with a golden per workload; seed s runs case s % GOLDEN_CASES,
# so every seed's outputs are compared with a golden.
GOLDEN_CASES = 20
# Printed with 8 decimals; a different exact solver of the same (unique)
# optimum agrees to ~1e-9, so 1e-6 only absorbs print rounding.
WEIGHT_ATOL = 1e-6
# The residual is printed with 6 significant digits.
RESIDUAL_RTOL = 1e-5
RESIDUAL_ATOL = 1e-9
RETURNS_ATOL = 2e-6  # percent, printed with 6 decimals
DIST_ATOL = 2e-6  # printed with 6 decimals
REPORT_STDOUT = "report_stdout.md"

_WEIGHT_LINE = re.compile(r"^(\[\d+\]) (\S+) (.*,)$")
_RESIDUAL_LINE = re.compile(r"^(\[fit: .*; residual )(\S+)(\])$")


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def command_of(filename: str) -> str:
    """The pipeline command that writes an output file."""
    if filename.startswith("returns_"):
        return "returns"
    if filename.startswith(("clusters_hct_", "hct_")):
        return "network_hct"
    if filename.startswith(("clusters_mst_", "mst_")):
        return "network_mst"
    if filename.startswith(("clusters_nnet_", "nnet_")):
        return "network_nnet"
    if filename == REPORT_STDOUT:
        return "report"
    return "simulate"


def expected_files(w: Workload) -> set[str]:
    periods = [f"P{i + 1}" for i in range(w.n_periods)]
    names = {REPORT_STDOUT}
    for p in periods:
        names |= {f"returns_{p}.csv", f"hct_{p}.nwk", f"mst_{p}.dot", f"mst_{p}.csv",
                  f"nnet_{p}.nex"}
        names |= {f"clusters_{m}_{p}.csv" for m in ("hct", "mst", "nnet")}
    for t in w.test_periods:
        names |= {f"report_P1_{t}.csv", f"report_P1_{t}.md", f"levene_P1_{t}.csv"}
    return names


def parse_nexus(text: str) -> dict:
    """Split a Nexus file into weight-free text, split weights and residual."""
    masked, weights, residual = [], [], None
    in_splits = False
    for line in text.split("\n"):
        if line.startswith("BEGIN Splits;"):
            in_splits = True
        m = _WEIGHT_LINE.match(line) if in_splits else None
        r = _RESIDUAL_LINE.match(line) if in_splits else None
        if m:
            weights.append(float(m.group(2)))
            masked.append(f"{m.group(1)} W {m.group(3)}")
        elif r:
            residual = float(r.group(2))
            masked.append(r.group(1) + "R" + r.group(3))
        else:
            masked.append(line)
    return {"masked": sha256("\n".join(masked).encode()), "weights": weights,
            "residual": residual}


def snapshot(w: Workload, out: Path) -> dict[str, str]:
    """sha256 of each contract output present in an output directory.

    Files outside the contract (say, a run manifest) are not compared.
    """
    return {name: sha256((out / name).read_bytes())
            for name in sorted(expected_files(w)) if (out / name).is_file()}


def golden_record(w: Workload, seed: int, inputs: dict[str, str], out: Path) -> dict:
    files, nexus = {}, {}
    for name, digest in snapshot(w, out).items():
        if name.endswith(".nex"):
            nexus[name] = parse_nexus((out / name).read_text())
        else:
            files[name] = digest
    return {"workload": w.name, "seed": seed, "inputs": inputs, "files": files, "nexus": nexus}


def dump_golden(record: dict) -> str:
    """JSON with one line per input, output file or Nexus fingerprint."""
    parts = []
    for key, value in record.items():
        if isinstance(value, dict):
            inner = ",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in value.items())
            parts.append(f" {json.dumps(key)}: {{\n{inner}\n }}")
        else:
            parts.append(f" {json.dumps(key)}: {json.dumps(value)}")
    return "{\n" + ",\n".join(parts) + "\n}\n"


def golden_path(w: Workload, seed: int) -> Path:
    return GOLDEN_DIR / f"{w.name}_{seed}.json"


def load_golden(w: Workload, seed: int) -> dict | None:
    path = golden_path(w, seed)
    return json.loads(path.read_text()) if path.exists() else None


def compare_golden(golden: dict, out: Path) -> list[str]:
    """Names of golden output files that are missing or differ."""
    present = {p.name for p in out.iterdir() if p.is_file()}
    bad = sorted((set(golden["files"]) | set(golden["nexus"])) - present)
    for name, digest in golden["files"].items():
        if name in present and sha256((out / name).read_bytes()) != digest:
            bad.append(name)
    for name, ref in golden["nexus"].items():
        if name not in present:
            continue
        got = parse_nexus((out / name).read_text())
        same = (
            got["masked"] == ref["masked"]
            and len(got["weights"]) == len(ref["weights"])
            and all(abs(a - b) <= WEIGHT_ATOL for a, b in zip(got["weights"], ref["weights"]))
            and got["residual"] is not None
            and abs(got["residual"] - ref["residual"])
            <= RESIDUAL_ATOL + RESIDUAL_RTOL * abs(ref["residual"])
        )
        if not same:
            bad.append(name)
    return bad


class Reference:
    """Returns and distances recomputed by the benchmark from its own inputs."""

    def __init__(self, inputs: Path):
        prices = np.loadtxt(inputs / "prices.csv", delimiter=",", skiprows=1,
                            dtype=str, ndmin=2)
        self.tickers = sorted(set(prices[:, 1]))
        dates = sorted(set(prices[:, 0]))
        row = {d: i for i, d in enumerate(dates)}
        col = {t: j for j, t in enumerate(self.tickers)}
        close = np.empty((len(dates), len(self.tickers)))
        close[[row[d] for d in prices[:, 0]], [col[t] for t in prices[:, 1]]] = (
            prices[:, 2].astype(float))
        div = np.zeros_like(close)
        divs = np.loadtxt(inputs / "dividends.csv", delimiter=",", skiprows=1,
                          dtype=str, ndmin=2)
        for t, d, amount in divs:
            div[row[d], col[t]] += float(amount)
        tri = np.cumprod(1.0 + div / close, axis=0) * close
        self.total: dict[str, np.ndarray] = {}
        self.dist: dict[str, np.ndarray] = {}
        for p in json.loads((inputs / "periods.json").read_text()):
            seg = tri[row[p["start"]] : row[p["end"]] + 1]
            self.total[p["label"]] = 100.0 * (seg[-1] / seg[0] - 1.0)
            rho = np.clip(np.corrcoef(seg[1:] / seg[:-1] - 1.0, rowvar=False), -1.0, 1.0)
            d = np.sqrt(np.maximum(2.0 * (1.0 - rho), 0.0))
            np.fill_diagonal(d, 0.0)
            self.dist[p["label"]] = d


def _rows(path: Path) -> list[dict[str, str]]:
    return list(csv.DictReader(io.StringIO(path.read_text())))


def _partition(path: Path, tickers: list[str], k: int) -> dict[str, int] | None:
    rows = _rows(path)
    assign = {r["ticker"]: int(r["cluster"]) for r in rows}
    if sorted(assign) != tickers or len(rows) != len(tickers):
        return None
    if sorted(set(assign.values())) != list(range(1, k + 1)):
        return None
    return assign


def _blocks(assign: dict[str, int]) -> set[frozenset[str]]:
    return {frozenset(t for t in assign if assign[t] == c) for c in set(assign.values())}


def _finite(text: str) -> bool:
    try:
        return math.isfinite(float(text))
    except ValueError:
        return False


def check_reference(w: Workload, ref: Reference, out: Path) -> list[str]:
    """Names of output files that fail a reference or structural check."""
    bad = []
    present = {p.name for p in out.iterdir() if p.is_file()}
    bad += sorted(expected_files(w) - present)
    tickers, n, k = ref.tickers, len(ref.tickers), w.k

    def ok(name: str, test) -> None:
        if name not in present:
            return
        try:
            passed = test(out / name)
        except (ValueError, KeyError, IndexError, TypeError, AttributeError):
            passed = False
        if not passed:
            bad.append(name)

    for label, total in ref.total.items():
        d = ref.dist[label]

        def returns_ok(path, total=total):
            rows = _rows(path)
            got = np.array([float(r["total_return_pct"]) for r in rows])
            return ([r["ticker"] for r in rows] == tickers
                    and np.allclose(got, total, rtol=0, atol=RETURNS_ATOL))

        def mst_ok(path, d=d):
            rows = _rows(path)
            idx = {t: i for i, t in enumerate(tickers)}
            parent = list(range(n))

            def find(x):
                while parent[x] != x:
                    x = parent[x]
                return x

            for r in rows:
                a, b = find(idx[r["from"]]), find(idx[r["to"]])
                if a == b:
                    return False
                parent[a] = b
            weight = sum(float(r["weight"]) for r in rows)
            best = minimum_spanning_tree(np.triu(d)).sum()
            return len(rows) == n - 1 and abs(weight - best) <= n * DIST_ATOL

        def hct_ok(path, d=d):
            got = _partition(path, tickers, k)
            labels = fcluster(linkage(squareform(d, checks=False), "average"), k, "maxclust")
            return got is not None and _blocks(got) == _blocks(dict(zip(tickers, labels)))

        def newick_ok(path):
            text = path.read_text()
            names = re.findall(r"[(,]([^():,;]+):", text)
            return text.endswith(";") and sorted(names) == tickers

        def nexus_ok(path, d=d):
            text = path.read_text()
            cycle = [int(x) for x in re.search(r"^CYCLE ([\d ]+);$", text, re.M).group(1).split()]
            rows = re.search(r"^MATRIX\n(.*?)\n;\nEND; \[Distances\]", text, re.M | re.S).group(1)
            got = np.array([[float(x) for x in line.split()[1:]] for line in rows.split("\n")])
            fit = parse_nexus(text)
            return (sorted(cycle) == list(range(1, n + 1))
                    and all(x >= 0 for x in fit["weights"])
                    and fit["residual"] is not None and fit["residual"] >= 0
                    and np.allclose(got, d, rtol=0, atol=DIST_ATOL))

        ok(f"returns_{label}.csv", returns_ok)
        ok(f"mst_{label}.csv", mst_ok)
        ok(f"clusters_hct_{label}.csv", hct_ok)
        ok(f"hct_{label}.nwk", newick_ok)
        ok(f"nnet_{label}.nex", nexus_ok)
        for method in ("mst", "nnet"):
            ok(f"clusters_{method}_{label}.csv",
               lambda path: _partition(path, tickers, k) is not None)
        ok(f"mst_{label}.dot", lambda path: path.read_text().count(" -- ") == n - 1)

    strategies = ["Random", "Industry", "HCT", "MST", "NN"]

    def report_ok(path):
        rows = _rows(path)
        cells = [(r["strategy"], int(r["size"])) for r in rows]
        return (cells == [(s, m) for m in w.sizes for s in strategies]
                and all(_finite(r["mean"]) and float(r["sd"]) > 0 for r in rows))

    def levene_ok(path):
        rows = _rows(path)
        return ([int(r["size"]) for r in rows] == list(w.sizes)
                and all(0.0 <= float(r["p"]) <= 1.0 and _finite(r["W"]) for r in rows))

    for t in w.test_periods:
        ok(f"report_P1_{t}.csv", report_ok)
        ok(f"levene_P1_{t}.csv", levene_ok)
        ok(f"report_P1_{t}.md", lambda path: all(s in path.read_text() for s in strategies))
    ok(REPORT_STDOUT, lambda path: all(s in path.read_text() for s in strategies))
    return bad
