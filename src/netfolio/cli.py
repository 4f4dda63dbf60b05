"""Command line pipeline: returns -> network -> simulate -> report.

All subcommands are driven by a JSON run config and write their outputs
atomically under --out-dir. Errors name the offending input and exit
nonzero.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from . import reference
from .analytics import (
    LeveneResult,
    SimulationReport,
    StrategyStats,
    render_levene_csv,
    render_report,
    summarize,
)
from .clusters import ClusterAssignment, ClusterPairing, pair_by_distance, pair_by_size
from .correlation import DistanceMatrix, pearson_correlation, ultrametric_distance
from .market_data import DataError, ReturnPanel, StudyPeriod, _parse_date, ingest, period_returns
from .neighbor_net import (
    fit_split_weights,
    neighbornet_ordering,
    nn_clusters,
    pair_nn_clusters,
    write_nexus,
)
from .portfolio_sim import (
    IndustryMap,
    Strategy,
    default_industry_map,
    draw_matrix,
    score_period,
)
from .tree_cluster import (
    average_linkage_hct,
    cut_dendrogram,
    edge_list_csv,
    minimum_spanning_tree,
    mst_clusters,
    to_dot,
    to_newick,
)


class ConfigError(ValueError):
    pass


def _atomic_write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_config(path: str | Path) -> dict:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file {path} does not exist")
    with open(path) as fh:
        cfg = json.load(fh)
    for key in ("prices", "dividends", "periods"):
        if key not in cfg:
            raise ConfigError(f"config missing required key {key!r}")
        if not Path(cfg[key]).exists():
            raise ConfigError(f"config {key} file {cfg[key]} does not exist")
    return cfg


def load_periods(path: str | Path) -> list[StudyPeriod]:
    with open(path) as fh:
        raw = json.load(fh)
    if not isinstance(raw, list) or not raw:
        raise ConfigError(f"{path}: periods config must be a non-empty JSON array")
    periods = []
    for entry in raw:
        try:
            where = f"{path}: period {entry['label']!r}"
            periods.append(
                StudyPeriod(
                    entry["label"],
                    _parse_date(entry["start"], f"{where} start"),
                    _parse_date(entry["end"], f"{where} end"),
                )
            )
        except (KeyError, TypeError) as exc:
            raise ConfigError(f"{path}: bad period entry {entry!r}: {exc}") from None
    return periods


def load_industry_map(path: str | Path | None) -> IndustryMap:
    if path is None:
        return default_industry_map()
    groups: dict[str, int] = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != ["ticker", "group"]:
            raise ConfigError(f"{path}: expected header 'ticker,group'")
        for lineno, row in enumerate(reader, start=2):
            if len(row) != 2:
                raise ConfigError(f"{path}:{lineno}: bad row {row!r}")
            try:
                groups[row[0].strip()] = int(row[1])
            except ValueError:
                raise ConfigError(f"{path}:{lineno}: invalid group {row[1]!r}") from None
    return IndustryMap(groups)


def check_industry_universe(industry: IndustryMap, source: str, tickers: tuple[str, ...]) -> None:
    """Every ticker the industry map names must be in the price panel."""
    missing = sorted(set(industry.groups) - set(tickers))
    if missing:
        more = f" (and {len(missing) - 1} more)" if len(missing) > 1 else ""
        raise ConfigError(f"{source}: ticker {missing[0]!r} is not in the price panel{more}")


def compute_returns(cfg: dict, periods: list[StudyPeriod] | None = None) -> ReturnPanel:
    panel, divs = ingest(cfg["prices"], cfg["dividends"])
    if periods is None:
        periods = load_periods(cfg["periods"])
    return period_returns(panel, divs, periods)


def distance_for_period(returns: ReturnPanel, label: str) -> DistanceMatrix:
    weekly = returns.weekly_returns[returns.period_index(label)]
    return ultrametric_distance(pearson_correlation(weekly, returns.tickers))


def build_clusters(
    method: str, dist: DistanceMatrix, clustering: dict
) -> tuple[ClusterAssignment, ClusterPairing | None, object | None]:
    """Returns (assignment, pairing, structure) for one network method."""
    k = int(clustering.get("k", 4))
    if method == "hct":
        tree = average_linkage_hct(dist)
        assignment = cut_dendrogram(tree, k)
        pairing = pair_by_size(assignment) if k % 2 == 0 else None
        return assignment, pairing, tree
    if method == "mst":
        tree = minimum_spanning_tree(dist)
        assignment = mst_clusters(
            tree,
            dist,
            k,
            mode=clustering.get("mst_mode", "gap"),
            min_branch=int(clustering.get("min_branch", 5)),
            hub=clustering.get("hub"),
        )
        pairing = pair_by_distance(assignment, dist) if k % 2 == 0 else None
        return assignment, pairing, tree
    if method == "nnet":
        ordering = neighbornet_ordering(dist)
        system = fit_split_weights(
            dist, ordering, prune=float(clustering.get("prune", 1e-9))
        )
        assignment = nn_clusters(system, dist, k, clustering.get("manual_breaks"))
        pairing = pair_nn_clusters(assignment, ordering) if k % 2 == 0 else None
        return assignment, pairing, system
    raise ConfigError(f"unknown network method {method!r}")


def clusters_csv(assignment: ClusterAssignment) -> str:
    lines = ["ticker,cluster"]
    for t in sorted(assignment.assignment):
        lines.append(f"{t},{assignment.assignment[t]}")
    return "\n".join(lines) + "\n"


def matrix_csv(tickers: tuple[str, ...], mat: np.ndarray) -> str:
    lines = ["ticker," + ",".join(tickers)]
    for i, t in enumerate(tickers):
        lines.append(t + "," + ",".join(f"{mat[i, j]:.8f}" for j in range(len(tickers))))
    return "\n".join(lines) + "\n"


def cmd_returns(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    returns = compute_returns(cfg)
    out = Path(args.out_dir)
    for p in returns.periods:
        lines = ["ticker,total_return_pct"]
        row = returns.returns_for(p.label)
        for j, t in enumerate(returns.tickers):
            lines.append(f"{t},{row[j]:.6f}")
        _atomic_write(out / f"returns_{p.label}.csv", "\n".join(lines) + "\n")
    print(f"wrote {len(returns.periods)} per-period return files to {out}")
    return 0


def cmd_network(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    clustering = cfg.get("clustering", {})
    returns = compute_returns(cfg)
    out = Path(args.out_dir)
    for p in returns.periods:
        weekly = returns.weekly_returns[returns.period_index(p.label)]
        corr = pearson_correlation(weekly, returns.tickers)
        dist = ultrametric_distance(corr)
        if args.dump_matrices:
            _atomic_write(out / f"corr_{p.label}.csv", matrix_csv(corr.tickers, corr.rho))
            _atomic_write(out / f"dist_{p.label}.csv", matrix_csv(dist.tickers, dist.d))
        assignment, _, structure = build_clusters(args.method, dist, clustering)
        _atomic_write(out / f"clusters_{args.method}_{p.label}.csv", clusters_csv(assignment))
        if args.method == "hct":
            _atomic_write(out / f"hct_{p.label}.nwk", to_newick(structure))
        elif args.method == "mst":
            _atomic_write(out / f"mst_{p.label}.dot", to_dot(structure))
            _atomic_write(out / f"mst_{p.label}.csv", edge_list_csv(structure))
        else:
            _atomic_write(out / f"nnet_{p.label}.nex", write_nexus(dist, structure))
    print(f"wrote {args.method} outputs for {len(returns.periods)} periods to {out}")
    return 0


_STRATEGY_LABELS = {
    "random": "Random",
    "industry": "Industry",
    "hct": "HCT",
    "mst": "MST",
    "nnet": "NN",
}


def cmd_simulate(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    sim = cfg.get("simulation", {})
    clustering = cfg.get("clustering", {})
    sizes = [int(m) for m in sim.get("sizes", [2, 4, 8])]
    if any(m not in (2, 4, 8) for m in sizes):
        raise ConfigError("simulation sizes must be within {2, 4, 8}")
    names = sim.get("strategies", list(_STRATEGY_LABELS))
    for name in names:
        if name not in _STRATEGY_LABELS:
            raise ConfigError(f"unknown strategy {name!r}")
    periods = load_periods(cfg["periods"])
    labels = [p.label for p in periods]
    model_period = sim.get("model_period", labels[0])
    test_periods = sim.get("test_periods", [model_period])
    for key, label in [("model_period", model_period)] + [("test_periods", t) for t in test_periods]:
        if label not in labels:
            raise ConfigError(
                f"{args.config}: simulation {key} names {label!r}, "
                f"which is not a period in {cfg['periods']}"
            )
    reps = int(sim.get("reps", 1000))
    seed = int(args.seed if args.seed is not None else sim.get("seed", 0))
    rf_table = {**reference.RISK_FREE_PCT, **sim.get("risk_free", {})}
    returns = compute_returns(cfg, periods)
    industry_source = cfg.get("industry_map")
    industry = load_industry_map(industry_source)
    if "industry" in names:
        check_industry_universe(
            industry, industry_source or "built-in Dow 30 industry map", returns.tickers
        )
    dist = distance_for_period(returns, model_period)

    strategies: list[Strategy] = []
    for name in names:
        label = _STRATEGY_LABELS[name]
        if name == "random":
            strategies.append(Strategy(label, "random", universe=returns.tickers))
        elif name == "industry":
            strategies.append(Strategy(label, "industry", industry=industry))
        else:
            assignment, pairing, _ = build_clusters(name, dist, clustering)
            if not sim.get("pair_m2", True):
                pairing = None
            strategies.append(
                Strategy(label, "cluster", assignment=assignment, pairing=pairing)
            )

    # Replication streams depend on (seed, rep) only: draw each (m, strategy)
    # portfolio matrix once and score it on every test period.
    draws = [
        (strat.name, draw_matrix(strat, returns, m, reps, seed))
        for m in sizes
        for strat in strategies
    ]
    out = Path(args.out_dir)
    for test_period in test_periods:
        runs = [score_period(name, columns, returns, test_period, seed)
                for name, columns in draws]
        rf = float(rf_table.get(test_period, 0.0))
        report = summarize(
            runs,
            rf,
            levene_exclude=tuple(sim.get("levene_exclude", ["HCT"])),
            levene_center=sim.get("levene_center", "median"),
        )
        tag = f"{model_period}_{test_period}"
        _atomic_write(out / f"report_{tag}.csv", render_report(report, "csv"))
        _atomic_write(out / f"levene_{tag}.csv", render_levene_csv(report))
        _atomic_write(out / f"report_{tag}.md", render_report(report, "markdown"))
    print(f"wrote simulation reports for model period {model_period} to {out}")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    stats: list[StrategyStats] = []
    with open(args.report_csv, newline="") as fh:
        for row in csv.DictReader(fh):
            stats.append(
                StrategyStats(
                    row["strategy"],
                    int(row["size"]),
                    float(row["mean"]),
                    float(row["sd"]),
                    float(row["sharpe"]) if row["sharpe"] else None,
                    row["best_flag"] == "1",
                )
            )
    levene: list[tuple[int, tuple[str, ...], LeveneResult]] = []
    if args.levene_csv:
        with open(args.levene_csv, newline="") as fh:
            for row in csv.DictReader(fh):
                levene.append(
                    (
                        int(row["size"]),
                        tuple(row["strategies"].split("+")),
                        LeveneResult(
                            float(row["W"]), int(row["df1"]), int(row["df2"]),
                            float(row["p"]), "median",
                        ),
                    )
                )
    report = SimulationReport("", 0.0, tuple(stats), tuple(levene))
    sys.stdout.write(render_report(report, args.format))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="netfolio",
        description="Correlation-network clustering and portfolio simulation pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_returns = sub.add_parser("returns", help="compute dividend-reinvested period returns")
    p_returns.add_argument("--config", required=True)
    p_returns.add_argument("--out-dir", default="out")
    p_returns.set_defaults(func=cmd_returns)

    p_net = sub.add_parser("network", help="build a clustering structure per period")
    p_net.add_argument("--config", required=True)
    p_net.add_argument("--method", required=True, choices=["hct", "mst", "nnet"])
    p_net.add_argument("--out-dir", default="out")
    p_net.add_argument("--dump-matrices", action="store_true",
                       help="also write correlation and distance CSVs")
    p_net.set_defaults(func=cmd_network)

    p_sim = sub.add_parser("simulate", help="run the Monte Carlo portfolio simulations")
    p_sim.add_argument("--config", required=True)
    p_sim.add_argument("--out-dir", default="out")
    p_sim.add_argument("--seed", type=int, default=None)
    p_sim.add_argument("--workers", type=int, default=1,
                       help="accepted for compatibility; the engine is single-threaded")
    p_sim.set_defaults(func=cmd_simulate)

    p_rep = sub.add_parser("report", help="render a report CSV as a table")
    p_rep.add_argument("--report-csv", required=True)
    p_rep.add_argument("--levene-csv", default=None)
    p_rep.add_argument("--format", default="markdown", choices=["markdown", "csv"])
    p_rep.set_defaults(func=cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, DataError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
