"""Command line pipeline: returns -> network -> simulate -> report.

All subcommands are driven by a JSON run config and write their outputs
atomically under --out-dir. Errors name the offending input and exit
nonzero.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
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
from .market_data import (
    DataError,
    ReturnPanel,
    StudyPeriod,
    _blank,
    _parse_date,
    ingest,
    period_returns,
)
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
    cluster_plan,
    default_industry_map,
    draw_matrices,
    random_plan,
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


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_finite(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def _distinct_array(value: object, item=lambda _: True) -> bool:
    """A JSON array whose entries all pass ``item`` and none repeats."""
    return (isinstance(value, list) and all(map(item, value))
            and all(v not in value[:i] for i, v in enumerate(value)))


_STRATEGY_LABELS = {
    "random": "Random",
    "industry": "Industry",
    "hct": "HCT",
    "mst": "MST",
    "nnet": "NN",
}

# key -> (check, what a valid value is); a key that is absent takes its default.
CLUSTERING_RULES = {
    "k": (lambda v: _is_int(v) and v >= 1, "an integer >= 1"),
    "mst_mode": (lambda v: v in ("gap", "hub"), "'gap' or 'hub'"),
    "min_branch": (lambda v: _is_int(v) and v >= 1, "an integer >= 1"),
    "hub": (lambda v: isinstance(v, str), "a ticker string"),
    "prune": (_is_finite, "a finite number"),
    "manual_breaks": (lambda v: isinstance(v, list) and all(map(_is_int, v)),
                      "a JSON array of integers"),
}
SIMULATION_RULES = {
    "reps": (lambda v: _is_int(v) and v >= 2, "an integer >= 2"),
    "sizes": (lambda v: _distinct_array(v, lambda m: _is_int(m) and m in (2, 4, 8)),
              "a JSON array of distinct integers from {2, 4, 8}"),
    "strategies": (lambda v: _distinct_array(v, lambda s: s in tuple(_STRATEGY_LABELS)),
                   f"a JSON array of distinct names from {', '.join(_STRATEGY_LABELS)}"),
    "test_periods": (_distinct_array, "a JSON array of distinct period labels"),
    "levene_exclude": (_distinct_array, "a JSON array of distinct strategy labels"),
    "seed": (_is_int, "an integer"),
    "risk_free": (lambda v: isinstance(v, dict) and all(map(_is_finite, v.values())),
                  "a JSON object of finite numbers"),
    "levene_center": (lambda v: v in ("mean", "median"), "'mean' or 'median'"),
    "pair_m2": (lambda v: isinstance(v, bool), "true or false"),
}


def check_section(path: str | Path, cfg: dict, section: str, rules: dict) -> dict:
    """The config's ``section`` object, every key in ``rules`` checked."""
    values = cfg.get(section, {})
    if not isinstance(values, dict):
        raise ConfigError(f"{path}: {section} must be a JSON object, not {values!r}")
    for key, (ok, what) in rules.items():
        if key in values and not ok(values[key]):
            raise ConfigError(f"{path}: {section}.{key} must be {what}, not {values[key]!r}")
    return values


def _load_json(path: str | Path) -> object:
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(
                f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
            ) from None


def load_config(path: str | Path) -> dict:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file {path} does not exist")
    cfg = _load_json(path)
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    for key in ("prices", "dividends", "periods"):
        if cfg.get(key) is None:
            raise ConfigError(f"config missing required key {key!r}")
    # Input paths are relative to the config file, wherever the command runs.
    for key in ("prices", "dividends", "periods", "industry_map"):
        if cfg.get(key) is None:
            continue
        if not isinstance(cfg[key], str):
            raise ConfigError(f"{path}: {key} must be a path string, not {cfg[key]!r}")
        cfg[key] = str(path.parent / cfg[key])
    for key in ("prices", "dividends", "periods"):
        if not Path(cfg[key]).exists():
            raise ConfigError(f"config {key} file {cfg[key]} does not exist")
    return cfg


def load_periods(path: str | Path) -> list[StudyPeriod]:
    raw = _load_json(path)
    if not isinstance(raw, list) or not raw:
        raise ConfigError(f"{path}: periods config must be a non-empty JSON array")
    periods: list[StudyPeriod] = []
    for entry in raw:
        try:
            where = f"{path}: period {entry['label']!r}"
            if any(p.label == entry["label"] for p in periods):
                raise ConfigError(f"{where} listed twice")
            start = _parse_date(entry["start"], f"{where} start")
            end = _parse_date(entry["end"], f"{where} end")
            if start >= end:
                raise ConfigError(f"{where}: start must precede end")
            periods.append(StudyPeriod(entry["label"], start, end))
        except (KeyError, TypeError) as exc:
            raise ConfigError(f"{path}: bad period entry {entry!r}: {exc}") from None
    return periods


def load_industry_map(path: str | Path | None) -> IndustryMap:
    if path is None:
        return default_industry_map()
    groups: dict[str, int] = {}
    for lineno, row in read_table(path, ("ticker", "group")):
        ticker = row["ticker"].strip()
        if ticker in groups:
            raise ConfigError(f"{path}:{lineno}: ticker {ticker!r} listed twice")
        try:
            groups[ticker] = int(row["group"])
        except ValueError:
            raise ConfigError(f"{path}:{lineno}: invalid group {row['group']!r}") from None
    return IndustryMap(groups)


def read_table(path: str | Path, columns: tuple[str, ...]) -> list[tuple[int, dict[str, str]]]:
    """(line number, row) of each non-blank row of a CSV file whose header
    must be exactly ``columns``."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != list(columns):
            raise ConfigError(f"{path}: expected header '{','.join(columns)}'")
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if _blank(row):
                continue
            if len(row) != len(columns):
                raise ConfigError(f"{path}:{lineno}: bad row {row!r}")
            rows.append((lineno, dict(zip(columns, row))))
    return rows


def check_industry_universe(industry: IndustryMap, source: str, tickers: tuple[str, ...]) -> None:
    """The industry map and the price panel must name the same tickers."""
    mapped, panel = set(industry.groups), set(tickers)
    for missing, problem in ((mapped - panel, "ticker {!r} is not in the price panel"),
                             (panel - mapped, "price panel ticker {!r} is not in the map")):
        if missing:
            first, *rest = sorted(missing)
            more = f" (and {len(rest)} more)" if rest else ""
            raise ConfigError(f"{source}: {problem.format(first)}{more}")


def compute_returns(cfg: dict, periods: list[StudyPeriod]) -> ReturnPanel:
    panel, divs = ingest(cfg["prices"], cfg["dividends"])
    return period_returns(panel, divs, periods)


def distance_for_period(returns: ReturnPanel, label: str) -> DistanceMatrix:
    weekly = returns.weekly_returns[returns.period_index(label)]
    return ultrametric_distance(pearson_correlation(weekly, returns.tickers))


def build_clusters(
    method: str, dist: DistanceMatrix, clustering: dict
) -> tuple[ClusterAssignment, ClusterPairing | None, object | None]:
    """Returns (assignment, pairing, structure) for one network method."""
    k = clustering.get("k", 4)
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
            min_branch=clustering.get("min_branch", 5),
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
    returns = compute_returns(cfg, load_periods(cfg["periods"]))
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
    clustering = check_section(args.config, cfg, "clustering", CLUSTERING_RULES)
    returns = compute_returns(cfg, load_periods(cfg["periods"]))
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


def cmd_simulate(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    sim = check_section(args.config, cfg, "simulation", SIMULATION_RULES)
    sizes = sim.get("sizes", [2, 4, 8])
    names = sim.get("strategies", list(_STRATEGY_LABELS))
    reps = sim.get("reps", 1000)
    rules = CLUSTERING_RULES
    if any(name in ("hct", "mst", "nnet") for name in names):
        rules = {**rules, "k": (lambda v: _is_int(v) and v in (2, 4),
                                "2 or 4 for the hct, mst and nnet strategies")}
    clustering = check_section(args.config, cfg, "clustering", rules)
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
    seed = args.seed if args.seed is not None else sim.get("seed", 0)
    rf_table = {**reference.RISK_FREE_PCT, **sim.get("risk_free", {})}
    industry_source = cfg.get("industry_map")
    industry = load_industry_map(industry_source)
    returns = compute_returns(cfg, periods)
    if "industry" in names:
        check_industry_universe(
            industry, industry_source or "built-in Dow 30 industry map", returns.tickers
        )
    dist = distance_for_period(returns, model_period)

    strategies: list[Strategy] = []
    for name in names:
        if name == "random":
            plan = random_plan(returns.tickers)
        elif name == "industry":
            plan = industry.plan
        else:
            assignment, pairing, _ = build_clusters(name, dist, clustering)
            plan = cluster_plan(assignment, pairing if sim.get("pair_m2", True) else None)
        strategies.append(Strategy(_STRATEGY_LABELS[name], plan))

    # Replication streams depend on (seed, rep) only: read each stream once,
    # draw each (m, strategy) portfolio matrix once and score it on every
    # test period.
    matrices = draw_matrices(strategies, returns, sizes, reps, seed)
    draws = list(zip([strat.name for m in sizes for strat in strategies], matrices))
    out = Path(args.out_dir)
    for test_period in test_periods:
        runs = [score_period(name, columns, returns, test_period) for name, columns in draws]
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


REPORT_COLUMNS = ("strategy", "size", "mean", "sd", "sharpe", "best_flag")
LEVENE_COLUMNS = ("size", "strategies", "W", "df1", "df2", "p")


def _flag(text: str) -> bool:
    if text not in ("0", "1"):
        raise ValueError(text)
    return text == "1"


def _cell(path: str, lineno: int, row: dict[str, str], column: str, kind=float):
    """The int, finite float or 0/1 flag a report or Levene CSV cell spells."""
    try:
        value = kind(row[column])
        if kind is float and not np.isfinite(value):
            raise ValueError
    except ValueError:
        raise ConfigError(f"{path}:{lineno}: invalid {column} {row[column]!r}") from None
    return value


def cmd_report(args: argparse.Namespace) -> int:
    path = args.report_csv
    stats: list[StrategyStats] = []
    for lineno, row in read_table(path, REPORT_COLUMNS):
        stats.append(
            StrategyStats(
                row["strategy"],
                _cell(path, lineno, row, "size", int),
                _cell(path, lineno, row, "mean"),
                _cell(path, lineno, row, "sd"),
                _cell(path, lineno, row, "sharpe") if row["sharpe"] else None,
                _cell(path, lineno, row, "best_flag", _flag),
            )
        )
    levene: list[tuple[int, tuple[str, ...], LeveneResult]] = []
    if args.levene_csv:
        path = args.levene_csv
        for lineno, row in read_table(path, LEVENE_COLUMNS):
            levene.append(
                (
                    _cell(path, lineno, row, "size", int),
                    tuple(row["strategies"].split("+")),
                    LeveneResult(
                        _cell(path, lineno, row, "W"),
                        _cell(path, lineno, row, "df1", int),
                        _cell(path, lineno, row, "df2", int),
                        _cell(path, lineno, row, "p"),
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
                       help="ignored: the engine is single-threaded")
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
