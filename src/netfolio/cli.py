"""Command line pipeline: returns -> network -> simulate -> report.

All subcommands are driven by a JSON run config and write their outputs
atomically under --out-dir. Errors name the offending input and exit
nonzero.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from collections.abc import Iterator
from pathlib import Path
from typing import TYPE_CHECKING

from . import reference
from .analytics import (
    LEVENE_COLUMNS,
    REPORT_COLUMNS,
    LeveneResult,
    SimulationReport,
    StrategyStats,
    render_levene_csv,
    render_report,
    render_report_csv,
)
from .inputs import DataError, StudyPeriod, _parse_date, _read_text, read_chunks

if TYPE_CHECKING:
    import numpy as np

    from .clusters import ClusterAssignment, ClusterPairing
    from .correlation import CorrelationMatrix, DistanceMatrix
    from .market_data import ReturnPanel
    from .portfolio_sim import DrawPlan

# Each command imports the numeric modules it runs inside the function that
# runs them, so no command loads a module it does not use (``report`` loads
# no numpy), and a call goes through the function's home module.


class ConfigError(ValueError):
    pass


def _atomic_write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
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


CLUSTER_METHODS = ("hct", "mst", "nnet")
_STRATEGY_LABELS = {
    "random": "Random",
    "industry": "Industry",
    "hct": "HCT",
    "mst": "MST",
    "nnet": "NN",
}
_REPORT_LABELS = tuple(_STRATEGY_LABELS.values())

# key -> (default, check, what a valid value is); a key that is absent takes
# its default, and a default of None means the key is not set.
CLUSTERING_RULES = {
    "k": (4, lambda v: _is_int(v) and v >= 1, "an integer >= 1"),
    "mst_mode": ("gap", lambda v: v in ("gap", "hub"), "'gap' or 'hub'"),
    "min_branch": (5, lambda v: _is_int(v) and v >= 1, "an integer >= 1"),
    "hub": (None, lambda v: isinstance(v, str), "a ticker string"),
    "manual_breaks": (None, lambda v: isinstance(v, list) and all(map(_is_int, v)),
                      "a JSON array of integers"),
}
SIMULATION_RULES = {
    # The replication streams' spawn key is one uint32 word.
    "reps": (1000, lambda v: _is_int(v) and 2 <= v <= 2**32, "an integer from 2 to 2**32"),
    "sizes": ([2, 4, 8],
              lambda v: v != [] and _distinct_array(v, lambda m: _is_int(m) and m in (2, 4, 8)),
              "a non-empty JSON array of distinct integers from {2, 4, 8}"),
    "strategies": (list(_STRATEGY_LABELS),
                   lambda v: v != [] and _distinct_array(v, lambda s: s in tuple(_STRATEGY_LABELS)),
                   f"a non-empty JSON array of distinct names from {', '.join(_STRATEGY_LABELS)}"),
    # Unset: the model period alone.
    "test_periods": (None, lambda v: v != [] and _distinct_array(v),
                     "a non-empty JSON array of distinct period labels"),
    # HCT's unbalanced clusters can depress its standard deviations.
    "levene_exclude": (["HCT"], lambda v: _distinct_array(v, lambda s: s in _REPORT_LABELS),
                       f"a JSON array of distinct report labels from {', '.join(_REPORT_LABELS)}"),
    # Rates by period label, over reference.RISK_FREE_PCT; each label must name a period.
    "risk_free": ({}, lambda v: isinstance(v, dict) and all(map(_is_finite, v.values())),
                  "a JSON object of finite numbers"),
    # Unset: the first period.
    "model_period": (None, lambda v: isinstance(v, str), "a period label string"),
}
PATH_KEYS = ("prices", "dividends", "periods", "industry_map")
CONFIG_KEYS = PATH_KEYS + ("clustering", "simulation")


def check_section(path: str | Path, cfg: dict, section: str, rules: dict) -> dict:
    """Every key of ``rules`` with its value in the config's ``section``
    object, checked by its rule, or else its default; a key of the section
    with no rule is misspelt or removed, and fails."""
    values = cfg.get(section, {})
    if not isinstance(values, dict):
        raise ConfigError(f"{path}: {section} must be a JSON object, not {values!r}")
    for key, value in values.items():
        if key not in rules:
            raise ConfigError(f"{path}: unknown key {section}.{key}")
        _, ok, what = rules[key]
        if not ok(value):
            raise ConfigError(f"{path}: {section}.{key} must be {what}, not {value!r}")
    return {**{key: default for key, (default, _, _) in rules.items()}, **values}


def _load_json(path: str | Path) -> object:
    text, stop = _read_text(path)
    if stop is not None:
        raise ConfigError(str(stop))
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from None


def _check_file(path: str | Path, what: str) -> None:
    """Fail unless ``path`` is a file; ``what`` names it in the error."""
    if not Path(path).is_file():
        problem = "is not a file" if Path(path).exists() else "does not exist"
        raise ConfigError(f"{what} {path} {problem}")


def load_config(path: str | Path) -> dict:
    path = Path(path)
    _check_file(path, "config file")
    cfg = _load_json(path)
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    for key in cfg:
        if key not in CONFIG_KEYS:
            raise ConfigError(f"{path}: unknown key {key}")
    for key in ("prices", "dividends", "periods"):
        if cfg.get(key) is None:
            raise ConfigError(f"config missing required key {key!r}")
    # Input paths are relative to the config file, wherever the command runs.
    for key in PATH_KEYS:
        if cfg.get(key) is None:
            continue
        if not isinstance(cfg[key], str):
            raise ConfigError(f"{path}: {key} must be a path string, not {cfg[key]!r}")
        cfg[key] = str(path.parent / cfg[key])
    for key in ("prices", "dividends", "periods"):
        _check_file(cfg[key], f"config {key} file")
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
            # The label is part of output file names, so it must not leave --out-dir.
            label = entry["label"]
            if not (isinstance(label, str) and label) or any(
                    part in label for part in ("/", "\\", "..")):
                raise ConfigError(
                    f"{where}: label must be a non-empty string, without '/', '\\' or '..'")
            start = _parse_date(entry["start"], f"{where} start")
            end = _parse_date(entry["end"], f"{where} end")
            if start >= end:
                raise ConfigError(f"{where}: start must precede end")
            periods.append(StudyPeriod(entry["label"], start, end))
        except (KeyError, TypeError) as exc:
            raise ConfigError(f"{path}: bad period entry {entry!r}: {exc}") from None
    return periods


def load_industry_map(path: str | Path | None) -> DrawPlan:
    """The industry plan of a ticker,group CSV, or the built-in one."""
    from .portfolio_sim import SimulationError, industry_plan

    if path is None:
        return industry_plan(reference.SUPER_GROUPS)
    _check_file(path, "config industry_map file")
    groups: dict[str, int] = {}
    for lineno, row in _rows(path, ("ticker", "group")):
        ticker = row["ticker"].strip()
        if ticker in groups:
            raise ConfigError(f"{path}:{lineno}: ticker {ticker!r} listed twice")
        try:
            groups[ticker] = int(row["group"])
        except ValueError:
            raise ConfigError(f"{path}:{lineno}: invalid group {row['group']!r}") from None
    try:
        return industry_plan(groups)
    except SimulationError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _rows(path: str | Path, columns: tuple[str, ...]) -> Iterator[tuple[int, dict[str, str]]]:
    """(line, fields by column) of each row of a CSV file with this header;
    then the error that ended the read early, if any, is raised."""
    for lines, texts, stop in read_chunks(path, columns)[1]:
        for lineno, values in zip(lines, zip(*texts)):
            yield lineno, dict(zip(columns, values))
    if stop is not None:
        raise stop


def check_industry_universe(industry: DrawPlan, source: str, tickers: tuple[str, ...]) -> None:
    """The industry map and the price panel must name the same tickers."""
    mapped, panel = set(industry.labels), set(tickers)
    for missing, problem in ((mapped - panel, "ticker {!r} is not in the price panel"),
                             (panel - mapped, "price panel ticker {!r} is not in the map")):
        if missing:
            first, *rest = sorted(missing)
            more = f" (and {len(rest)} more)" if rest else ""
            raise ConfigError(f"{source}: {problem.format(first)}{more}")


def check_plan_sizes(plan: DrawPlan, sizes: list[int], where: str) -> None:
    """Every portfolio size must suit the plan; a failure names ``where``."""
    from .portfolio_sim import SimulationError

    for m in sizes:
        try:
            plan.check(m)
        except SimulationError as exc:
            raise ConfigError(f"{where}: {exc}") from None


def check_ticker_count(config: str, prices: str, n: int, nnet: str | None,
                       limits: list[tuple[str, int]]) -> None:
    """What a panel of n tickers cannot meet, checked right after ingest: a
    Neighbor-Net (``nnet`` says where one was asked for) needs 3 tickers, and
    the value of each (config key, value) of ``limits`` must be at most n."""
    if nnet is not None and n < 3:
        raise ConfigError(f"{nnet} needs at least 3 tickers, and {prices} has {n}")
    for key, value in limits:
        if value > n:
            raise ConfigError(f"{config}: {key} must be at most {n}, "
                              f"the number of tickers in {prices}, not {value}")


def compute_returns(cfg: dict, periods: list[StudyPeriod]) -> ReturnPanel:
    from .market_data import ingest, period_returns

    panel = ingest(cfg["prices"], cfg["dividends"])
    try:
        return period_returns(panel, periods)
    except DataError as exc:
        # ingest has checked every dividend date, so only a period boundary fails here.
        raise DataError(f"{cfg['periods']}: {exc}") from None


def period_correlation(cfg: dict, returns: ReturnPanel, label: str) -> CorrelationMatrix:
    """The correlation of one period's weekly returns; a period too short, or
    a ticker whose returns do not vary, is reported against the prices file."""
    from .correlation import CorrelationError, pearson_correlation

    weekly = returns.weekly_returns[returns.period_index(label)]
    try:
        return pearson_correlation(weekly, returns.tickers)
    except CorrelationError as exc:
        raise DataError(f"{cfg['prices']}: period {label!r}: {exc}") from None


def build_clusters(
    method: str, dist: DistanceMatrix, clustering: dict, where: str
) -> tuple[ClusterAssignment, object]:
    """The assignment of one of CLUSTER_METHODS and the structure it is cut
    from: the dendrogram, the spanning tree or the circular ordering. A
    clustering setting these distances cannot meet fails as ``where``."""
    from .clusters import ClusterError

    k = clustering["k"]
    try:
        if method == "hct":
            from .tree_cluster import average_linkage_hct, cut_dendrogram
            tree = average_linkage_hct(dist)
            return cut_dendrogram(tree, k), tree
        if method == "mst":
            from .tree_cluster import minimum_spanning_tree, mst_clusters
            tree = minimum_spanning_tree(dist)
            assignment = mst_clusters(tree, dist, k, mode=clustering["mst_mode"],
                                      min_branch=clustering["min_branch"], hub=clustering["hub"])
            return assignment, tree
        from .neighbor_net import neighbornet_ordering, nn_clusters
        ordering = neighbornet_ordering(dist)
        return nn_clusters(ordering, dist, k, clustering["manual_breaks"]), ordering
    except ClusterError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def pair_clusters(method: str, assignment: ClusterAssignment, structure: object,
                  dist: DistanceMatrix) -> ClusterPairing:
    """The pairing of an even number of clusters that ``build_clusters`` cut:
    by size for HCT, by mean distance for MST, by opposite arcs for NN."""
    if method == "hct":
        from .clusters import pair_by_size
        return pair_by_size(assignment)
    if method == "mst":
        from .clusters import pair_by_distance
        return pair_by_distance(assignment, dist)
    from .neighbor_net import pair_nn_clusters
    return pair_nn_clusters(assignment, structure)


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
    from .correlation import ultrametric_distance

    cfg = load_config(args.config)
    clustering = check_section(args.config, cfg, "clustering", CLUSTERING_RULES)
    returns = compute_returns(cfg, load_periods(cfg["periods"]))
    check_ticker_count(args.config, cfg["prices"], len(returns.tickers),
                       "--method nnet" if args.method == "nnet" else None,
                       [("clustering.k", clustering["k"])])
    out = Path(args.out_dir)
    for p in returns.periods:
        corr = period_correlation(cfg, returns, p.label)
        dist = ultrametric_distance(corr)
        if args.dump_matrices:
            _atomic_write(out / f"corr_{p.label}.csv", matrix_csv(corr.tickers, corr.rho))
            _atomic_write(out / f"dist_{p.label}.csv", matrix_csv(dist.tickers, dist.d))
        assignment, structure = build_clusters(args.method, dist, clustering,
                                               f"{args.config}: period {p.label!r}")
        if args.method == "nnet":  # the Nexus file holds the fitted splits
            from .neighbor_net import fit_split_weights
            structure = fit_split_weights(dist, structure)
        _atomic_write(out / f"clusters_{args.method}_{p.label}.csv", clusters_csv(assignment))
        if args.method == "hct":
            from .tree_cluster import to_newick
            _atomic_write(out / f"hct_{p.label}.nwk", to_newick(structure))
        elif args.method == "mst":
            from .tree_cluster import edge_list_csv, to_dot
            _atomic_write(out / f"mst_{p.label}.dot", to_dot(structure))
            _atomic_write(out / f"mst_{p.label}.csv", edge_list_csv(structure))
        else:
            from .neighbor_net import write_nexus
            _atomic_write(out / f"nnet_{p.label}.nex", write_nexus(dist, structure))
    print(f"wrote {args.method} outputs for {len(returns.periods)} periods to {out}")
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    from .correlation import ultrametric_distance
    from .portfolio_sim import cluster_plan, draw_matrices, random_plan, score_period
    from .summary import summarize

    cfg = load_config(args.config)
    sim = check_section(args.config, cfg, "simulation", SIMULATION_RULES)
    if args.seed < 0:
        raise ConfigError(f"--seed must be an integer >= 0, not {args.seed}")
    sizes, names = sim["sizes"], sim["strategies"]
    rules = CLUSTERING_RULES
    clustered = any(name in CLUSTER_METHODS for name in names)
    if clustered:
        rules = {**rules, "k": (rules["k"][0], lambda v: _is_int(v) and v in (2, 4),
                                "2 or 4 for the hct, mst and nnet strategies")}
    clustering = check_section(args.config, cfg, "clustering", rules)
    periods = load_periods(cfg["periods"])
    labels = [p.label for p in periods]
    model_period = labels[0] if sim["model_period"] is None else sim["model_period"]
    test_periods = [model_period] if sim["test_periods"] is None else sim["test_periods"]
    named = ([("model_period", model_period)] + [("test_periods", t) for t in test_periods]
             + [("risk_free", t) for t in sim["risk_free"]])
    for key, label in named:
        if label not in labels:
            raise ConfigError(
                f"{args.config}: simulation {key} names {label!r}, "
                f"which is not a period in {cfg['periods']}"
            )
    rf_table = {**reference.RISK_FREE_PCT, **sim["risk_free"]}
    for label in test_periods:
        if label not in rf_table:
            raise ConfigError(
                f"{args.config}: simulation test_periods names {label!r}, which has no "
                "risk-free rate in simulation.risk_free or the built-in table"
            )
    if "industry" in names:
        industry_source = cfg.get("industry_map") or "built-in Dow 30 industry map"
        industry = load_industry_map(cfg.get("industry_map"))
        check_plan_sizes(industry, sizes, industry_source)
    returns = compute_returns(cfg, periods)
    nnet = f"{args.config}: simulation.strategies names 'nnet', which" if "nnet" in names else None
    check_ticker_count(args.config, cfg["prices"], len(returns.tickers), nnet,
                       [("clustering.k", clustering["k"])] * clustered
                       + [("simulation.sizes", m) for m in sizes])
    if "industry" in names:
        check_industry_universe(industry, industry_source, returns.tickers)
    if clustered:
        dist = ultrametric_distance(period_correlation(cfg, returns, model_period))

    plans: list[DrawPlan] = []
    for name in names:
        if name == "random":
            plan = random_plan(returns.tickers)
        elif name == "industry":
            plan = industry
        else:
            where = f"{args.config}: model period {model_period!r}"
            assignment, structure = build_clusters(name, dist, clustering, where)
            # k is 2 or 4 here, so the clusters can always be paired.
            plan = cluster_plan(assignment, pair_clusters(name, assignment, structure, dist))
            check_plan_sizes(plan, sizes, f"{where} {name} clusters")
        plans.append(plan)

    # Replication streams depend on (seed, rep) only: read each stream once,
    # draw each (m, strategy) portfolio matrix once and score it on every
    # test period.
    matrices = draw_matrices(plans, returns, sizes, sim["reps"], args.seed)
    draws = list(zip([_STRATEGY_LABELS[name] for m in sizes for name in names], matrices))
    out = Path(args.out_dir)
    for test_period in test_periods:
        runs = [score_period(name, columns, returns, test_period) for name, columns in draws]
        rf = float(rf_table[test_period])
        report = summarize(runs, rf, tuple(sim["levene_exclude"]))
        tag = f"{model_period}_{test_period}"
        _atomic_write(out / f"report_{tag}.csv", render_report_csv(report))
        _atomic_write(out / f"levene_{tag}.csv", render_levene_csv(report))
        _atomic_write(out / f"report_{tag}.md", render_report(report))
    print(f"wrote simulation reports for model period {model_period} to {out}")
    return 0


def _flag(text: str) -> bool:
    if text not in ("0", "1"):
        raise ValueError(text)
    return text == "1"


def _cell(path: str, lineno: int, row: dict[str, str], column: str, kind=float):
    """The int, finite float or 0/1 flag a report or Levene CSV cell spells."""
    try:
        value = kind(row[column])
        if kind is float and not math.isfinite(value):
            raise ValueError
    except ValueError:
        raise ConfigError(f"{path}:{lineno}: invalid {column} {row[column]!r}") from None
    return value


def cmd_report(args: argparse.Namespace) -> int:
    path = args.report_csv
    stats: dict[tuple[str, int], StrategyStats] = {}
    for lineno, row in _rows(path, REPORT_COLUMNS):
        s = StrategyStats(
            row["strategy"],
            _cell(path, lineno, row, "size", int),
            _cell(path, lineno, row, "mean"),
            _cell(path, lineno, row, "sd"),
            _cell(path, lineno, row, "sharpe") if row["sharpe"] else None,
            _cell(path, lineno, row, "best_flag", _flag),
        )
        if (s.strategy, s.m) in stats:
            raise ConfigError(f"{path}:{lineno}: strategy {s.strategy!r} size {s.m} listed twice")
        stats[s.strategy, s.m] = s
    levene: dict[int, tuple[int, tuple[str, ...], LeveneResult]] = {}
    if args.levene_csv:
        path = args.levene_csv
        for lineno, row in _rows(path, LEVENE_COLUMNS):
            size = _cell(path, lineno, row, "size", int)
            result = LeveneResult(
                _cell(path, lineno, row, "W"),
                _cell(path, lineno, row, "df1", int),
                _cell(path, lineno, row, "df2", int),
                _cell(path, lineno, row, "p"),
            )
            if size in levene:
                raise ConfigError(f"{path}:{lineno}: size {size} listed twice")
            levene[size] = (size, tuple(row["strategies"].split("+")), result)
    report = SimulationReport(tuple(stats.values()), tuple(levene.values()))
    # UTF-8 whatever the locale, as _atomic_write writes files.
    sys.stdout.flush()
    sys.stdout.buffer.write(render_report(report).encode("utf-8"))
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
    p_net.add_argument("--method", required=True, choices=CLUSTER_METHODS)
    p_net.add_argument("--out-dir", default="out")
    p_net.add_argument("--dump-matrices", action="store_true",
                       help="also write correlation and distance CSVs")
    p_net.set_defaults(func=cmd_network)

    p_sim = sub.add_parser("simulate", help="run the Monte Carlo portfolio simulations")
    p_sim.add_argument("--config", required=True)
    p_sim.add_argument("--out-dir", default="out")
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--workers", type=int, default=1,
                       help="ignored: the engine is single-threaded")
    p_sim.set_defaults(func=cmd_simulate)

    p_rep = sub.add_parser("report", help="render a report CSV as a markdown table")
    p_rep.add_argument("--report-csv", required=True)
    p_rep.add_argument("--levene-csv", default=None)
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
