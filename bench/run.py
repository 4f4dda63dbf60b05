"""netfolio benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload paper --seed 0 --seconds 30 --trace 0

Generates the workload's inputs from the seed, then runs the user's
pipeline (returns, network hct, mst, nnet, simulate, report) as fresh
``python -m netfolio.cli`` children, one after another: a closed loop with
one client. Pipelines repeat until the next one would overrun ``--seconds``.
A fixed reference child runs after every measured child, and reported times
are normalized by it (see REF_CODE); raw wall times are in the detail line.
The seed picks one of the input cases that have a golden (see checks.py);
every output is checked, and a copy of the first pipeline's outputs with one
byte flipped in a golden file must be caught by the golden and reference
checks alone.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates an
untraced pipeline with one run under tracer.py and reports the per-layer
metrics. The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it,
``# detail {...}``, holds raw samples, input hashes and the environment.

Only files under ``.bench_run/`` in the checkout are written (plus the
interpreter's ``__pycache__``). BLAS threads in every child are pinned to 1.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
SRC = ROOT / "src"
RUN_DIR = ROOT / ".bench_run"
HARD_LIMIT_S = 170.0  # the run must end within 180 s
SETUP_SAMPLES = 7
# A fixed child, independent of the program, run after every measured child.
# Each measured wall time is divided by the mean of the reference times just
# before and after it and multiplied by REF_NOMINAL_S, its median on the
# machine the baseline was taken on. This cancels the host's speed phases
# (0.7x-1.3x for seconds to minutes), which raw wall times cannot average
# out within a run; see README.md.
REF_CODE = (
    "import numpy as np, scipy.special\n"
    "s = 0.0\n"
    "for i in range(2000):\n"
    "    r = np.random.default_rng(np.random.SeedSequence(entropy=0, spawn_key=(i,)))\n"
    "    s += float(np.mean(r.choice(30, 4, replace=False)))\n"
    "a = np.random.default_rng(0).random((400, 300))\n"
    "for k in range(60, 300, 40):\n"
    "    s += float(np.linalg.lstsq(a[:, :k], a[:, -1], rcond=None)[0].sum())\n"
)
REF_NOMINAL_S = 0.55
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
COMMANDS = ("returns", "network_hct", "network_mst", "network_nnet", "simulate", "report")


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    bound: float | None = None


END_TO_END = (
    Metric("pipeline_s", "s", "lower", 0.25),
    Metric("returns_s", "s", "lower", 0.25),
    Metric("network_hct_s", "s", "lower", 0.25),
    Metric("network_mst_s", "s", "lower", 0.25),
    Metric("network_nnet_s", "s", "lower", 0.25),
    Metric("simulate_s", "s", "lower", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.10),
    Metric("setup_s", "s", "lower", 0.25),
)

PER_LAYER = (
    Metric("portfolio_sim.run_s", "s", "lower"),
    Metric("portfolio_sim.draw_us", "us", "lower"),
    Metric("portfolio_sim.rng_us", "us", "lower"),
    Metric("portfolio_sim.score_us", "us", "lower"),
    Metric("portfolio_sim.draws", "count", "lower"),
    Metric("portfolio_sim.distinct_draw_ratio", "ratio", "higher"),
    Metric("nnls.solve_s", "s", "lower"),
    Metric("nnls.calls", "count", "lower"),
    Metric("nnls.active_splits", "count", "lower"),
    Metric("nnls.residual", "norm", "lower"),
    Metric("neighbor_net.ordering_s", "s", "lower"),
    Metric("neighbor_net.design_s", "s", "lower"),
    Metric("neighbor_net.design_bytes", "bytes", "lower"),
    Metric("neighbor_net.fit_self_s", "s", "lower"),
    Metric("neighbor_net.clusters_s", "s", "lower"),
    Metric("neighbor_net.export_s", "s", "lower"),
    Metric("tree_cluster.hct_s", "s", "lower"),
    Metric("tree_cluster.mst_s", "s", "lower"),
    Metric("tree_cluster.export_s", "s", "lower"),
    Metric("market_data.ingest_s", "s", "lower"),
    Metric("market_data.ingest_calls", "count", "lower"),
    Metric("market_data.rows_parsed", "count", "lower"),
    Metric("market_data.period_returns_s", "s", "lower"),
    Metric("correlation.s", "s", "lower"),
    Metric("clusters.pairing_s", "s", "lower"),
    Metric("analytics.summarize_s", "s", "lower"),
    Metric("analytics.render_s", "s", "lower"),
    Metric("cli.self_s", "s", "lower"),
    Metric("trace.overhead_s", "s", "lower"),
)

# Span names (see tracer.py) summed into each per-layer time.
LAYER_SPANS = {
    "portfolio_sim.run_s": ("total_s", ["portfolio_sim.run_simulation"]),
    "nnls.solve_s": ("total_s", ["nnls.nnls"]),
    "neighbor_net.ordering_s": ("total_s", ["neighbor_net.neighbornet_ordering"]),
    "neighbor_net.design_s": ("total_s", ["neighbor_net.split_design_matrix"]),
    "neighbor_net.fit_self_s": ("self_s", ["neighbor_net.fit_split_weights"]),
    "neighbor_net.clusters_s": ("total_s", ["neighbor_net.nn_clusters"]),
    "neighbor_net.export_s": ("total_s", ["neighbor_net.write_nexus"]),
    "tree_cluster.hct_s": ("total_s", ["tree_cluster.average_linkage_hct",
                                       "tree_cluster.cut_dendrogram"]),
    "tree_cluster.mst_s": ("total_s", ["tree_cluster.minimum_spanning_tree",
                                       "tree_cluster.mst_clusters"]),
    "tree_cluster.export_s": ("total_s", ["tree_cluster.to_newick", "tree_cluster.to_dot",
                                          "tree_cluster.edge_list_csv"]),
    "market_data.ingest_s": ("total_s", ["market_data.ingest"]),
    "market_data.period_returns_s": ("total_s", ["market_data.period_returns"]),
    "correlation.s": ("total_s", ["correlation.pearson_correlation",
                                  "correlation.ultrametric_distance"]),
    "clusters.pairing_s": ("total_s", ["clusters.pair_by_size", "clusters.pair_by_distance",
                                       "neighbor_net.pair_nn_clusters"]),
    "analytics.summarize_s": ("total_s", ["analytics.summarize"]),
    "analytics.render_s": ("total_s", ["analytics.render_report",
                                       "analytics.render_levene_csv"]),
    "cli.self_s": ("self_s", ["cli.main"]),
}
# Per-call self times, in microseconds.
LAYER_PER_CALL = {
    "portfolio_sim.draw_us": "portfolio_sim.Strategy.draw",
    "portfolio_sim.rng_us": "portfolio_sim.replication_rng",
    "portfolio_sim.score_us": "portfolio_sim.portfolio_return",
}

sys.path.insert(0, str(BENCH))
import checks  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS, Workload, generate  # noqa: E402


def child_env() -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0", **BLAS_ENV)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


class Launcher:
    """Client of launcher.py, which starts every child of the run."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "launcher.py")], env=child_env(),
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, argv: list[str], cwd: Path, stdout: Path, log: Path):
        """Run one child to completion; returns (exit code, wall s, peak RSS MB)."""
        req = {"argv": argv, "cwd": str(cwd), "stdout": str(stdout), "stderr": str(log),
               "timeout": self.deadline - time.monotonic()}
        self.proc.stdin.write(json.dumps(req) + "\n")
        self.proc.stdin.flush()
        reply = json.loads(self.proc.stdout.readline())
        return reply["code"], reply["wall_s"], reply["maxrss_kb"] / 1024.0

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def pipeline_args(w: Workload, seed: int) -> list[tuple[str, list[str]]]:
    tag = f"P1_{w.test_periods[0]}"
    net = ["network", "--config", "config.json", "--out-dir", "out", "--method"]
    return [
        ("returns", ["returns", "--config", "config.json", "--out-dir", "out"]),
        ("network_hct", net + ["hct"]),
        ("network_mst", net + ["mst"]),
        ("network_nnet", net + ["nnet"]),
        ("simulate", ["simulate", "--config", "config.json", "--out-dir", "out",
                      "--seed", str(seed), "--workers", str(w.workers)]),
        ("report", ["report", "--report-csv", f"out/report_{tag}.csv",
                    "--levene-csv", f"out/levene_{tag}.csv"]),
    ]


class Run:
    def __init__(self, w: Workload, case: int, work: Path, launcher: Launcher):
        self.w, self.case, self.work, self.launcher = w, case, work, launcher
        self.inputs = work / "inputs"
        self.log = work / "stderr.log"
        self.digests = generate(w, case, self.inputs)
        self.golden = checks.load_golden(w, case)
        self.reference = checks.Reference(self.inputs)
        self.first: dict[str, str] | None = None
        self.last_ref: float | None = None
        self.refs: list[tuple[float, float, float]] = []
        self.attempted = 0
        self.failed = 0
        self.timed_out = False

    def run_reference(self) -> float:
        rc, wall, _ = self.launcher.run([sys.executable, "-c", REF_CODE], self.work,
                                        self.work / "reference.out", self.log)
        if rc != 0:
            raise SystemExit(f"error: reference child failed (exit {rc}); see {self.log}")
        return wall

    def measure(self, argv: list[str], cwd: Path, stdout: Path):
        """Run one child, then the reference child.

        Returns (exit code, wall s, normalized s, peak RSS MB).
        """
        if self.last_ref is None:
            self.last_ref = self.run_reference()
        code, wall, rss = self.launcher.run(argv, cwd, stdout, self.log)
        ref = self.run_reference()
        norm = wall * REF_NOMINAL_S / ((self.last_ref + ref) / 2)
        self.refs.append((self.last_ref, wall, ref))
        self.last_ref = ref
        return code, wall, norm, rss

    def setup_samples(self) -> tuple[list[float], list[float]]:
        """Wall and normalized times of fresh interpreters importing
        netfolio.cli; the first (untimed) one also writes the bytecode cache
        every later call reuses."""
        argv = [sys.executable, "-c", "import netfolio.cli"]
        walls, norms = [], []
        for i in range(SETUP_SAMPLES + 1):
            rc, wall, norm, _ = self.measure(argv, self.work, self.work / "setup.out")
            if rc != 0:
                raise SystemExit(f"error: cannot import netfolio.cli (exit {rc}); see {self.log}")
            if i:
                walls.append(wall)
                norms.append(norm)
        return walls, norms

    def check(self, out: Path, exit_codes: dict[str, int], determinism: bool = True) -> set[str]:
        """Commands whose exit code or outputs fail a check."""
        bad = checks.check_reference(self.w, self.reference, out)
        if self.golden is not None:
            bad += checks.compare_golden(self.golden, out)
        if determinism and self.first is not None:
            now = checks.snapshot(self.w, out)
            bad += [name for name, digest in self.first.items() if now.get(name) != digest]
        return {checks.command_of(name) for name in bad} | {
            c for c, rc in exit_codes.items() if rc != 0}

    def pipeline(self, traced: bool, spans_dir: Path | None) -> dict:
        out = self.inputs / "out"
        shutil.rmtree(out, ignore_errors=True)
        walls, norms, rss, codes, span_files = {}, {}, {}, {}, []
        for name, args in pipeline_args(self.w, self.case):
            if traced:
                span_files.append(spans_dir / f"{name}.npz")
                argv = [sys.executable, str(BENCH / "tracer.py"), str(span_files[-1]), *args]
            else:
                argv = [sys.executable, "-m", "netfolio.cli", *args]
            stdout = self.work / f"{name}.out"
            codes[name], walls[name], norms[name], rss[name] = self.measure(
                argv, self.inputs, stdout)
            self.timed_out |= codes[name] == -1
            if name == "report" and out.is_dir():
                shutil.copyfile(stdout, out / checks.REPORT_STDOUT)
        failed = self.check(out, codes)
        if self.first is None:
            self.first = checks.snapshot(self.w, out)
            self.selfcheck = self.corruption_check(out) if self.golden else None
        self.attempted += len(codes)
        self.failed += len(failed)
        return {"traced": traced, "walls": walls, "norms": norms, "rss": rss,
                "failed": sorted(failed), "span_files": span_files}

    def corruption_check(self, out: Path) -> dict:
        """Flip one byte of one byte-identical golden file in a copy; the
        golden and reference checks, without the comparison with the first
        pipeline, must charge it to the command that wrote the file."""
        copy = self.work / "corrupt"
        shutil.rmtree(copy, ignore_errors=True)
        shutil.copytree(out, copy)
        names = sorted(self.golden["files"])
        name = names[self.case % len(names)]
        data = bytearray((copy / name).read_bytes())
        pos = len(data) // 2
        data[pos] ^= 0x01
        (copy / name).write_bytes(bytes(data))
        failed = self.check(copy, {}, determinism=False)
        shutil.rmtree(copy)
        return {"file": name, "byte": pos, "failed_commands": sorted(failed),
                "failed_frac": len(failed) / len(COMMANDS),
                "caught": checks.command_of(name) in failed}


def median(values):
    return statistics.median(values) if values else 0.0


def end_to_end(pipes: list[dict], setup: list[float]) -> dict[str, float]:
    """Normalized times (see REF_CODE) and peak RSS of the untraced pipelines."""
    plain = [p for p in pipes if not p["traced"]]
    m = {f"{c}_s": median([p["norms"][c] for p in plain]) for c in COMMANDS if c != "report"}
    m["pipeline_s"] = median([sum(p["norms"].values()) for p in plain])
    m["peak_rss_mb"] = median([max(p["rss"].values()) for p in plain])
    m["setup_s"] = median(setup)
    return m


def per_layer(pipes: list[dict]) -> dict[str, float]:
    per_pipe = []
    for p in (p for p in pipes if p["traced"]):
        s = tracer.summarize(p["span_files"])
        spans = s["spans"]

        def field(names, key):
            return sum(spans.get(n, {}).get(key, 0.0) for n in names)

        m = {name: field(names, key) for name, (key, names) in LAYER_SPANS.items()}
        for name, span in LAYER_PER_CALL.items():
            calls = field([span], "calls")
            m[name] = 1e6 * field([span], "self_s") / calls if calls else 0.0
        draws = field(["portfolio_sim.Strategy.draw"], "calls")
        m["portfolio_sim.draws"] = draws
        m["portfolio_sim.distinct_draw_ratio"] = s["draws_distinct"] / draws if draws else 0.0
        m["nnls.calls"] = field(["nnls.nnls"], "calls")
        m["nnls.active_splits"] = s["active_splits"]
        m["nnls.residual"] = median(s["residuals"]) if s["residuals"] else 0.0
        m["neighbor_net.design_bytes"] = s["design_bytes"]
        m["market_data.ingest_calls"] = field(["market_data.ingest"], "calls")
        m["market_data.rows_parsed"] = s["rows_parsed"]
        per_pipe.append(m)
    out = {name: median([m[name] for m in per_pipe]) for name in per_pipe[0]}
    out["trace.overhead_s"] = median(overhead_samples(pipes))
    return out


def overhead_samples(pipes: list[dict]) -> list[float]:
    """Each traced pipeline's normalized time minus the mean of the untraced
    pipelines just before and after it."""
    totals = [sum(p["norms"].values()) for p in pipes]
    samples = []
    for i, p in enumerate(pipes):
        plain = [totals[j] for j in (i - 1, i + 1)
                 if 0 <= j < len(pipes) and not pipes[j]["traced"]]
        if p["traced"] and plain:
            samples.append(totals[i] - statistics.fmean(plain))
    return samples


def environment(w: Workload) -> dict:
    import numpy
    import scipy

    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu or platform.processor(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version")},
        "blas_threads": BLAS_ENV,
        "workload": w.params(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--capture-golden", action="store_true",
                        help="run one pipeline and write goldens/<workload>_<seed>.json")
    args = parser.parse_args(argv)
    start = time.monotonic()
    deadline = start + HARD_LIMIT_S
    if not (SRC / "netfolio" / "cli.py").is_file():
        print(f"error: no netfolio sources under {SRC}", file=sys.stderr)
        return 2

    w = WORKLOADS[args.workload]
    case = args.seed % checks.GOLDEN_CASES
    if not args.capture_golden and checks.load_golden(w, case) is None:
        print(f"error: no golden {checks.golden_path(w, case)}", file=sys.stderr)
        return 2
    work = RUN_DIR / f"{w.name}-{args.seed}-{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    launcher = Launcher(deadline)
    try:
        run = Run(w, case, work, launcher)
        if args.capture_golden:
            pipe = run.pipeline(False, None)
            if pipe["failed"]:
                print(f"error: pipeline failed: {pipe['failed']}", file=sys.stderr)
                return 1
            record = checks.golden_record(w, case, run.digests, run.inputs / "out")
            checks.GOLDEN_DIR.mkdir(exist_ok=True)
            checks.golden_path(w, case).write_text(checks.dump_golden(record))
            print(f"wrote {checks.golden_path(w, case)}")
            return 0
        inputs_match = run.golden["inputs"] == run.digests
        setup_walls, setup = run.setup_samples()

        spans_root = work / "spans"
        pipes: list[dict] = []
        t0 = time.monotonic()
        while True:
            traced = bool(args.trace) and len(pipes) % 2 == 1
            spans_dir = spans_root / str(len(pipes)) if traced else None
            if spans_dir:
                spans_dir.mkdir(parents=True)
            pipes.append(run.pipeline(traced, spans_dir))
            last = sum(pipes[-1]["walls"].values())
            now = time.monotonic()
            enough = len(pipes) >= (2 if args.trace else 1)
            if run.timed_out or now + 1.5 * last > deadline:
                break
            if enough and now - t0 + last > args.seconds:
                break

        metrics = per_layer(pipes) if args.trace else end_to_end(pipes, setup)
        units = {m.name: m.unit for m in (PER_LAYER if args.trace else END_TO_END)}
        correct = (run.failed == 0 and run.selfcheck["caught"] and inputs_match
                   and not run.timed_out)
        for p in pipes:
            walls = " ".join(f"{c}={p['walls'][c]:.3f}/{p['norms'][c]:.3f}" for c in COMMANDS)
            print(f"pipeline traced={int(p['traced'])} wall/normalized s: {walls} "
                  f"failed={p['failed']}")
        print("setup wall/normalized s: "
              + " ".join(f"{w:.3f}/{n:.3f}" for w, n in zip(setup_walls, setup)))
        print(f"self-check: {run.selfcheck}")
        detail = {
            "workload": w.name, "seed": args.seed, "case": case, "trace": args.trace,
            "inputs_match_golden": inputs_match,
            "inputs_sha256": run.digests, "selfcheck": run.selfcheck,
            "setup_walls": setup_walls, "setup_samples": setup, "refs": run.refs,
            "trace_overhead_samples": overhead_samples(pipes) if args.trace else [],
            "pipelines": [{k: p[k] for k in ("traced", "walls", "norms", "rss", "failed")}
                          for p in pipes],
            "environment": environment(w),
        }
        print("# detail " + json.dumps(detail))
        print(json.dumps({
            "correct": correct,
            "attempted": run.attempted,
            "failed": run.failed,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in metrics.items()},
        }))
        return 0
    finally:
        launcher.close()
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            RUN_DIR.rmdir()  # only when no other run is using it


if __name__ == "__main__":
    sys.exit(main())
