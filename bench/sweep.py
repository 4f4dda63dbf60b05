"""Run the netfolio benchmark on every workload and summarize it.

    python3 bench/sweep.py --runs 10 --out bench/results/baseline.json

For each workload, runs ``run.py --trace 0`` once per seed (``--first-seed``
onwards) and ``run.py --trace 1`` twice on the first seed. It prints every
end-to-end metric by name and unit with the median of the runs, their
quartile spread as a share of the median against the metric's bound, and the
pooled per-command samples' median, highest percentile with at least ten
samples beyond it, and sample count. Per-layer metrics are printed from the
traced runs, with a check that the counts repeat exactly, and
``trace.overhead_s`` is pooled over both traced runs and marked unresolved
when its samples straddle zero. Runs last ``RUN_SECONDS``. It writes
BENCHMARK.json from the metric and workload definitions and, with
``--out``, the numbers with the environment they were measured in.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

import run as bench
from workloads import WORKLOADS

RUN_SECONDS = 56
# Two workloads at this run length keep a full ten-seed check within an hour;
# history stays runnable by name but is left out of BENCHMARK.json (README.md).
BENCHMARK_WORKLOADS = ("paper", "wide")
COUNTS = ("portfolio_sim.draws", "market_data.ingest_calls", "nnls.active_splits")


def spec() -> dict:
    def metric(m, with_bound):
        d = {"name": m.name, "unit": m.unit, "better": m.better}
        return {**d, "bound": m.bound} if with_bound else d

    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": WORKLOADS[n].why} for n in BENCHMARK_WORKLOADS],
        "end_to_end": [metric(m, True) for m in bench.END_TO_END],
        "per_layer": [metric(m, False) for m in bench.PER_LAYER],
    }


def invoke(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    argv = [sys.executable, str(bench.BENCH / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(RUN_SECONDS), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=bench.ROOT, capture_output=True, text=True, timeout=200)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{' '.join(argv)} failed ({proc.returncode}):\n{proc.stderr}")
    detail = json.loads(lines[-2].removeprefix("# detail "))
    return json.loads(lines[-1]), detail


def quartile_spread(values: list[float]) -> tuple[float, float, float]:
    """(median, q1, q3) as statistics.quantiles(n=4) gives them."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def tail(samples: list[float]) -> tuple[int | None, float | None]:
    """Highest whole percentile with at least ten samples above it."""
    n = len(samples)
    if n < 11:
        return None, None
    p = math.floor(100 * (n - 10) / n)
    ordered = sorted(samples)
    return p, ordered[min(n - 1, max(0, math.ceil(p / 100 * n) - 1))]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(BENCHMARK_WORKLOADS))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    (bench.ROOT / "BENCHMARK.json").write_text(json.dumps(spec(), indent=2) + "\n")
    bounds = {m.name: m.bound for m in bench.END_TO_END}
    units = {m.name: m.unit for m in bench.END_TO_END + bench.PER_LAYER}
    results: dict = {"run_seconds": RUN_SECONDS, "workloads": {}}
    all_ok = True
    for name in args.workloads.split(","):
        w = WORKLOADS[name]
        runs, details = [], []
        t0 = time.monotonic()
        for seed in range(args.first_seed, args.first_seed + args.runs):
            result, detail = invoke(name, seed, 0)
            runs.append(result)
            details.append(detail)
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        print(f"\n== {name}: {w.why}")
        print(f"   {args.runs} runs in {time.monotonic() - t0:.0f} s, seeds "
              f"{args.first_seed}..{args.first_seed + args.runs - 1}; failed_frac "
              f"{failed}/{attempted} = {failed / attempted:.4f}; all correct: "
              f"{all(r['correct'] for r in runs)}; self-check failed_frac "
              f"{[round(d['selfcheck']['failed_frac'], 3) for d in details]}")
        pooled = {f"{c}_s": [p["norms"][c] for d in details for p in d["pipelines"]]
                  for c in bench.COMMANDS if c != "report"}
        pooled["pipeline_s"] = [sum(p["norms"].values()) for d in details for p in d["pipelines"]]
        raw = {f"{c}_s": [p["walls"][c] for d in details for p in d["pipelines"]]
               for c in bench.COMMANDS if c != "report"}
        raw["pipeline_s"] = [sum(p["walls"].values()) for d in details for p in d["pipelines"]]
        raw["setup_s"] = [s for d in details for s in d["setup_walls"]]
        pooled["peak_rss_mb"] = [max(p["rss"].values()) for d in details for p in d["pipelines"]]
        pooled["setup_s"] = [s for d in details for s in d["setup_samples"]]
        print(f"   {'metric':16} {'unit':5} {'median':>9} {'q1':>9} {'q3':>9} {'spread':>7} "
              f"{'bound':>6} {'ok':3} | {'pooled median':>13} {'pctl':>5} {'value':>9} {'n':>4}"
              f" | {'raw wall median':>15}")
        table = {}
        for m in bench.END_TO_END:
            values = [r["metrics"][m.name]["value"] for r in runs]
            med, q1, q3 = quartile_spread(values)
            spread = (q3 - q1) / med
            ok = spread < m.bound / 3
            all_ok &= ok
            p, pv = tail(pooled[m.name])
            pmed = statistics.median(pooled[m.name])
            rmed = statistics.median(raw[m.name]) if m.name in raw else None
            print(f"   {m.name:16} {m.unit:5} {med:9.4f} {q1:9.4f} {q3:9.4f} {spread:7.4f} "
                  f"{m.bound:6.2f} {'yes' if ok else 'NO':3} | {pmed:13.4f} "
                  f"{'p' + str(p) if p is not None else '-':>5} "
                  f"{pv if pv is not None else float('nan'):9.4f} {len(pooled[m.name]):4}"
                  f" | {rmed if rmed is not None else float('nan'):15.4f}")
            table[m.name] = {"unit": m.unit, "median": med, "q1": q1, "q3": q3,
                             "spread": spread, "bound": bounds[m.name], "runs": values,
                             "pooled_median": pmed, "pooled_percentile": p,
                             "pooled_percentile_value": pv, "samples": len(pooled[m.name]),
                             "raw_wall_median": rmed}
        entry = {"why": w.why, "params": w.params(), "attempted": attempted, "failed": failed,
                 "failed_frac": failed / attempted, "end_to_end": table,
                 "seeds": list(range(args.first_seed, args.first_seed + args.runs)),
                 "inputs_sha256": {d["seed"]: d["inputs_sha256"] for d in details},
                 "environment": details[0]["environment"]}
        traced = [invoke(name, args.first_seed, 1) for _ in range(2)]
        layers = {k: [t["metrics"][k]["value"] for t, _ in traced]
                  for k in traced[0][0]["metrics"]}
        repeat = {k: layers[k][0] == layers[k][1] for k in COUNTS}
        all_ok &= all(repeat.values()) and all(t["correct"] for t, _ in traced)
        print(f"   traced runs (seed {args.first_seed}, twice); counts repeat: {repeat}")
        for k, values in layers.items():
            print(f"   {k:36} {units[k]:5} " + " ".join(f"{v:14.6g}" for v in values))
        overhead = sorted(x for _, d in traced for x in d["trace_overhead_samples"])
        resolved = overhead[0] > 0 or overhead[-1] < 0
        print(f"   trace.overhead_s pooled: median {statistics.median(overhead):.4f} s over "
              f"{len(overhead)} paired samples, range {overhead[0]:.4f}..{overhead[-1]:.4f}"
              f"{'' if resolved else ' (unresolved: the samples straddle zero)'}")
        entry["per_layer"] = {k: {"unit": units[k], "runs": v} for k, v in layers.items()}
        entry["trace_overhead"] = {"samples": overhead, "resolved": resolved}
        results["workloads"][name] = entry
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(results, indent=1) + "\n")
        print(f"\nwrote {args.out}")
    print(f"\nevery spread below a third of its bound, counts repeating: {all_ok}")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
