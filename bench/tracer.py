"""Traced netfolio CLI run: spans around the package's public functions.

Run as ``python3 bench/tracer.py SPANS.npz <netfolio cli arguments>``. It
wraps, from outside the package, every function ``netfolio.cli`` imports
from another netfolio module, plus the calls ``netfolio.portfolio_sim`` and
``netfolio.neighbor_net`` make per replication and per fit, then runs
``netfolio.cli.main``. Spans (name, start, end, parent) and a few counters
are kept in memory and written to SPANS.npz when the command ends.

The benchmark imports this module for ``summarize``, which turns span files
into per-layer totals; importing it installs nothing.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import sys
import threading
import time

import numpy as np

# Calls made inside the package, wrapped where the calling module looks them up.
INNER = {
    "netfolio.portfolio_sim": ("replication_rng", "portfolio_return", "Strategy.draw"),
    "netfolio.neighbor_net": ("nnls", "split_design_matrix"),
}


class Recorder:
    """In-memory span store. Worker threads without an open span of their
    own are parented to the main thread's innermost open span."""

    def __init__(self) -> None:
        self.ids = itertools.count(1)
        self.records: list[tuple[int, str, int, int, int]] = []
        self.main_stack: list[int] = []
        self.local = threading.local()
        self.local.stack = self.main_stack
        self.draw_keys: set[tuple[str, int, int]] = set()
        self.rows_parsed = 0
        self.active_splits = 0
        self.residuals: list[float] = []
        self.design_bytes = 0

    def wrap(self, fn, name: str, after=None):
        local, main_stack, records, ids = self.local, self.main_stack, self.records, self.ids

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1] if stack else (main_stack[-1] if main_stack else 0)
            sid = next(ids)
            stack.append(sid)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                records.append((sid, name, start, end, parent))
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def _after_ingest(self, args, kwargs, result) -> None:
        panel, divs = result
        self.rows_parsed += int(panel.close.size) + len(divs.entries)

    def _after_nnls(self, args, kwargs, result) -> None:
        x, residual = result
        self.active_splits += int(np.count_nonzero(x > 0))
        self.residuals.append(float(residual))

    def _after_design(self, args, kwargs, result) -> None:
        n = int(args[0] if args else kwargs["n"])
        self.design_bytes = max(self.design_bytes, 8 * (n * (n - 1) // 2) ** 2)

    def _after_draw(self, args, kwargs, result) -> None:
        strategy, m = args[0], args[1] if len(args) > 1 else kwargs["m"]
        rep = args[3] if len(args) > 3 else kwargs.get("replication", 0)
        self.draw_keys.add((strategy.name, int(m), int(rep)))

    def install(self):
        """Wrap the package's functions; returns the traced ``cli.main``."""
        import importlib

        import netfolio.cli as cli

        hooks = {
            "market_data.ingest": self._after_ingest,
            "nnls.nnls": self._after_nnls,
            "neighbor_net.split_design_matrix": self._after_design,
            "portfolio_sim.Strategy.draw": self._after_draw,
        }

        def span_name(fn) -> str:
            return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__qualname__}"

        for attr, fn in list(vars(cli).items()):
            if (inspect.isfunction(fn) and not attr.startswith("_")
                    and fn.__module__.startswith("netfolio.") and fn.__module__ != cli.__name__):
                name = span_name(fn)
                setattr(cli, attr, self.wrap(fn, name, hooks.get(name)))
        for module_name, attrs in INNER.items():
            module = importlib.import_module(module_name)
            for path in attrs:
                owner, _, attr = path.rpartition(".")
                target = getattr(module, owner, None) if owner else module
                fn = getattr(target, attr, None)
                if fn is None:  # renamed or removed: its metrics read 0
                    continue
                name = span_name(fn)
                setattr(target, attr, self.wrap(fn, name, hooks.get(name)))
        return self.wrap(cli.main, "cli.main")

    def write(self, path: str) -> None:
        names = sorted({r[1] for r in self.records})
        index = {n: i for i, n in enumerate(names)}
        spans = np.array(
            [(sid, index[name], start, end, parent) for sid, name, start, end, parent in self.records],
            dtype=np.int64,
        ).reshape(-1, 5)
        meta = {
            "draws_distinct": len(self.draw_keys),
            "rows_parsed": self.rows_parsed,
            "active_splits": self.active_splits,
            "residuals": self.residuals,
            "design_bytes": self.design_bytes,
        }
        np.savez(path, spans=spans, names=np.array(names), meta=np.array(json.dumps(meta)))


def self_times(spans: np.ndarray) -> np.ndarray:
    """Each span's duration minus the part of it covered by its children."""
    dur = spans[:, 3] - spans[:, 2]
    row = {int(sid): i for i, sid in enumerate(spans[:, 0])}
    children: dict[int, list[tuple[int, int]]] = {}
    for sid, _, start, end, parent in spans.tolist():
        if parent in row:
            children.setdefault(parent, []).append((start, end))
    own = dur.astype(float)
    for parent, intervals in children.items():
        i = row[parent]
        lo, hi = spans[i, 2], spans[i, 3]
        covered, cur_start, cur_end = 0, None, None
        for start, end in sorted(intervals):
            start, end = max(start, lo), min(end, hi)
            if cur_end is None or start > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = start, end
            else:
                cur_end = max(cur_end, end)
        if cur_end is not None:
            covered += cur_end - cur_start
        own[i] -= covered
    return own


def summarize(paths) -> dict:
    """Per-name span totals and counters over the span files of one pipeline.

    Returns {"spans": {name: {"calls", "total_s", "self_s"}}, plus the
    counters written by each traced command, summed (``design_bytes`` is the
    largest, ``residuals`` concatenated)}.
    """
    spans_out: dict[str, dict[str, float]] = {}
    counters = {"draws_distinct": 0, "rows_parsed": 0, "active_splits": 0,
                "residuals": [], "design_bytes": 0}
    for path in paths:
        with np.load(path) as data:
            spans, names = data["spans"], [str(n) for n in data["names"]]
            meta = json.loads(str(data["meta"]))
        own = self_times(spans) if len(spans) else np.zeros(0)
        for k, name in enumerate(names):
            sel = spans[:, 1] == k
            agg = spans_out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            agg["calls"] += int(sel.sum())
            agg["total_s"] += float((spans[sel, 3] - spans[sel, 2]).sum()) / 1e9
            agg["self_s"] += float(own[sel].sum()) / 1e9
        for key in ("draws_distinct", "rows_parsed", "active_splits"):
            counters[key] += meta[key]
        counters["residuals"] += meta["residuals"]
        counters["design_bytes"] = max(counters["design_bytes"], meta["design_bytes"])
    return {"spans": spans_out, **counters}


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    recorder = Recorder()
    traced_main = recorder.install()
    try:
        return traced_main(argv)
    finally:
        recorder.write(out)


if __name__ == "__main__":
    sys.exit(main())
