"""Traced run of one entroflux CLI invocation, and the layer metrics of its spans.

Run as a script, it wraps the call boundaries in ``BOUNDARIES`` with
spans (name, start, end, parent) kept in memory, runs the CLI in this
process, and writes the spans to a JSON file when the run ends:

    python3 bench/tracer.py run SPANS.json -- verify-bound --config ... --workers 1

The traced run uses one worker so that every span lives in this process
and the self times of all spans add up to the root span.  The pool
measurement, untraced, loads a config and times ``run_ensemble`` alone,
on one worker and on ``WORKERS``:

    python3 bench/tracer.py pool-wall CONFIG SEED WORKERS

Importing this module loads nothing from entroflux; only the script does.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time

ROOT_SPAN = "process"
MAIN_SPAN = "cli.main"


def _chunk_buffer(counters, args, result):
    # (rows, n_steps) float64 Wiener draws allocated per chunk; computed, not measured
    _model, _rho0, integrator, _seed, start, stop = args[0]
    mb = (stop - start) * integrator.n_steps * 8 / 1e6
    counters["noise_buffer_mb"] = max(counters.get("noise_buffer_mb", 0.0), mb)


def _draws(counters, args, result):
    counters["wiener_draws"] = counters.get("wiener_draws", 0) + getattr(result, "size", 1)


def _step_rows(counters, args, result):
    counters["traj_steps"] = counters.get("traj_steps", 0) + result[0].shape[0]


def _repair_rows(counters, args, result):
    magnitude = result[1]
    counters["repair_rows"] = counters.get("repair_rows", 0) + magnitude.shape[0]
    counters["repair_clipped"] = counters.get("repair_clipped", 0) + int((magnitude > 0.0).sum())


def _checkpoint_states(counters, args, result):
    counters["checkpoint_states"] = counters.get("checkpoint_states", 0) + result.size


def _csv_bytes(counters, args, result):
    counters["csv_bytes"] = counters.get("csv_bytes", 0) + os.path.getsize(args[0])


# (module, attribute, counter).  Functions imported by name are wrapped in
# the namespace that calls them, so each call site gets its own span name.
BOUNDARIES = (
    ("cli", "load_config", None),
    ("cli", "run_ensemble", None),
    ("ensemble", "_chunk_sums", _chunk_buffer),
    ("ensemble", "wiener_increment", _draws),
    ("ensemble", "_run_em_batch", None),
    ("integrate", "wiener_increment", _draws),
    ("integrate", "_run_em_batch", None),
    ("integrate", "_EulerMaruyamaKernel.__init__", None),
    ("integrate", "_EulerMaruyamaKernel.step", _step_rows),
    ("integrate", "_project_batch", _repair_rows),
    ("integrate", "entropy_of_states", _checkpoint_states),
    ("cli", "build_bound_report", None),
    ("cli", "simulate_trajectory", None),
    ("cli", "_write_csv", _csv_bytes),
)


class Tracer:
    """Spans of one process, kept in memory until ``dump``."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []  # [name index, start, end, parent index or -1]
        self.stack: list[int] = []
        self.counters: dict = {}
        self.absent: list[str] = []

    def open(self, name: str, start: float | None = None) -> list:
        if name not in self.names:
            self.names.append(name)
        span = [self.names.index(name), time.perf_counter() if start is None else start,
                None, self.stack[-1] if self.stack else -1]
        self.spans.append(span)
        self.stack.append(len(self.spans) - 1)
        return span

    def close(self, span: list) -> None:
        span[2] = time.perf_counter()
        self.stack.pop()

    def wrap(self, name: str, fn, counter):
        self.names.append(name)
        nid = len(self.names) - 1
        spans, stack, clock, counters = self.spans, self.stack, time.perf_counter, self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [nid, clock(), None, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(len(spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if counter is not None:
                counter(counters, args, result)
            return result

        return traced

    def install(self, modules: dict) -> None:
        """Wrap every boundary that exists; record the others as absent."""
        for module_name, attr, counter in BOUNDARIES:
            name = f"{module_name}.{attr}"
            owner = modules[module_name]
            *path, leaf = attr.split(".")
            try:
                for part in path:
                    owner = getattr(owner, part)
                fn = getattr(owner, leaf)
            except AttributeError:
                self.absent.append(name)
                continue
            setattr(owner, leaf, self.wrap(name, fn, counter))

    def dump(self, path: str, **extra) -> None:
        doc = {"names": self.names, "spans": self.spans, "counters": self.counters,
               "absent": self.absent, **extra}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def span_totals(doc: dict) -> dict[str, dict]:
    """Calls, total time and self time per span name.

    Self time is a span's duration minus the durations of its children;
    spans of one process nest, so the self times of all spans add up to
    the duration of the root span.
    """
    spans = doc["spans"]
    child_time = [0.0] * len(spans)
    for _nid, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals: dict[str, dict] = {}
    for i, (nid, start, end, _parent) in enumerate(spans):
        entry = totals.setdefault(doc["names"][nid], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += end - start - child_time[i]
    return totals


# Per-layer metric -> (unit, boundaries it needs).  A metric whose boundary
# is absent from the traced program is reported as absent (null), never 0.
LAYER_METRICS = {
    "config.load_s": ("s", ["cli.load_config"]),
    "ensemble.chunks": ("count", ["ensemble._chunk_sums"]),
    "ensemble.chunk_self_s": ("s", ["ensemble._chunk_sums"]),
    "ensemble.run_self_s": ("s", ["cli.run_ensemble"]),
    "ensemble.pool_overhead_s": ("s", []),
    "ensemble.noise_buffer_mb_computed": ("MB", ["ensemble._chunk_sums"]),
    "integrate.wiener_s": ("s", ["ensemble.wiener_increment", "integrate.wiener_increment"]),
    "integrate.wiener_draws": ("count", ["ensemble.wiener_increment", "integrate.wiener_increment"]),
    "integrate.step_self_s": ("s", ["integrate._EulerMaruyamaKernel.step"]),
    "integrate.step_calls": ("count", ["integrate._EulerMaruyamaKernel.step"]),
    "integrate.traj_steps": ("count", ["integrate._EulerMaruyamaKernel.step"]),
    "integrate.rows_per_step_call": ("rows", ["integrate._EulerMaruyamaKernel.step"]),
    "integrate.repair_s": ("s", ["integrate._project_batch"]),
    "integrate.repair_rows": ("count", ["integrate._project_batch"]),
    "integrate.repair_clip_ratio": ("ratio", ["integrate._project_batch"]),
    "integrate.em_batch_self_s": ("s", ["ensemble._run_em_batch", "integrate._run_em_batch"]),
    "integrate.kernel_builds": ("count", ["integrate._EulerMaruyamaKernel.__init__"]),
    "entropy.checkpoint_s": ("s", ["integrate.entropy_of_states"]),
    "entropy.checkpoint_states": ("count", ["integrate.entropy_of_states"]),
    "entropy.bound_report_s": ("s", ["cli.build_bound_report"]),
    "cli.trajectory_resim_s": ("s", ["cli.simulate_trajectory"]),
    "cli.trajectory_resim_calls": ("count", ["cli.simulate_trajectory"]),
    "cli.csv_write_s": ("s", ["cli._write_csv"]),
    "cli.csv_bytes": ("B", ["cli._write_csv"]),
    "trace.wall_s": ("s", []),
    "trace.overhead_s": ("s", []),
}


def layer_metrics(doc: dict, untraced_wall_s: float, traced_wall_s: float,
                  pool_walls: tuple[float, float] | None, workers: int) -> dict[str, float | None]:
    """Every metric of ``LAYER_METRICS`` from one traced run.

    The wall times are of whole processes, untraced and traced, so their
    difference includes writing the spans; ``trace.wall_s`` is the root
    span, which the self times of all spans add up to.  ``pool_walls``
    are untraced ``run_ensemble`` walls on one worker and on ``workers``
    processes, or None where the workload runs no pool (its overhead is
    0); the pool overhead is the second minus a ``workers``-th of the
    first, so it does not depend on the trace.
    """
    totals = span_totals(doc)
    counters = doc["counters"]

    def stat(names, key):
        return sum(totals.get(name, {}).get(key, 0) for name in names)

    step = ["integrate._EulerMaruyamaKernel.step"]
    chunk = ["ensemble._chunk_sums"]
    step_calls = stat(step, "calls")
    repair_rows = counters.get("repair_rows", 0)
    values = {
        "config.load_s": stat(["cli.load_config"], "total_s"),
        "ensemble.chunks": stat(chunk, "calls"),
        "ensemble.chunk_self_s": stat(chunk, "self_s"),
        "ensemble.run_self_s": stat(["cli.run_ensemble"], "self_s"),
        "ensemble.pool_overhead_s": (
            0.0 if pool_walls is None else pool_walls[1] - pool_walls[0] / workers
        ),
        "ensemble.noise_buffer_mb_computed": counters.get("noise_buffer_mb", 0.0),
        "integrate.wiener_s": stat(LAYER_METRICS["integrate.wiener_s"][1], "total_s"),
        "integrate.wiener_draws": counters.get("wiener_draws", 0),
        "integrate.step_self_s": stat(step, "self_s"),
        "integrate.step_calls": step_calls,
        "integrate.traj_steps": counters.get("traj_steps", 0),
        "integrate.rows_per_step_call": (
            counters.get("traj_steps", 0) / step_calls if step_calls else 0.0
        ),
        "integrate.repair_s": stat(["integrate._project_batch"], "total_s"),
        "integrate.repair_rows": repair_rows,
        "integrate.repair_clip_ratio": (
            counters.get("repair_clipped", 0) / repair_rows if repair_rows else 0.0
        ),
        "integrate.em_batch_self_s": stat(LAYER_METRICS["integrate.em_batch_self_s"][1], "self_s"),
        "integrate.kernel_builds": stat(["integrate._EulerMaruyamaKernel.__init__"], "calls"),
        "entropy.checkpoint_s": stat(["integrate.entropy_of_states"], "total_s"),
        "entropy.checkpoint_states": counters.get("checkpoint_states", 0),
        "entropy.bound_report_s": stat(["cli.build_bound_report"], "total_s"),
        "cli.trajectory_resim_s": stat(["cli.simulate_trajectory"], "total_s"),
        "cli.trajectory_resim_calls": stat(["cli.simulate_trajectory"], "calls"),
        "cli.csv_write_s": stat(["cli._write_csv"], "total_s"),
        "cli.csv_bytes": counters.get("csv_bytes", 0),
        "trace.wall_s": _root_duration(doc),
        "trace.overhead_s": traced_wall_s - untraced_wall_s,
    }
    absent = set(doc["absent"])
    return {
        name: None if absent.intersection(LAYER_METRICS[name][1]) else values[name]
        for name in LAYER_METRICS
    }


def _root_duration(doc: dict) -> float:
    _nid, start, end, _parent = next(s for s in doc["spans"] if s[3] == -1)
    return end - start


def self_time_gap(doc: dict) -> float:
    """|sum of all self times - root span duration|; 0 up to rounding."""
    totals = span_totals(doc)
    return abs(sum(t["self_s"] for t in totals.values()) - _root_duration(doc))


def _traced_run(spans_path: str, cli_args: list[str], start: float) -> int:
    tracer = Tracer()
    root = tracer.open(ROOT_SPAN, start)
    from entroflux import cli, ensemble, integrate

    tracer.install({"cli": cli, "ensemble": ensemble, "integrate": integrate})
    main = tracer.open(MAIN_SPAN)
    try:
        code = cli.main(cli_args)
    finally:
        tracer.close(main)
        tracer.close(root)
    tracer.dump(spans_path, exit_code=code)
    return code


def _pool_wall(config_path: str, seed: int, workers: int) -> int:
    from dataclasses import replace

    from entroflux.config import load_config
    from entroflux.ensemble import run_ensemble

    cfg = load_config(config_path)
    walls = []
    for count in (1, workers):
        ens = replace(cfg.ensemble, master_seed=seed, worker_count=count)
        start = time.perf_counter()
        run_ensemble(cfg.model, cfg.initial_state, ens)
        walls.append(time.perf_counter() - start)
    print(json.dumps({"run_ensemble_walls_s": walls}))
    return 0


if __name__ == "__main__":
    _START = time.perf_counter()
    if sys.argv[1:2] == ["run"] and sys.argv[3:4] == ["--"]:
        sys.exit(_traced_run(sys.argv[2], sys.argv[4:], _START))
    if sys.argv[1:2] == ["pool-wall"] and len(sys.argv) == 5:
        sys.exit(_pool_wall(sys.argv[2], int(sys.argv[3]), int(sys.argv[4])))
    print(__doc__, file=sys.stderr)
    sys.exit(2)
