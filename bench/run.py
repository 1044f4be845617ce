"""Benchmark of the entroflux command line, one workload per run.

    python3 bench/run.py --workload qubit_readme --seed 42 --seconds 40 --trace 0

Each CLI run is a child process started from this one benchmark process,
one at a time (a closed loop with one client).  Children run the package
from ``src/`` of the checkout, with BLAS and OpenMP pools pinned to one
thread; the CLI's own ``--workers`` is at most the number of cores this
process may use.  Outputs go under ``.bench_work/`` and are removed at
the end.

With ``--trace 0`` the run measures the end-to-end metrics, with tracing
off.  A fixed calibration child (``bench/calibrate.py``) runs before
each CLI invocation and after the last, and every time is multiplied by
(``CALIBRATION_S`` / mean calibration wall) ** ``CALIBRATION_EXPONENT``,
so that most of the drift of a shared machine's speed over minutes
cancels.  Wall and CPU time are means over the run's invocations, set-up wall and
peak memory medians.  With ``--trace 1`` it measures the per-layer
metrics: untraced 1-worker runs give the baseline, then one traced
1-worker run in a child (``bench/tracer.py``) records spans at the
package's call boundaries.

Every run's outputs are checked (``bench/outputs.py``) against the
1-worker reference stored in ``bench/reference.json`` for the seed.  A
seed with no stored reference is checked against a 1-worker run of the
same seed, made untimed before the ``--seconds`` of timed runs; on a
1-worker workload the first timed run serves.  Every check that fails
is printed and makes the result's ``correct`` false; the metrics are
reported all the same.  The last line of standard
output is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

import outputs
import tracer
from workloads import WORKLOADS, nproc

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
REFERENCE = os.path.join(HERE, "reference.json")

# What the installed ``entroflux`` console script runs.
CLI_CODE = "import sys; from entroflux.cli import main; sys.exit(main())"
# What every run pays before its first step.
SETUP_CODE = (
    "import sys, entroflux.cli; from entroflux.config import load_config; "
    "load_config(sys.argv[1])"
)
# Set-up children before each timed CLI run, so that set-up is sampled
# across the whole run, as the CLI is.
SETUPS_EACH = 2
CALIBRATION = os.path.join(HERE, "calibrate.py")
# Wall of one calibration child at the speed every time metric is
# expressed at; about its median on the 2-core machine the benchmark
# was built on.
CALIBRATION_S = 2.0
# The calibration is a control variate: the program's times follow the
# machine's drift only in part (the fitted slope of log run wall on log
# calibration wall ranged 0.13-1.06 over seven series of runs), and the
# calibration has fast noise of its own.  0.75 gave the smallest run-to-run
# spread and median shift across those series (bench/README.md).
CALIBRATION_EXPONENT = 0.75
# A run must end within 180 s; children are killed past this.
RUN_DEADLINE_S = 170.0

END_TO_END_UNITS = {
    "wall_s": "s",
    "traj_steps_per_s": "1/s",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("ENTROFLUX_WORKERS", None)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONPATH=SRC)
    return env


class Child:
    """Resource use of one finished child process and its descendants."""

    def __init__(self, argv: list[str], log_path: str, deadline: float):
        env = child_env()
        with open(log_path, "wb") as log:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=log,
                                    stderr=subprocess.STDOUT, start_new_session=True)
            timer = threading.Timer(max(deadline - time.monotonic(), 0.0), _kill_group, (proc.pid,))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
                _kill_group(proc.pid)  # descendants left behind by a crash
            self.wall_s = time.perf_counter() - start
        proc.returncode = self.exit_code = os.waitstatus_to_exitcode(status)
        # wait4 reports the child together with the descendants it waited for
        self.cpu_s = usage.ru_utime + usage.ru_stime
        self.peak_rss_mb = usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux
        with open(log_path, "r", encoding="utf-8", errors="replace") as log:
            self.log = log.read()


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def environment(seed: int) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "seed": seed,
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "machine": platform.machine(),
    }


def stored_reference(workload: str, seed: int) -> dict | None:
    try:
        with open(REFERENCE, "r", encoding="utf-8") as fh:
            return json.load(fh).get(workload, {}).get(str(seed))
    except FileNotFoundError:
        return None


class Run:
    """One benchmark run: a workload, a seed and a private work directory."""

    def __init__(self, workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.deadline = time.monotonic() + RUN_DEADLINE_S
        self.dir = os.path.join(WORK, f"{workload.name}-{seed}-{os.getpid()}")
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        self.config = os.path.join(self.dir, "config.json")
        with open(self.config, "w", encoding="utf-8") as fh:
            json.dump(workload.config(seed), fh, indent=1)
        self.reference = stored_reference(workload.name, seed)
        self.problems: list[str] = []
        self.count = 0

    def child(self, argv: list[str]) -> Child:
        self.count += 1
        return Child(argv, os.path.join(self.dir, f"log-{self.count}.txt"), self.deadline)

    def cli(self, workers: int | None = None, traced_spans: str | None = None):
        """Run the CLI once; return the child and the problems with its output."""
        out = os.path.join(self.dir, "out")
        shutil.rmtree(out, ignore_errors=True)
        args = self.workload.cli_args(self.config, self.seed, out, workers)
        if traced_spans is None:
            argv = [sys.executable, "-c", CLI_CODE, *args]
        else:
            argv = [sys.executable, os.path.join(HERE, "tracer.py"), "run", traced_spans, "--", *args]
        child = self.child(argv)
        if child.exit_code != 0:
            return child, [f"exit code {child.exit_code}: {child.log.strip()[-300:]}"]
        expected = self.workload.expected_files()
        problems = outputs.check_outputs(out, expected, self.reference)
        if self.reference is None:
            # this run is the reference: checked for the fixed properties only
            self.reference = outputs.reference_digests(out, expected)
        return child, problems

    def make_reference(self) -> None:
        """Without a stored reference, make one from an untimed 1-worker run."""
        if self.reference is None and self.workload.worker_count() != 1:
            _, problems = self.cli(workers=1)
            self.problems += [f"1-worker reference: {p}" for p in problems]

    def setup_walls(self, n: int) -> list[float]:
        """Walls of ``n`` set-up children."""
        walls = []
        for _ in range(n):
            child = self.child([sys.executable, "-c", SETUP_CODE, self.config])
            if child.exit_code != 0:
                self.problems.append(f"set-up exit code {child.exit_code}: {child.log.strip()[-300:]}")
            walls.append(child.wall_s)
        return walls

    def calibration_wall(self) -> float:
        child = self.child([sys.executable, CALIBRATION])
        if child.exit_code != 0:
            self.problems.append(f"calibration exit code {child.exit_code}: {child.log.strip()[-300:]}")
        return child.wall_s

    def timed(self, seconds: float, workers: int | None = None,
              calibrated: bool = False) -> tuple[list[dict], int, list[float]]:
        """Rounds of CLI runs for ``seconds``; returns the rounds, the failures
        and the calibration walls.

        A round starts only while half the median round so far still fits,
        so that a run lasts about ``seconds`` on average; the first always
        runs.  A calibrated round is a calibration child, ``SETUPS_EACH``
        set-up children and one CLI run, and one more calibration child
        ends the loop; otherwise a round is one CLI run.
        """
        rounds, failed, lengths, calibrations = [], 0, [], []
        start = time.monotonic()
        while not rounds or time.monotonic() - start + statistics.median(lengths) / 2 <= seconds:
            round_start = time.monotonic()
            if calibrated:
                calibrations.append(self.calibration_wall())
            setups = self.setup_walls(SETUPS_EACH if calibrated else 0)
            child, problems = self.cli(workers)
            rounds.append({"child": child, "setups": setups})
            lengths.append(time.monotonic() - round_start)
            if problems:
                failed += 1
                self.problems += problems
        if calibrated:
            calibrations.append(self.calibration_wall())
        return rounds, failed, calibrations

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


def end_to_end(run: Run, seconds: float) -> tuple[dict, int, int]:
    run.make_reference()
    rounds, failed, calibrations = run.timed(seconds, calibrated=True)
    # The machine's speed drifts over minutes; the calibration children,
    # spread over the run, measure it.  Wall and CPU are means over the
    # run's invocations, which spread least from run to run.
    scale = (CALIBRATION_S / statistics.fmean(calibrations)) ** CALIBRATION_EXPONENT
    steps = run.workload.n_trajectories * run.workload.n_steps
    wall = statistics.fmean(r["child"].wall_s for r in rounds) * scale
    values = {
        "wall_s": wall,
        "traj_steps_per_s": steps / wall,
        "setup_s": statistics.median(w for r in rounds for w in r["setups"]) * scale,
        "cpu_s": statistics.fmean(r["child"].cpu_s for r in rounds) * scale,
        "peak_rss_mb": statistics.median(r["child"].peak_rss_mb for r in rounds),
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}
    walls = ", ".join(f"{r['child'].wall_s:.3f}" for r in rounds)
    cals = ", ".join(f"{c:.3f}" for c in calibrations)
    print(f"timed runs: {len(rounds)}; walls: {walls} s; calibration walls: {cals} s; scale {scale:.4f}")
    print(f"failed_fraction {failed / len(rounds)}")
    return metrics, len(rounds), failed


def per_layer(run: Run, seconds: float) -> tuple[dict, int, int]:
    rounds, failed, _ = run.timed(seconds, workers=1)
    runs = [r["child"] for r in rounds]
    untraced = statistics.median(c.wall_s for c in runs)
    spans_path = os.path.join(run.dir, "spans.json")
    child, problems = run.cli(workers=1, traced_spans=spans_path)
    attempted = len(runs) + 1
    if problems:
        failed += 1
        run.problems += [f"traced run: {p}" for p in problems]
    if not os.path.isfile(spans_path):  # the traced run wrote no spans
        metrics = {name: {"value": None, "unit": unit}
                   for name, (unit, _) in tracer.LAYER_METRICS.items()}
        return metrics, attempted, failed
    with open(spans_path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    gap = tracer.self_time_gap(doc)
    if gap > 1e-6:
        run.problems.append(f"self times miss the traced wall by {gap:.3g} s")

    workers = run.workload.worker_count()
    pool_walls = None
    if workers > 1:
        pool = run.child([sys.executable, os.path.join(HERE, "tracer.py"), "pool-wall",
                          run.config, str(run.seed), str(workers)])
        if pool.exit_code == 0:
            pool_walls = json.loads(pool.log.strip().splitlines()[-1])["run_ensemble_walls_s"]
        else:
            run.problems.append(f"pool-wall exit code {pool.exit_code}: {pool.log.strip()[-300:]}")

    values = tracer.layer_metrics(doc, untraced, child.wall_s, pool_walls, workers)
    if workers > 1 and pool_walls is None:
        values["ensemble.pool_overhead_s"] = None
    totals = tracer.span_totals(doc)
    print(f"untraced 1-worker walls: {', '.join(f'{c.wall_s:.3f}' for c in runs)} s; "
          f"traced {child.wall_s:.3f} s")
    for name, t in sorted(totals.items(), key=lambda kv: -kv[1]["self_s"]):
        print(f"span {name}: calls {t['calls']}, total {t['total_s']:.4f} s, self {t['self_s']:.4f} s")
    for name in doc["absent"]:
        print(f"absent boundary: {name}")
    metrics = {
        name: {"value": values[name], "unit": unit}
        for name, (unit, _) in tracer.LAYER_METRICS.items()
    }
    return metrics, attempted, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "entroflux", "cli.py")):
        print(f"no entroflux sources under {SRC}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    print("environment " + json.dumps(environment(args.seed)))
    run = Run(workload, args.seed)
    try:
        measure = per_layer if args.trace else end_to_end
        metrics, attempted, failed = measure(run, args.seconds)
    finally:
        run.close()
    for problem in run.problems:
        print(f"problem: {problem}")
    for name, m in metrics.items():
        print(f"{name} {m['value']} {m['unit']}")
    result = {"correct": not run.problems, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
