"""Command-line front end.

Subcommands: ``simulate`` (ensemble statistics CSV), ``verify-bound``
(entropy-rate bound report CSV), ``sweep-alpha`` (threshold sweep CSV)
and ``selftest`` (property battery).  Exit codes: 0 success, 2 config
error, 3 integration failure or a lost worker, 4 bound violation, 5
selftest failure.

All numeric CSV cells use 17 significant digits with '.' as the decimal
separator; flag columns are 0/1.  Outputs are deterministic functions of
the config file and master seed.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from functools import partial

import numpy as np

from .config import ConfigError, RunConfig, load_config
from .ensemble import WorkerError, run_ensemble
from .entropy import (
    bound_certifies,
    bound_inputs,
    build_bound_report,
    check_bound_checkpoints,
    entropy_rate_bound,
)
from .integrate import IntegrationError
from .integrate import simulate_trajectory  # noqa: F401  bench/tracer.py counts calls made here
from .linalg import ValidationError, validate_densities
from .qubit import (
    QubitScenario,
    bloch_components,
    bloch_to_density,
    density_to_bloch,
    qubit_model,
    unconditional_bloch,
    z_threshold,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INTEGRATION = 3
EXIT_VIOLATION = 4
EXIT_SELFTEST = 5

WORKERS_ENV = "ENTROFLUX_WORKERS"


def _write_csv(path: str, header: list[str], rows) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(",".join(header) + "\n")
            # '%.17g' % x is format(x, '.17g') for every float, -0, inf and nan too
            line = ",".join(["%.17g"] * len(header)) + "\n"
            for row in rows:
                fh.write(line % tuple(row))
    except OSError as err:
        raise ConfigError(f"cannot write {path}: {err.strerror}") from None


def _state_columns(dim: int) -> list[str]:
    if dim == 2:
        return ["x", "y", "z"]
    return [f"rho_{i}_{j}_{part}" for i in range(dim) for j in range(dim) for part in ("re", "im")]


def _cells(times, states, *values) -> np.ndarray:
    """CSV cells as one float array: t, the state columns, then ``values``.

    ``states`` holds a (d, d) state per cell of ``values``, whose first axis
    follows ``times``.  A qubit state is checked (``validate_densities``) and
    becomes Bloch (x, y, z); otherwise each entry becomes its (re, im) pair.
    """
    if states.shape[-1] == 2:
        validate_densities(states)
        state = bloch_components(states)
    else:
        state = np.stack([states.real, states.imag], axis=-1).reshape(*states.shape[:-2], -1)
    t = np.broadcast_to(np.reshape(times, (-1,) + (1,) * (state.ndim - 2)), state.shape[:-1])
    return np.concatenate([t[..., None], state] + [v[..., None] for v in values], axis=-1)


def _default_workers() -> int:
    raw = os.environ.get(WORKERS_ENV)
    if raw is None:
        return 1
    try:
        value = int(raw)
    except ValueError:
        raise ConfigError(f"{WORKERS_ENV} must be an integer, got {raw!r}") from None
    if value < 1:
        raise ConfigError(f"{WORKERS_ENV} must be >= 1, got {value}")
    return value


def _load(args) -> RunConfig:
    runs = hasattr(args, "workers")  # sweep-alpha runs no ensemble: no seed, no worker count
    # --workers and the config's worker_count override WORKERS_ENV, so a run
    # given either does not read the variable
    reads_env = runs and args.workers is None
    cfg = load_config(args.config, default_workers=_default_workers if reads_env else 1)
    ensemble = cfg.ensemble
    if runs and args.seed is not None:
        ensemble = replace(ensemble, master_seed=args.seed)
    if runs and args.workers is not None:
        ensemble = replace(ensemble, worker_count=args.workers)
    out = args.out if args.out is not None else cfg.output_path
    return replace(cfg, ensemble=ensemble, output_path=out)


def _make_outdir(path: str) -> None:
    """Create the output directory; a path that cannot be one is a config error."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as err:
        raise ConfigError(f"cannot create output directory {path}: {err.strerror}") from None


def _write_ensemble_csv(cfg: RunConfig, stats) -> str:
    header = ["t"] + _state_columns(cfg.model.dim) + ["S_mean", "S_se", "quantumness_mean"]
    cells = _cells(stats.times, stats.mean_state, stats.mean_entropy, stats.entropy_se,
                   stats.quantumness_mean)
    path = os.path.join(cfg.output_path, "ensemble.csv")
    _write_csv(path, header, cells.tolist())
    return path


def _write_trajectory_csvs(cfg: RunConfig, start: int, times, *rows) -> None:
    """Trajectory sink of ``run_ensemble``: one CSV per row of a chunk, ``rows`` in column order."""
    header = ["t"] + _state_columns(cfg.model.dim) + ["S", "dW", "repair", "y"]
    try:
        cells = _cells(times, *rows)
    except ValidationError as err:
        k, b = err.index
        raise IntegrationError(f"trajectory {start + b} at t = {times[k]:.17g}: {err}") from None
    for b in range(cells.shape[1]):
        _write_csv(os.path.join(cfg.output_path, f"trajectory_{start + b:05d}.csv"), header,
                   cells[:, b].tolist())


def _write_bound_csv(cfg: RunConfig, report) -> str:
    header = ["t", "lhs_rate", "lhs_se", "rhs_bound", "sufficient", "violation"]
    cells = np.column_stack([report.times, report.lhs_rate, report.lhs_se, report.rhs_bound,
                             report.sufficient_flag, report.violation_flag])
    path = os.path.join(cfg.output_path, "bound_report.csv")
    _write_csv(path, header, cells.tolist())
    return path


def cmd_run(args, verify: bool = False) -> int:
    """``simulate``, or ``verify-bound`` if ``verify``: run the ensemble and write its outputs.

    ``simulate`` writes what the config's ``emit`` names; ``verify-bound``
    writes the bound report alone and exits EXIT_VIOLATION on a violation.
    """
    cfg = _load(args)
    emit = ("bound_report",) if verify else cfg.emit
    if "bound_report" in emit:  # a report that would fail stops the run before it simulates
        bound_inputs(cfg.model.probe, cfg.initial_state)
        check_bound_checkpoints(len(cfg.ensemble.integrator.checkpoint_times))
    _make_outdir(cfg.output_path)
    sink = partial(_write_trajectory_csvs, cfg) if "trajectories" in emit else None
    stats = run_ensemble(cfg.model, cfg.initial_state, cfg.ensemble, trajectory_sink=sink)
    if "ensemble" in emit:
        print(_write_ensemble_csv(cfg, stats))
    if "bound_report" in emit:
        report = build_bound_report(cfg.model, stats)
        print(_write_bound_csv(cfg, report))
        if verify and report.has_violation:
            print(f"bound violated at {int(np.sum(report.violation_flag))} of "
                  f"{len(report.times)} checkpoints", file=sys.stderr)
            return EXIT_VIOLATION
    return EXIT_OK


def cmd_sweep_alpha(args) -> int:
    cfg = _load(args)
    if cfg.scenario is None:
        raise ConfigError("sweep-alpha requires a qubit scenario config")
    if cfg.alphas is None:
        raise ConfigError("sweep-alpha requires sweep.alphas in the config")
    if cfg.scenario.control.kind != "zero":
        raise ConfigError(
            "sweep-alpha evaluates the mean path in closed form for zero control "
            f"only; scenario.control has kind {cfg.scenario.control.kind!r}"
        )
    _make_outdir(cfg.output_path)
    b0 = density_to_bloch(cfg.initial_state)
    times = cfg.ensemble.integrator.checkpoint_times.tolist()
    rows = []
    for alpha in cfg.alphas:
        # The mean-state path is evaluated in closed form (zero control):
        # explicit integration would go stiff at large decoherence ratios.
        scenario = QubitScenario(kappa=cfg.scenario.kappa, alpha=alpha)
        states = np.array([bloch_to_density(unconditional_bloch(scenario, b0, t)) for t in times])
        bounds = entropy_rate_bound(qubit_model(scenario), states)
        hits = np.flatnonzero(bound_certifies(bounds))
        first = float(times[hits[0]]) if hits.size else -1.0
        rows.append([alpha, z_threshold(alpha), float(bounds.min()), first])
    path = os.path.join(cfg.output_path, "sweep.csv")
    _write_csv(path, ["alpha", "z_threshold", "min_rhs_bound", "first_sufficient_time"], rows)
    print(path)
    return EXIT_OK


def cmd_selftest(args) -> int:
    # imported here, so that no other command compiles the battery
    from .selftest import run_selftest

    return EXIT_OK if run_selftest() else EXIT_SELFTEST


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entroflux",
        description="Conditioned quantum dynamics simulator with entropy-rate "
        "bound verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, text in (("simulate", "run a trajectory ensemble"),
                       ("verify-bound", "check the entropy-rate bound"),
                       ("sweep-alpha", "threshold sweep over decoherence ratios")):
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", required=True, help="path to a JSON run config")
        if name != "sweep-alpha":
            p.add_argument("--seed", type=int, default=None, help="override master seed")
            p.add_argument("--workers", type=int, default=None, help="override worker count")
        p.add_argument("--out", default=None, help="override output directory")
    sub.add_parser("selftest", help="run the built-in property suites")
    return parser


COMMANDS = {
    "simulate": cmd_run,
    "verify-bound": partial(cmd_run, verify=True),
    "sweep-alpha": cmd_sweep_alpha,
    "selftest": cmd_selftest,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except (ConfigError, ValidationError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except IntegrationError as err:
        print(f"integration error: {err}", file=sys.stderr)
        return EXIT_INTEGRATION
    except WorkerError as err:
        print(f"worker error: {err}", file=sys.stderr)
        return EXIT_INTEGRATION


if __name__ == "__main__":
    sys.exit(main())
