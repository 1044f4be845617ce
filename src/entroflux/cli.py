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
from .ensemble import TRAJECTORY_ROWS, WorkerError, run_ensemble
from .entropy import BOUND_SIGN_TOL, build_bound_report, entropy_rate_bound
from .integrate import IntegrationError
from .integrate import simulate_trajectory  # noqa: F401  bench/tracer.py counts calls made here
from .linalg import ValidationError
from .qubit import (
    QubitScenario,
    bloch_to_density,
    density_to_bloch,
    qubit_model,
    unconditional_bloch,
    z_threshold,
)
from .selftest import run_selftest

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INTEGRATION = 3
EXIT_VIOLATION = 4
EXIT_SELFTEST = 5

WORKERS_ENV = "ENTROFLUX_WORKERS"
# Internal hook: when set, the selftest validation suite is fed a state
# scaled to trace 1.1 and must fail.
SELFTEST_CORRUPT_ENV = "_ENTROFLUX_SELFTEST_CORRUPT"


def _fmt(x) -> str:
    return format(float(x), ".17g")


def _flag(b) -> str:
    return "1" if b else "0"


def _write_csv(path: str, header: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def _state_columns(dim: int) -> list[str]:
    if dim == 2:
        return ["x", "y", "z"]
    cols = []
    for i in range(dim):
        for j in range(dim):
            cols += [f"rho_{i}_{j}_re", f"rho_{i}_{j}_im"]
    return cols


def _state_cells(rho: np.ndarray) -> list[str]:
    if rho.shape[0] == 2:
        b = density_to_bloch(rho)
        return [_fmt(b.x), _fmt(b.y), _fmt(b.z)]
    cells = []
    for i in range(rho.shape[0]):
        for j in range(rho.shape[1]):
            cells += [_fmt(rho[i, j].real), _fmt(rho[i, j].imag)]
    return cells


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
    cfg = load_config(args.config, default_workers=_default_workers())
    ensemble = cfg.ensemble
    if args.seed is not None:
        ensemble = replace(ensemble, master_seed=args.seed)
    if args.workers is not None:
        if args.workers < 1:
            raise ConfigError("--workers must be >= 1")
        ensemble = replace(ensemble, worker_count=args.workers)
    out = args.out if args.out is not None else cfg.output_path
    return replace(cfg, ensemble=ensemble, output_path=out)


def _ensure_outdir(path: str) -> None:
    os.makedirs(path, exist_ok=True)


def _row(t, rho: np.ndarray, *values) -> list[str]:
    return [_fmt(t)] + _state_cells(rho) + [_fmt(v) for v in values]


def _write_ensemble_csv(cfg: RunConfig, stats) -> str:
    header = ["t"] + _state_columns(cfg.model.dim) + ["S_mean", "S_se", "quantumness_mean"]
    rows = [
        _row(t, stats.mean_state[k], stats.mean_entropy[k], stats.entropy_se[k],
             stats.quantumness_mean[k])
        for k, t in enumerate(stats.times)
    ]
    path = os.path.join(cfg.output_path, "ensemble.csv")
    _write_csv(path, header, rows)
    return path


def _write_trajectory_csvs(cfg: RunConfig, start: int, times, rows: dict) -> None:
    """Trajectory sink of ``run_ensemble``: one CSV per row of a chunk."""
    header = ["t"] + _state_columns(cfg.model.dim) + ["S", "dW", "repair", "y"]
    for b in range(rows["states"].shape[1]):
        lines = [_row(t, *(rows[key][k, b] for key in TRAJECTORY_ROWS))
                 for k, t in enumerate(times)]
        _write_csv(
            os.path.join(cfg.output_path, f"trajectory_{start + b:05d}.csv"), header, lines
        )


def _write_bound_csv(cfg: RunConfig, report) -> str:
    header = ["t", "lhs_rate", "lhs_se", "rhs_bound", "sufficient", "violation"]
    rows = [
        [
            _fmt(report.times[k]),
            _fmt(report.lhs_rate[k]),
            _fmt(report.lhs_se[k]),
            _fmt(report.rhs_bound[k]),
            _flag(report.sufficient_flag[k]),
            _flag(report.violation_flag[k]),
        ]
        for k in range(len(report.times))
    ]
    path = os.path.join(cfg.output_path, "bound_report.csv")
    _write_csv(path, header, rows)
    return path


def cmd_simulate(args) -> int:
    cfg = _load(args)
    _ensure_outdir(cfg.output_path)
    sink = partial(_write_trajectory_csvs, cfg) if "trajectories" in cfg.emit else None
    stats = run_ensemble(cfg.model, cfg.initial_state, cfg.ensemble, trajectory_sink=sink)
    if "ensemble" in cfg.emit:
        print(_write_ensemble_csv(cfg, stats))
    if "bound_report" in cfg.emit:
        report = build_bound_report(cfg.model, stats)
        print(_write_bound_csv(cfg, report))
    return EXIT_OK


def cmd_verify_bound(args) -> int:
    cfg = _load(args)
    if not cfg.model.probe_is_hermitian():
        raise ConfigError(
            "verify-bound requires a Hermitian probe: the rate bound is only "
            "valid for self-adjoint measured couplings"
        )
    _ensure_outdir(cfg.output_path)
    stats = run_ensemble(cfg.model, cfg.initial_state, cfg.ensemble)
    report = build_bound_report(cfg.model, stats)
    print(_write_bound_csv(cfg, report))
    if report.has_violation:
        print(
            f"bound violated at {int(np.sum(report.violation_flag))} of "
            f"{len(report.times)} checkpoints", file=sys.stderr,
        )
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
    _ensure_outdir(cfg.output_path)
    integ = cfg.ensemble.integrator
    b0 = density_to_bloch(cfg.initial_state)
    times = [
        k * integ.record_stride * integ.dt
        for k in range(integ.n_steps // integ.record_stride + 1)
    ]
    rows = []
    for alpha in cfg.alphas:
        # The mean-state path is evaluated in closed form (zero control):
        # explicit integration would go stiff at large decoherence ratios.
        scenario = QubitScenario(kappa=cfg.scenario.kappa, alpha=alpha)
        model = qubit_model(scenario)
        bounds = np.array(
            [
                entropy_rate_bound(
                    model, bloch_to_density(unconditional_bloch(scenario, b0, t))
                )
                for t in times
            ]
        )
        first = -1.0
        hits = np.flatnonzero(bounds >= -BOUND_SIGN_TOL)
        if hits.size:
            first = float(times[hits[0]])
        rows.append(
            [_fmt(alpha), _fmt(z_threshold(alpha)), _fmt(bounds.min()), _fmt(first)]
        )
    path = os.path.join(cfg.output_path, "sweep.csv")
    _write_csv(path, ["alpha", "z_threshold", "min_rhs_bound", "first_sufficient_time"], rows)
    print(path)
    return EXIT_OK


def cmd_selftest(args) -> int:
    hook = None
    if os.environ.get(SELFTEST_CORRUPT_ENV):
        hook = lambda rho: rho * 1.1  # noqa: E731
    ok = run_selftest(state_hook=hook)
    return EXIT_OK if ok else EXIT_SELFTEST


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entroflux",
        description="Conditioned quantum dynamics simulator with entropy-rate "
        "bound verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", required=True, help="path to a JSON run config")
        p.add_argument("--seed", type=int, default=None, help="override master seed")
        p.add_argument("--workers", type=int, default=None, help="override worker count")
        p.add_argument("--out", default=None, help="override output directory")

    add_common(sub.add_parser("simulate", help="run a trajectory ensemble"))
    add_common(sub.add_parser("verify-bound", help="check the entropy-rate bound"))
    add_common(sub.add_parser("sweep-alpha", help="threshold sweep over decoherence ratios"))
    sub.add_parser("selftest", help="run the built-in property suites")
    return parser


COMMANDS = {
    "simulate": cmd_simulate,
    "verify-bound": cmd_verify_bound,
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
