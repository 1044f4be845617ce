"""The benchmark's workloads: one entroflux CLI run each, built from a seed.

Every input is a function of the workload name and the seed alone; the
seed is written into the config as ``master_seed`` and also passed to the
CLI as ``--seed``.  Matrix entries are computed from closed forms with
correctly rounded float arithmetic, so the generated config files are
byte-identical on every machine.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

NPROC = "nproc"


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # CLI subcommand
    workers: object  # an int, or NPROC for every core the process may use, up to n_chunks
    n_trajectories: int
    dt: float
    t_final: float
    record_stride: int
    scenario: str  # "qubit" or "spin32"
    emit: tuple[str, ...] = ("ensemble", "bound_report")

    @property
    def n_steps(self) -> int:
        return max(1, int(round(self.t_final / self.dt)))

    @property
    def n_chunks(self) -> int:
        # entroflux.ensemble.CHUNK_SIZE trajectories per work unit
        return -(-self.n_trajectories // 256)

    def worker_count(self) -> int:
        # run_ensemble starts no pool for a single chunk, so more workers do nothing
        return min(nproc(), self.n_chunks) if self.workers == NPROC else int(self.workers)

    def expected_files(self) -> list[str]:
        """Output files one run must leave in its output directory."""
        if self.command == "verify-bound":
            return ["bound_report.csv"]
        files = ["ensemble.csv"] if "ensemble" in self.emit else []
        if "trajectories" in self.emit:
            files += [f"trajectory_{i:05d}.csv" for i in range(self.n_trajectories)]
        return files

    def config(self, seed: int) -> dict:
        """The run config for ``seed``, as accepted by entroflux.config."""
        scenario, initial = (
            (QUBIT_SCENARIO, QUBIT_INITIAL) if self.scenario == "qubit"
            else spin32_model()
        )
        return {
            "scenario": scenario,
            "initial_state": initial,
            "ensemble": {
                "n_trajectories": self.n_trajectories,
                "master_seed": seed,
                "worker_count": 1,
                "integrator": {
                    "dt": self.dt,
                    "t_final": self.t_final,
                    "floor": 1e-12,
                    "repair_tolerance": 0.1,
                    "record_stride": self.record_stride,
                },
            },
            "output_path": "out",
            "emit": list(self.emit),
        }

    def cli_args(self, config_path: str, seed: int, out_dir: str,
                 workers: int | None = None) -> list[str]:
        """Arguments of the ``entroflux`` command for one run."""
        return [
            self.command, "--config", config_path, "--seed", str(seed),
            "--workers", str(self.worker_count() if workers is None else workers),
            "--out", out_dir,
        ]


def nproc() -> int:
    return len(os.sched_getaffinity(0))


# The README's stabilization scenario: H = sigma_y, L = sigma_z, M = sqrt(6)
# sigma_minus, starting on the Bloch x axis.
QUBIT_SCENARIO = {"kind": "qubit", "kappa": 1.0, "alpha": 6.0, "control": {"kind": "zero"}}
QUBIT_INITIAL = {"bloch": [1.0, 0.0, 0.0]}


def _pairs(matrix) -> list:
    return [[[z.real, z.imag] for z in row] for row in matrix]


def spin32_operators() -> dict:
    """Spin-3/2 J_z, J_+, J_-, J_y in the basis m = 3/2, 1/2, -1/2, -3/2."""
    r3 = math.sqrt(3.0)
    jz = [[complex(1.5 - i) if i == j else 0j for j in range(4)] for i in range(4)]
    jp = [[0j] * 4 for _ in range(4)]
    jp[0][1], jp[1][2], jp[2][3] = complex(r3), 2 + 0j, complex(r3)
    jm = [[jp[j][i] for j in range(4)] for i in range(4)]
    jy = [[(jp[i][j] - jm[i][j]) / 2j for j in range(4)] for i in range(4)]
    return {"jz": jz, "jp": jp, "jm": jm, "jy": jy}


def spin32_initial_state() -> list:
    """0.9 |+x><+x| + 0.1 I/4, with |+x> = (1, sqrt3, sqrt3, 1)/sqrt8.

    Entries of the projector are sqrt(a_i a_j)/8 for a = (1, 3, 3, 1), so
    the diagonal products are exact.
    """
    a = (1, 3, 3, 1)
    return [
        [complex(0.9 * math.sqrt(a[i] * a[j]) / 8.0 + (0.025 if i == j else 0.0))
         for j in range(4)]
        for i in range(4)
    ]


def spin32_model() -> tuple[dict, dict]:
    """H = J_y, L = sqrt(0.5) J_z, M = sqrt(1.0) J_-, constant control 0.5."""
    ops = spin32_operators()
    g_probe, g_decoherence = math.sqrt(0.5), math.sqrt(1.0)
    scenario = {
        "kind": "explicit",
        "dim": 4,
        "hamiltonian": _pairs(ops["jy"]),
        "probe": _pairs([[g_probe * z for z in row] for row in ops["jz"]]),
        "decoherence": _pairs([[g_decoherence * z for z in row] for row in ops["jm"]]),
        "control": {"kind": "constant", "value": 0.5},
    }
    return scenario, {"matrix": _pairs(spin32_initial_state())}


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="qubit_readme",
            command="verify-bound", workers=NPROC, n_trajectories=5000,
            dt=1e-3, t_final=3.0, record_stride=30, scenario="qubit",
        ),
        Workload(
            name="explicit_d4",
            command="verify-bound", workers=1, n_trajectories=512,
            dt=1e-3, t_final=1.0, record_stride=20, scenario="spin32",
        ),
        Workload(
            name="qubit_long_horizon",
            command="verify-bound", workers=1, n_trajectories=256,
            dt=1e-3, t_final=40.0, record_stride=400, scenario="qubit",
        ),
        Workload(
            name="qubit_trajectory_csv",
            command="simulate", workers=NPROC, n_trajectories=32,
            dt=1e-3, t_final=3.0, record_stride=30, scenario="qubit",
            emit=("ensemble", "trajectories"),
        ),
    )
}
