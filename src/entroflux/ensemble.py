"""Seeded trajectory ensembles and their aggregated statistics.

Trajectories are deterministically seeded from (master_seed, index) and
processed in fixed-size chunks whose boundaries depend only on the
ensemble size.  Partial sums are reduced in chunk order, so the
aggregated statistics are bit-identical for any worker count.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from itertools import count

import numpy as np

from .entropy import entropy_of_states
from .integrate import (
    REPAIR_FLAG_TOTAL,
    IntegrationError,
    IntegratorConfig,
    _run_em_batch,
    wiener_increment,
)
from .linalg import ValidationError, dagger, validate_density
from .model import ModelSpec

# Trajectories per work unit; constant so that chunk boundaries (and the
# reduction order) never depend on the worker count.
CHUNK_SIZE = 256


def trajectory_seed(master_seed: int, index: int) -> np.random.SeedSequence:
    """Seed for one trajectory, independent of scheduling order."""
    return np.random.SeedSequence((master_seed, index))


@dataclass(frozen=True)
class EnsembleConfig:
    n_trajectories: int
    master_seed: int = 0
    worker_count: int = 1
    integrator: IntegratorConfig = field(default_factory=IntegratorConfig)

    def __post_init__(self):
        if self.n_trajectories < 1:
            raise ValidationError("n_trajectories must be >= 1")
        if self.worker_count < 1:
            raise ValidationError("worker_count must be >= 1")


@dataclass(frozen=True)
class EnsembleStatistics:
    """Checkpointed ensemble means and Monte-Carlo standard errors.

    ``mean_state`` stacks E[rho_t]; ``state_se`` holds the per-entry
    standard error of that mean (real and imaginary variance combined).
    ``quantumness_*`` track Tr([M^dag, M] rho_t) across trajectories.
    """

    times: np.ndarray
    mean_state: np.ndarray
    mean_entropy: np.ndarray
    entropy_se: np.ndarray
    quantumness_mean: np.ndarray
    quantumness_se: np.ndarray
    state_se: np.ndarray
    n_trajectories: int
    flagged_trajectories: int
    mean_total_repair: float


# The (checkpoint, row) arrays of ``_run_em_batch`` a trajectory sink
# receives, in the column order of the trajectory CSVs.
TRAJECTORY_ROWS = ("states", "entropies", "dw_sums", "rep_sums", "y_path")


def _chunk_sums(payload, keep_rows: bool = False) -> dict:
    """Simulate trajectories [start, stop); return partial sums (and "rows" if kept)."""
    model, rho0, integrator, master_seed, start, stop = payload
    n_steps = integrator.n_steps
    batch = stop - start
    dws = np.empty((batch, n_steps))
    for row, index in enumerate(range(start, stop)):
        rng = np.random.default_rng(trajectory_seed(master_seed, index))
        dws[row] = wiener_increment(rng, integrator.dt, size=n_steps)
    try:
        out = _run_em_batch(model, rho0, integrator, dws)
    except IntegrationError as err:
        traj = start + err.trajectory if err.trajectory is not None else None
        raise IntegrationError(
            f"trajectory {traj}: {err}",
            step=err.step, trajectory=traj, magnitude=err.magnitude,
        ) from None
    states = out["states"]
    entropies = out["entropies"]
    comm = dagger(model.decoherence) @ model.decoherence - \
        model.decoherence @ dagger(model.decoherence)
    q = np.einsum("ij,kbji->kb", comm, states).real
    totals = out["rep_sums"].sum(axis=0)
    part = {
        "times": out["times"],
        "state": states.sum(axis=1),
        "state_sq": (states.real ** 2 + states.imag ** 2).sum(axis=1),
        "s": entropies.sum(axis=1),
        "s_sq": (entropies ** 2).sum(axis=1),
        "q": q.sum(axis=1),
        "q_sq": (q ** 2).sum(axis=1),
        "flagged": int(np.count_nonzero(totals > REPAIR_FLAG_TOTAL)),
        "repair_total": float(totals.sum()),
    }
    if keep_rows:
        part["rows"] = {key: out[key] for key in TRAJECTORY_ROWS}
    return part


def _se_from_sums(total, total_sq, n: int) -> np.ndarray:
    """Standard error of a mean from sum and sum of squares."""
    total = np.asarray(total)
    if n < 2:
        return np.zeros(total.shape)
    var = np.maximum(total_sq - np.abs(total) ** 2 / n, 0.0) / (n - 1)
    return np.sqrt(var / n)


_SUMMED = ("state", "state_sq", "s", "s_sq", "q", "q_sq", "flagged", "repair_total")


def _reduce(parts, trajectory_sink) -> dict:
    """Add up chunk results in chunk order as they arrive, passing rows to the sink."""
    totals = None
    for start, part in zip(count(0, CHUNK_SIZE), parts):
        if trajectory_sink is not None:
            trajectory_sink(start, part["times"], part.pop("rows"))
        if totals is None:
            totals = part
        else:
            for key in _SUMMED:
                totals[key] += part[key]
    return totals


def run_ensemble(model: ModelSpec, rho0, cfg: EnsembleConfig,
                 trajectory_sink=None) -> EnsembleStatistics:
    """Run a seeded trajectory ensemble and aggregate its statistics.

    Output is a deterministic function of (model, rho0, master_seed,
    integrator settings) alone; the worker count only affects wall time.
    A failing trajectory aborts the whole run with its index and step.

    ``trajectory_sink``, if given, is called as ``sink(start, times, rows)``
    once per chunk, in chunk order, as the chunks arrive: ``rows`` maps
    each name in ``TRAJECTORY_ROWS`` to the chunk's (checkpoint, row)
    array, row b being trajectory ``start + b``, and is freed after the
    call.  These are the rows the statistics are summed from.
    """
    rho = validate_density(rho0)
    n = cfg.n_trajectories
    payloads = [
        (model, rho, cfg.integrator, cfg.master_seed, start, min(start + CHUNK_SIZE, n))
        for start in range(0, n, CHUNK_SIZE)
    ]
    # looked up per call, so a wrapped module-level ``_chunk_sums`` is used
    work = partial(_chunk_sums, keep_rows=trajectory_sink is not None)
    if cfg.worker_count == 1 or len(payloads) == 1:
        totals = _reduce(map(work, payloads), trajectory_sink)
    else:
        with ProcessPoolExecutor(max_workers=cfg.worker_count) as executor:
            totals = _reduce(executor.map(work, payloads), trajectory_sink)

    mean_state = totals["state"] / n
    for slot in range(mean_state.shape[0]):
        mean_state[slot] = validate_density(mean_state[slot])
    return EnsembleStatistics(
        times=totals["times"],
        mean_state=mean_state,
        mean_entropy=totals["s"] / n,
        entropy_se=_se_from_sums(totals["s"], totals["s_sq"], n),
        quantumness_mean=totals["q"] / n,
        quantumness_se=_se_from_sums(totals["q"], totals["q_sq"], n),
        state_se=_se_from_sums(totals["state"], totals["state_sq"], n),
        n_trajectories=n,
        flagged_trajectories=totals["flagged"],
        mean_total_repair=totals["repair_total"] / n,
    )


def mean_entropy_vs_entropy_of_mean(stats: EnsembleStatistics) -> tuple[np.ndarray, np.ndarray]:
    """Return (E[S(rho_t)], S(E[rho_t])) series.

    Concavity of the von Neumann entropy makes the second series dominate
    the first up to Monte-Carlo error.
    """
    return np.asarray(stats.mean_entropy), entropy_of_states(np.asarray(stats.mean_state))
