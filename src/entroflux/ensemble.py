"""Seeded trajectory ensembles and their aggregated statistics.

Trajectories are deterministically seeded from (master_seed, index).  A
run is cut into spans of whole 256-row chunks, about one span per
worker, and each span is stepped as one batch.  Partial sums are taken
per chunk, at every checkpoint, and reduced in chunk order; the chunk
boundaries depend only on the ensemble size, and a row's bits do not
depend on its batch, so the aggregated statistics are bit-identical for
any worker count.  A trajectory sink is still called once per chunk, in
chunk order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial, reduce

import numpy as np

from .entropy import entropy_of_states
from .integrate import (
    REPAIR_FLAG_TOTAL,
    TRAJECTORY_ROWS,
    IntegrationError,
    IntegratorConfig,
    _initial_state,
    _run_em_batch,
    _stack_rows,
)
from .integrate import wiener_increment  # noqa: F401  bench/tracer.py wraps it here
from .linalg import ValidationError, validate_densities
from .model import ModelSpec

# Trajectories per partial sum; constant so that chunk boundaries (and
# the reduction order) never depend on the worker count.
CHUNK_SIZE = 256

# Chunks in one span, the rows a pool task steps as one batch.  Wider
# batches step faster per row; past 16 chunks the gain is small and the
# states held grow.
MAX_SPAN_CHUNKS = 16


class WorkerError(RuntimeError):
    """A span was not simulated: its worker process died or ran out of memory."""


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
        if not self.n_trajectories >= 1:
            raise ValidationError("n_trajectories must be >= 1")
        if not self.master_seed >= 0:
            raise ValidationError("master_seed must be >= 0")
        if not self.worker_count >= 1:
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


def _chunk_totals(values: np.ndarray) -> np.ndarray:
    """Sum ``values`` per chunk of ``CHUNK_SIZE`` rows; the leading axis is the chunk.

    Each chunk's total has the bits of its own ``sum(axis=0)``, which ``np.add.reduceat`` does not.
    """
    full = len(values) - len(values) % CHUNK_SIZE
    totals = values[:full].reshape(-1, CHUNK_SIZE, *values.shape[1:]).sum(axis=1)
    if full < len(values):
        totals = np.concatenate([totals, values[full:].sum(axis=0)[None]])
    return totals


def _chunk_sums(payload, keep_rows: bool = False):
    """Simulate trajectories [start, stop) as one batch; return its times, chunk sums and rows.

    The span covers whole chunks of ``CHUNK_SIZE`` rows (the last may be
    short).  Each summed quantity is one array whose leading axis is the
    chunk; ``rows`` holds the span's (checkpoint, row) arrays if
    ``keep_rows``, else None.  A failing span returns its IntegrationError,
    naming the first trajectory that failed at the first failing step.
    """
    model, rho0, integrator, master_seed, start, stop = payload
    rngs = [np.random.default_rng(trajectory_seed(master_seed, i)) for i in range(start, stop)]
    sums, kept = {}, []  # sums: one list of chunk totals per quantity, one entry per checkpoint
    repair = np.zeros(stop - start)

    def record(rows):
        states, entropies = rows["states"], rows["entropies"]
        q = np.einsum("ij,bji->b", model.quantumness_operator, states).real
        for key, values in (("state", states), ("state_sq", states.real ** 2 + states.imag ** 2),
                            ("s", entropies), ("s_sq", entropies ** 2), ("q", q), ("q_sq", q ** 2)):
            sums.setdefault(key, []).append(_chunk_totals(values))
        np.add(repair, rows["rep_sums"], out=repair)
        if keep_rows:
            kept.append(rows)

    try:
        _run_em_batch(model, rho0, integrator, rngs, record)
    except IntegrationError as err:
        traj = start + err.trajectory if err.trajectory is not None else None
        return IntegrationError(
            f"trajectory {traj}: {err}",
            step=err.step, trajectory=traj, magnitude=err.magnitude,
        )
    sums = {key: np.stack(per_checkpoint, axis=1) for key, per_checkpoint in sums.items()}
    sums["flagged"] = _chunk_totals(repair > REPAIR_FLAG_TOTAL)
    sums["repair_total"] = _chunk_totals(repair)
    return integrator.checkpoint_times, sums, _stack_rows(kept) if keep_rows else None


def _se_from_sums(total, total_sq, n: int) -> np.ndarray:
    """Standard error of a mean from sum and sum of squares."""
    if n < 2:
        return np.zeros(total.shape)
    var = np.maximum(total_sq - np.abs(total) ** 2 / n, 0.0) / (n - 1)
    return np.sqrt(var / n)


def _reduce(outcomes, trajectory_sink) -> dict:
    """Add up chunk sums in chunk order as the spans arrive, passing rows to the sink.

    If any span failed, the failure with the smallest (step, trajectory)
    is raised, whatever the span layout; no chunk after the first failed
    span is reduced or sunk.
    """
    totals, errors, start = {}, [], 0
    for outcome in outcomes:
        if isinstance(outcome, IntegrationError):
            errors.append(outcome)
        if errors:
            continue
        times, sums, rows = outcome
        span = len(sums["flagged"]) * CHUNK_SIZE
        if trajectory_sink is not None:
            for a in range(0, span, CHUNK_SIZE):
                trajectory_sink(start + a, times,
                                {key: rows[key][:, a:a + CHUNK_SIZE] for key in TRAJECTORY_ROWS})
        start += span
        # one chunk at a time, in chunk order: np.sum over the chunk axis sums pairwise
        for key, per_chunk in sums.items():
            totals[key] = (reduce(np.add, per_chunk, totals[key]) if key in totals
                           else reduce(np.add, per_chunk))
        totals["times"] = times
    if errors:
        raise min(errors, key=lambda err: (err.step, err.trajectory))
    return totals


def _span_outcomes(outcomes, payloads, lost=(MemoryError,)):
    """Yield each span's outcome; a worker lost as ``lost`` names raises WorkerError.

    A worker runs out of memory in any run; only a pool run can lose one to a crash.
    """
    for payload in payloads:
        try:
            yield next(outcomes)
        except lost as err:
            start, stop = payload[4:]
            raise WorkerError(
                f"trajectories [{start}, {stop}) were not simulated: {err!r}"
            ) from None


def _spans(n: int, workers: int) -> list[tuple[int, int]]:
    """Cut [0, n) into spans of whole chunks, as even as the chunks allow.

    The span count is the smallest multiple of ``workers`` that keeps
    every span within ``MAX_SPAN_CHUNKS`` chunks, so the pool stays
    balanced, but never more than the chunk count.
    """
    chunks = -(-n // CHUNK_SIZE)
    count = min(chunks, workers * -(-chunks // (workers * MAX_SPAN_CHUNKS)))
    edges = [CHUNK_SIZE * (chunks * k // count) for k in range(count + 1)]
    return [(a, min(b, n)) for a, b in zip(edges, edges[1:])]


def run_ensemble(model: ModelSpec, rho0, cfg: EnsembleConfig,
                 trajectory_sink=None) -> EnsembleStatistics:
    """Run a seeded trajectory ensemble and aggregate its statistics.

    Output is a deterministic function of (model, rho0, master_seed,
    integrator settings) alone; the worker count only affects wall time.
    The run is cut into spans of whole chunks (``_spans``), each stepped
    as one batch by one pool task.  A failing trajectory aborts the whole
    run with its index and step: the earliest step at which any
    trajectory failed, and the lowest such trajectory.  A worker that dies
    or runs out of memory raises WorkerError, naming the first span in
    order that did not finish.

    ``trajectory_sink``, if given, is called as ``sink(start, times, rows)``
    once per chunk of ``CHUNK_SIZE`` rows, in chunk order, as the spans
    arrive: ``rows`` maps each name in ``TRAJECTORY_ROWS`` to the chunk's
    (checkpoint, row) array, row b being trajectory ``start + b``, and is
    freed after its span.  These are the rows the statistics are summed
    from.
    """
    rho = _initial_state(model, rho0)
    n = cfg.n_trajectories
    payloads = [(model, rho, cfg.integrator, cfg.master_seed, start, stop)
                for start, stop in _spans(n, cfg.worker_count)]
    # looked up per call, so a wrapped module-level ``_chunk_sums`` is used
    work = partial(_chunk_sums, keep_rows=trajectory_sink is not None)
    # a pool starts all its processes at once, so it gets at most one per span
    workers = min(cfg.worker_count, len(payloads))
    if workers == 1:
        totals = _reduce(_span_outcomes(map(work, payloads), payloads), trajectory_sink)
    else:
        # imported here, so a run that starts no pool loads no multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        with ProcessPoolExecutor(max_workers=workers) as executor:
            outcomes = _span_outcomes(executor.map(work, payloads), payloads,
                                      lost=(BrokenProcessPool, MemoryError))
            totals = _reduce(outcomes, trajectory_sink)

    mean_state = totals["state"] / n
    validate_densities(mean_state)
    return EnsembleStatistics(
        times=totals["times"],
        mean_state=mean_state,
        mean_entropy=totals["s"] / n,
        entropy_se=_se_from_sums(totals["s"], totals["s_sq"], n),
        quantumness_mean=totals["q"] / n,
        quantumness_se=_se_from_sums(totals["q"], totals["q_sq"], n),
        state_se=_se_from_sums(totals["state"], totals["state_sq"], n),
        n_trajectories=n,
        flagged_trajectories=int(totals["flagged"]),
        mean_total_repair=float(totals["repair_total"]) / n,
    )


def mean_entropy_vs_entropy_of_mean(stats: EnsembleStatistics) -> tuple[np.ndarray, np.ndarray]:
    """Return (E[S(rho_t)], S(E[rho_t])) series.

    Concavity of the von Neumann entropy makes the second series dominate
    the first up to Monte-Carlo error.
    """
    return np.asarray(stats.mean_entropy), entropy_of_states(np.asarray(stats.mean_state))
