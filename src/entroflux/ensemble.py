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
    IntegrationError,
    IntegratorConfig,
    _initial_state,
    _run_em_batch,
)
from .integrate import wiener_increment  # noqa: F401  bench/tracer.py wraps it here
from .linalg import ValidationError, require_integer, validate_densities
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
        for name, least in (("n_trajectories", 1), ("master_seed", 0), ("worker_count", 1)):
            value = getattr(self, name)
            require_integer(value, name)
            if value < least:
                raise ValidationError(f"{name} must be >= {least}")


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
    """Simulate trajectories [start, stop) as one batch; return its chunk sums and rows.

    The span covers whole chunks of ``CHUNK_SIZE`` rows (the last may be
    short).  ``sums`` lists one array per summed quantity, leading axis the
    chunk, in the order ``run_ensemble`` unpacks; ``rows`` lists the span's
    (checkpoint, row) arrays in the sink's order if ``keep_rows``, else None;
    without ``keep_rows`` the batch keeps no noise or measurement sums.
    A failing span returns its IntegrationError, naming the first trajectory
    that failed at the first failing step.
    """
    model, rho0, integrator, master_seed, start, stop = payload
    rngs = [np.random.default_rng(trajectory_seed(master_seed, i)) for i in range(start, stop)]
    per_checkpoint, kept = [], []  # per checkpoint, the chunk totals of each moment
    repair = np.zeros(stop - start)

    def record(*rows):
        states, entropies, _, rep, _ = rows
        # ~20x faster than the bound's np.trace(Q @ r) at 2560 rows; the last bits can differ
        q = np.einsum("ij,bji->b", model.quantumness_operator, states).real
        per_checkpoint.append([_chunk_totals(v) for v in (
            states, states.real ** 2 + states.imag ** 2, entropies, entropies ** 2, q, q ** 2)])
        np.add(repair, rep, out=repair)
        if keep_rows:
            kept.append(rows)

    try:
        _run_em_batch(model, rho0, integrator, rngs, record, signals=keep_rows)
    except IntegrationError as err:
        err.trajectory += start
        err.args = (f"trajectory {err.trajectory}: {err}",)
        return err.with_traceback(None)  # the traceback would keep the span's arrays alive
    sums = [np.stack(c, axis=1) for c in zip(*per_checkpoint)]
    sums += [_chunk_totals(repair > REPAIR_FLAG_TOTAL), _chunk_totals(repair)]
    return sums, [np.stack(c) for c in zip(*kept)] if keep_rows else None


def _mean_se(total, total_sq, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Mean of n samples and its standard error, from their sum and sum of squares."""
    if n < 2:
        return total / n, np.zeros(total.shape)
    var = np.maximum(total_sq - np.abs(total) ** 2 / n, 0.0) / (n - 1)
    return total / n, np.sqrt(var / n)


def _reduce(payloads, outcomes, times, trajectory_sink, lost=(MemoryError,)) -> list:
    """Read the span outcomes in span order, sinking rows and adding chunk sums in chunk order.

    Spans are sunk and added until the first failed one; the failure with the smallest
    (step, trajectory) is raised, whatever the span layout.  A worker lost as ``lost``
    names (out of memory; in a pool, also a crash) raises WorkerError at once.
    """
    totals, errors = None, []
    for *_, start, stop in payloads:
        try:
            outcome = next(outcomes)
        except lost as err:
            raise WorkerError(
                f"trajectories [{start}, {stop}) were not simulated: {err!r}") from None
        if isinstance(outcome, IntegrationError):
            errors.append(outcome)
        if errors:
            continue
        sums, rows = outcome
        if trajectory_sink is not None:
            for a in range(0, stop - start, CHUNK_SIZE):
                trajectory_sink(start + a, times, *(r[:, a:a + CHUNK_SIZE] for r in rows))
        # one chunk at a time, in chunk order: np.sum over the chunk axis sums pairwise
        totals = ([reduce(np.add, per_chunk) for per_chunk in sums] if totals is None else
                  [reduce(np.add, per_chunk, t) for t, per_chunk in zip(totals, sums)])
    if errors:
        raise min(errors, key=lambda err: (err.step, err.trajectory))
    return totals


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


def _one_blas_thread():
    """Pool initializer: numpy's bundled OpenBLAS runs on one thread in this worker.

    A forked worker keeps the parent's BLAS threads, so a pool would run more
    of them than there are cores.  Any other BLAS is left as it is.
    """
    import ctypes
    from pathlib import Path

    for path in Path(np.__file__).parents[1].glob("numpy.libs/libscipy_openblas*"):
        getattr(ctypes.CDLL(str(path)), "scipy_openblas_set_num_threads64_", lambda n: None)(1)


def run_ensemble(model: ModelSpec, rho0, cfg: EnsembleConfig,
                 trajectory_sink=None) -> EnsembleStatistics:
    """Run a seeded trajectory ensemble and aggregate its statistics.

    Output is a deterministic function of (model, rho0, master_seed,
    integrator settings) alone; the worker count only affects wall time.
    The run is cut into spans of whole chunks (``_spans``), each stepped
    as one batch by one pool task.  A failing trajectory aborts the whole
    run with its index and step: the earliest step at which any
    trajectory failed, and the lowest such trajectory.  A worker that dies
    or runs out of memory before its span finished raises WorkerError at
    once, naming that span.

    ``trajectory_sink``, if given, is called as ``sink(start, times, states,
    entropies, dW_draws, repair_magnitudes, measurement_record)`` once per
    chunk of ``CHUNK_SIZE`` rows, in chunk order, up to the first failed
    span: ``times`` is ``cfg.integrator.checkpoint_times``, and each array
    is the chunk's (checkpoint, row) array of that ``TrajectoryRecord``
    field, in the CSV's column order, row b being trajectory ``start + b``,
    freed after its span.  These are the rows the statistics are summed from.
    """
    rho = _initial_state(model, rho0)
    n = cfg.n_trajectories
    times = cfg.integrator.checkpoint_times
    payloads = [(model, rho, cfg.integrator, cfg.master_seed, start, stop)
                for start, stop in _spans(n, cfg.worker_count)]
    # looked up per call, so a wrapped module-level ``_chunk_sums`` is used
    work = partial(_chunk_sums, keep_rows=trajectory_sink is not None)
    # a pool starts all its processes at once, so it gets at most one per span
    workers = min(cfg.worker_count, len(payloads))
    if workers == 1:
        totals = _reduce(payloads, map(work, payloads), times, trajectory_sink)
    else:
        # imported here, so a run that starts no pool loads no multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        with ProcessPoolExecutor(max_workers=workers, initializer=_one_blas_thread) as executor:
            totals = _reduce(payloads, executor.map(work, payloads), times, trajectory_sink,
                             lost=(BrokenProcessPool, MemoryError))

    state, state_sq, s, s_sq, q, q_sq, flagged, repair = totals
    mean_state, state_se = _mean_se(state, state_sq, n)
    validate_densities(mean_state)
    mean_entropy, entropy_se = _mean_se(s, s_sq, n)
    quantumness_mean, quantumness_se = _mean_se(q, q_sq, n)
    return EnsembleStatistics(
        times=times, mean_state=mean_state, mean_entropy=mean_entropy, entropy_se=entropy_se,
        quantumness_mean=quantumness_mean, quantumness_se=quantumness_se, state_se=state_se,
        n_trajectories=n, flagged_trajectories=int(flagged),
        mean_total_repair=float(repair) / n)


def mean_entropy_vs_entropy_of_mean(stats: EnsembleStatistics) -> tuple[np.ndarray, np.ndarray]:
    """Return (E[S(rho_t)], S(E[rho_t])) series.

    Concavity of the von Neumann entropy makes the second series dominate
    the first up to Monte-Carlo error.
    """
    return np.asarray(stats.mean_entropy), entropy_of_states(np.asarray(stats.mean_state))
