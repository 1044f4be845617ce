"""Time stepping for the conditioned and unconditional dynamics.

The conditioned state is advanced with Euler-Maruyama followed by a
physicality repair (eigenvalue clipping plus trace renormalization);
the unconditional master equation is integrated with classical RK4 and
serves as the deterministic oracle for ensemble means.

Internally both integrators act on row-major vectorized states, so one
time step is a handful of precomputed superoperator matvecs.  A batch of
trajectories is stepped as the rows of a (batch, d*d) array, each row
drawing its noise from its own generator; a single trajectory is a
batch of one, stepped as two identical rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .entropy import entropy_of_states
from .linalg import ValidationError, dagger, validate_density
from .model import ModelSpec

# A trajectory whose accumulated clipped mass exceeds this is flagged as
# unreliable (the flag is informational; per-step failures raise).
REPAIR_FLAG_TOTAL = 1e-3

# Wiener draws a stepping batch holds at once: every row's noise for a
# block of steps.  Larger blocks raise peak memory; smaller ones cost
# time in many short draw calls.
NOISE_BUDGET_BYTES = 2 << 20

# The per-row arrays recorded at each checkpoint, in the column order of
# the trajectory CSVs.
TRAJECTORY_ROWS = ("states", "entropies", "dw_sums", "rep_sums", "y_path")


class IntegrationError(RuntimeError):
    """A step left the state space beyond the repair tolerance."""

    def __init__(self, message: str, step: int | None = None,
                 trajectory: int | None = None, magnitude: float | None = None):
        super().__init__(message)
        self.step = step
        self.trajectory = trajectory
        self.magnitude = magnitude


@dataclass(frozen=True)
class IntegratorConfig:
    """Step size, horizon and repair settings for one integration.

    ``record_stride`` controls how many steps separate recorded
    checkpoints; step 0 is always recorded.
    """

    dt: float = 1e-3
    t_final: float = 3.0
    floor: float = 1e-12
    # a single-step clip beyond this aborts the run: normal Euler-Maruyama
    # clipping scales like |probe|^2 dt per step, so losing 10% of the mass
    # in one step signals an unstable step size or bad operators
    repair_tolerance: float = 0.1
    record_stride: int = 30

    def __post_init__(self):
        if self.dt <= 0:
            raise ValidationError("dt must be positive")
        if self.t_final < self.dt:
            raise ValidationError("t_final must be at least dt")
        if self.floor <= 0:
            raise ValidationError("floor must be positive")
        if self.repair_tolerance <= 0:
            raise ValidationError("repair_tolerance must be positive")
        if self.record_stride < 1:
            raise ValidationError("record_stride must be >= 1")

    @property
    def n_steps(self) -> int:
        return max(1, int(round(self.t_final / self.dt)))


@dataclass(frozen=True)
class TrajectoryState:
    """Instantaneous state of one conditioned trajectory."""

    t: float
    rho: np.ndarray
    W: float = 0.0
    y: float = 0.0


@dataclass(frozen=True)
class TrajectoryRecord:
    """Checkpointed history of one trajectory.

    ``dW_draws`` and ``repair_magnitudes`` hold the noise and clipped
    mass accumulated over the interval ending at each checkpoint (zero
    at the initial checkpoint); ``measurement_record`` is the integrated
    measurement signal y_t.
    """

    times: np.ndarray
    states: np.ndarray
    entropies: np.ndarray
    dW_draws: np.ndarray
    repair_magnitudes: np.ndarray
    measurement_record: np.ndarray

    @property
    def total_repair(self) -> float:
        return float(np.sum(self.repair_magnitudes))

    @property
    def repair_flagged(self) -> bool:
        return self.total_repair > REPAIR_FLAG_TOTAL


def wiener_increment(rng: np.random.Generator, dt: float, size: int | None = None):
    """Draw N(0, dt) increments, advancing ``rng`` deterministically."""
    if dt <= 0:
        raise ValidationError("dt must be positive")
    return rng.normal(0.0, math.sqrt(dt), size) if size is not None else float(
        rng.normal(0.0, math.sqrt(dt))
    )


# --- superoperators on row-major vectorized states -----------------------

def _left(a: np.ndarray) -> np.ndarray:
    return np.kron(a, np.eye(a.shape[0]))


def _right(b: np.ndarray) -> np.ndarray:
    return np.kron(np.eye(b.shape[0]), b.T)


def dissipator_superop(a: np.ndarray) -> np.ndarray:
    """Matrix of rho -> D[a] rho acting on vec(rho)."""
    ada = dagger(a) @ a
    return np.kron(a, a.conj()) - 0.5 * (_left(ada) + _right(ada))


def hamiltonian_superop(h: np.ndarray) -> np.ndarray:
    """Matrix of rho -> -i [h, rho] acting on vec(rho)."""
    return -1j * (_left(h) - _right(h))


# --- physicality repair ---------------------------------------------------

def _raise_first_failure(lost: np.ndarray, magnitude: np.ndarray, tol: float) -> None:
    """Raise IntegrationError for the first row that is lost or clipped beyond ``tol``.

    Naming the first failing row, not the worst, keeps the reported
    trajectory independent of how the rows are grouped into batches.
    """
    bad = lost | (magnitude > tol)
    if not bad.any():
        return
    row = int(np.argmax(bad))
    if lost[row]:
        raise IntegrationError("state lost all positive mass during a step", trajectory=row)
    raise IntegrationError(
        f"repair magnitude {magnitude[row]:.3e} exceeds tolerance {tol:.1e}",
        trajectory=row, magnitude=float(magnitude[row]),
    )


def _project_batch(v: np.ndarray, dim: int, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Repair a batch of vectorized states: symmetrize, clip, renormalize.

    Returns the repaired batch and the clipped mass per row.  Raises
    IntegrationError naming the first row whose clipped mass exceeds
    ``tol`` or that has no positive mass left.
    """
    if dim == 2:
        # the numpy operations, and their order, of the plain full-batch
        # formulas, so every bit (exact-zero signs too) is theirs
        a = v[:, 0].real
        d = v[:, 3].real
        b = np.add(v[:, 1], v[:, 2].conj())
        b *= 0.5
        trace = a + d
        p = 0.5 * trace
        r = np.square(a - d)
        r *= 0.25
        r += b.real ** 2
        r += b.imag ** 2
        np.sqrt(r, out=r)
        lam_min = p - r
        clip = lam_min < 0.0
        magnitude = np.where(clip, -lam_min, 0.0)
        alive = p + r > 0.0
        if not alive.all() or magnitude.max() > tol:
            _raise_first_failure(~alive, magnitude, tol)
        # clipped rows may carry a nonpositive trace; their renormalized
        # values are overwritten below, so only guard the division
        safe = np.where(np.abs(trace) > 0.0, trace, 1.0).astype(np.complex128)
        out = np.empty_like(v)
        np.divide(a, safe, out=out[:, 0])
        np.divide(b, safe, out=out[:, 1])
        np.divide(b.conj(), safe, out=out[:, 2])
        np.divide(d, safe, out=out[:, 3])
        clipped = np.flatnonzero(clip)
        if clipped.size:
            rc = r[clipped]
            rsafe = np.where(rc > 0.0, rc, 1.0)
            wz = 0.5 * (a[clipped] - d[clipped])
            off = 0.5 * b[clipped] / rsafe
            out[clipped, 0] = 0.5 * (1.0 + wz / rsafe)
            out[clipped, 1] = off
            out[clipped, 2] = off.conj()
            out[clipped, 3] = 0.5 * (1.0 - wz / rsafe)
        return out, magnitude

    mats = v.reshape(-1, dim, dim)
    mats = 0.5 * (mats + np.transpose(mats.conj(), (0, 2, 1)))
    w = np.linalg.eigvalsh(mats)
    magnitude = np.where(w < 0.0, -w, 0.0).sum(axis=1)
    _raise_first_failure(~(w[:, -1] > 0.0), magnitude, tol)
    out = np.empty_like(mats)
    needs_clip = w[:, 0] < 0.0
    for i in range(mats.shape[0]):
        m = mats[i]
        if needs_clip[i]:
            wi, ui = np.linalg.eigh(m)
            m = (ui * np.maximum(wi, 0.0)) @ dagger(ui)
        tr = m.trace().real
        if tr <= 0.0:
            raise IntegrationError(
                "state lost all positive mass during a step", trajectory=i
            )
        out[i] = m / tr
    return out.reshape(v.shape), magnitude


def project_to_physical(m, tol: float = np.inf) -> tuple[np.ndarray, float]:
    """Map a near-density matrix back onto the physical set.

    Symmetrizes, clips negative eigenvalues to zero and renormalizes the
    trace; returns the repaired state and the clipped mass.
    """
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {a.shape}")
    out, mag = _project_batch(a.reshape(1, -1), a.shape[0], tol)
    return out.reshape(a.shape), float(mag[0])


# --- Euler-Maruyama kernel -------------------------------------------------

class _EulerMaruyamaKernel:
    """Precomputed one-step map for a model and step size.

    Constant control inputs are folded into the drift superoperator at
    build time; the state-proportional law is evaluated per step.
    """

    def __init__(self, model: ModelSpec, cfg: IntegratorConfig):
        self.dim = model.dim
        self.dt = cfg.dt
        self.tol = cfg.repair_tolerance
        drift = dissipator_superop(model.probe) + dissipator_superop(model.decoherence)
        law = model.control
        self.bloch_gain = None
        if law.kind == "constant" and law.value != 0.0:
            drift = drift + law.value * hamiltonian_superop(model.hamiltonian)
        elif law.kind == "bloch_x_proportional":
            if model.dim != 2:
                raise ValidationError(
                    "bloch_x_proportional control requires a two-level system"
                )
            self.bloch_gain = law.gain
            self.ham_t = hamiltonian_superop(model.hamiltonian).T.copy()
        l = model.probe
        self.drift_t = drift.T.copy()
        self.lin_t = (_left(l) + _right(dagger(l))).T.copy()
        self.k_meas = (l + dagger(l)).T.reshape(-1).copy()

    def measured_mean(self, v: np.ndarray) -> np.ndarray:
        """Tr[(L + L^dag) rho] per row."""
        return (v @ self.k_meas).real

    def step(self, v: np.ndarray, dw: np.ndarray,
             tr_meas: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Advance a (batch, d*d) state array by one repaired EM step.

        ``tr_meas`` is ``measured_mean(v)``, if the caller has it already.
        """
        if tr_meas is None:
            tr_meas = self.measured_mean(v)
        drift = v @ self.drift_t
        if self.bloch_gain is not None:
            u = -self.bloch_gain * (v[:, 1] + v[:, 2]).real
            drift += u[:, None] * (v @ self.ham_t)
        innov = v @ self.lin_t
        innov -= tr_meas[:, None] * v
        # v + drift * dt + innov * dw, in that order
        drift *= self.dt
        drift += v
        innov *= dw[:, None]
        drift += innov
        return _project_batch(drift, self.dim, self.tol)


def em_step(
    model: ModelSpec,
    state: TrajectoryState,
    cfg: IntegratorConfig,
    rng: np.random.Generator | None = None,
    dW: float | None = None,
) -> TrajectoryState:
    """One Euler-Maruyama step of the conditioned dynamics.

    Draws the Wiener increment from ``rng`` unless ``dW`` is forced.
    The repaired state, accumulated noise W and measurement record y are
    advanced together.
    """
    if dW is None:
        if rng is None:
            raise ValidationError("either rng or a forced dW is required")
        dW = wiener_increment(rng, cfg.dt)
    rho = validate_density(state.rho)
    kernel = _EulerMaruyamaKernel(model, cfg)
    v = rho.reshape(1, -1)
    tr_meas = kernel.measured_mean(v)
    v_new, _ = kernel.step(v, np.array([dW]), tr_meas)
    return TrajectoryState(
        t=state.t + cfg.dt,
        rho=v_new.reshape(rho.shape),
        W=state.W + dW,
        y=state.y + float(tr_meas[0]) * cfg.dt + dW,
    )


def _stack_rows(kept: list[dict]) -> dict:
    """Stack the per-checkpoint row dicts of ``_run_em_batch`` into (checkpoint, row) arrays."""
    return {key: np.stack([rows[key] for rows in kept]) for key in TRAJECTORY_ROWS}


def _run_em_batch(
    model: ModelSpec,
    rho0: np.ndarray,
    cfg: IntegratorConfig,
    rngs: list,
    record,
) -> np.ndarray:
    """Step one trajectory per generator as one batch; return the checkpoint times.

    Row b draws its Wiener increments from ``rngs[b]``, a block of steps
    at a time, so the batch never holds more than ``NOISE_BUDGET_BYTES``
    of noise however long the horizon.  At each checkpoint ``record(rows)``
    gets a dict mapping each name in ``TRAJECTORY_ROWS`` to that
    checkpoint's per-row array.  A lone row is stepped as two identical
    rows: numpy multiplies a single row through another BLAS path than a
    batch, which for d > 2 changes the last bits.
    """
    kernel = _EulerMaruyamaKernel(model, cfg)
    rows = len(rngs)
    batch = max(rows, 2)
    n_steps = cfg.n_steps
    stride = cfg.record_stride
    block = max(1, NOISE_BUDGET_BYTES // (8 * batch))
    dim = model.dim

    v = np.tile(rho0.reshape(-1), (batch, 1))
    noise = np.empty((min(block, n_steps), batch))
    times = []

    def checkpoint(step: int):
        times.append(step * cfg.dt)
        states = v[:rows].reshape(rows, dim, dim)
        # the accumulators are updated in place, so a record keeps copies
        record({"states": states, "entropies": entropy_of_states(states),
                "dw_sums": dw_acc[:rows].copy(), "rep_sums": rep_acc[:rows].copy(),
                "y_path": y_acc[:rows].copy()})

    dw_acc = np.zeros(batch)
    rep_acc = np.zeros(batch)
    y_acc = np.zeros(batch)
    checkpoint(0)
    for step in range(1, n_steps + 1):
        j = (step - 1) % block
        if j == 0:
            size = min(block, n_steps + 1 - step)
            for b, rng in enumerate(rngs):
                noise[:size, b] = wiener_increment(rng, cfg.dt, size=size)
            noise[:size, rows:] = noise[:size, :1]  # the lone row's twin, if any
        dw = noise[j]
        tr_meas = kernel.measured_mean(v)
        y_acc += tr_meas * cfg.dt
        y_acc += dw
        try:
            v, mags = kernel.step(v, dw, tr_meas)
        except IntegrationError as err:
            raise IntegrationError(
                f"step {step} (t={step * cfg.dt:.6g}): {err}", step=step,
                trajectory=err.trajectory, magnitude=err.magnitude,
            ) from None
        dw_acc += dw
        rep_acc += mags
        if step % stride == 0:
            checkpoint(step)
            dw_acc[:] = 0.0
            rep_acc[:] = 0.0
    return np.array(times)


def simulate_trajectory(
    model: ModelSpec,
    rho0,
    cfg: IntegratorConfig,
    seed,
) -> TrajectoryRecord:
    """Simulate one conditioned trajectory, reproducibly for a seed.

    ``seed`` may be an int or a ``numpy.random.SeedSequence``.  Entropy
    is recorded at every checkpoint; the record also carries per-interval
    noise sums, clipped repair mass and the measurement record.
    """
    rho = validate_density(rho0)
    if rho.shape[0] != model.dim:
        raise ValidationError(
            f"initial state dimension {rho.shape[0]} does not match model dim {model.dim}"
        )
    kept = []
    times = _run_em_batch(model, rho, cfg, [np.random.default_rng(seed)], kept.append)
    out = _stack_rows(kept)
    return TrajectoryRecord(
        times=times,
        states=out["states"][:, 0],
        entropies=out["entropies"][:, 0],
        dW_draws=out["dw_sums"][:, 0],
        repair_magnitudes=out["rep_sums"][:, 0],
        measurement_record=out["y_path"][:, 0],
    )


def integrate_master_equation(
    model: ModelSpec,
    rho0,
    cfg: IntegratorConfig,
    u_fixed: float = 0.0,
) -> TrajectoryRecord:
    """Integrate the unconditional master equation with classical RK4.

    The control input is held at ``u_fixed``; the generator is then
    linear and precomputed once.  Records carry zero noise and repair
    columns so the result is interchangeable with trajectory records.
    """
    rho = validate_density(rho0)
    if rho.shape[0] != model.dim:
        raise ValidationError(
            f"initial state dimension {rho.shape[0]} does not match model dim {model.dim}"
        )
    gen = dissipator_superop(model.probe) + dissipator_superop(model.decoherence)
    if u_fixed != 0.0:
        gen = gen + u_fixed * hamiltonian_superop(model.hamiltonian)

    n_steps = cfg.n_steps
    stride = cfg.record_stride
    n_rec = n_steps // stride + 1
    dim = model.dim
    dt = cfg.dt

    v = rho.reshape(-1).astype(np.complex128)
    times = np.empty(n_rec)
    states = np.empty((n_rec, dim, dim), dtype=np.complex128)

    def record(slot: int, step: int):
        mat = v.reshape(dim, dim)
        if not np.all(np.isfinite(mat)):
            raise IntegrationError(
                f"master equation integration diverged by step {step}; "
                "the step size is too large for the model's rates",
                step=step,
            )
        mat = 0.5 * (mat + dagger(mat))
        w = np.linalg.eigvalsh(mat)
        if w[0] < -1e-9 or abs(mat.trace().real - 1.0) > 1e-9:
            raise IntegrationError(
                f"master equation state invalid at step {step}: "
                f"min eigenvalue {w[0]:.3e}, trace {mat.trace().real:.12f}",
                step=step,
            )
        times[slot] = step * dt
        states[slot] = mat

    record(0, 0)
    slot = 1
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(1, n_steps + 1):
            k1 = gen @ v
            k2 = gen @ (v + 0.5 * dt * k1)
            k3 = gen @ (v + 0.5 * dt * k2)
            k4 = gen @ (v + dt * k3)
            v = v + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if step % stride == 0:
                record(slot, step)
                slot += 1

    zeros = np.zeros(n_rec)
    return TrajectoryRecord(
        times=times,
        states=states,
        entropies=entropy_of_states(states),
        dW_draws=zeros,
        repair_magnitudes=zeros.copy(),
        measurement_record=zeros.copy(),
    )
