"""Time stepping for the conditioned and unconditional dynamics.

The conditioned state is advanced with Euler-Maruyama followed by a
physicality repair (eigenvalue clipping plus trace renormalization);
the unconditional master equation is integrated with classical RK4 at
the config's dt, one matrix power per checkpoint, and serves as the
deterministic oracle for ensemble means.

Internally both integrators act on row-major vectorized states, so one
time step is a handful of precomputed superoperator matvecs.  A batch of
trajectories is stepped as the rows of a (batch, d*d) array, each row
drawing its noise from its own generator; a single trajectory is a
batch of one, which the step kernel multiplies as two identical rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .entropy import entropy_of_states
from .linalg import (ValidationError, _check_densities, as_operator, dagger, require_integer,
                     validate_density)
from .model import ModelSpec

# A trajectory whose accumulated clipped mass exceeds this is flagged as
# unreliable (the flag is informational; per-step failures raise).
REPAIR_FLAG_TOTAL = 1e-3

# Wiener draws a stepping batch holds at once: every row's noise for a
# block of steps.  Larger blocks raise peak memory; smaller ones cost
# time in many short draw calls.
NOISE_BUDGET_BYTES = 2 << 20

# Steps whose noise the stepping loop moves out of a block at once: one
# 64-byte line of each row's float64 draws.
SLAB_STEPS = 8

# The step's scalar operands as 0-d arrays of its dtypes: a ufunc reads
# them as they are, where it would convert a Python float on every call,
# and computes with the same values, so no bit moves.  The step also
# passes ``out`` positionally, which numpy parses faster than a keyword.
_HALF, _QUARTER, _ONE, _HALF_C = (np.array(x) for x in (0.5, 0.25, 1.0, 0.5 + 0j))
_min = np.minimum.reduce


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
    checkpoints; step 0 is always recorded, and a run stops at its last
    checkpoint.  The range checks reject NaN, and ``t_final / dt`` must be
    below 2**53 so that every step count is an exact float.
    ``floor`` is validated but has no effect on any run.
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
        if not self.dt > 0:
            raise ValidationError("dt must be positive")
        if not self.dt <= self.t_final < math.inf:
            raise ValidationError("t_final must be finite and at least dt")
        if not self.t_final / self.dt < 2**53:
            raise ValidationError("t_final / dt must be below 2**53")
        if not self.floor > 0:
            raise ValidationError("floor must be positive")
        if not self.repair_tolerance > 0:
            raise ValidationError("repair_tolerance must be positive")
        require_integer(self.record_stride, "record_stride")
        if not self.record_stride >= 1:
            raise ValidationError("record_stride must be >= 1")

    @property
    def n_steps(self) -> int:
        """Steps every runner takes: round(t_final / dt), cut back to the last checkpoint."""
        return self.record_stride * (round(self.t_final / self.dt) // self.record_stride)

    @property
    def checkpoint_times(self) -> np.ndarray:
        """Times of the recorded checkpoints: every ``record_stride`` steps from step 0."""
        return np.arange(0, self.n_steps + 1, self.record_stride) * self.dt


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
    measurement signal y_t.  The fields after ``times`` are, in this order,
    a checkpoint's record and the columns of the trajectory CSVs.
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


def wiener_increment(rng, dt: float, size: int | None = None, out: np.ndarray | None = None):
    """Draw N(0, dt) increments, advancing ``rng`` deterministically.

    Given ``out``, a (rows, n) float64 array with contiguous rows, ``rng``
    is a sequence of ``rows`` generators instead: row b of ``out`` takes
    the next n standard normal draws of ``rng[b]`` and ``out`` is
    returned.  ``sqrt(dt)`` times it has the bits of n increments of each
    generator, which numpy draws as 0.0 + sqrt(dt) * z.
    """
    if not 0 < dt < math.inf:
        raise ValidationError("dt must be positive and finite")
    if out is not None:
        for row, gen in zip(out, rng):
            gen.standard_normal(out=row)
        return out
    return rng.normal(0.0, math.sqrt(dt), size) if size is not None else float(
        rng.normal(0.0, math.sqrt(dt))
    )


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


class _Workspace:
    """The arrays one step of an n-row batch writes, allocated once and reused.

    ``drift`` ends a step as v + drift dt + innovation dW, the rows the
    repair reads, and ``state`` takes the repaired rows.  The 2x2 repair
    keeps its per-row arrays here too, with the column views it reads
    and writes.  Each step overwrites them all.
    """

    def __init__(self, n: int, dim: int):
        shape = (n, dim * dim)
        self.drift = np.empty(shape, np.complex128)
        self.innov = np.empty(shape, np.complex128)
        self.prod = np.empty(shape, np.complex128)  # tr_meas * v, and u * (v @ ham_t)
        self.state = np.empty(shape, np.complex128)
        self.mean = np.empty(n, np.complex128)
        self.zeros = np.zeros(n)  # the clipped mass of a step where no row clips
        if dim == 2:
            self.a, self.d = self.drift[:, 0].real, self.drift[:, 3].real
            self.x1, self.x2 = self.drift[:, 1], self.drift[:, 2]
            self.b = np.empty(n, np.complex128)
            self.b_re, self.b_im = self.b.real, self.b.imag
            # the factor 1/trace - 0j: its real part holds the trace until
            # the renormalisation inverts it in place
            self.inv = np.full(n, -0.0j)
            self.trace = self.inv.real
            self.p, self.r, self.lam_min = np.empty(n), np.empty(n), np.empty(n)
            # the clipped mass of a step where some row clips: +0.0 but at
            # ``clipped``, the rows that clipped at the last such step
            self.mass = np.zeros(n)
            self.clipped = np.empty(0, np.intp)
            self.out = [self.state[:, k] for k in range(4)]


def _project_batch(v: np.ndarray, dim: int, tol: float,
                   work: _Workspace | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Repair a batch of vectorized states: symmetrize, clip, renormalize.

    Returns the repaired batch and the clipped mass per row.  Raises
    IntegrationError naming the first row whose clipped mass exceeds
    ``tol`` or that has no positive mass left; a row with a non-finite
    entry has none (the 2x2 branch reads only the real diagonal and the
    off-diagonal entries).  ``work``, if given, is the workspace whose
    ``drift`` array ``v`` is; the 2x2 branch then returns arrays of that
    workspace, which its next use overwrites.
    """
    if dim == 2:
        w = work
        if w is None:
            w = _Workspace(len(v), 2)
            w.drift[:] = v
        a, d, b, trace, p, r, lam_min = w.a, w.d, w.b, w.trace, w.p, w.r, w.lam_min
        # the numpy operations, and their order, of the plain full-batch
        # formulas, so every bit (exact-zero signs too) is theirs
        np.conjugate(w.x2, b)
        np.add(w.x1, b, b)
        np.multiply(b, _HALF_C, b)
        np.add(a, d, trace)
        np.multiply(_HALF, trace, p)
        np.subtract(a, d, r)
        np.square(r, r)
        np.multiply(r, _QUARTER, r)
        np.square(w.b_re, lam_min)
        np.add(r, lam_min, r)
        np.square(w.b_im, lam_min)
        np.add(r, lam_min, r)
        np.sqrt(r, r)
        np.subtract(p, r, lam_min)
        lo = _min(lam_min)
        # 0 < lo < inf gives p > r >= 0 on every row, so p + r > 0; at lo == 0
        # that is p > 0; a non-finite entry leaves lo NaN or infinite
        if 0.0 < lo < math.inf or (lo == 0.0 and _min(p) > 0.0):
            magnitude = w.zeros
        else:
            clipped = (lam_min < 0.0).nonzero()[0]
            magnitude = w.mass
            magnitude[w.clipped] = 0.0
            magnitude[clipped] = -lam_min[clipped]
            w.clipped = clipped
            # max(-lo, 0) is magnitude.max(); where p > 0 on every row, so is p + r
            within = math.isfinite(lo) and max(-lo, 0.0) <= tol
            if not (within and _min(p) > 0.0):
                alive = np.add(p, r, p)  # p is not read again
                if not (within and _min(alive) > 0.0):
                    _raise_first_failure(~(alive > 0.0) | ~np.isfinite(lam_min), magnitude, tol)
            # only clipped rows may carry a nonpositive trace, and their
            # renormalized values are overwritten below
            trace[clipped] = 1.0
        # x * (1/t - 0j) has the bits of numpy's x / (t + 0j), which is
        # (xr + xi*0)(1/t) + (xi - xr*0)(1/t) j, unless a product underflows
        out0, out1, out2, out3 = w.out
        np.divide(_ONE, trace, trace)
        np.multiply(a, w.inv, out0)
        np.multiply(b, w.inv, out1)
        np.conjugate(b, out2)
        np.multiply(out2, w.inv, out2)
        np.multiply(d, w.inv, out3)
        if magnitude is not w.zeros:
            # a clipped row that is alive has r > |p| >= 0
            rc = r[clipped]
            wz = _HALF * (a[clipped] - d[clipped])
            wz /= rc
            off = _HALF_C * b[clipped] / rc
            out0[clipped] = _HALF * (_ONE + wz)
            out1[clipped] = off
            out2[clipped] = off.conj()
            out3[clipped] = _HALF * (_ONE - wz)
        return w.state, magnitude

    mats = v.reshape(-1, dim, dim)
    # a non-finite row becomes zero, so it is lost, not fed to the eigensolver
    mats = np.where(np.isfinite(mats).all(axis=(1, 2))[:, None, None], mats, 0.0)
    mats = 0.5 * (mats + np.transpose(mats.conj(), (0, 2, 1)))
    w = np.linalg.eigvalsh(mats)
    magnitude = np.where(w < 0.0, -w, 0.0).sum(axis=1)
    _raise_first_failure(~(w[:, -1] > 0.0), magnitude, tol)
    clip = np.flatnonzero(w[:, 0] < 0.0)
    if clip.size:
        wc, uc = np.linalg.eigh(mats[clip])
        mats[clip] = (uc * np.maximum(wc, 0.0)[:, None, :]) @ np.transpose(uc.conj(), (0, 2, 1))
    tr = np.trace(mats, axis1=1, axis2=2).real
    _raise_first_failure(tr <= 0.0, magnitude, tol)
    return (mats / tr[:, None, None]).reshape(v.shape), magnitude


def project_to_physical(m, tol: float = np.inf) -> tuple[np.ndarray, float]:
    """Map a near-density matrix back onto the physical set.

    Symmetrizes, clips negative eigenvalues to zero and renormalizes the
    trace; returns the repaired state and the clipped mass.  A clipped
    mass beyond ``tol``, which must be positive, raises IntegrationError.
    """
    if not tol > 0:
        raise ValidationError("tol must be positive")
    a = as_operator(m, "matrix")
    out, mag = _project_batch(a.reshape(1, -1), a.shape[0], tol)
    return out.reshape(a.shape), float(mag[0])


# --- Euler-Maruyama kernel -------------------------------------------------

class _EulerMaruyamaKernel:
    """Precomputed one-step map for a model, a step size and a batch size.

    A law's fixed input is folded into the drift superoperator at build
    time; a law that reads the state is evaluated per step.  A
    lone row is multiplied as two identical rows: numpy sends a single
    row through another BLAS path than a batch, which for d > 2 changes
    the last bits.  The step's arrays are allocated once, for ``rows``
    rows, and reused, so the arrays ``step`` returns are overwritten by
    its next call.
    """

    def __init__(self, model: ModelSpec, cfg: IntegratorConfig, rows: int):
        self.dim = model.dim
        self.dt = cfg.dt
        self.dt_c = np.array(complex(cfg.dt))  # dt + 0j, as numpy scales a complex drift
        self.tol = cfg.repair_tolerance
        self.law = model.control if model.control.reads_state else None
        if self.law is not None:
            self.ham_t = model.feedback_superop.T.copy()
        l = model.probe
        self.drift_t = model.generator.T.copy()
        self.lin_t = model.measurement_superop.T.copy()
        self.k_meas = (l + dagger(l)).T.reshape(-1).copy()
        self.work = _Workspace(max(rows, 2), self.dim)
        self.tr_meas = self.work.mean.real[:rows]
        self.tr_col = self.tr_meas[:, None]
        # the clipped mass ``step`` returns on a step where no row clips
        self.no_clip = self.work.zeros[:rows]

    def step(self, v: np.ndarray, dw: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Advance a (rows, d*d) state array by one repaired EM step.

        Returns the next states, Tr[(L + L^dag) rho] of the given states
        (the measured mean, which drives both the innovation and the
        measurement record) and the clipped mass, each per row.  On a step
        where no row clips the clipped mass is ``no_clip``, all +0.0.
        """
        rows = len(v)
        w = self.work
        if rows == 1:
            w.state[:] = v
            v = w.state
        drift, innov, prod = w.drift, w.innov, w.prod
        np.matmul(v, self.k_meas, w.mean)
        np.matmul(v, self.drift_t, drift)
        if self.law is not None:
            u = self.law.of_states(v.reshape(-1, 2, 2))
            np.matmul(v, self.ham_t, prod)
            np.multiply(u[:, None], prod, prod)
            np.add(drift, prod, drift)
        np.matmul(v, self.lin_t, innov)
        np.multiply(self.tr_col, v, prod)
        np.subtract(innov, prod, innov)
        # v + drift * dt + innov * dw, in that order
        np.multiply(drift, self.dt_c, drift)
        np.add(drift, v, drift)
        np.multiply(innov, dw[:, None], innov)
        np.add(drift, innov, drift)
        out, magnitude = _project_batch(drift, self.dim, self.tol, w)
        return out[:rows], self.tr_meas, self.no_clip if magnitude is w.zeros else magnitude[:rows]


def em_step(
    model: ModelSpec,
    state: TrajectoryState,
    cfg: IntegratorConfig,
    rng: np.random.Generator | None = None,
    dW: float | None = None,
) -> TrajectoryState:
    """One Euler-Maruyama step of the conditioned dynamics.

    Draws the Wiener increment from ``rng`` unless ``dW`` is forced, in
    which case it must be finite.  The repaired state, accumulated noise W
    and measurement record y are advanced together.
    """
    if dW is None:
        if rng is None:
            raise ValidationError("either rng or a forced dW is required")
        dW = wiener_increment(rng, cfg.dt)
    elif not math.isfinite(dW):
        raise ValidationError("dW must be finite")
    rho = _initial_state(model, state.rho)
    kernel = _EulerMaruyamaKernel(model, cfg, 1)
    v, tr_meas, _ = kernel.step(rho.reshape(1, -1), np.array([dW]))
    return TrajectoryState(
        t=state.t + cfg.dt,
        rho=v.reshape(rho.shape),
        W=state.W + dW,
        y=state.y + float(tr_meas[0]) * cfg.dt + dW,
    )


def _initial_state(model: ModelSpec, rho0) -> np.ndarray:
    """Validate ``rho0`` as a density matrix of the model's dimension."""
    rho = validate_density(rho0)
    if rho.shape[0] != model.dim:
        raise ValidationError(
            f"initial state dimension {rho.shape[0]} does not match model dim {model.dim}"
        )
    return rho


def _run_em_batch(
    model: ModelSpec,
    rho0: np.ndarray,
    cfg: IntegratorConfig,
    rngs: list,
    record,
    signals: bool = True,
) -> None:
    """Step one trajectory per generator as one batch, ``cfg.n_steps`` steps.

    Row b draws its Wiener increments from ``rngs[b]`` into its own
    contiguous run of a (rows, block) array, so the batch never holds more
    than ``NOISE_BUDGET_BYTES`` of noise however long the horizon.  Every
    ``SLAB_STEPS`` steps the loop copies the next steps' columns, scaled by
    sqrt(dt), into a (steps, rows) slab whose rows are the steps' increments.
    At each of ``cfg.checkpoint_times``
    ``record(*rows)`` gets that checkpoint's per-row arrays of the
    ``TrajectoryRecord`` fields after ``times``, in their order.  Without
    ``signals`` the noise and measurement sums are not kept and ``record``
    gets None for ``dW_draws`` and ``measurement_record``.
    """
    rows = len(rngs)
    kernel = _EulerMaruyamaKernel(model, cfg, rows)
    n_steps = cfg.n_steps
    stride = cfg.record_stride
    block = max(1, NOISE_BUDGET_BYTES // (8 * rows))
    sqrt_dt = math.sqrt(cfg.dt)

    v = np.tile(rho0.reshape(-1), (rows, 1))
    noise = np.empty((rows, min(block, n_steps)))
    slab = np.empty((SLAB_STEPS, rows))
    slab_rows = list(slab)
    y_step = np.empty(rows)

    def checkpoint():
        # the step reuses its arrays and the accumulators are updated in
        # place, so a record keeps copies
        states = v.reshape(rows, *rho0.shape).copy()
        dw, y = (dw_acc.copy(), y_acc.copy()) if signals else (None, None)
        record(states, entropy_of_states(states), dw, rep_acc.copy(), y)

    dw_acc = np.zeros(rows)
    rep_acc = np.zeros(rows)
    y_acc = np.zeros(rows)
    checkpoint()
    step, next_checkpoint = 0, stride
    for start in range(0, n_steps, block):
        drawn = wiener_increment(rngs, cfg.dt, out=noise[:, :min(block, n_steps - start)])
        for j in range(0, drawn.shape[1], SLAB_STEPS):
            cols = drawn[:, j:j + SLAB_STEPS]
            np.multiply(cols.T, sqrt_dt, out=slab[:cols.shape[1]])
            for dw in slab_rows[:cols.shape[1]]:
                step += 1
                try:
                    v, tr_meas, mags = kernel.step(v, dw)
                except IntegrationError as err:
                    err.step = step
                    err.args = (f"step {step} (t={step * cfg.dt:.6g}): {err}",)
                    raise
                if signals:
                    np.multiply(tr_meas, cfg.dt, out=y_step)
                    y_acc += y_step
                    y_acc += dw
                    dw_acc += dw
                # a row that does not clip adds +0.0, which changes no bit of
                # the nonnegative sums, so a step where no row clips adds nothing
                if mags is not kernel.no_clip:
                    rep_acc += mags
                if step == next_checkpoint:
                    checkpoint()
                    next_checkpoint += stride
                    dw_acc[:] = 0.0
                    rep_acc[:] = 0.0


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
    rho = _initial_state(model, rho0)
    kept = []
    _run_em_batch(model, rho, cfg, [np.random.default_rng(seed)], lambda *rows: kept.append(rows))
    return TrajectoryRecord(cfg.checkpoint_times, *(np.stack(c)[:, 0] for c in zip(*kept)))


def integrate_master_equation(
    model: ModelSpec,
    rho0,
    cfg: IntegratorConfig,
) -> TrajectoryRecord:
    """Integrate the unconditional master equation with classical RK4.

    The model's control law must fix the input, so the generator G =
    ``model.generator`` is linear and one RK4 step of h = dt is
    S = I + hG(I + hG/2 (I + hG/3 (I + hG/4))); each checkpoint applies
    S^record_stride once.  Records carry zero noise and repair columns so
    the result is interchangeable with trajectory records.
    """
    if model.control.reads_state:
        raise ValidationError("master equation needs a control law that does not read the state")
    rho = _initial_state(model, rho0)
    hg = cfg.dt * model.generator
    eye = np.eye(len(hg))
    v = rho.reshape(-1).astype(np.complex128)
    states = []
    with np.errstate(over="ignore", invalid="ignore"):
        rk4_step = eye + hg @ (eye + hg @ (eye + hg @ (eye + hg / 4) / 3) / 2)
        advance = np.linalg.matrix_power(rk4_step, cfg.record_stride)
        for k in range(len(cfg.checkpoint_times)):
            if k:
                v = advance @ v
            mat = v.reshape(rho.shape)
            states.append(0.5 * (mat + dagger(mat)))
        states = np.array(states)
        try:
            _check_densities(states, eig_tol=1e-9, trace_tol=1e-9)
        except ValidationError as err:
            step = err.index * cfg.record_stride
            raise IntegrationError(
                f"master equation state invalid at step {step}: {err}", step=step
            ) from None
    zeros = np.zeros(len(states))
    return TrajectoryRecord(
        times=cfg.checkpoint_times,
        states=states,
        entropies=entropy_of_states(states),
        dW_draws=zeros,
        repair_magnitudes=zeros.copy(),
        measurement_record=zeros.copy(),
    )
