"""Entropy analytics: von Neumann entropy, observable variance,
decoherence quantumness, the entropy-production inequalities and the
entropy-rate lower bound with its sufficient condition.

The bound operations require a Hermitian probe: the derivation of the
rate bound uses H[L] rho = L rho + rho L - 2 Tr[L rho] rho, which only
holds for L = L^dag.  Non-Hermitian probes are rejected rather than
silently accepted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .linalg import (
    EIG_FLOOR,
    ValidationError,
    as_operator,
    check_same_dim,
    commutator,
    dagger,
    hermitian_eig,
    matrix_function,
    require_hermitian,
    validate_densities,
    validate_density,
)
from .model import ModelSpec, dissipator, innovation

if TYPE_CHECKING:  # pragma: no cover
    from .ensemble import EnsembleStatistics

# Inputs whose floored spectrum shifts the entropy by more than this are
# rejected instead of silently regularized.
FLOOR_DISTORTION_TOL = 1e-8


def entropy_from_eigenvalues(w: np.ndarray, axis: int = -1) -> np.ndarray:
    """-sum(w ln w) over the eigenvalue axis with the 0*ln(0) = 0 convention."""
    pos = w > 0.0
    safe = np.where(pos, w, 1.0)
    return -np.sum(np.where(pos, safe * np.log(safe), 0.0), axis=axis)


# LAPACK's dlamch('E'), the relative precision at which dsterf splits off
# a negligible off-diagonal entry.
_LAPACK_EPS = np.finfo(float).eps / 2


def _real_2x2_eigenpair(r: np.ndarray) -> np.ndarray:
    """The eigenvalues zheevd computes for each matrix of a real (..., 2, 2) stack, unsorted.

    numpy's eigenvalues-only Hermitian solve hands each matrix to LAPACK's
    zheevd with UPLO='L', which reads only r00, r10 and r11.  For a real
    r10 its Householder step is the identity, so dsterf gets d = (r00, r11)
    and e = r10.  dsterf keeps the diagonal when e passes either of its
    split tests; otherwise dlae2 gives the pair (rt1, rt2).  These are
    LAPACK's operations in LAPACK's order, so on the build they were
    checked on the pair, a (2, ...) array, is the one dlasrt then sorts,
    bit for bit, wherever no entry lies outside about 1e-122..1e146, where
    LAPACK rescales first.
    """
    d1, d2, e = r[..., 0, 0], r[..., 1, 1], r[..., 1, 0]
    a1, a2 = np.abs(d1), np.abs(d2)
    ee = e * e
    split = ((np.abs(e) <= np.sqrt(a1) * np.sqrt(a2) * _LAPACK_EPS)
             | (ee <= _LAPACK_EPS * _LAPACK_EPS * (a1 * a2)))
    # dlae2(d1, b, d2) with b = sqrt(e*e); split rows may divide by zero here
    b = np.sqrt(ee)
    sm = d1 + d2
    adf = np.abs(d1 - d2)
    ab = b + b
    mx = np.maximum(adf, ab)
    with np.errstate(divide="ignore", invalid="ignore"):
        q = np.minimum(adf, ab) / mx
        rt = mx * np.sqrt(1.0 + q * q)
        # sm + 0.0 is +0 for sm = -0: dlae2 takes the positive root there
        rt1 = np.copysign(0.5 * (np.abs(sm) + rt), sm + 0.0)
        big = a1 > a2
        rt2 = (np.where(big, d1, d2) / rt1) * np.where(big, d2, d1) - (b / rt1) * b
    rt2 = np.where(sm == 0.0, -0.5 * rt, rt2)
    return np.stack((np.where(split, d1, rt1), np.where(split, d2, rt2)))


def entropy_of_states(states: np.ndarray) -> np.ndarray:
    """Entropies of a stack of already-validated density matrices.

    A 2x2 stack with a real r10, as every state of a real qubit model from
    a real start has, takes ``_real_2x2_eigenpair``; any other stack
    ``eigvalsh``.  The entropy adds the pair's two terms, and floating-point
    addition is commutative, so the pair is not sorted.
    """
    if states.shape[-2:] == (2, 2) and not states[..., 1, 0].imag.any():
        return entropy_from_eigenvalues(_real_2x2_eigenpair(states.real), axis=0)
    return entropy_from_eigenvalues(np.linalg.eigvalsh(states))


def von_neumann_entropy(rho) -> float:
    """-Tr(rho ln rho) for a valid density matrix; lies in [0, ln d]."""
    return float(entropy_of_states(validate_density(rho)))


# The one message for a non-Hermitian probe: the rate bound holds only for L = L^dag.
PROBE_MESSAGE = ("the rate bound requires a Hermitian probe (max asymmetry {:.3e}): "
                 "it is only valid for self-adjoint measured couplings")


def bound_inputs(probe, states) -> tuple[np.ndarray, np.ndarray]:
    """Check the bound's probe (Hermitian, else PROBE_MESSAGE) and state or (..., d, d) stack."""
    l = as_operator(probe, "probe")
    require_hermitian(l, PROBE_MESSAGE)
    r = np.asarray(states, dtype=np.complex128)
    if r.shape[-2:] != l.shape:
        raise ValidationError(f"dimension mismatch: {l.shape} vs {r.shape}")
    validate_densities(r)
    return l, r


def _variance(l: np.ndarray, r: np.ndarray):
    mean = np.trace(l @ r, axis1=-2, axis2=-1).real
    second = np.trace(l @ l @ r, axis1=-2, axis2=-1).real
    return second - mean * mean


def observable_variance(probe, rho):
    """Tr(L^2 rho) - Tr(L rho)^2 for a Hermitian probe L, per state of a (..., d, d) stack."""
    return _variance(*bound_inputs(probe, rho))


def quantumness(decoherence, rho) -> float:
    """Tr([M^dag, M] rho), the quantumness of the decoherence operator.

    Zero for normal (in particular Hermitian) M.
    """
    m = as_operator(decoherence, "decoherence")
    r = validate_density(rho)
    check_same_dim(m, r)
    return float(np.trace(commutator(dagger(m), m) @ r).real)


def _floored_log(rho: np.ndarray, floor: float) -> np.ndarray:
    """The floored log of a validated state, unless the floor shifts its entropy."""
    dec = hermitian_eig(rho)
    log_rho = dec.floored(np.log, floor)  # checks the floor before the guard reads the spectrum
    w = dec.eigenvalues
    shift = abs(
        float(entropy_from_eigenvalues(np.maximum(w, floor)))
        - float(entropy_from_eigenvalues(w))
    )
    if shift > FLOOR_DISTORTION_TOL:
        raise ValidationError(
            f"state too singular: eigenvalue floor {floor:.1e} would shift its "
            f"entropy by {shift:.3e}"
        )
    return log_rho


def dissipator_entropy_gap(a, rho, floor: float = EIG_FLOOR) -> float:
    """-Tr{D[a] rho ln rho} - Tr([a^dag, a] rho).

    The first term is the dissipator's entropy-production rate; the
    second is its commutator lower bound.  Nonnegative for every
    operator ``a`` and full-rank state.
    """
    a = as_operator(a, "a")
    r = validate_density(rho)
    check_same_dim(a, r)
    log_rho = _floored_log(r, floor)
    production = -np.trace(dissipator(a, r) @ log_rho).real
    return float(production - np.trace(commutator(dagger(a), a) @ r).real)


def ito_correction_terms(probe, rho, floor: float = EIG_FLOOR) -> tuple[float, float]:
    """Second-order entropy terms for a Hermitian probe.

    Returns (Tr[rho^-1 (H[L] rho)^2], 4 Var[L]).  The two coincide when
    [L, rho] = 0; in general the first dominates the second.
    """
    l, r = bound_inputs(probe, rho)
    b = innovation(l, r)
    quad = np.trace(matrix_function(r, lambda w: 1.0 / w, floor) @ b @ b).real
    return float(quad), 4.0 * _variance(l, r)


def entropy_rate_bound(model: ModelSpec, mean_state):
    """Lower bound on the entropy rate evaluated at the mean state.

    Tr([M^dag, M] rho) - 4 Var[L](rho) for a Hermitian probe L; a
    (..., d, d) stack of states gives one value per state.
    """
    l, r = bound_inputs(model.probe, mean_state)
    quant = np.trace(model.quantumness_operator @ r, axis1=-2, axis2=-1).real
    return quant - 4.0 * _variance(l, r)


# Rate-bound values within this distance of zero are treated as zero:
# the bound is a difference of operator traces, so states exactly on the
# certificate boundary evaluate to 0 only up to round-off from squaring
# rate-scaled operators.
BOUND_SIGN_TOL = 1e-12


def bound_certifies(rhs):
    """The sufficient condition on rate-bound values: rhs >= -BOUND_SIGN_TOL."""
    return rhs >= -BOUND_SIGN_TOL


def certifies_entropy_nondecreasing(model: ModelSpec, mean_state):
    """True iff the rate bound is nonnegative at the mean state.

    A sufficient (not necessary) condition for the ensemble-mean entropy
    to be nondecreasing.  A (..., d, d) stack gives one flag per state.
    """
    ok = bound_certifies(entropy_rate_bound(model, mean_state))
    return ok if np.ndim(ok) else bool(ok)


def log_inequality_gap(rho, floor: float = EIG_FLOOR) -> float:
    """Smallest eigenvalue of (-ln rho) - (I - rho); nonnegative.

    Matrix form of -ln(x) >= 1 - x on the floored spectrum.
    """
    r = validate_density(rho)
    log_rho = _floored_log(r, floor)
    gap_matrix = -log_rho - (np.eye(r.shape[0]) - r)
    return float(np.linalg.eigvalsh((gap_matrix + dagger(gap_matrix)) / 2.0)[0])


def check_bound_checkpoints(n: int) -> None:
    """Raise ValidationError unless ``n`` checkpoints allow a central difference."""
    if n < 3:
        raise ValidationError(f"need at least 3 checkpoints, got {n}")


def entropy_rate_estimate(stats: "EnsembleStatistics") -> tuple[np.ndarray, np.ndarray]:
    """Finite-difference d E[S_t]/dt along an ensemble, with errors.

    Central differences on the interior, one-sided at the ends; the
    standard error combines the entropy errors of the two checkpoints
    entering each difference.
    """
    t = np.asarray(stats.times, dtype=float)
    s = np.asarray(stats.mean_entropy, dtype=float)
    se = np.asarray(stats.entropy_se, dtype=float)
    n = len(t)
    check_bound_checkpoints(n)
    # each checkpoint's difference runs from checkpoint lo to hi
    lo = np.maximum(np.arange(n) - 1, 0)
    hi = np.minimum(np.arange(n) + 1, n - 1)
    span = t[hi] - t[lo]
    return (s[hi] - s[lo]) / span, np.hypot(se[hi], se[lo]) / span


@dataclass(frozen=True)
class EntropyBoundReport:
    """Per-checkpoint comparison of the entropy rate against its bound.

    ``violation_flag`` is set exactly where the estimated rate falls
    below the bound by more than three standard errors.
    """

    times: np.ndarray
    lhs_rate: np.ndarray
    lhs_se: np.ndarray
    rhs_bound: np.ndarray
    sufficient_flag: np.ndarray
    violation_flag: np.ndarray

    @property
    def has_violation(self) -> bool:
        return bool(np.any(self.violation_flag))


def build_bound_report(model: ModelSpec, stats: "EnsembleStatistics") -> EntropyBoundReport:
    """Evaluate the rate bound along an ensemble and flag violations."""
    rate, rate_se = entropy_rate_estimate(stats)
    rhs = entropy_rate_bound(model, stats.mean_state)
    sufficient = bound_certifies(rhs)
    violation = rate < rhs - 3.0 * rate_se
    return EntropyBoundReport(
        times=np.asarray(stats.times, dtype=float),
        lhs_rate=rate,
        lhs_se=rate_se,
        rhs_bound=rhs,
        sufficient_flag=sufficient,
        violation_flag=violation,
    )
