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
    dagger,
    inverse_density,
    log_density,
    require_hermitian,
    validate_density,
)
from .model import ModelSpec, dissipator, innovation

if TYPE_CHECKING:  # pragma: no cover
    from .ensemble import EnsembleStatistics

# Inputs whose floored spectrum shifts the entropy by more than this are
# rejected instead of silently regularized.
FLOOR_DISTORTION_TOL = 1e-8


def entropy_from_eigenvalues(w: np.ndarray) -> np.ndarray:
    """-sum(w ln w) over the last axis with the 0*ln(0) = 0 convention."""
    pos = w > 0.0
    safe = np.where(pos, w, 1.0)
    return -np.sum(np.where(pos, safe * np.log(safe), 0.0), axis=-1)


def entropy_of_states(states: np.ndarray) -> np.ndarray:
    """Entropies of a stack of already-validated density matrices."""
    return entropy_from_eigenvalues(np.linalg.eigvalsh(states))


def von_neumann_entropy(rho) -> float:
    """-Tr(rho ln rho) for a valid density matrix; lies in [0, ln d]."""
    a = validate_density(rho)
    w = np.linalg.eigvalsh((a + dagger(a)) / 2.0)
    return float(entropy_from_eigenvalues(w))


def observable_variance(probe, rho) -> float:
    """Tr(L^2 rho) - Tr(L rho)^2 for a Hermitian probe L."""
    l = as_operator(probe, "probe")
    require_hermitian(
        l, "observable variance requires a Hermitian probe (max asymmetry {:.3e}); "
        "non-Hermitian probes are outside the validity domain of the rate bound"
    )
    r = validate_density(rho)
    check_same_dim(l, r)
    mean = np.trace(l @ r).real
    second = np.trace(l @ l @ r).real
    return second - mean * mean


def quantumness(decoherence, rho) -> float:
    """Tr([M^dag, M] rho), the quantumness of the decoherence operator.

    Zero for normal (in particular Hermitian) M.
    """
    m = as_operator(decoherence, "decoherence")
    r = validate_density(rho)
    check_same_dim(m, r)
    val = np.trace((dagger(m) @ m - m @ dagger(m)) @ r)
    return float(val.real)


def _floored_log(rho: np.ndarray, floor: float) -> np.ndarray:
    """log_density plus a guard against floor-induced entropy distortion."""
    w = np.linalg.eigvalsh((rho + dagger(rho)) / 2.0)
    shift = abs(
        float(entropy_from_eigenvalues(np.maximum(w, floor)))
        - float(entropy_from_eigenvalues(w))
    )
    if shift > FLOOR_DISTORTION_TOL:
        raise ValidationError(
            f"state too singular: eigenvalue floor {floor:.1e} would shift its "
            f"entropy by {shift:.3e}"
        )
    return log_density(rho, floor)


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
    comm_bound = np.trace((dagger(a) @ a - a @ dagger(a)) @ r).real
    return float(production - comm_bound)


def ito_correction_terms(probe, rho, floor: float = EIG_FLOOR) -> tuple[float, float]:
    """Second-order entropy terms for a Hermitian probe.

    Returns (Tr[rho^-1 (H[L] rho)^2], 4 Var[L]).  The two coincide when
    [L, rho] = 0; in general the first dominates the second.
    """
    l = as_operator(probe, "probe")
    require_hermitian(l, "Hermitian probe required (max asymmetry {:.3e})")
    r = validate_density(rho)
    check_same_dim(l, r)
    b = innovation(l, r)
    quad = np.trace(inverse_density(r, floor) @ b @ b).real
    return float(quad), 4.0 * observable_variance(l, r)


def entropy_rate_bound(model: ModelSpec, mean_state) -> float:
    """Lower bound on the entropy rate evaluated at the mean state.

    quantumness(M, rho) - 4 Var[L](rho); requires a Hermitian probe
    (``observable_variance`` checks it).
    """
    r = validate_density(mean_state)
    var = observable_variance(model.probe, r)
    return float(np.trace(model.quantumness_operator @ r).real) - 4.0 * var


# Rate-bound values within this distance of zero are treated as zero:
# the bound is a difference of operator traces, so states exactly on the
# certificate boundary evaluate to 0 only up to round-off from squaring
# rate-scaled operators.
BOUND_SIGN_TOL = 1e-12


def certifies_entropy_nondecreasing(model: ModelSpec, mean_state) -> bool:
    """True iff the rate bound is nonnegative at the mean state.

    A sufficient (not necessary) condition for the ensemble-mean entropy
    to be nondecreasing.
    """
    return entropy_rate_bound(model, mean_state) >= -BOUND_SIGN_TOL


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
    rhs = np.array([entropy_rate_bound(model, rho) for rho in stats.mean_state])
    sufficient = rhs >= -BOUND_SIGN_TOL
    violation = rate < rhs - 3.0 * rate_se
    return EntropyBoundReport(
        times=np.asarray(stats.times, dtype=float),
        lhs_rate=rate,
        lhs_se=rate_se,
        rhs_bound=rhs,
        sufficient_flag=sufficient,
        violation_flag=violation,
    )
