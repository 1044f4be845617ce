"""Measurement-feedback model definition and its superoperators.

A model is the operator triple (H, L, M) plus a scalar control law u(rho):
H is the feedback Hamiltonian, L the measured (probe) coupling and M the
uncontrolled decoherence coupling.  The conditioned state evolves as

    d rho = -i [u H, rho] dt + D[L] rho dt + D[M] rho dt + H[L] rho dW,

with the dissipator D and innovation superoperator H defined below.  With
the control input held fixed the ensemble mean obeys the linear master
equation whose right-hand side is ``lindblad_rhs``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .linalg import (
    ValidationError,
    as_operator,
    check_same_dim,
    dagger,
    require_hermitian,
    require_integer,
    validate_density,
)

CONTROL_KINDS = ("zero", "constant", "bloch_x_proportional")


@dataclass(frozen=True)
class ControlLaw:
    """Scalar feedback law u(rho).

    kind "zero" returns 0, "constant" returns ``value``, and
    "bloch_x_proportional" returns -gain * Tr(sigma_x rho) and is only
    defined for two-level systems.
    """

    kind: str = "zero"
    value: float = 0.0
    gain: float = 0.0

    def __post_init__(self):
        if self.kind not in CONTROL_KINDS:
            raise ValidationError(
                f"unknown control law {self.kind!r}; expected one of {CONTROL_KINDS}"
            )
        for name in ("value", "gain"):
            x = getattr(self, name)
            if not math.isfinite(x):
                raise ValidationError(f"control {name} must be finite, got {x!r}")


def evaluate_control(law: ControlLaw, rho: np.ndarray) -> float:
    """Evaluate the feedback input for the given conditioned state."""
    if law.kind == "zero":
        return 0.0
    if law.kind == "constant":
        return float(law.value)
    # bloch_x_proportional
    r = as_operator(rho, "state")
    if r.shape[0] != 2:
        raise ValidationError("bloch_x_proportional control requires a two-level system")
    x = (r[0, 1] + r[1, 0]).real  # Tr(sigma_x rho)
    return -law.gain * x


@dataclass(frozen=True)
class ModelSpec:
    """Operator triple (H, L, M) and control law for one model.

    ``hamiltonian`` must be Hermitian; ``probe`` and ``decoherence`` are
    unrestricted d x d complex matrices.  Rates are folded into the
    operators themselves (e.g. a probe measured at rate kappa enters as
    sqrt(kappa) times the bare operator).  Derived operators are built
    once per model, on first use, and are shared: do not modify them.
    """

    dim: int
    hamiltonian: np.ndarray
    probe: np.ndarray
    decoherence: np.ndarray
    control: ControlLaw = field(default_factory=ControlLaw)

    def __post_init__(self):
        require_integer(self.dim, "dim")
        h = as_operator(self.hamiltonian, "hamiltonian")
        l = as_operator(self.probe, "probe")
        m = as_operator(self.decoherence, "decoherence")
        for name, op in (("hamiltonian", h), ("probe", l), ("decoherence", m)):
            if op.shape != (self.dim, self.dim):
                raise ValidationError(
                    f"{name} has shape {op.shape}, expected ({self.dim}, {self.dim})"
                )
        require_hermitian(h, "hamiltonian is not Hermitian: max asymmetry {:.3e}")
        if self.control.kind == "bloch_x_proportional" and self.dim != 2:
            raise ValidationError("bloch_x_proportional control requires a two-level system")
        object.__setattr__(self, "hamiltonian", h)
        object.__setattr__(self, "probe", l)
        object.__setattr__(self, "decoherence", m)

    @cached_property
    def dissipative_superop(self) -> np.ndarray:
        """Matrix of rho -> D[L] rho + D[M] rho acting on vec(rho)."""
        return dissipator_superop(self.probe) + dissipator_superop(self.decoherence)

    @cached_property
    def feedback_superop(self) -> np.ndarray:
        """Matrix of rho -> -i [H, rho], the drift per unit control input."""
        return hamiltonian_superop(self.hamiltonian)

    @cached_property
    def measurement_superop(self) -> np.ndarray:
        """Matrix of rho -> L rho + rho L^dag, the linear part of the innovation H[L] rho."""
        return innovation_superop(self.probe)

    @cached_property
    def quantumness_operator(self) -> np.ndarray:
        """[M^dag, M], whose expectation is the quantumness of the decoherence."""
        m = self.decoherence
        return dagger(m) @ m - m @ dagger(m)

    @cached_property
    def generator(self) -> np.ndarray:
        """D[L] + D[M], plus u (-i[H, .]) under a "constant" law of value u."""
        u = self.control.value if self.control.kind == "constant" else 0.0
        if u != 0.0:
            return self.dissipative_superop + u * self.feedback_superop
        return self.dissipative_superop


def dissipator(a, rho) -> np.ndarray:
    """D[a] rho = a rho a^dag - (a^dag a rho + rho a^dag a) / 2.

    Traceless for any ``a``; Hermitian whenever ``rho`` is.
    """
    a = as_operator(a, "a")
    r = as_operator(rho, "rho")
    check_same_dim(a, r)
    ada = dagger(a) @ a
    return a @ r @ dagger(a) - 0.5 * (ada @ r + r @ ada)


def innovation(a, rho) -> np.ndarray:
    """H[a] rho = a rho + rho a^dag - Tr[(a + a^dag) rho] rho.

    The measurement back-action term multiplying the Wiener increment;
    traceless by construction.
    """
    a = as_operator(a, "a")
    r = as_operator(rho, "rho")
    check_same_dim(a, r)
    return a @ r + r @ dagger(a) - np.trace((a + dagger(a)) @ r) * r


def sme_increment(model: ModelSpec, rho, dt: float, dW: float) -> np.ndarray:
    """One Euler increment of the conditioned dynamics.

    Returns (-i[uH, rho] + D[L] rho + D[M] rho) dt + H[L] rho dW with
    u = evaluate_control(model.control, rho).  The result is traceless.
    """
    if not dt > 0:
        raise ValidationError("dt must be positive")
    r = validate_density(rho)
    return lindblad_rhs(model, r) * dt + innovation(model.probe, r) * dW


def lindblad_rhs(model: ModelSpec, rho) -> np.ndarray:
    """Right-hand side of the unconditional master equation.

    -i[uH, rho] + D[L] rho + D[M] rho with u = evaluate_control(model.control,
    rho).  Linear in rho under a law that fixes u.
    """
    r = validate_density(rho)
    u = evaluate_control(model.control, r)
    out = dissipator(model.probe, r) + dissipator(model.decoherence, r)
    if u != 0.0:
        h = model.hamiltonian
        out = out - 1j * u * (h @ r - r @ h)
    return out


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


def innovation_superop(a: np.ndarray) -> np.ndarray:
    """Matrix of rho -> a rho + rho a^dag acting on vec(rho)."""
    return _left(a) + _right(dagger(a))
