"""Two-level stabilization scenario: Bloch parametrization, the
dispersive-measurement model with spontaneous emission, the closed-form
threshold on the mean Bloch-z component and analytic master-equation
solutions used as oracles.

Basis convention: |0> = (1, 0)^T is the excited state (Bloch z = +1),
|1> = (0, 1)^T the ground state; sigma_minus = |1><0| lowers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .entropy import certifies_entropy_nondecreasing
from .linalg import ValidationError, validate_density
from .model import ControlLaw, ModelSpec

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=np.complex128)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=np.complex128)
SIGMA_MINUS = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=np.complex128)
SIGMA_PLUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=np.complex128)
for _m in (SIGMA_X, SIGMA_Y, SIGMA_Z, SIGMA_MINUS, SIGMA_PLUS):
    _m.setflags(write=False)


class BlochVector(NamedTuple):
    x: float
    y: float
    z: float

    @property
    def norm(self) -> float:
        return math.sqrt(self.x ** 2 + self.y ** 2 + self.z ** 2)


def bloch_to_density(b) -> np.ndarray:
    """(I + x sigma_x + y sigma_y + z sigma_z) / 2 for |b| <= 1."""
    x, y, z = (float(c) for c in b)
    norm = math.sqrt(x * x + y * y + z * z)
    if norm > 1.0 + 1e-10:
        raise ValidationError(f"Bloch vector norm {norm:.12f} exceeds 1")
    return 0.5 * np.array(
        [[1.0 + z, x - 1j * y], [x + 1j * y, 1.0 - z]], dtype=np.complex128
    )


def bloch_components(states: np.ndarray) -> np.ndarray:
    """(x, y, z) Pauli expectations, on a new last axis, of a (..., 2, 2) stack; unchecked."""
    a, b, c, d = (states[..., i, j] for i in (0, 1) for j in (0, 1))
    return np.stack([(b + c).real, (1j * (b - c)).real, (a - d).real], axis=-1)


def density_to_bloch(rho) -> BlochVector:
    """Pauli expectations (Tr sigma_x rho, Tr sigma_y rho, Tr sigma_z rho)."""
    r = validate_density(rho)
    if r.shape[0] != 2:
        raise ValidationError(f"Bloch coordinates require a qubit, got dim {r.shape[0]}")
    return BlochVector(*bloch_components(r).tolist())


@dataclass(frozen=True)
class QubitScenario:
    """Measurement rate kappa and decoherence ratio alpha (gamma = alpha kappa)."""

    kappa: float = 1.0
    alpha: float = 0.0
    control: ControlLaw = field(default_factory=ControlLaw)

    def __post_init__(self):
        for name in ("kappa", "alpha"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValidationError(f"{name} must be finite, got {value!r}")
            if value < 0:
                raise ValidationError(f"{name} must be nonnegative")

    @property
    def gamma(self) -> float:
        return self.alpha * self.kappa


def qubit_model(scenario: QubitScenario) -> ModelSpec:
    """Model with H = sigma_y, L = sqrt(kappa) sigma_z, M = sqrt(gamma) sigma_minus."""
    return ModelSpec(
        dim=2,
        hamiltonian=SIGMA_Y.copy(),
        probe=math.sqrt(scenario.kappa) * SIGMA_Z,
        decoherence=math.sqrt(scenario.gamma) * SIGMA_MINUS,
        control=scenario.control,
    )


def z_threshold(alpha: float) -> float:
    """Positive root of 4 z^2 + alpha z - 4 = 0, in (0, 1].

    Mean Bloch-z values at or above this threshold make the entropy-rate
    bound nonnegative for the qubit model.  Written in the cancellation-
    free form 8 / (sqrt(alpha^2 + 64) + alpha).
    """
    if alpha < 0:
        raise ValidationError("alpha must be nonnegative")
    if alpha > 1e100:
        # alpha * alpha overflows above about 1.3e154; from 1e100 up, where
        # it is finite, the form below rounds to 4 / alpha bit for bit
        return 4.0 / alpha
    return 8.0 / (math.sqrt(alpha * alpha + 64.0) + alpha)


def dephasing_x(x0: float, kappa: float, t: float) -> float:
    """Bloch-x under pure dephasing: x0 exp(-2 kappa t)."""
    if t < 0:
        raise ValidationError("t must be nonnegative")
    return x0 * math.exp(-2.0 * kappa * t)


def decay_z(z0: float, gamma: float, t: float) -> float:
    """Bloch-z under pure decay toward the ground state: -1 + (z0 + 1) exp(-gamma t)."""
    if t < 0:
        raise ValidationError("t must be nonnegative")
    return -1.0 + (z0 + 1.0) * math.exp(-gamma * t)


def unconditional_bloch(scenario: QubitScenario, b0, t: float) -> BlochVector:
    """Closed-form ensemble-mean Bloch vector at time t with zero control.

    The mean obeys dx/dt = -(2 kappa + gamma/2) x (same for y) and
    dz/dt = -gamma (1 + z); exact for any rates, so usable where an
    explicit integrator would be stiff.
    """
    if t < 0:
        raise ValidationError("t must be nonnegative")
    x0, y0, z0 = (float(c) for c in b0)
    transverse = math.exp(-(2.0 * scenario.kappa + 0.5 * scenario.gamma) * t)
    return BlochVector(
        x=x0 * transverse,
        y=y0 * transverse,
        z=-1.0 + (z0 + 1.0) * math.exp(-scenario.gamma * t),
    )


def threshold_consistency(scenario: QubitScenario, z: float) -> bool:
    """Check the sufficient condition against the closed-form threshold.

    Evaluates the condition at the axial state with Bloch z and compares
    with z >= z_threshold(alpha); the two must agree for every z.
    """
    if abs(z) > 1.0:
        raise ValidationError("z must lie in [-1, 1]")
    if scenario.kappa <= 0:
        raise ValidationError("threshold comparison requires kappa > 0")
    state = bloch_to_density((0.0, 0.0, z))
    condition = certifies_entropy_nondecreasing(qubit_model(scenario), state)
    return condition == (z >= z_threshold(scenario.alpha))
