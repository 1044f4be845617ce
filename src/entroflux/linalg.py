"""Dense complex matrix kernel: validated density matrices, Hermitian
eigendecomposition, matrix functions, commutators and expectations.

All functions are pure and operate on plain ``numpy.ndarray`` values of
dtype complex128.  Density matrices are validated against Hermiticity,
positive semidefiniteness and unit trace; every other module in the
package builds on these checks.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

# Validation tolerances, chosen at roughly 100x accumulated round-off for
# dimensions up to 8.  Callers may override per call.
HERMITICITY_TOL = 1e-10
EIGENVALUE_TOL = 1e-10
TRACE_TOL = 1e-10

# Floor applied to eigenvalues before logarithms / inverses so that
# rank-deficient (pure) states stay computable; realizes 0*ln(0) = 0.
EIG_FLOOR = 1e-12


class ValidationError(ValueError):
    """An operator or state failed a structural precondition."""

    index = None  # the failing state's position in the checked stack


def require_integer(value, name: str) -> None:
    """Raise ValidationError unless ``value`` is an integer; a bool is not one."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValidationError(f"{name} must be an integer, got {value!r}")


def as_operator(m, name: str = "operator") -> np.ndarray:
    """Coerce to a square complex128 matrix with finite entries."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValidationError(f"{name} must be a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValidationError(f"{name} contains non-finite entries")
    return a


def dagger(a: np.ndarray) -> np.ndarray:
    return a.conj().T


def hermiticity_defect(a: np.ndarray) -> float:
    """Max-norm distance from the Hermitian cone, max |a - a^dag|."""
    return float(np.max(np.abs(a - dagger(a)))) if a.size else 0.0


def is_hermitian(a: np.ndarray) -> bool:
    """True iff ``a`` is within ``HERMITICITY_TOL`` of Hermitian."""
    return hermiticity_defect(a) <= HERMITICITY_TOL


def require_hermitian(a: np.ndarray, message: str) -> None:
    """Unless ``is_hermitian(a)``, raise ValidationError(message.format(max asymmetry))."""
    if not is_hermitian(a):
        raise ValidationError(message.format(hermiticity_defect(a)))


def check_same_dim(a: np.ndarray, b: np.ndarray) -> None:
    if a.shape != b.shape:
        raise ValidationError(f"dimension mismatch: {a.shape} vs {b.shape}")


def _check_densities(flat: np.ndarray, herm_tol: float = HERMITICITY_TOL,
                     eig_tol: float = EIGENVALUE_TOL, trace_tol: float = TRACE_TOL) -> None:
    """Check an (n, d, d) complex128 stack of states as whole arrays.

    The first state that is not finite, Hermitian, of unit trace and with
    eigenvalues >= -``eig_tol`` raises ValidationError naming the first
    of those it violates, with its position as ``index``.
    """
    finite = np.isfinite(flat).all(axis=(1, 2))
    m = np.where(finite[:, None, None], flat, 0.0)  # keeps NaN out of the eigensolver
    adj = np.conj(np.swapaxes(m, 1, 2))
    asym = np.abs(m - adj).max(axis=(1, 2))
    tr = np.trace(m, axis1=1, axis2=2)
    lam = np.linalg.eigvalsh((m + adj) / 2.0)[:, 0]
    bad = ~finite | (asym > herm_tol) | (np.abs(tr - 1.0) > trace_tol) | (lam < -eig_tol)
    if bad.any():
        i = int(np.argmax(bad))
        if not finite[i]:
            text = "density matrix contains non-finite entries"
        elif asym[i] > herm_tol:
            text = f"density matrix is not Hermitian: max asymmetry {asym[i]:.3e} > {herm_tol:.1e}"
        elif abs(tr[i] - 1.0) > trace_tol:
            text = f"density matrix trace {tr[i]:.17g} is not 1 within {trace_tol:.1e}"
        else:
            text = f"density matrix has negative eigenvalue {lam[i]:.3e} below -{eig_tol:.1e}"
        err = ValidationError(text)
        err.index = i
        raise err


def validate_density(
    rho,
    herm_tol: float = HERMITICITY_TOL,
    eig_tol: float = EIGENVALUE_TOL,
    trace_tol: float = TRACE_TOL,
) -> np.ndarray:
    """Validate a density matrix and return it as a complex128 array.

    Checks Hermiticity within ``herm_tol``, unit trace within
    ``trace_tol`` and eigenvalues >= -``eig_tol``; raises ValidationError
    naming the violated invariant otherwise.
    """
    a = as_operator(rho, "density matrix")
    _check_densities(a[None], herm_tol, eig_tol, trace_tol)
    return a


def validate_densities(states) -> None:
    """``validate_density``'s checks on a (..., d, d) stack of states, as whole arrays.

    The first rejected state in C order raises the ValidationError that
    ``validate_density`` gives it, with its position in the stack as ``index``.
    """
    a = np.asarray(states, dtype=np.complex128)
    try:
        _check_densities(a.reshape(-1, *a.shape[-2:]))
    except ValidationError as err:
        err.index = tuple(int(k) for k in np.unravel_index(err.index, a.shape[:-2]))
        raise


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigensystem of a Hermitian matrix, eigenvalues sorted descending.

    ``vectors`` holds the eigenvectors as columns; reconstruction is
    ``vectors @ diag(eigenvalues) @ vectors^dag``.
    """

    eigenvalues: np.ndarray
    vectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return (self.vectors * self.eigenvalues) @ dagger(self.vectors)

    def floored(self, f, floor: float) -> np.ndarray:
        """The Hermitian matrix of ``f`` on the spectrum lifted to ``floor``, which must be > 0."""
        if not floor > 0:
            raise ValidationError("floor must be positive")
        out = (self.vectors * f(np.maximum(self.eigenvalues, floor))) @ dagger(self.vectors)
        return (out + dagger(out)) / 2.0


def hermitian_eig(m) -> SpectralDecomposition:
    """Eigendecompose a Hermitian matrix, eigenvalues descending.

    The input is symmetrized before the solve; an input that is not
    ``is_hermitian`` is rejected with the max asymmetry in the message.
    """
    a = as_operator(m)
    require_hermitian(a, f"matrix is not Hermitian: max asymmetry {{:.3e}} > {HERMITICITY_TOL:.1e}")
    w, v = np.linalg.eigh((a + dagger(a)) / 2.0)
    order = np.arange(len(w) - 1, -1, -1)
    return SpectralDecomposition(eigenvalues=w[order], vectors=v[:, order])


def matrix_function(rho, f, floor: float = EIG_FLOOR) -> np.ndarray:
    """Apply the scalar function ``f`` to the floored spectrum of ``rho``."""
    return hermitian_eig(rho).floored(f, floor)


def log_density(rho, floor: float = EIG_FLOOR) -> np.ndarray:
    """Matrix logarithm of a density matrix with eigenvalue floor.

    Eigenvalues below ``floor`` are lifted to it before taking logs, so
    pure states map to finite (if large-magnitude) matrices.
    """
    a = validate_density(rho)
    return matrix_function(a, np.log, floor)


def inverse_density(rho, floor: float = EIG_FLOOR) -> np.ndarray:
    """Floored spectral inverse of a density matrix."""
    a = validate_density(rho)
    return matrix_function(a, lambda w: 1.0 / w, floor)


def commutator(a, b) -> np.ndarray:
    """ab - ba."""
    a = as_operator(a, "a")
    b = as_operator(b, "b")
    check_same_dim(a, b)
    return a @ b - b @ a


def expectation(a, rho) -> complex:
    """Tr(a rho); real up to round-off when ``a`` is Hermitian."""
    a = as_operator(a, "observable")
    r = as_operator(rho, "state")
    check_same_dim(a, r)
    return complex(np.trace(a @ r))


def trace_distance(a, b) -> float:
    """Half the trace norm of a - b."""
    a = as_operator(a, "a")
    b = as_operator(b, "b")
    check_same_dim(a, b)
    diff = a - b
    w = np.linalg.eigvalsh((diff + dagger(diff)) / 2.0)
    return 0.5 * float(np.sum(np.abs(w)))


def random_hermitian(dim: int, rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
    """Gaussian Hermitian matrix, entries O(scale)."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return scale * (g + dagger(g)) / 2.0


def random_operator(dim: int, rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
    """Gaussian complex matrix with no symmetry constraint."""
    return scale * (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))


def random_density(dim: int, min_eig: float = 0.0, seed: int = 0) -> np.ndarray:
    """Random density matrix with smallest eigenvalue >= ``min_eig``.

    Draws a Ginibre matrix G, normalizes G G^dag to unit trace and mixes
    with the maximally mixed state to enforce the eigenvalue floor.
    Deterministic for a given seed.
    """
    require_integer(dim, "dim")
    if dim < 2:
        raise ValidationError(f"dimension must be >= 2, got {dim}")
    if not 0.0 <= min_eig < 1.0 / dim:
        raise ValidationError(f"min_eig must lie in [0, 1/{dim}), got {min_eig}")
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ dagger(g)
    rho /= rho.trace().real
    rho = (1.0 - dim * min_eig) * rho + min_eig * np.eye(dim)
    rho = (rho + dagger(rho)) / 2.0
    return validate_density(rho)
