"""Built-in property suites: state validation, spectral kernels, the
superoperator contracts, the entropy inequalities and the analytic
oracles.  Each suite returns when it passes and raises its counterexample
when it fails; the CLI exposes the battery as the ``selftest`` subcommand.
"""

from __future__ import annotations

import numpy as np

from . import entropy, integrate, linalg, model, qubit


class _Counterexample(Exception):
    """A suite's failure; its message is the counterexample."""


def suite_density_validation() -> None:
    """Generated states satisfy the density-matrix invariants."""
    for dim in (2, 3, 4):
        for seed in range(100):
            rho = linalg.random_density(dim, min_eig=0.0, seed=1000 * dim + seed)
            try:
                linalg.validate_density(rho)
            except linalg.ValidationError as err:
                raise _Counterexample(f"d={dim} seed={seed}: {err}\n{np.round(rho, 6)}")
            if abs(np.trace(rho).real - 1.0) > 1e-12:
                raise _Counterexample(f"d={dim} seed={seed}: trace {np.trace(rho).real!r}")


def suite_spectral_kernels() -> None:
    """Eigendecomposition reconstructs, is unitary, and log commutes."""
    rng = np.random.default_rng(7)
    for dim in (2, 3, 4, 8):
        for _ in range(50):
            m = linalg.random_hermitian(dim, rng)
            dec = linalg.hermitian_eig(m)
            recon = np.max(np.abs(dec.reconstruct() - m))
            unit = np.max(np.abs(linalg.dagger(dec.vectors) @ dec.vectors - np.eye(dim)))
            if recon > 1e-10 or unit > 1e-10:
                raise _Counterexample(f"d={dim}: reconstruction {recon:.2e}, unitarity {unit:.2e}")
            if np.any(np.diff(dec.eigenvalues) > 0):
                raise _Counterexample(f"d={dim}: eigenvalues not descending {dec.eigenvalues}")
    for dim in (2, 3, 4):
        for seed in range(30):
            rho = linalg.random_density(dim, min_eig=0.01, seed=seed)
            comm = linalg.commutator(rho, linalg.log_density(rho))
            if np.max(np.abs(comm)) > 1e-10:
                raise _Counterexample(f"log does not commute with rho, d={dim} seed={seed}")


def suite_superoperator_contracts() -> None:
    """Dissipator/innovation are traceless and Hermiticity-preserving;
    the master-equation generator is linear for fixed control."""
    rng = np.random.default_rng(11)
    for trial in range(1000):
        dim = int(rng.integers(2, 5))
        a = linalg.random_operator(dim, rng)
        rho = linalg.random_density(dim, min_eig=0.0, seed=trial)
        d_out = model.dissipator(a, rho)
        h_out = model.innovation(a, rho)
        for name, out in (("dissipator", d_out), ("innovation", h_out)):
            if abs(np.trace(out)) > 1e-12:
                raise _Counterexample(f"{name} trace {np.trace(out):.2e} (trial {trial})")
            if linalg.hermiticity_defect(out) > 1e-12:
                raise _Counterexample(f"{name} not Hermitian (trial {trial})")
    law = model.ControlLaw("constant", 0.3)
    spec = qubit.qubit_model(qubit.QubitScenario(kappa=1.0, alpha=2.0, control=law))
    for trial in range(100):
        r1 = linalg.random_density(2, min_eig=0.0, seed=trial)
        r2 = linalg.random_density(2, min_eig=0.0, seed=10_000 + trial)
        lam = float(rng.uniform())
        mix = lam * r1 + (1.0 - lam) * r2
        lhs = model.lindblad_rhs(spec, mix)
        rhs = lam * model.lindblad_rhs(spec, r1) + \
            (1.0 - lam) * model.lindblad_rhs(spec, r2)
        if np.max(np.abs(lhs - rhs)) > 1e-12:
            raise _Counterexample(f"generator not linear (trial {trial})")


def suite_log_inequality() -> None:
    """-ln(rho) dominates I - rho on random full-rank states."""
    for dim in (2, 3, 4):
        for seed in range(1000):
            rho = linalg.random_density(dim, min_eig=1e-3, seed=seed)
            gap = entropy.log_inequality_gap(rho)
            if gap < -1e-9:
                raise _Counterexample(f"gap {gap:.3e} at d={dim} seed={seed}\n{np.round(rho, 6)}")


def suite_dissipator_bound() -> None:
    """Dissipator entropy production dominates its commutator bound, and
    the quantumness of any Hermitian operator vanishes."""
    rng = np.random.default_rng(23)
    for trial in range(1000):
        dim = int(rng.integers(2, 5))
        a = linalg.random_operator(dim, rng)
        rho = linalg.random_density(dim, min_eig=1e-3, seed=trial)
        gap = entropy.dissipator_entropy_gap(a, rho)
        if gap < -1e-9:
            raise _Counterexample(f"gap {gap:.3e} at trial {trial}\nA={np.round(a, 6)}")
    for trial in range(200):
        dim = int(rng.integers(2, 5))
        h = linalg.random_hermitian(dim, rng)
        rho = linalg.random_density(dim, min_eig=0.0, seed=trial)
        q = entropy.quantumness(h, rho)
        if abs(q) > 1e-12:
            raise _Counterexample(f"Hermitian quantumness {q:.3e} at trial {trial}")


def suite_ito_correction() -> None:
    """The quadratic entropy correction dominates four times the probe
    variance, with equality whenever the probe commutes with the state."""
    rng = np.random.default_rng(31)
    for trial in range(500):
        dim = int(rng.integers(2, 5))
        probe = linalg.random_hermitian(dim, rng)
        rho = linalg.random_density(dim, min_eig=1e-3, seed=trial)
        lhs, rhs = entropy.ito_correction_terms(probe, rho)
        if lhs < rhs - 1e-8 * max(abs(rhs), 1.0):
            raise _Counterexample(
                f"quadratic term {lhs:.6e} below 4*variance {rhs:.6e} (trial {trial})")
    for trial in range(200):
        dim = int(rng.integers(2, 5))
        rho = linalg.random_density(dim, min_eig=1e-2, seed=trial)
        dec = linalg.hermitian_eig(rho)
        diag = rng.normal(size=dim)
        probe = (dec.vectors * diag) @ linalg.dagger(dec.vectors)
        lhs, rhs = entropy.ito_correction_terms(probe, rho)
        if abs(lhs - rhs) > 1e-8 * max(abs(rhs), 1.0):
            raise _Counterexample(
                f"commuting pair should be tight: lhs {lhs:.12e} rhs {rhs:.12e} (trial {trial})"
            )


def suite_master_equation_oracles() -> None:
    """RK4 master-equation integration matches the closed-form dephasing
    and decay solutions."""
    cfg = integrate.IntegratorConfig(dt=1e-3, t_final=3.0, record_stride=300)
    dephase = qubit.qubit_model(qubit.QubitScenario(kappa=1.0, alpha=0.0))
    rec = integrate.integrate_master_equation(dephase, qubit.bloch_to_density((1, 0, 0)), cfg)
    for t, rho in zip(rec.times, rec.states):
        want = qubit.dephasing_x(1.0, 1.0, t)
        got = qubit.density_to_bloch(rho).x
        if abs(got - want) > 1e-6:
            raise _Counterexample(f"dephasing x({t}) = {got:.9f}, expected {want:.9f}")
    decay = model.ModelSpec(
        dim=2, hamiltonian=qubit.SIGMA_Y.copy(),
        probe=np.zeros((2, 2), dtype=complex), decoherence=qubit.SIGMA_MINUS.copy(),
    )
    rec = integrate.integrate_master_equation(decay, qubit.bloch_to_density((0, 0, 1)), cfg)
    for t, rho in zip(rec.times, rec.states):
        want = qubit.decay_z(1.0, 1.0, t)
        got = qubit.density_to_bloch(rho).z
        if abs(got - want) > 1e-6:
            raise _Counterexample(f"decay z({t}) = {got:.9f}, expected {want:.9f}")


def suite_threshold_algebra() -> None:
    """The closed-form threshold solves its quadratic and matches the
    sufficient condition on a z grid."""
    for alpha in np.logspace(-3, 6, 40):
        thr = qubit.z_threshold(float(alpha))
        residual = abs(4.0 * thr * thr + alpha * thr - 4.0)
        if residual > 1e-10:
            raise _Counterexample(f"threshold residual {residual:.2e} at alpha={alpha:.3e}")
    grid = np.linspace(-1.0, 1.0, 201)
    for alpha in (0.0, 0.5, 2.0, 6.0, 50.0):
        scenario = qubit.QubitScenario(kappa=1.0, alpha=alpha)
        for z in grid:
            if alpha == 0.0 and z == -1.0:
                # The quadratic 4z^2 + alpha z - 4 has a second root at
                # -(alpha + sqrt(alpha^2 + 64))/8, which enters [-1, 1]
                # only at alpha = 0 (exactly z = -1): there the condition
                # holds (zero variance) but z >= +1 does not, so the
                # one-sided threshold cannot represent it.
                if qubit.threshold_consistency(scenario, -1.0):
                    raise _Counterexample("expected the alpha=0 corner z=-1 to disagree")
                continue
            if not qubit.threshold_consistency(scenario, float(z)):
                raise _Counterexample(f"threshold mismatch at alpha={alpha}, z={z}")


SUITES = (
    ("density-validation", suite_density_validation),
    ("spectral-kernels", suite_spectral_kernels),
    ("superoperator-contracts", suite_superoperator_contracts),
    ("log-inequality", suite_log_inequality),
    ("dissipator-bound", suite_dissipator_bound),
    ("ito-correction", suite_ito_correction),
    ("master-equation-oracles", suite_master_equation_oracles),
    ("threshold-algebra", suite_threshold_algebra),
)


def run_selftest() -> bool:
    """Run every suite, printing one PASS/FAIL line each; True iff all pass."""
    all_ok = True
    for name, suite in SUITES:
        try:
            suite()
        except _Counterexample as err:
            print(f"FAIL {name}\n  counterexample: {err}")
            all_ok = False
        else:
            print(f"PASS {name}")
    return all_ok
