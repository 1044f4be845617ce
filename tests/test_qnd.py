"""The README qubit at alpha=0 against its exact filter.

With no decoherence and zero control, L = sigma_z is Hermitian and
commutes with itself, so the filtered state given the record y_t is
exactly A rho0 A / Tr(A rho0 A) with A = exp(L y_t - L^2 t): the linear
quantum filter of QND measurement (Wiseman & Milburn, Quantum
Measurement and Control, 2010, ch. 4).  Each trajectory's own
``measurement_record`` therefore fixes an exact state to compare with,
and E[S_t] is a 1-D integral over the law of y_t.
"""

import numpy as np
import pytest
from scipy.special import entr

from entroflux.ensemble import EnsembleConfig, run_ensemble
from entroflux.integrate import IntegratorConfig
from entroflux.qubit import QubitScenario, bloch_to_density, qubit_model

BLOCH0 = (0.6, 0.0, 0.3)


def qnd_state(bloch0, y, t):
    """The exact state at kappa=1 given the record y at time t (broadcast together)."""
    rho0 = bloch_to_density(bloch0)
    y = np.asarray(y, dtype=float)
    states = np.empty(np.broadcast(y, t).shape + (2, 2), dtype=complex)
    states[..., 0, 0] = rho0[0, 0].real * np.exp(2 * y - 2 * t)
    states[..., 1, 1] = rho0[1, 1].real * np.exp(-2 * y - 2 * t)
    states[..., 0, 1] = rho0[0, 1] * np.exp(-2 * t)
    states[..., 1, 0] = rho0[1, 0] * np.exp(-2 * t)
    return states / np.trace(states, axis1=-2, axis2=-1).real[..., None, None]


def qnd_entropy(bloch0, y, t):
    """S of ``qnd_state``, from its eigenvalues (1 +- |r|) / 2 in nats."""
    s = qnd_state(bloch0, y, t)
    r = np.sqrt((s[..., 0, 0] - s[..., 1, 1]).real ** 2 + 4 * np.abs(s[..., 0, 1]) ** 2)
    return entr((1 + r) / 2) + entr((1 - r) / 2)


def qnd_entropy_mean(bloch0, t, nodes=200):
    """E[S_t], with y_t ~ p0 N(2t, t) + p1 N(-2t, t), by a Gauss-Hermite rule."""
    x, w = np.polynomial.hermite.hermgauss(nodes)
    p0 = (1 + bloch0[2]) / 2
    return sum(p * w @ qnd_entropy(bloch0, mu + np.sqrt(2 * t) * x, t)
               for p, mu in ((p0, 2 * t), (1 - p0, -2 * t))) / np.sqrt(np.pi)


@pytest.mark.parametrize("t", [0.03, 0.3, 0.6])
def test_entropy_mean_matches_direct_samples_of_the_record(t):
    rng = np.random.default_rng(0)
    n = 400_000
    eigenvalue = np.where(rng.random(n) < (1 + BLOCH0[2]) / 2, 1.0, -1.0)
    y = 2 * t * eigenvalue + np.sqrt(t) * rng.standard_normal(n)
    s = qnd_entropy(BLOCH0, y, t)
    se = s.std() / np.sqrt(n)
    assert abs(qnd_entropy_mean(BLOCH0, t) - s.mean()) <= 4 * se


def test_em_states_converge_to_the_filter_of_their_own_record():
    # measured: rms 1.231e-2, 5.683e-3 and 2.669e-3 (order about 0.55);
    # max 0.106, 0.039 and 0.016
    model = qubit_model(QubitScenario(kappa=1.0, alpha=0.0))
    rms = []
    for dt, stride in ((1e-3, 30), (2.5e-4, 120), (6.25e-5, 480)):
        cfg = EnsembleConfig(n_trajectories=256, master_seed=3, integrator=IntegratorConfig(
            dt=dt, t_final=0.6, record_stride=stride))
        kept = []
        run_ensemble(model, bloch_to_density(BLOCH0), cfg,
                     trajectory_sink=lambda start, times, states, entropies, dw, repair, y:
                     kept.append((times, states, y)))
        (times, states, y), = kept  # one 256-row chunk
        # a state's error is its largest entry error, against the filter
        # of the row's own record
        err = np.abs(states - qnd_state(BLOCH0, y, times[:, None])).max(axis=(-2, -1))
        assert err[0].max() <= 1e-15
        rms.append(np.sqrt(np.mean(err ** 2)))
    assert rms[0] >= 1.8 * rms[1] and rms[1] >= 1.8 * rms[2], rms
