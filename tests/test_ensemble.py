import numpy as np
import pytest

from entroflux.ensemble import (
    TRAJECTORY_ROWS,
    EnsembleConfig,
    EnsembleStatistics,
    mean_entropy_vs_entropy_of_mean,
    run_ensemble,
    trajectory_seed,
)
from entroflux.integrate import (
    IntegrationError,
    IntegratorConfig,
    integrate_master_equation,
    simulate_trajectory,
)
from entroflux.linalg import ValidationError, trace_distance, validate_density
from entroflux.qubit import QubitScenario, bloch_to_density, qubit_model

PLUS = bloch_to_density((1.0, 0.0, 0.0))
SHORT = IntegratorConfig(dt=1e-3, t_final=0.4, record_stride=40)


def test_single_trajectory_ensemble_is_that_trajectory():
    model = qubit_model(QubitScenario(kappa=1.0, alpha=2.0))
    stats = run_ensemble(model, PLUS, EnsembleConfig(
        n_trajectories=1, master_seed=17, integrator=SHORT))
    rec = simulate_trajectory(model, PLUS, SHORT, trajectory_seed(17, 0))
    np.testing.assert_array_equal(stats.mean_state, rec.states)
    np.testing.assert_array_equal(stats.mean_entropy, rec.entropies)
    np.testing.assert_array_equal(stats.entropy_se, np.zeros_like(rec.entropies))


def test_reparallelization_is_bit_identical():
    model = qubit_model(QubitScenario(kappa=1.0, alpha=6.0))
    common = dict(n_trajectories=600, master_seed=5, integrator=SHORT)
    serial = run_ensemble(model, PLUS, EnsembleConfig(worker_count=1, **common))
    pooled = run_ensemble(model, PLUS, EnsembleConfig(worker_count=4, **common))
    for field in ("times", "mean_state", "mean_entropy", "entropy_se",
                  "quantumness_mean", "quantumness_se", "state_se"):
        np.testing.assert_array_equal(getattr(serial, field), getattr(pooled, field))
    assert serial.flagged_trajectories == pooled.flagged_trajectories
    assert serial.mean_total_repair == pooled.mean_total_repair


def test_trajectory_sink_gets_every_chunk_in_order():
    model = qubit_model(QubitScenario(kappa=1.0, alpha=6.0))
    tiny = IntegratorConfig(dt=1e-3, t_final=0.02, record_stride=10)
    common = dict(n_trajectories=300, master_seed=9, integrator=tiny)
    calls = []
    plain = run_ensemble(model, PLUS, EnsembleConfig(**common))
    fed = run_ensemble(model, PLUS, EnsembleConfig(worker_count=2, **common),
                       trajectory_sink=lambda *args: calls.append(args))
    assert [start for start, _, _ in calls] == [0, 256]
    assert [rows["states"].shape[:2] for _, _, rows in calls] == [(3, 256), (3, 44)]
    for field in ("times", "mean_state", "mean_entropy", "entropy_se",
                  "quantumness_mean", "quantumness_se", "state_se"):
        np.testing.assert_array_equal(getattr(plain, field), getattr(fed, field))
    for _, times, rows in calls:
        assert tuple(rows) == TRAJECTORY_ROWS
        np.testing.assert_array_equal(times, plain.times)


def test_mean_state_is_valid_and_unit_trace():
    model = qubit_model(QubitScenario(kappa=1.0, alpha=0.0))
    stats = run_ensemble(model, PLUS, EnsembleConfig(
        n_trajectories=100, master_seed=1, integrator=SHORT))
    for rho in stats.mean_state:
        validate_density(rho)
        assert abs(np.trace(rho).real - 1.0) <= 1e-10


def test_mean_matches_master_equation():
    model = qubit_model(QubitScenario(kappa=1.0, alpha=2.0))
    stats = run_ensemble(model, PLUS, EnsembleConfig(
        n_trajectories=800, master_seed=42, integrator=SHORT))
    oracle = integrate_master_equation(model, PLUS, SHORT)
    for mean, want in zip(stats.mean_state, oracle.states):
        assert trace_distance(mean, want) <= 0.05


def test_concavity_at_every_checkpoint():
    model = qubit_model(QubitScenario(kappa=1.0, alpha=6.0))
    stats = run_ensemble(model, PLUS, EnsembleConfig(
        n_trajectories=400, master_seed=3, integrator=SHORT))
    mean_s, s_of_mean = mean_entropy_vs_entropy_of_mean(stats)
    assert np.all(s_of_mean >= mean_s - 3.0 * stats.entropy_se)


def test_entropy_concavity_extreme_case():
    # equal-weight ensemble of the two computational basis states:
    # every member is pure but the mean state is maximally mixed
    times = np.linspace(0, 1, 3)
    mixed = np.tile(np.eye(2, dtype=complex) / 2, (3, 1, 1))
    stats = EnsembleStatistics(
        times=times, mean_state=mixed,
        mean_entropy=np.zeros(3), entropy_se=np.zeros(3),
        quantumness_mean=np.zeros(3), quantumness_se=np.zeros(3),
        state_se=np.zeros((3, 2, 2)), n_trajectories=2,
        flagged_trajectories=0, mean_total_repair=0.0,
    )
    mean_s, s_of_mean = mean_entropy_vs_entropy_of_mean(stats)
    np.testing.assert_allclose(mean_s, 0.0)
    np.testing.assert_allclose(s_of_mean, np.log(2), atol=1e-12)


def test_quantumness_series_tracks_mean_z():
    #  [M^dag, M] = gamma sigma_z, so the series equals gamma E[z_t]
    model = qubit_model(QubitScenario(kappa=1.0, alpha=4.0))
    stats = run_ensemble(model, PLUS, EnsembleConfig(
        n_trajectories=200, master_seed=11, integrator=SHORT))
    for q, rho in zip(stats.quantumness_mean, stats.mean_state):
        z = (rho[0, 0] - rho[1, 1]).real
        assert q == pytest.approx(4.0 * z, abs=1e-10)


def test_trajectory_failure_reports_index_and_step():
    model = qubit_model(QubitScenario(kappa=1.0, alpha=0.0))
    tight = IntegratorConfig(dt=1e-3, t_final=0.2, record_stride=20,
                             repair_tolerance=1e-7)
    with pytest.raises(IntegrationError, match=r"trajectory \d+.*step \d+"):
        run_ensemble(model, PLUS, EnsembleConfig(
            n_trajectories=8, master_seed=0, integrator=tight))


def test_config_validation():
    with pytest.raises(ValidationError, match="n_trajectories"):
        EnsembleConfig(n_trajectories=0)
    with pytest.raises(ValidationError, match="worker_count"):
        EnsembleConfig(n_trajectories=1, worker_count=0)
