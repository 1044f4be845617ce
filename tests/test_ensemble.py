import numpy as np
import pytest

from entroflux.ensemble import (
    CHUNK_SIZE,
    MAX_SPAN_CHUNKS,
    TRAJECTORY_ROWS,
    EnsembleConfig,
    EnsembleStatistics,
    _spans,
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
from entroflux.linalg import (
    ValidationError,
    random_density,
    random_hermitian,
    random_operator,
    trace_distance,
    validate_density,
)
from entroflux.model import ControlLaw, ModelSpec
from entroflux.qubit import QubitScenario, bloch_to_density, qubit_model

PLUS = bloch_to_density((1.0, 0.0, 0.0))
SHORT = IntegratorConfig(dt=1e-3, t_final=0.4, record_stride=40)
STATISTICS = ("times", "mean_state", "mean_entropy", "entropy_se",
              "quantumness_mean", "quantumness_se", "state_se")


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
    for field in STATISTICS:
        np.testing.assert_array_equal(getattr(serial, field), getattr(pooled, field))
    assert serial.flagged_trajectories == pooled.flagged_trajectories
    assert serial.mean_total_repair == pooled.mean_total_repair


def test_d4_statistics_do_not_depend_on_worker_count():
    # 513 rows: one span on 1 worker, 256 + 257 rows on 2, and on 3 a lone
    # final row, which must be stepped with the bits it has in a batch
    rng = np.random.default_rng(4)
    model = ModelSpec(dim=4, hamiltonian=random_hermitian(4, rng),
                      probe=random_hermitian(4, rng, scale=0.5),
                      decoherence=random_operator(4, rng, scale=0.5),
                      control=ControlLaw(kind="constant", value=0.5))
    rho0 = random_density(4, min_eig=0.05, seed=3)
    tiny = IntegratorConfig(dt=1e-3, t_final=0.02, record_stride=10)
    runs = [run_ensemble(model, rho0, EnsembleConfig(
        n_trajectories=513, master_seed=8, worker_count=workers, integrator=tiny))
        for workers in (1, 2, 3)]
    for stats in runs[1:]:
        for field in STATISTICS:
            np.testing.assert_array_equal(getattr(runs[0], field), getattr(stats, field))
        assert stats.mean_total_repair == runs[0].mean_total_repair
        assert stats.flagged_trajectories == runs[0].flagged_trajectories


@pytest.mark.parametrize("n", [1, 255, 257, 513, 5000, 40000])
@pytest.mark.parametrize("workers", [1, 2, 3])
def test_spans_cover_whole_chunks_in_balanced_counts(n, workers):
    spans = _spans(n, workers)
    chunks = -(-n // CHUNK_SIZE)
    assert spans[0][0] == 0 and spans[-1][1] == n
    assert all(a == b for (_, a), (b, _) in zip(spans, spans[1:]))
    assert all(start % CHUNK_SIZE == 0 for start, _ in spans)
    assert max(stop - start for start, stop in spans) <= MAX_SPAN_CHUNKS * CHUNK_SIZE
    assert len(spans) == chunks or len(spans) % workers == 0


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
    for field in STATISTICS:
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


def test_failure_is_the_earliest_step_at_any_worker_count():
    # nine of 600 trajectories fail, at steps 2 to 144; the earliest is
    # trajectory 352, past the first chunk, while chunk 0 fails only at
    # step 13, so each span layout must still name the same failure
    model = qubit_model(QubitScenario(kappa=1.0, alpha=0.0))
    cfg = IntegratorConfig(dt=1e-3, t_final=0.2, record_stride=20, repair_tolerance=1e-2)
    reported = []
    for workers in (1, 2, 3):
        with pytest.raises(IntegrationError) as err:
            run_ensemble(model, PLUS, EnsembleConfig(
                n_trajectories=600, master_seed=0, worker_count=workers, integrator=cfg))
        reported.append((err.value.step, err.value.trajectory, str(err.value)))
    assert reported[1:] == reported[:1] * 2
    step, traj, _ = reported[0]
    assert traj >= CHUNK_SIZE
    with pytest.raises(IntegrationError) as alone:
        simulate_trajectory(model, PLUS, cfg, trajectory_seed(0, traj))
    assert alone.value.step == step
    with pytest.raises(IntegrationError) as first_chunk:
        run_ensemble(model, PLUS, EnsembleConfig(
            n_trajectories=CHUNK_SIZE, master_seed=0, integrator=cfg))
    assert first_chunk.value.step > step


def test_config_validation():
    with pytest.raises(ValidationError, match="n_trajectories"):
        EnsembleConfig(n_trajectories=0)
    with pytest.raises(ValidationError, match="worker_count"):
        EnsembleConfig(n_trajectories=1, worker_count=0)
