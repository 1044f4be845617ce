import concurrent.futures
import os
import subprocess
import sys

import numpy as np
import pytest

from entroflux import ensemble
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


@pytest.mark.parametrize("n", [1, 255, 256, 257, 600, 4096, 4100])
def test_chunk_totals_are_the_per_chunk_slice_sums_bit_for_bit(n):
    rng = np.random.default_rng(n)
    states = rng.normal(size=(n, 2, 2)) + 1j * rng.normal(size=(n, 2, 2))
    for values in (rng.normal(size=n), rng.random(n) < 0.5, states,
                   states.real ** 2 + states.imag ** 2, states[:, 0, 0].real):
        got = ensemble._chunk_totals(values)
        want = np.array([values[a:a + CHUNK_SIZE].sum(axis=0) for a in range(0, n, CHUNK_SIZE)])
        assert (got.dtype, got.shape) == (want.dtype, want.shape)
        assert got.tobytes() == want.tobytes()


def test_statistics_and_sink_rows_are_the_same_bytes_on_any_worker_count():
    # 4100 rows: 16 full chunks and a 4-row one, cut into 2 spans on 1 or
    # 2 workers and into 3 on 3
    model = qubit_model(QubitScenario(kappa=1.0, alpha=6.0))
    tiny = IntegratorConfig(dt=1e-3, t_final=0.02, record_stride=10)
    runs = []
    for workers in (1, 2, 3):
        calls = []
        stats = run_ensemble(model, PLUS, EnsembleConfig(
            n_trajectories=4100, master_seed=2, worker_count=workers, integrator=tiny),
            trajectory_sink=lambda *args: calls.append(args))
        runs.append((stats, calls))
    (first, first_calls), later = runs[0], runs[1:]
    assert type(first.flagged_trajectories) is int and type(first.mean_total_repair) is float
    assert [start for start, _, _ in first_calls] == list(range(0, 4100, CHUNK_SIZE))
    for stats, calls in later:
        for name in EnsembleStatistics.__dataclass_fields__:
            got, want = getattr(stats, name), getattr(first, name)
            assert type(got) is type(want)
            if isinstance(want, np.ndarray):
                assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape,
                                                                 want.tobytes())
            else:
                assert got == want
        assert len(calls) == len(first_calls)
        for (start, times, rows), (want_start, want_times, want_rows) in zip(calls, first_calls):
            assert start == want_start and times.tobytes() == want_times.tobytes()
            assert tuple(rows) == tuple(want_rows) == TRAJECTORY_ROWS
            for key in TRAJECTORY_ROWS:
                assert rows[key].shape == want_rows[key].shape
                assert rows[key].tobytes() == want_rows[key].tobytes()


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
    with pytest.raises(ValidationError, match="master_seed must be >= 0"):
        EnsembleConfig(n_trajectories=1, master_seed=-1)


def test_the_pool_starts_no_more_processes_than_spans(monkeypatch):
    # a pool starts all its processes at the first submit, so a worker
    # count above the span count would fork processes that never get work
    real = concurrent.futures.ProcessPoolExecutor
    started = []

    def recording(max_workers):
        started.append(max_workers)
        return real(max_workers=min(max_workers, 2))

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", recording)
    model = qubit_model(QubitScenario(kappa=1.0, alpha=6.0))
    common = dict(n_trajectories=300, master_seed=5, integrator=SHORT)
    assert len(_spans(300, 4)) == 2
    pooled = run_ensemble(model, PLUS, EnsembleConfig(worker_count=4, **common))
    assert started == [2]
    serial = run_ensemble(model, PLUS, EnsembleConfig(worker_count=1, **common))
    assert started == [2]
    for field in STATISTICS:
        assert np.array_equal(getattr(serial, field).view(np.uint64),
                              getattr(pooled, field).view(np.uint64)), field
    assert serial.flagged_trajectories == pooled.flagged_trajectories
    assert serial.mean_total_repair == pooled.mean_total_repair


@pytest.mark.parametrize("dim", [2, 4])
def test_standard_errors_are_the_brute_force_ones(dim):
    # std(ddof=1) / sqrt(n) over the simulate_trajectory records, per checkpoint
    if dim == 2:
        model, rho0 = qubit_model(QubitScenario(kappa=1.0, alpha=6.0)), PLUS
    else:
        rng = np.random.default_rng(4)
        model = ModelSpec(dim=4, hamiltonian=random_hermitian(4, rng),
                          probe=random_hermitian(4, rng, scale=0.5),
                          decoherence=random_operator(4, rng, scale=0.5),
                          control=ControlLaw(kind="constant", value=0.5))
        rho0 = random_density(4, min_eig=0.05, seed=3)
    n = 50
    stats = run_ensemble(model, rho0, EnsembleConfig(n_trajectories=n, master_seed=3,
                                                     integrator=SHORT))
    recs = [simulate_trajectory(model, rho0, SHORT, trajectory_seed(3, i)) for i in range(n)]
    states = np.array([rec.states for rec in recs])
    entropies = np.array([rec.entropies for rec in recs])
    q = np.einsum("ij,nkji->nk", model.quantumness_operator, states).real
    for got, samples in ((stats.entropy_se, entropies), (stats.quantumness_se, q),
                         (stats.state_se, states)):
        want = np.std(samples, axis=0, ddof=1) / np.sqrt(n)
        assert want[1:].min() > 1e-4  # the runs spread, so the check is not 0 == 0
        # at zero spread (t = 0) the sum-of-squares form keeps ~sqrt(eps) of the scale
        np.testing.assert_allclose(got, want, rtol=1e-7, atol=1e-8)


def test_a_run_without_a_pool_loads_no_process_pool():
    # the pool machinery pulls in multiprocessing, logging and socket;
    # a 1-worker run, which starts no pool, must not pay for them
    code = (
        "import sys\n"
        "from entroflux.ensemble import EnsembleConfig, run_ensemble\n"
        "from entroflux.integrate import IntegratorConfig\n"
        "from entroflux.qubit import QubitScenario, bloch_to_density, qubit_model\n"
        "run_ensemble(qubit_model(QubitScenario(kappa=1.0, alpha=2.0)),\n"
        "             bloch_to_density((1.0, 0.0, 0.0)),\n"
        "             EnsembleConfig(n_trajectories=3, integrator=IntegratorConfig(\n"
        "                 dt=1e-3, t_final=0.01, record_stride=5)))\n"
        "print(sorted({'multiprocessing', 'concurrent.futures.process'} & set(sys.modules)))\n"
    )
    src = os.path.dirname(os.path.dirname(ensemble.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"
