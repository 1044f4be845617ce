import copy
import json
import math

import numpy as np
import pytest

from entroflux import integrate, model
from entroflux.config import load_config
from entroflux.ensemble import EnsembleConfig, run_ensemble, trajectory_seed
from entroflux.integrate import (
    IntegrationError,
    IntegratorConfig,
    TrajectoryState,
    _project_batch,
    _run_em_batch,
    em_step,
    integrate_master_equation,
    project_to_physical,
    simulate_trajectory,
    wiener_increment,
)
from entroflux.linalg import (
    ValidationError,
    random_density,
    random_hermitian,
    random_operator,
    trace_distance,
    validate_density,
)
from entroflux.model import (
    ControlLaw,
    ModelSpec,
    dissipator,
    dissipator_superop,
    hamiltonian_superop,
    sme_increment,
)
from entroflux.qubit import (
    SIGMA_MINUS,
    SIGMA_Y,
    SIGMA_Z,
    bloch_to_density,
    decay_z,
    dephasing_x,
    density_to_bloch,
)

KET0 = np.diag([1.0, 0.0]).astype(complex)


def bench_workload_run(bench, name, tmp_path):
    """The model and initial state of a workload of ``bench/workloads.py``."""
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(bench.workloads.WORKLOADS[name].config(0)))
    cfg = load_config(str(path))
    return cfg.model, cfg.initial_state


def d4_spec():
    rng = np.random.default_rng(4)
    return ModelSpec(dim=4, hamiltonian=random_hermitian(4, rng),
                     probe=random_hermitian(4, rng, scale=0.5),
                     decoherence=random_operator(4, rng, scale=0.5),
                     control=ControlLaw(kind="constant", value=0.5))


def qubit_spec(kappa=1.0, gamma=0.0, control=None):
    return ModelSpec(
        dim=2,
        hamiltonian=SIGMA_Y.copy(),
        probe=np.sqrt(kappa) * SIGMA_Z,
        decoherence=np.sqrt(gamma) * SIGMA_MINUS,
        control=control or ControlLaw(),
    )


class TestWienerIncrement:
    def test_zero_mean(self):
        rng = np.random.default_rng(1)
        draws = wiener_increment(rng, 1e-3, size=100_000)
        assert abs(draws.mean()) <= 4.0 * np.sqrt(1e-3 / 100_000)

    def test_deterministic_given_seed(self):
        a = wiener_increment(np.random.default_rng(3), 1e-3, size=50)
        b = wiener_increment(np.random.default_rng(3), 1e-3, size=50)
        np.testing.assert_array_equal(a, b)

    def test_variance(self):
        rng = np.random.default_rng(5)
        draws = wiener_increment(rng, 1e-3, size=100_000)
        assert abs(draws.var() - 1e-3) <= 0.05 * 1e-3

    def test_scalar_and_array_draws_share_the_stream(self):
        r1 = np.random.default_rng(7)
        r2 = np.random.default_rng(7)
        arr = wiener_increment(r1, 0.01, size=6)
        singles = np.array([wiener_increment(r2, 0.01) for _ in range(6)])
        np.testing.assert_array_equal(arr, singles)

    def test_block_fill_scaled_has_the_bits_of_increments(self):
        # a block view whose rows are contiguous but not adjacent: row b holds
        # the standard normal draws of generator b, which sqrt(dt) scales
        # into the bits of that generator's increments
        buffer = np.empty((3, 9))
        block = wiener_increment([np.random.default_rng(s) for s in range(3)], 0.01,
                                 out=buffer[:, :6])
        assert block.base is buffer and block.shape == (3, 6)
        for s in range(3):
            want = wiener_increment(np.random.default_rng(s), 0.01, size=6)
            np.testing.assert_array_equal((math.sqrt(0.01) * block[s]).view(np.uint64),
                                          want.view(np.uint64))

    def test_rejects_bad_dt(self):
        with pytest.raises(ValidationError, match="dt must be positive"):
            wiener_increment(np.random.default_rng(0), 0.0)

    def test_rejects_nan_dt(self):
        with pytest.raises(ValidationError, match="dt must be positive"):
            wiener_increment(np.random.default_rng(0), float("nan"))


class TestSuperoperators:
    def test_dissipator_superop_matches_direct_form(self):
        rng = np.random.default_rng(11)
        for trial in range(50):
            d = int(rng.integers(2, 5))
            a = random_operator(d, rng)
            rho = random_density(d, seed=trial)
            via_superop = (dissipator_superop(a) @ rho.reshape(-1)).reshape(d, d)
            np.testing.assert_allclose(via_superop, dissipator(a, rho), atol=1e-12)

    def test_hamiltonian_superop_matches_commutator(self):
        rng = np.random.default_rng(13)
        for trial in range(50):
            d = int(rng.integers(2, 5))
            h = random_operator(d, rng)
            h = (h + h.conj().T) / 2
            rho = random_density(d, seed=trial)
            via_superop = (hamiltonian_superop(h) @ rho.reshape(-1)).reshape(d, d)
            np.testing.assert_allclose(via_superop, -1j * (h @ rho - rho @ h), atol=1e-12)

    def test_operators_are_built_once_per_model(self, monkeypatch):
        # the EM kernels and the RK4 oracle share the model's D[L] + D[M]
        calls = []

        def counted(a):
            calls.append(a)
            return dissipator_superop(a)

        monkeypatch.setattr(model, "dissipator_superop", counted)
        spec = d4_spec()
        cfg = IntegratorConfig(dt=1e-3, t_final=0.01, record_stride=5)
        integrate._EulerMaruyamaKernel(spec, cfg, 1)
        integrate._EulerMaruyamaKernel(spec, cfg, 256)
        integrate_master_equation(spec, random_density(4, seed=1), cfg)
        assert len(calls) == 2


class TestProjectToPhysical:
    def test_valid_state_unchanged(self):
        rho = random_density(2, min_eig=0.1, seed=2)
        out, mag = project_to_physical(rho)
        assert mag == 0.0
        np.testing.assert_allclose(out, rho, atol=1e-14)

    def test_clip_and_renormalize(self):
        out, mag = project_to_physical(np.diag([1.1, -0.1]))
        np.testing.assert_allclose(out, np.diag([1.0, 0.0]), atol=1e-14)
        assert mag == pytest.approx(0.1)

    def test_pure_renormalization(self):
        out, mag = project_to_physical(np.diag([0.6, 0.6]))
        np.testing.assert_allclose(out, np.eye(2) / 2, atol=1e-15)
        assert mag == 0.0

    def test_matches_independent_eigh_clip(self):
        # oracle: clip negative eigenvalues by explicit eigendecomposition
        rng = np.random.default_rng(17)
        for trial in range(100):
            rho = random_density(2, seed=trial)
            noise = 0.05 * random_operator(2, rng)
            m = rho + noise
            m = (m + m.conj().T) / 2
            out, mag = project_to_physical(m)
            w, u = np.linalg.eigh(m)
            clipped = (u * np.maximum(w, 0.0)) @ u.conj().T
            want = clipped / clipped.trace().real
            np.testing.assert_allclose(out, want, atol=1e-12)
            assert mag == pytest.approx(float(-np.minimum(w, 0.0).sum()), abs=1e-14)

    def test_generic_dimension_path(self):
        m = np.diag([0.8, 0.4, -0.1])
        out, mag = project_to_physical(m)
        np.testing.assert_allclose(out, np.diag([2.0 / 3, 1.0 / 3, 0.0]), atol=1e-14)
        assert mag == pytest.approx(0.1)

    def test_tolerance_enforced(self):
        with pytest.raises(IntegrationError, match="exceeds tolerance"):
            project_to_physical(np.diag([1.5, -0.5]), tol=0.1)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_batch_failure_names_the_first_failing_row(self, dim):
        # rows 1 and 3 clip beyond tolerance, row 3 by more; reporting the
        # first, not the worst, keeps the named row independent of batching
        def state(neg):
            return np.diag([1.0 + neg] + [0.0] * (dim - 2) + [-neg]).astype(complex).reshape(-1)
        batch = np.stack([state(0.0), state(0.2), state(0.0), state(0.4)])
        with pytest.raises(IntegrationError, match="exceeds tolerance") as err:
            _project_batch(batch, dim, 0.1)
        assert err.value.trajectory == 1
        assert err.value.magnitude == pytest.approx(0.2)
        lost = np.stack([state(0.0), state(0.2), -state(0.0)])
        with pytest.raises(IntegrationError, match="lost all positive mass") as err:
            _project_batch(lost, dim, 1.0)
        assert err.value.trajectory == 2

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("entry", [(0, complex(0.5, np.inf)), (1, complex(np.nan, 0.0))],
                             ids=["inf_imaginary_diagonal", "nan_off_diagonal"])
    def test_non_finite_input_is_rejected(self, dim, entry):
        # the 2x2 branch reads only the real diagonal, so an infinite
        # imaginary part there used to come back as a state with mass 0 clipped
        m = (np.eye(dim) / dim).astype(complex)
        m.flat[entry[0]] = entry[1]
        with pytest.raises(ValidationError, match="non-finite"):
            project_to_physical(m)

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("entry", ["diagonal", "off_diagonal"])
    @pytest.mark.parametrize("tol", [0.1, np.inf])
    def test_non_finite_row_has_lost_its_mass(self, dim, entry, tol):
        # an infinite entry used to come back from the 2x2 branch as a NaN
        # row with clipped mass 0, and to stop the general solver with a
        # LinAlgError; both must name the row as lost, before any later row
        valid = (np.eye(dim) / dim).astype(complex).reshape(-1)
        over = np.diag([1.3] + [0.0] * (dim - 2) + [-0.3]).astype(complex).reshape(-1)
        bad = valid.copy()
        bad[0 if entry == "diagonal" else 1] = np.inf
        with pytest.raises(IntegrationError, match="lost all positive mass") as err:
            with np.errstate(invalid="ignore"):
                _project_batch(np.stack([valid, bad, over]), dim, tol)
        assert err.value.trajectory == 1


class TestEmStep:
    def test_fixed_point_for_any_draw(self):
        spec = qubit_spec(kappa=1.0)
        cfg = IntegratorConfig(dt=1e-3, t_final=1.0)
        state = TrajectoryState(t=0.0, rho=KET0)
        for dw in (-0.3, 0.0, 0.2):
            after = em_step(spec, state, cfg, dW=dw)
            np.testing.assert_allclose(after.rho, KET0, atol=1e-12)

    def test_unit_trace_contract(self):
        spec = qubit_spec(kappa=1.0, gamma=2.0)
        cfg = IntegratorConfig(dt=1e-3, t_final=1.0)
        rng = np.random.default_rng(23)
        state = TrajectoryState(t=0.0, rho=bloch_to_density((1, 0, 0)))
        for _ in range(200):
            state = em_step(spec, state, cfg, rng)
            assert abs(np.trace(state.rho).real - 1.0) <= 1e-12

    def test_forced_draw_hand_value(self):
        # drift vanishes at I/2; the innovation term contributes
        # sigma_z * dW, so the repaired state is diag(0.6, 0.4)
        spec = qubit_spec(kappa=1.0)
        cfg = IntegratorConfig(dt=0.01, t_final=1.0)
        state = TrajectoryState(t=0.0, rho=np.eye(2, dtype=complex) / 2)
        after = em_step(spec, state, cfg, dW=0.1)
        np.testing.assert_allclose(after.rho, np.diag([0.6, 0.4]), atol=1e-14)
        assert after.W == pytest.approx(0.1)
        assert after.y == pytest.approx(0.1)  # Tr[(L+L^dag) I/2] = 0
        assert after.t == pytest.approx(0.01)

    def test_agrees_with_sme_increment_plus_repair(self):
        spec = qubit_spec(kappa=0.8, gamma=1.2)
        cfg = IntegratorConfig(dt=1e-3, t_final=1.0)
        for trial in range(50):
            rho = random_density(2, seed=trial)
            dw = float(np.random.default_rng(trial).normal(0, 0.03))
            stepped = em_step(spec, TrajectoryState(t=0, rho=rho), cfg, dW=dw)
            direct, _ = project_to_physical(rho + sme_increment(spec, rho, cfg.dt, dw))
            np.testing.assert_allclose(stepped.rho, direct, atol=1e-13)

    @pytest.mark.parametrize("workload", ["qubit_readme", "explicit_d4"])
    def test_chain_of_steps_is_the_simulated_trajectory(self, workload, bench, tmp_path):
        # a lone row is stepped as in any batch, so for d > 2 too a chain of
        # em_step calls drawing from one generator is that seed's trajectory
        spec, rho0 = bench_workload_run(bench, workload, tmp_path)
        cfg = IntegratorConfig(dt=1e-3, t_final=0.12, record_stride=1)
        for seed in range(5):
            rec = simulate_trajectory(spec, rho0, cfg, seed)
            rng = np.random.default_rng(seed)
            state = TrajectoryState(t=0.0, rho=rho0)
            for k in range(1, cfg.n_steps + 1):
                state = em_step(spec, state, cfg, rng)
                assert same_bits(state.rho, rec.states[k]), (seed, k)
                assert same_bits(np.array([state.y]), rec.measurement_record[k:k + 1]), (seed, k)

    def test_a_chain_of_steps_builds_each_operator_once(self, monkeypatch):
        # each em_step builds a kernel, from operators the model built once
        built = []

        def counted(build):
            def wrapper(a):
                built.append(build.__name__)
                return build(a)
            return wrapper

        for name in ("innovation_superop", "hamiltonian_superop"):
            monkeypatch.setattr(model, name, counted(getattr(model, name)))
        spec = d4_spec()
        cfg = IntegratorConfig(dt=1e-3, t_final=1.0)
        rng = np.random.default_rng(5)
        state = TrajectoryState(t=0.0, rho=random_density(4, min_eig=0.05, seed=3))
        for _ in range(100):
            state = em_step(spec, state, cfg, rng)
        assert sorted(built) == ["hamiltonian_superop", "innovation_superop"]

    def test_repair_tolerance_error_carries_magnitude(self):
        spec = qubit_spec(kappa=1.0)
        cfg = IntegratorConfig(dt=1e-3, t_final=1.0, repair_tolerance=1e-9)
        state = TrajectoryState(t=0.0, rho=bloch_to_density((1, 0, 0)))
        with pytest.raises(IntegrationError, match="exceeds tolerance"):
            em_step(spec, state, cfg, dW=0.5)


class TestSimulateTrajectory:
    def test_bit_identical_for_same_seed(self):
        spec = qubit_spec(kappa=1.0, gamma=2.0)
        cfg = IntegratorConfig(dt=1e-3, t_final=0.5, record_stride=25)
        a = simulate_trajectory(spec, bloch_to_density((1, 0, 0)), cfg, seed=42)
        b = simulate_trajectory(spec, bloch_to_density((1, 0, 0)), cfg, seed=42)
        np.testing.assert_array_equal(a.states, b.states)
        np.testing.assert_array_equal(a.dW_draws, b.dW_draws)
        np.testing.assert_array_equal(a.measurement_record, b.measurement_record)

    def test_eigenstate_invariance(self):
        spec = qubit_spec(kappa=1.0)
        cfg = IntegratorConfig(dt=1e-3, t_final=0.5, record_stride=50)
        rec = simulate_trajectory(spec, KET0, cfg, seed=9)
        for state in rec.states:
            np.testing.assert_allclose(state, KET0, atol=1e-10)

    def test_measurement_localizes_majority_of_seeds(self):
        spec = qubit_spec(kappa=1.0, gamma=0.0)
        cfg = IntegratorConfig(dt=1e-3, t_final=3.0, record_stride=3000)
        # seeds 0-99 stepped as one batch: each row has the bits of that
        # seed's simulate_trajectory record
        kept = []
        rngs = [np.random.default_rng(seed) for seed in range(100)]
        _run_em_batch(spec, bloch_to_density((1, 0, 0)), cfg, rngs, lambda *got: kept.append(got))
        high_purity = 0
        for state in kept[-1][0]:
            purity = np.trace(state @ state).real
            if purity >= 0.9:
                high_purity += 1
        assert high_purity > 50

    def test_recorded_states_are_valid(self):
        spec = qubit_spec(kappa=1.0, gamma=6.0)
        cfg = IntegratorConfig(dt=1e-3, t_final=0.5, record_stride=10)
        rec = simulate_trajectory(spec, bloch_to_density((1, 0, 0)), cfg, seed=4)
        for state in rec.states:
            validate_density(state)
        assert np.all(rec.entropies >= -1e-12)
        assert np.all(rec.entropies <= np.log(2) + 1e-12)

    def test_record_lengths_match(self):
        spec = qubit_spec(kappa=1.0)
        cfg = IntegratorConfig(dt=1e-3, t_final=0.3, record_stride=30)
        rec = simulate_trajectory(spec, bloch_to_density((1, 0, 0)), cfg, seed=0)
        n = len(rec.times)
        assert n == 11
        assert rec.states.shape == (n, 2, 2)
        for arr in (rec.entropies, rec.dW_draws, rec.repair_magnitudes,
                    rec.measurement_record):
            assert arr.shape == (n,)

    def test_dw_sums_equal_stride_sums(self):
        spec = qubit_spec(kappa=1.0)
        cfg = IntegratorConfig(dt=1e-3, t_final=0.1, record_stride=20)
        rec = simulate_trajectory(spec, bloch_to_density((1, 0, 0)), cfg, seed=8)
        rng = np.random.default_rng(8)
        draws = wiener_increment(rng, 1e-3, size=100)
        np.testing.assert_allclose(rec.dW_draws[1:], draws.reshape(5, 20).sum(axis=1),
                                   atol=1e-15)

    def test_boundary_hugging_run_is_flagged(self):
        # pure-state dynamics clip a little mass almost every step, which
        # accumulates well past the reporting threshold over a long run
        spec = qubit_spec(kappa=1.0, gamma=0.0)
        cfg = IntegratorConfig(dt=1e-3, t_final=3.0, record_stride=300)
        rec = simulate_trajectory(spec, bloch_to_density((1, 0, 0)), cfg, seed=3)
        assert rec.total_repair > 1e-3
        assert rec.repair_flagged


def batch_rows(spec, rho0, cfg, rows):
    """The five (checkpoint, row) arrays of trajectories 0..rows-1 stepped as one batch."""
    kept = []
    rngs = [np.random.default_rng(trajectory_seed(7, i)) for i in range(rows)]
    _run_em_batch(spec, rho0, cfg, rngs, lambda *got: kept.append(got))
    return [np.stack(c) for c in zip(*kept)]


class TestBatchedStepping:
    @pytest.mark.parametrize("dim", [2, 4])
    def test_rows_do_not_depend_on_batch_size(self, dim):
        # a span steps any number of rows as one batch, so a trajectory's
        # bits must not depend on its batch; a numpy or BLAS change that
        # multiplies some batch size another way fails here
        if dim == 2:
            spec, rho0 = qubit_spec(kappa=1.0, gamma=6.0), bloch_to_density((1, 0, 0))
        else:
            spec, rho0 = d4_spec(), random_density(4, min_eig=0.05, seed=3)
        cfg = IntegratorConfig(dt=1e-3, t_final=0.03, record_stride=10)
        widest = batch_rows(spec, rho0, cfg, 1000)
        for rows in (1, 2, 3, 256, 257):
            got = batch_rows(spec, rho0, cfg, rows)
            for k in range(5):
                assert np.array_equal(got[k], widest[k][:, :rows]), (rows, k)

    def test_lone_row_is_simulate_trajectory(self):
        spec, rho0 = d4_spec(), random_density(4, min_eig=0.05, seed=3)
        cfg = IntegratorConfig(dt=1e-3, t_final=0.03, record_stride=10)
        rows = batch_rows(spec, rho0, cfg, 3)
        rec = simulate_trajectory(spec, rho0, cfg, trajectory_seed(7, 2))
        fields = (rec.states, rec.entropies, rec.dW_draws, rec.repair_magnitudes,
                  rec.measurement_record)
        assert len(rows) == len(fields)
        for got, want in zip(rows, fields):
            np.testing.assert_array_equal(want, got[:, 2])

    @pytest.mark.parametrize("rows", [1, 3])
    def test_recorded_rows_do_not_change_after_the_call(self, rows):
        # the stepping loop updates its accumulators in place, so a sink
        # that keeps the arrays it is handed must not see later steps
        spec = qubit_spec(kappa=1.0, gamma=6.0)
        cfg = IntegratorConfig(dt=1e-3, t_final=0.05, record_stride=10)
        kept, at_call = [], []

        def record(*got):
            kept.append(got)
            at_call.append(copy.deepcopy(got))

        rngs = [np.random.default_rng(trajectory_seed(7, i)) for i in range(rows)]
        _run_em_batch(spec, bloch_to_density((1, 0, 0)), cfg, rngs, record)
        assert len(kept) == 6
        for got, want in zip(kept, at_call):
            for k in range(5):
                assert np.array_equal(got[k], want[k]), k

    @pytest.mark.parametrize("t_final, budget_steps, sizes", [
        (0.05, None, [50]),
        # blocks of 7, not a multiple of the stride 10
        (0.05, 7, [7] * 7 + [1]),
        # 13-step blocks, each read as slabs of 8 and 5 steps
        (0.05, 13, [13, 13, 13, 11]),
        # the horizon ends 5 steps into a slab
        (0.045, None, [45]),
        (0.045, 13, [13, 13, 13, 6]),
    ])
    def test_noise_blocks_are_bounded_and_leave_no_trace(self, monkeypatch, t_final,
                                                        budget_steps, sizes):
        # one draw call fills each block, no block may pass the budget, and
        # every checkpoint must have the bits of one 50-step block
        spec = qubit_spec(kappa=1.0, gamma=6.0)
        rho0 = bloch_to_density((1, 0, 0))
        rows = 300
        whole = batch_rows(spec, rho0, IntegratorConfig(dt=1e-3, t_final=0.05, record_stride=10),
                           rows)
        shapes = []
        draw = integrate.wiener_increment

        def spy(rng, dt, size=None, out=None):
            shapes.append(None if out is None else out.shape)
            return draw(rng, dt, size, out)

        monkeypatch.setattr(integrate, "wiener_increment", spy)
        if budget_steps is not None:
            monkeypatch.setattr(integrate, "NOISE_BUDGET_BYTES", budget_steps * 8 * rows)
        cfg = IntegratorConfig(dt=1e-3, t_final=t_final, record_stride=10)
        blocked = batch_rows(spec, rho0, cfg, rows)
        assert shapes == [(rows, size) for size in sizes]
        assert max(sizes) * 8 * rows <= integrate.NOISE_BUDGET_BYTES
        for k in range(5):
            assert np.array_equal(whole[k][:len(blocked[k])], blocked[k]), k


def reference_project_2x2(v, tol):
    """The 2x2 repair as first written: every formula over the whole batch."""
    a = v[:, 0].real
    d = v[:, 3].real
    b = 0.5 * (v[:, 1] + v[:, 2].conj())
    p = 0.5 * (a + d)
    r = np.sqrt(0.25 * (a - d) ** 2 + b.real ** 2 + b.imag ** 2)
    lam_min = p - r
    clip = lam_min < 0.0
    magnitude = np.where(clip, -lam_min, 0.0)
    integrate._raise_first_failure(~(p + r > 0.0), magnitude, tol)
    trace = a + d
    safe = np.where(np.abs(trace) > 0.0, trace, 1.0).astype(np.complex128)
    renorm = np.empty_like(v)
    renorm[:, 0] = a / safe
    renorm[:, 1] = b / safe
    renorm[:, 2] = b.conj() / safe
    renorm[:, 3] = d / safe
    if np.any(clip):
        rsafe = np.where(r > 0.0, r, 1.0)
        wz = 0.5 * (a - d)
        clipped = np.empty_like(v)
        clipped[:, 0] = 0.5 * (1.0 + wz / rsafe)
        clipped[:, 1] = 0.5 * b / rsafe
        clipped[:, 2] = clipped[:, 1].conj()
        clipped[:, 3] = 0.5 * (1.0 - wz / rsafe)
        out = np.where(clip[:, None], clipped, renorm)
    else:
        out = renorm
    return out, magnitude


def reference_project_general(v, dim, tol):
    """The d > 2 repair as first written: one row at a time past the spectrum."""
    mats = v.reshape(-1, dim, dim)
    mats = np.where(np.isfinite(mats).all(axis=(1, 2))[:, None, None], mats, 0.0)
    mats = 0.5 * (mats + np.transpose(mats.conj(), (0, 2, 1)))
    w = np.linalg.eigvalsh(mats)
    magnitude = np.where(w < 0.0, -w, 0.0).sum(axis=1)
    integrate._raise_first_failure(~(w[:, -1] > 0.0), magnitude, tol)
    out = np.empty_like(mats)
    needs_clip = w[:, 0] < 0.0
    for i in range(mats.shape[0]):
        m = mats[i]
        if needs_clip[i]:
            wi, ui = np.linalg.eigh(m)
            m = (ui * np.maximum(wi, 0.0)) @ ui.conj().T
        tr = m.trace().real
        if tr <= 0.0:
            raise IntegrationError("state lost all positive mass during a step", trajectory=i)
        out[i] = m / tr
    return out.reshape(v.shape), magnitude


def reference_step(kernel, v, dw):
    """The EM step as first written, with a fresh array for every term.

    Returns the states, the clipped mass and the measured mean, per row.
    """
    tr_meas = (v @ kernel.k_meas).real
    drift = v @ kernel.drift_t
    if kernel.bloch_gain is not None:
        u = -kernel.bloch_gain * (v[:, 1] + v[:, 2]).real
        drift = drift + u[:, None] * (v @ kernel.ham_t)
    innov = v @ kernel.lin_t - tr_meas[:, None] * v
    return (*reference_project_2x2(v + drift * kernel.dt + innov * dw[:, None], kernel.tol),
            tr_meas)


def same_bits(x, y):
    """Equal bit for bit, so the sign of an exact zero counts too."""
    return x.shape == y.shape and np.array_equal(x.view(np.uint64), y.view(np.uint64))


class TestQubitStepMatchesReference:
    # the qubit step computes each value with the same numpy operations,
    # in the same order, as the plain formulas above, in fewer passes

    @pytest.mark.parametrize("control", [
        ControlLaw(), ControlLaw(kind="constant", value=3.0),
        ControlLaw(kind="bloch_x_proportional", gain=5.0)], ids=lambda c: c.kind)
    @pytest.mark.parametrize("batch", [2, 257, 2560])
    def test_states_and_clipped_mass_bit_for_bit(self, control, batch):
        spec = qubit_spec(kappa=1.0, gamma=6.0, control=control)
        kernel = integrate._EulerMaruyamaKernel(spec, IntegratorConfig(dt=1e-3, t_final=0.3),
                                                batch)
        rng = np.random.default_rng(batch)
        # even rows start on the x pole, where zero control keeps every
        # imaginary part an exact +-0; odd rows start near random pure states
        start = [bloch_to_density((1, 0, 0)).reshape(-1)] * batch
        for b in range(1, batch, 2):
            n = rng.normal(size=3)
            start[b] = bloch_to_density(0.999 * n / np.linalg.norm(n)).reshape(-1)
        v = np.array(start)
        noise = rng.normal(0.0, np.sqrt(1e-3), (300, batch))
        clipped = 0
        for dw in noise:
            want, want_mags, want_tr = reference_step(kernel, v, dw)
            v, tr_meas, mags = kernel.step(v, dw)
            assert same_bits(v, want)
            assert same_bits(tr_meas, want_tr)
            assert same_bits(mags, want_mags)
            clipped += int(np.count_nonzero(mags))
        assert 0 < clipped < 300 * batch

    def test_reciprocal_factor_has_the_bits_of_the_complex_divide(self):
        # the repair renormalises by x * (1/t - 0j) where the plain formulas
        # divide by t + 0j; with magnitudes in 1e-150..1e150 no product
        # underflows or overflows, so the two agree on every bit, the signs
        # of exact zeros too, for complex x and for real columns of a batch
        rng = np.random.default_rng(27)
        n = 200_000

        def values():
            x = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-150, 150, n)
            x[rng.random(n) < 0.1] = 0.0
            x[rng.random(n) < 0.1] = -0.0
            return x

        t = 10.0 ** rng.uniform(-150, 150, n)
        factor = np.full(n, -0.0j)
        np.divide(1.0, t, out=factor.real)
        x = np.empty(n, np.complex128)
        x.real, x.imag = values(), values()
        batch = np.zeros((n, 4), np.complex128)
        batch[:, 0].real = values()
        column = batch[:, 0].real
        for got, want in ((np.multiply(x, factor), np.divide(x, t + 0j)),
                          (np.multiply(column, factor), np.divide(column, t + 0j))):
            assert np.isfinite(want).all()
            nonzero = np.concatenate([want.real, want.imag])
            assert (np.abs(nonzero[nonzero != 0.0]) >= np.finfo(float).tiny).all()
            assert same_bits(got, want)

    @pytest.mark.parametrize("bad_rows", [
        {3: "lost"}, {5: "over"}, {2: "lost", 6: "over"}, {2: "over", 6: "lost"},
        {4: "negative"}])
    def test_failures_name_the_same_row(self, bad_rows):
        rng = np.random.default_rng(11)
        v = np.array([random_density(2, min_eig=0.05, seed=s).reshape(-1) for s in range(8)])
        for row, kind in bad_rows.items():
            v[row] = {"lost": np.full(4, np.nan),
                      "over": np.diag([1.3, -0.3]).reshape(-1),
                      "negative": -v[row]}[kind]
        v += 1e-3 * rng.normal(size=v.shape) * (1 + 1j)
        with pytest.raises(IntegrationError) as want:
            reference_project_2x2(v.copy(), 0.1)
        with pytest.raises(IntegrationError) as got:
            _project_batch(v.copy(), 2, 0.1)
        assert str(got.value) == str(want.value)
        assert got.value.trajectory == want.value.trajectory == min(bad_rows)
        assert got.value.magnitude == want.value.magnitude

    def test_a_row_that_stops_clipping_reports_a_zero(self):
        # one workspace across the two repairs, as in a run: row 0 clips in
        # the first and row 1 in the second, which must report row 0 as +0.0
        first = np.array([np.diag([1.01, -0.01]), np.diag([0.7, 0.3]), np.diag([0.6, 0.4])])
        second = np.array([np.diag([0.7, 0.3]), np.diag([1.02, -0.02]), np.diag([0.6, 0.4])])
        work = integrate._Workspace(3, 2)
        for batch, clipped in ((first, 0), (second, 1)):
            v = batch.reshape(3, 4).astype(np.complex128)
            want, want_mags = reference_project_2x2(v.copy(), 0.1)
            work.drift[:] = v
            got, mags = _project_batch(work.drift, 2, 0.1, work)
            assert same_bits(got, want)
            assert same_bits(mags, want_mags)
            assert np.flatnonzero(mags).tolist() == [clipped]

    def test_a_smallest_eigenvalue_of_exactly_zero_is_no_clip(self):
        # pure states have p == r, so lam_min is exactly 0 and nothing clips
        v = np.array([np.diag([1.0, 0.0]), np.full((2, 2), 0.5), np.diag([0.6, 0.4])])
        v = v.reshape(3, 4).astype(np.complex128)
        want, want_mags = reference_project_2x2(v.copy(), 0.1)
        work = integrate._Workspace(3, 2)
        work.drift[:] = v
        got, mags = _project_batch(work.drift, 2, 0.1, work)
        assert same_bits(got, want)
        assert same_bits(mags, want_mags)
        assert mags is work.zeros

    @pytest.mark.parametrize("bad", ["zero", "nan"])
    @pytest.mark.parametrize("other", ["clean", "clipped"])
    def test_a_zero_or_nan_row_is_lost_as_before(self, bad, other):
        v = np.array([np.diag([0.6, 0.4])] * 4).reshape(4, 4).astype(np.complex128)
        if other == "clipped":
            v[1] = np.diag([1.01, -0.01]).reshape(-1)
        v[2] = 0.0 if bad == "zero" else np.nan
        with pytest.raises(IntegrationError) as want:
            reference_project_2x2(v.copy(), 0.1)
        with pytest.raises(IntegrationError) as got:
            _project_batch(v.copy(), 2, 0.1)
        assert str(got.value) == str(want.value) == "state lost all positive mass during a step"
        assert got.value.trajectory == want.value.trajectory == 2
        assert got.value.magnitude is want.value.magnitude is None


def frozen_project_2x2(v, tol):
    """The 2x2 repair before the step reused its arrays: fresh arrays, no clip-free path."""
    a = v[:, 0].real
    d = v[:, 3].real
    b = np.add(v[:, 1], v[:, 2].conj())
    b *= 0.5
    trace = a + d
    p = 0.5 * trace
    r = np.square(a - d)
    r *= 0.25
    r += b.real ** 2
    r += b.imag ** 2
    np.sqrt(r, out=r)
    lam_min = p - r
    clip = lam_min < 0.0
    magnitude = np.where(clip, -lam_min, 0.0)
    alive = p + r > 0.0
    lo = lam_min.min()
    if not (alive.all() and math.isfinite(lo) and max(-lo, 0.0) <= tol):
        integrate._raise_first_failure(~alive | ~np.isfinite(lam_min), magnitude, tol)
    safe = np.where(np.abs(trace) > 0.0, trace, 1.0).astype(np.complex128)
    out = np.empty_like(v)
    np.divide(a, safe, out=out[:, 0])
    np.divide(b, safe, out=out[:, 1])
    np.divide(b.conj(), safe, out=out[:, 2])
    np.divide(d, safe, out=out[:, 3])
    clipped = np.flatnonzero(clip)
    if clipped.size:
        rc = r[clipped]
        rsafe = np.where(rc > 0.0, rc, 1.0)
        wz = 0.5 * (a[clipped] - d[clipped])
        off = 0.5 * b[clipped] / rsafe
        out[clipped, 0] = 0.5 * (1.0 + wz / rsafe)
        out[clipped, 1] = off
        out[clipped, 2] = off.conj()
        out[clipped, 3] = 0.5 * (1.0 - wz / rsafe)
    return out, magnitude


def frozen_step(kernel, v, dw, tr_meas):
    """The EM step before it reused its arrays; only the kernel's operators are read."""
    rows = len(v)
    v = np.concatenate((v, v)) if rows == 1 else v
    drift = v @ kernel.drift_t
    if kernel.bloch_gain is not None:
        u = -kernel.bloch_gain * (v[:, 1] + v[:, 2]).real
        drift += u[:, None] * (v @ kernel.ham_t)
    innov = v @ kernel.lin_t
    innov -= tr_meas[:, None] * v
    drift *= kernel.dt
    drift += v
    innov *= dw[:, None]
    drift += innov
    if kernel.dim == 2:
        out, magnitude = frozen_project_2x2(drift, kernel.tol)
    else:
        out, magnitude = _project_batch(drift, kernel.dim, kernel.tol)
    return out[:rows], magnitude[:rows]


def frozen_run_em_batch(spec, rho0, cfg, rngs, record):
    """``_run_em_batch`` before the step reused its arrays.

    Returns the number of steps where some row clipped and where none did.
    """
    rows = len(rngs)
    kernel = integrate._EulerMaruyamaKernel(spec, cfg, rows)
    block = max(1, integrate.NOISE_BUDGET_BYTES // (8 * rows))
    v = np.tile(rho0.reshape(-1), (rows, 1))
    noise = np.empty((min(block, cfg.n_steps), rows))

    def checkpoint():
        states = v.reshape(rows, *rho0.shape)
        record(states, integrate.entropy_of_states(states), dw_acc.copy(), rep_acc.copy(),
               y_acc.copy())

    dw_acc, rep_acc, y_acc = np.zeros(rows), np.zeros(rows), np.zeros(rows)
    clipping = clean = 0
    checkpoint()
    for step in range(1, cfg.n_steps + 1):
        j = (step - 1) % block
        if j == 0:
            size = min(block, cfg.n_steps + 1 - step)
            for b, rng in enumerate(rngs):
                noise[:size, b] = wiener_increment(rng, cfg.dt, size=size)
        dw = noise[j]
        tr_meas = ((np.concatenate((v, v)) if rows == 1 else v) @ kernel.k_meas).real[:rows]
        y_acc += tr_meas * cfg.dt
        y_acc += dw
        v, mags = frozen_step(kernel, v, dw, tr_meas)
        dw_acc += dw
        rep_acc += mags
        clipping += bool(mags.any())
        clean += not mags.any()
        if step % cfg.record_stride == 0:
            checkpoint()
            dw_acc[:] = 0.0
            rep_acc[:] = 0.0
    return clipping, clean


def same_record_bits(x, y):
    """Equal as raw bytes: uint64 words for floats and complex values, bytes otherwise."""
    words = np.uint64 if x.dtype.itemsize % 8 == 0 else np.uint8
    return x.shape == y.shape and x.dtype == y.dtype and np.array_equal(
        np.ascontiguousarray(x).view(words), np.ascontiguousarray(y).view(words))


class TestBufferedRunMatchesFrozenRun:
    # the step fills arrays it allocated once per batch size, and a step
    # where no row clips skips the clip formulas; both must keep every
    # recorded bit of the stepping loop that allocated each array anew

    @pytest.mark.parametrize("case", ["zero", "constant", "bloch_x_proportional", "d4"])
    @pytest.mark.parametrize("rows", [1, 2, 32, 256, 257, 2560])
    def test_every_recorded_bit(self, case, rows):
        if case == "d4":
            psi = np.full(4, 0.5)
            spec = d4_spec()
            starts = [0.98 * np.outer(psi, psi) + 0.005 * np.eye(4),
                      random_density(4, min_eig=0.05, seed=3)]
            cfg = IntegratorConfig(dt=5e-3, t_final=0.25, record_stride=5)
        else:
            law = {"zero": ControlLaw(), "constant": ControlLaw(kind="constant", value=3.0),
                   "bloch_x_proportional": ControlLaw(kind="bloch_x_proportional", gain=5.0)}
            spec = qubit_spec(kappa=1.0, gamma=6.0, control=law[case])
            # the x pole clips from the first step; the mixed start leaves
            # every row unclipped until measurement purifies it
            starts = [bloch_to_density((1, 0, 0)), bloch_to_density((0.6, 0, 0))]
            cfg = IntegratorConfig(dt=4e-3, t_final=1.2, record_stride=5)
        clipping = clean = 0
        for rho0 in starts:
            rngs = [np.random.default_rng(trajectory_seed(3, i)) for i in range(rows)]
            want = []
            counts = frozen_run_em_batch(spec, rho0, cfg, rngs, lambda *rows: want.append(rows))
            clipping, clean = clipping + counts[0], clean + counts[1]
            got = []
            rngs = [np.random.default_rng(trajectory_seed(3, i)) for i in range(rows)]
            _run_em_batch(spec, rho0, cfg, rngs, lambda *rows: got.append(rows))
            assert len(got) == len(want) == len(cfg.checkpoint_times)
            for k, (g, w) in enumerate(zip(got, want)):
                for j in range(5):
                    assert same_record_bits(g[j], w[j]), (k, j)
        assert clipping >= 1 and clean >= 20, (clipping, clean)

    @pytest.mark.parametrize("rows", [1, 3])
    def test_a_step_with_no_clipped_row_reports_a_zero_per_row(self, rows):
        spec = qubit_spec(kappa=1.0, gamma=6.0)
        cfg = IntegratorConfig(dt=1e-3, t_final=0.02, record_stride=5)
        rho0 = bloch_to_density((0.3, 0.0, 0.0))
        kernel = integrate._EulerMaruyamaKernel(spec, cfg, rows)
        v = np.tile(rho0.reshape(-1), (rows, 1))
        _, _, mags = kernel.step(v, np.full(rows, 0.01))
        assert same_record_bits(mags, np.zeros(rows))
        kept = []
        rngs = [np.random.default_rng(trajectory_seed(3, i)) for i in range(rows)]
        _run_em_batch(spec, rho0, cfg, rngs, lambda *got: kept.append(got[3]))
        assert same_record_bits(np.stack(kept), np.zeros((5, rows)))


def clipping_rows(dim, rows, rng):
    """Near-states with one eigenvalue about -0.01 and a non-Hermitian part."""
    g = rng.normal(size=(rows, dim, dim)) + 1j * rng.normal(size=(rows, dim, dim))
    rho = g @ np.transpose(g.conj(), (0, 2, 1))
    rho /= np.trace(rho, axis1=1, axis2=2).real[:, None, None]
    w, u = np.linalg.eigh(rho)
    low = u[:, :, :1]
    rho -= (w[:, :1, None] + 0.01) * (low @ np.transpose(low.conj(), (0, 2, 1)))
    noise = rng.normal(size=rho.shape) + 1j * rng.normal(size=rho.shape)
    return (rho + 1e-3 * noise).reshape(rows, -1)


class TestGeneralRepairMatchesReference:
    # the general-d repair clips all rows that need it in one batched eigh,
    # which must give every bit of the row-by-row loop

    @pytest.mark.parametrize("dim", [3, 4, 8])
    @pytest.mark.parametrize("clipping", [2, 257, 1000])
    def test_states_and_clipped_mass_bit_for_bit(self, dim, clipping):
        rng = np.random.default_rng(dim * clipping)
        v = np.empty((2 * clipping, dim * dim), dtype=complex)
        v[0::2] = [random_density(dim, min_eig=0.01, seed=s).reshape(-1)
                   for s in range(clipping)]
        v[1::2] = clipping_rows(dim, clipping, rng)
        want, want_mags = reference_project_general(v.copy(), dim, 0.1)
        got, mags = _project_batch(v.copy(), dim, 0.1)
        assert np.count_nonzero(mags) == clipping
        assert same_bits(got, want)
        assert same_bits(mags, want_mags)

    @pytest.mark.parametrize("dim", [3, 4, 8])
    @pytest.mark.parametrize("kind", ["lost", "over"])
    def test_failures_name_the_same_row(self, dim, kind):
        v = clipping_rows(dim, 9, np.random.default_rng(dim))
        v[6] = {"lost": -random_density(dim, min_eig=0.01, seed=0),
                "over": np.diag([1.3] + [0.0] * (dim - 2) + [-0.3])}[kind].reshape(-1)
        with pytest.raises(IntegrationError, match={"lost": "lost all positive mass",
                                                    "over": "exceeds tolerance"}[kind]) as want:
            reference_project_general(v.copy(), dim, 0.1)
        with pytest.raises(IntegrationError) as got:
            _project_batch(v.copy(), dim, 0.1)
        assert str(got.value) == str(want.value)
        assert got.value.trajectory == want.value.trajectory == 6
        assert got.value.magnitude == want.value.magnitude

    def test_nonpositive_trace_names_the_same_row(self):
        # -(q diag(0.01, 0.02, 0) q^dag) has a zero eigenvalue that round-off
        # puts on either side of 0; where the batched eigvalsh sees it
        # positive, the row passes the first check, and where eigh then sees
        # it nonpositive, clipping leaves no trace at all
        rng = np.random.default_rng(5)
        q, _ = np.linalg.qr(rng.normal(size=(200, 3, 3)) + 1j * rng.normal(size=(200, 3, 3)))
        m = -(q * np.array([0.01, 0.02, 0.0])) @ np.transpose(q.conj(), (0, 2, 1))
        sym = 0.5 * (m + np.transpose(m.conj(), (0, 2, 1)))
        m = m[np.linalg.eigvalsh(sym)[:, -1] > 0.0]
        valid = [random_density(3, min_eig=0.01, seed=s).reshape(-1) for s in range(3)]
        v = np.concatenate([valid, m.reshape(len(m), -1)])
        with pytest.raises(IntegrationError) as want:
            reference_project_general(v.copy(), 3, 0.1)
        with pytest.raises(IntegrationError) as got:
            _project_batch(v.copy(), 3, 0.1)
        assert str(got.value) == str(want.value) == "state lost all positive mass during a step"
        assert got.value.trajectory == want.value.trajectory >= 3


class TestIntegrateMasterEquation:
    def test_dephasing_oracle(self):
        spec = qubit_spec(kappa=1.0)
        cfg = IntegratorConfig(dt=1e-3, t_final=1.0, record_stride=100)
        rec = integrate_master_equation(spec, bloch_to_density((1, 0, 0)), cfg)
        for t, rho in zip(rec.times, rec.states):
            assert density_to_bloch(rho).x == pytest.approx(dephasing_x(1, 1, t), abs=1e-6)

    def test_decay_oracle(self):
        spec = ModelSpec(dim=2, hamiltonian=SIGMA_Y.copy(),
                         probe=np.zeros((2, 2), dtype=complex),
                         decoherence=SIGMA_MINUS.copy())
        cfg = IntegratorConfig(dt=1e-3, t_final=1.0, record_stride=100)
        rec = integrate_master_equation(spec, KET0, cfg)
        for t, rho in zip(rec.times, rec.states):
            assert density_to_bloch(rho).z == pytest.approx(decay_z(1, 1, t), abs=1e-6)

    def test_frozen_dynamics(self):
        spec = ModelSpec(dim=2, hamiltonian=np.zeros((2, 2), dtype=complex),
                         probe=np.zeros((2, 2), dtype=complex),
                         decoherence=np.zeros((2, 2), dtype=complex))
        rho0 = bloch_to_density((0.3, -0.2, 0.5))
        cfg = IntegratorConfig(dt=1e-3, t_final=1.0, record_stride=200)
        rec = integrate_master_equation(spec, rho0, cfg)
        for rho in rec.states:
            np.testing.assert_allclose(rho, rho0, atol=1e-14)

    def test_halving_dt_changes_little(self):
        spec = qubit_spec(kappa=1.0, gamma=2.0)
        rho0 = bloch_to_density((1, 0, 0))
        coarse = integrate_master_equation(
            spec, rho0, IntegratorConfig(dt=2e-3, t_final=1.0, record_stride=100))
        fine = integrate_master_equation(
            spec, rho0, IntegratorConfig(dt=1e-3, t_final=1.0, record_stride=200))
        assert np.max(np.abs(coarse.states - fine.states)) <= 1e-8

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_matches_a_per_step_rk4_loop(self, dim):
        # a wrong RK4 coefficient moves a state by order dt^3 or dt^4 per
        # step, far above 1e-12; the closed-form oracles above allow 1e-6
        rng = np.random.default_rng(dim)
        spec = ModelSpec(dim=dim, hamiltonian=random_hermitian(dim, rng),
                         probe=random_operator(dim, rng, scale=0.5),
                         decoherence=random_operator(dim, rng, scale=0.5),
                         control=ControlLaw("constant", 0.5))
        rho0 = random_density(dim, seed=dim)
        cfg = IntegratorConfig(dt=1e-3, t_final=0.05, record_stride=7)  # 50 steps
        gen, dt = spec.generator, cfg.dt
        v = rho0.reshape(-1)
        want = [rho0]
        for step in range(1, cfg.n_steps + 1):
            k1 = gen @ v
            k2 = gen @ (v + 0.5 * dt * k1)
            k3 = gen @ (v + 0.5 * dt * k2)
            k4 = gen @ (v + dt * k3)
            v = v + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
            if step % cfg.record_stride == 0:
                m = v.reshape(dim, dim)
                want.append(0.5 * (m + m.conj().T))
        rec = integrate_master_equation(spec, rho0, cfg)
        assert len(rec.states) == len(want) == 8
        np.testing.assert_allclose(rec.states, want, rtol=0, atol=1e-12)

    def test_tracks_a_constant_control_ensemble(self):
        # the oracle integrates the model's own law: without the constant
        # input of 0.5 the mean drifts about 0.09 away by t = 0.6
        spec, rho0 = d4_spec(), random_density(4, min_eig=0.05, seed=3)
        cfg = IntegratorConfig(dt=1e-3, t_final=0.6, record_stride=100)
        stats = run_ensemble(spec, rho0, EnsembleConfig(
            n_trajectories=512, master_seed=7, integrator=cfg))
        oracle = integrate_master_equation(spec, rho0, cfg)
        dist = [trace_distance(m, o) for m, o in zip(stats.mean_state, oracle.states)]
        assert len(dist) == 7
        assert max(dist) <= 0.04

    def test_refuses_a_law_that_reads_the_state(self):
        spec = qubit_spec(control=ControlLaw(kind="bloch_x_proportional", gain=5.0))
        cfg = IntegratorConfig(dt=1e-3, t_final=0.01)
        with pytest.raises(ValidationError, match="does not read the state"):
            integrate_master_equation(spec, KET0, cfg)

    def test_divergence_raises_cleanly(self):
        spec = ModelSpec(dim=2, hamiltonian=SIGMA_Y.copy(),
                         probe=np.zeros((2, 2), dtype=complex),
                         decoherence=1e3 * SIGMA_MINUS.copy())
        cfg = IntegratorConfig(dt=1e-3, t_final=0.5, record_stride=10)
        with pytest.raises(IntegrationError, match="step size|invalid"):
            integrate_master_equation(spec, KET0, cfg)


@pytest.mark.parametrize("entry", ["run_ensemble", "simulate_trajectory",
                                   "integrate_master_equation"])
def test_initial_state_must_match_the_model(entry):
    spec = qubit_spec()
    cfg = IntegratorConfig(dt=1e-3, t_final=0.01)
    run = {"run_ensemble": lambda rho: run_ensemble(spec, rho, EnsembleConfig(
               n_trajectories=3, integrator=cfg)),
           "simulate_trajectory": lambda rho: simulate_trajectory(spec, rho, cfg, seed=0),
           "integrate_master_equation": lambda rho: integrate_master_equation(spec, rho, cfg)}
    with pytest.raises(ValidationError) as err:
        run[entry](np.eye(4) / 4)
    assert str(err.value) == "initial state dimension 4 does not match model dim 2"


class TestIntegratorConfig:
    def test_rejects_nonpositive_dt(self):
        with pytest.raises(ValidationError, match="dt must be positive"):
            IntegratorConfig(dt=0.0)

    def test_rejects_short_horizon(self):
        with pytest.raises(ValidationError, match="t_final"):
            IntegratorConfig(dt=0.1, t_final=0.05)

    def test_rejects_bad_stride(self):
        with pytest.raises(ValidationError, match="record_stride"):
            IntegratorConfig(record_stride=0)

    @pytest.mark.parametrize("stride", [2.5, 2.0, True])
    def test_rejects_a_non_integer_stride(self, stride):
        # a stride of 2.5 once gave a 5-entry grid beside 3 recorded states
        with pytest.raises(ValidationError, match=f"record_stride must be an integer, got {stride!r}"):
            IntegratorConfig(dt=1e-3, t_final=0.01, record_stride=stride)


class TestCheckpointGrid:
    @pytest.mark.parametrize("t_final, stride", [(0.05, 10), (0.059, 20), (0.001, 5)])
    def test_every_runner_records_the_config_grid(self, t_final, stride):
        cfg = IntegratorConfig(dt=1e-3, t_final=t_final, record_stride=stride)
        # step k * stride at time (k * stride) * dt, bit for bit
        want = [k * stride * cfg.dt for k in range(cfg.n_steps // stride + 1)]
        assert cfg.checkpoint_times.tolist() == want
        spec, rho0 = qubit_spec(kappa=1.0, gamma=6.0), bloch_to_density((1, 0, 0))
        rec = simulate_trajectory(spec, rho0, cfg, 0)
        oracle = integrate_master_equation(spec, rho0, cfg)
        stats = run_ensemble(spec, rho0, EnsembleConfig(n_trajectories=3, integrator=cfg))
        for times, states in ((rec.times, rec.states), (oracle.times, oracle.states),
                              (stats.times, stats.mean_state)):
            assert times.tolist() == want
            assert len(states) == len(want)


class TestMasterEquationFailure:
    # kappa * dt = 10 is far outside RK4's stability region
    @pytest.mark.parametrize("t_final, stride, step, reason", [
        (0.01, 1, 1, "density matrix has negative eigenvalue -2.757e+03 below -1.0e-09"),
        (1.0, 1000, 1000, "density matrix contains non-finite entries"),
    ])
    def test_invalid_state_names_its_step(self, t_final, stride, step, reason):
        cfg = IntegratorConfig(dt=1e-3, t_final=t_final, record_stride=stride)
        with pytest.raises(IntegrationError) as err:
            integrate_master_equation(qubit_spec(kappa=1e4), bloch_to_density((1, 0, 0)), cfg)
        assert err.value.step == step
        assert str(err.value) == f"master equation state invalid at step {step}: {reason}"
