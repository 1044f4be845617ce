import copy

import numpy as np
import pytest

from entroflux import integrate
from entroflux.ensemble import trajectory_seed
from entroflux.integrate import (
    TRAJECTORY_ROWS,
    IntegrationError,
    IntegratorConfig,
    TrajectoryState,
    _project_batch,
    _run_em_batch,
    _stack_rows,
    dissipator_superop,
    em_step,
    hamiltonian_superop,
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
    validate_density,
)
from entroflux.model import ControlLaw, ModelSpec, dissipator, sme_increment
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

    def test_rejects_bad_dt(self):
        with pytest.raises(ValidationError, match="dt must be positive"):
            wiener_increment(np.random.default_rng(0), 0.0)


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
        high_purity = 0
        for seed in range(100):
            rec = simulate_trajectory(spec, bloch_to_density((1, 0, 0)), cfg, seed=seed)
            purity = np.trace(rec.states[-1] @ rec.states[-1]).real
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
    """The recorded rows of trajectories 0..rows-1 stepped as one batch."""
    kept = []
    rngs = [np.random.default_rng(trajectory_seed(7, i)) for i in range(rows)]
    times = _run_em_batch(spec, rho0, cfg, rngs, kept.append)
    return times, _stack_rows(kept)


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
        _, widest = batch_rows(spec, rho0, cfg, 1000)
        for rows in (1, 2, 3, 256, 257):
            _, got = batch_rows(spec, rho0, cfg, rows)
            for key in TRAJECTORY_ROWS:
                assert np.array_equal(got[key], widest[key][:, :rows]), (rows, key)

    def test_lone_row_is_simulate_trajectory(self):
        spec, rho0 = d4_spec(), random_density(4, min_eig=0.05, seed=3)
        cfg = IntegratorConfig(dt=1e-3, t_final=0.03, record_stride=10)
        _, rows = batch_rows(spec, rho0, cfg, 3)
        rec = simulate_trajectory(spec, rho0, cfg, trajectory_seed(7, 2))
        np.testing.assert_array_equal(rec.states, rows["states"][:, 2])
        np.testing.assert_array_equal(rec.measurement_record, rows["y_path"][:, 2])

    @pytest.mark.parametrize("rows", [1, 3])
    def test_recorded_rows_do_not_change_after_the_call(self, rows):
        # the stepping loop updates its accumulators in place, so a sink
        # that keeps the arrays it is handed must not see later steps
        spec = qubit_spec(kappa=1.0, gamma=6.0)
        cfg = IntegratorConfig(dt=1e-3, t_final=0.05, record_stride=10)
        kept, at_call = [], []

        def record(got):
            kept.append(got)
            at_call.append(copy.deepcopy(got))

        rngs = [np.random.default_rng(trajectory_seed(7, i)) for i in range(rows)]
        _run_em_batch(spec, bloch_to_density((1, 0, 0)), cfg, rngs, record)
        assert len(kept) == 6
        for got, want in zip(kept, at_call):
            for key in TRAJECTORY_ROWS:
                assert np.array_equal(got[key], want[key]), key

    def test_noise_blocks_are_bounded_and_leave_no_trace(self, monkeypatch):
        # 50 steps in blocks of 7 (not a multiple of the stride 10) must give
        # the bits of one 50-step block, and no block may pass the budget
        spec = qubit_spec(kappa=1.0, gamma=6.0)
        rho0 = bloch_to_density((1, 0, 0))
        cfg = IntegratorConfig(dt=1e-3, t_final=0.05, record_stride=10)
        rows = 300
        sizes = []
        draw = integrate.wiener_increment

        def spy(rng, dt, size=None):
            sizes.append(size)
            return draw(rng, dt, size)

        monkeypatch.setattr(integrate, "wiener_increment", spy)
        times, whole = batch_rows(spec, rho0, cfg, rows)
        assert sizes == [50] * rows
        sizes.clear()
        monkeypatch.setattr(integrate, "NOISE_BUDGET_BYTES", 7 * 8 * rows)
        blocked_times, blocked = batch_rows(spec, rho0, cfg, rows)
        assert sorted(set(sizes)) == [1, 7] and len(sizes) == 8 * rows
        assert max(sizes) * 8 * rows <= integrate.NOISE_BUDGET_BYTES
        np.testing.assert_array_equal(times, blocked_times)
        for key in TRAJECTORY_ROWS:
            assert np.array_equal(whole[key], blocked[key]), key


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


def reference_step(kernel, v, dw):
    """The EM step as first written, with a fresh array for every term."""
    tr_meas = kernel.measured_mean(v)
    drift = v @ kernel.drift_t
    if kernel.bloch_gain is not None:
        u = -kernel.bloch_gain * (v[:, 1] + v[:, 2]).real
        drift = drift + u[:, None] * (v @ kernel.ham_t)
    innov = v @ kernel.lin_t - tr_meas[:, None] * v
    return reference_project_2x2(v + drift * kernel.dt + innov * dw[:, None], kernel.tol)


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
        kernel = integrate._EulerMaruyamaKernel(spec, IntegratorConfig(dt=1e-3, t_final=0.3))
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
            want, want_mags = reference_step(kernel, v, dw)
            v, mags = kernel.step(v, dw)
            assert same_bits(v, want)
            assert same_bits(mags, want_mags)
            clipped += int(np.count_nonzero(mags))
        assert 0 < clipped < 300 * batch

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

    def test_divergence_raises_cleanly(self):
        spec = ModelSpec(dim=2, hamiltonian=SIGMA_Y.copy(),
                         probe=np.zeros((2, 2), dtype=complex),
                         decoherence=1e3 * SIGMA_MINUS.copy())
        cfg = IntegratorConfig(dt=1e-3, t_final=0.5, record_stride=10)
        with pytest.raises(IntegrationError, match="step size|invalid"):
            integrate_master_equation(spec, KET0, cfg)


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
