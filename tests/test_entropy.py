import numpy as np
import pytest
import scipy.linalg

from entroflux.ensemble import EnsembleConfig, EnsembleStatistics, run_ensemble
from entroflux.entropy import (
    EntropyBoundReport,
    build_bound_report,
    certifies_entropy_nondecreasing,
    dissipator_entropy_gap,
    entropy_rate_bound,
    entropy_rate_estimate,
    ito_correction_terms,
    log_inequality_gap,
    observable_variance,
    quantumness,
    von_neumann_entropy,
)
from entroflux.integrate import IntegratorConfig
from entroflux.linalg import (
    ValidationError,
    dagger,
    random_density,
    random_hermitian,
    random_operator,
)
from entroflux.model import ControlLaw, ModelSpec, dissipator
from entroflux.qubit import (
    SIGMA_MINUS,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    QubitScenario,
    bloch_to_density,
    qubit_model,
)

KET0 = np.diag([1.0, 0.0]).astype(complex)
KET1 = np.diag([0.0, 1.0]).astype(complex)


def stats_stub(times, mean_state, mean_entropy, entropy_se=None):
    n = len(times)
    zeros = np.zeros(n)
    return EnsembleStatistics(
        times=np.asarray(times, dtype=float),
        mean_state=np.asarray(mean_state),
        mean_entropy=np.asarray(mean_entropy, dtype=float),
        entropy_se=zeros if entropy_se is None else np.asarray(entropy_se, dtype=float),
        quantumness_mean=zeros,
        quantumness_se=zeros,
        state_se=np.zeros((n, 2, 2)),
        n_trajectories=1,
        flagged_trajectories=0,
        mean_total_repair=0.0,
    )


class TestVonNeumannEntropy:
    def test_pure_state(self):
        assert von_neumann_entropy(KET0) == pytest.approx(0.0, abs=1e-15)

    def test_maximally_mixed(self):
        assert von_neumann_entropy(np.eye(2) / 2) == pytest.approx(np.log(2), abs=1e-14)

    def test_two_level_spectrum(self):
        want = -0.9 * np.log(0.9) - 0.1 * np.log(0.1)
        assert von_neumann_entropy(np.diag([0.9, 0.1])) == pytest.approx(want, abs=1e-12)
        assert von_neumann_entropy(np.diag([0.9, 0.1])) == pytest.approx(0.325083, abs=1e-6)

    def test_range_sweep(self):
        for d in (2, 3, 4):
            for seed in range(200):
                s = von_neumann_entropy(random_density(d, seed=seed))
                assert -1e-12 <= s <= np.log(d) + 1e-12

    def test_invalid_state_rejected(self):
        with pytest.raises(ValidationError):
            von_neumann_entropy(np.diag([0.8, 0.8]))


class TestObservableVariance:
    def test_eigenstate_has_zero_variance(self):
        assert observable_variance(SIGMA_Z, KET0) == pytest.approx(0.0, abs=1e-14)

    def test_axial_state_formula(self):
        # Var[sqrt(kappa) sigma_z] = kappa (1 - z^2)
        kappa, z = 2.5, 0.3
        rho = bloch_to_density((0, 0, z))
        got = observable_variance(np.sqrt(kappa) * SIGMA_Z, rho)
        assert got == pytest.approx(kappa * (1 - z * z), abs=1e-12)

    def test_transverse_on_mixed(self):
        assert observable_variance(SIGMA_X, np.eye(2) / 2) == pytest.approx(1.0)

    def test_nonnegative_sweep(self):
        rng = np.random.default_rng(2)
        for seed in range(200):
            d = int(rng.integers(2, 5))
            got = observable_variance(random_hermitian(d, rng), random_density(d, seed=seed))
            assert got >= -1e-12

    def test_rejects_non_hermitian_probe(self):
        with pytest.raises(ValidationError, match="Hermitian probe"):
            observable_variance(SIGMA_MINUS, np.eye(2) / 2)


class TestQuantumness:
    def test_hermitian_operator_vanishes(self):
        rng = np.random.default_rng(3)
        for seed in range(100):
            d = int(rng.integers(2, 5))
            q = quantumness(random_hermitian(d, rng), random_density(d, seed=seed))
            assert abs(q) <= 1e-12

    def test_lowering_operator_gives_z(self):
        gamma, z = 3.0, 0.4
        rho = bloch_to_density((0.1, -0.2, z))
        got = quantumness(np.sqrt(gamma) * SIGMA_MINUS, rho)
        assert got == pytest.approx(gamma * z, abs=1e-12)

    def test_ground_state_value(self):
        assert quantumness(SIGMA_MINUS, KET1) == pytest.approx(-1.0)


class TestDissipatorEntropyGap:
    def test_commuting_case_vanishes(self):
        # diagonal Hermitian coupling and diagonal state: production and
        # bound are both zero
        a = np.diag([0.7, -0.4]).astype(complex)
        rho = np.diag([0.8, 0.2]).astype(complex)
        assert dissipator_entropy_gap(a, rho) == pytest.approx(0.0, abs=1e-12)

    def test_specific_value_against_independent_evaluation(self):
        a = SIGMA_Z.copy()
        rho = bloch_to_density((0.5, 0.0, 0.0))
        # oracle: both traces evaluated with scipy's logm
        log_rho = scipy.linalg.logm(rho)
        want = (-np.trace(dissipator(a, rho) @ log_rho)
                - np.trace((dagger(a) @ a - a @ dagger(a)) @ rho)).real
        got = dissipator_entropy_gap(a, rho)
        assert got == pytest.approx(want, abs=1e-9)
        assert got >= 0.0

    def test_sweep_nonnegative(self):
        rng = np.random.default_rng(5)
        for trial in range(1000):
            d = int(rng.integers(2, 5))
            a = random_operator(d, rng)
            rho = random_density(d, min_eig=1e-3, seed=trial)
            assert dissipator_entropy_gap(a, rho) >= -1e-9


class TestItoCorrectionTerms:
    def test_maximally_mixed_probe_z(self):
        lhs, rhs = ito_correction_terms(SIGMA_Z, np.eye(2) / 2)
        assert lhs == pytest.approx(4.0, abs=1e-10)
        assert rhs == pytest.approx(4.0, abs=1e-12)

    def test_probe_eigenstate(self):
        lhs, rhs = ito_correction_terms(SIGMA_Z, KET0)
        assert lhs == pytest.approx(0.0, abs=1e-9)
        assert rhs == pytest.approx(0.0, abs=1e-12)

    def test_quadratic_term_dominates_variance(self):
        rng = np.random.default_rng(7)
        for trial in range(500):
            d = int(rng.integers(2, 5))
            probe = random_hermitian(d, rng)
            rho = random_density(d, min_eig=1e-3, seed=trial)
            lhs, rhs = ito_correction_terms(probe, rho)
            assert lhs >= rhs - 1e-8 * max(rhs, 1.0)

    def test_equality_requires_commuting_pair(self):
        # non-commuting probe: the quadratic trace strictly exceeds the
        # variance term (here 1/0.9 + 1/0.1 vs 4)
        lhs, rhs = ito_correction_terms(SIGMA_X, np.diag([0.9, 0.1]))
        assert rhs == pytest.approx(4.0, abs=1e-12)
        assert lhs == pytest.approx(1.0 / 0.9 + 1.0 / 0.1, abs=1e-10)
        assert lhs > rhs + 7.0

    def test_rejects_non_hermitian_probe(self):
        with pytest.raises(ValidationError, match="Hermitian"):
            ito_correction_terms(SIGMA_MINUS, np.eye(2) / 2)


class TestLogInequalityGap:
    def test_maximally_mixed_qubit(self):
        assert log_inequality_gap(np.eye(2) / 2) == pytest.approx(np.log(2) - 0.5, abs=1e-12)

    def test_maximally_mixed_general(self):
        for d in (2, 3, 4, 6):
            want = np.log(d) - 1.0 + 1.0 / d
            assert log_inequality_gap(np.eye(d) / d) == pytest.approx(want, abs=1e-12)

    def test_sweep_nonnegative(self):
        for d in (2, 3, 4):
            for seed in range(1000):
                rho = random_density(d, min_eig=1e-3, seed=seed)
                assert log_inequality_gap(rho) >= -1e-9


class TestRateBound:
    def test_threshold_point_is_zero(self):
        model = qubit_model(QubitScenario(kappa=1.0, alpha=6.0))
        got = entropy_rate_bound(model, bloch_to_density((0, 0, 0.5)))
        assert got == pytest.approx(0.0, abs=1e-12)

    def test_pure_target_state(self):
        model = qubit_model(QubitScenario(kappa=1.0, alpha=6.0))
        got = entropy_rate_bound(model, bloch_to_density((0, 0, 1.0)))
        assert got == pytest.approx(6.0, abs=1e-12)
        assert got >= 0.0

    def test_no_decoherence_mixed(self):
        model = qubit_model(QubitScenario(kappa=1.0, alpha=0.0))
        got = entropy_rate_bound(model, np.eye(2) / 2)
        assert got == pytest.approx(-4.0, abs=1e-12)

    def test_certificate_examples(self):
        model = qubit_model(QubitScenario(kappa=1.0, alpha=6.0))
        assert certifies_entropy_nondecreasing(model, bloch_to_density((0, 0, 0.6)))
        assert not certifies_entropy_nondecreasing(model, bloch_to_density((0, 0, 0.4)))

    def test_hermitian_decoherence_with_zero_probe(self):
        model = ModelSpec(dim=2, hamiltonian=SIGMA_Y.copy(),
                          probe=np.zeros((2, 2), dtype=complex),
                          decoherence=SIGMA_X.copy(), control=ControlLaw())
        assert certifies_entropy_nondecreasing(model, random_density(2, seed=3))

    def test_rejects_non_hermitian_probe(self):
        model = ModelSpec(dim=2, hamiltonian=SIGMA_Y.copy(),
                          probe=SIGMA_MINUS.copy(), decoherence=SIGMA_MINUS.copy())
        with pytest.raises(ValidationError, match="Hermitian probe"):
            entropy_rate_bound(model, np.eye(2) / 2)


def _per_state_bound(model, rho):
    """The per-state variance and rate bound, as written before they took stacks."""
    l = model.probe
    mean = np.trace(l @ rho).real
    second = np.trace(l @ l @ rho).real
    var = second - mean * mean
    return var, float(np.trace(model.quantumness_operator @ rho).real) - 4.0 * var


class TestStackEvaluator:
    def _assert_matches_per_state(self, model, states):
        want = [_per_state_bound(model, rho) for rho in states.reshape(-1, *states.shape[-2:])]
        var = np.array([v for v, _ in want]).reshape(states.shape[:-2])
        bound = np.array([b for _, b in want]).reshape(states.shape[:-2])
        assert observable_variance(model.probe, states).tobytes() == var.tobytes()
        assert entropy_rate_bound(model, states).tobytes() == bound.tobytes()
        assert (certifies_entropy_nondecreasing(model, states).tobytes()
                == (bound >= -1e-12).tobytes())

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_random_models_match_the_per_state_formula_bit_for_bit(self, d):
        rng = np.random.default_rng(100 + d)
        for trial in range(5):
            model = ModelSpec(dim=d, hamiltonian=random_hermitian(d, rng),
                              probe=random_hermitian(d, rng),
                              decoherence=random_operator(d, rng))
            states = np.array([random_density(d, seed=1000 * trial + s) for s in range(60)])
            self._assert_matches_per_state(model, states.reshape(3, 20, d, d))

    def test_qubit_run_mean_states_match_the_per_state_formula(self):
        model = qubit_model(QubitScenario(kappa=1.0, alpha=6.0))
        integ = IntegratorConfig(dt=1e-3, t_final=0.3, record_stride=10)
        states = run_ensemble(model, bloch_to_density((1.0, 0.0, 0.0)), EnsembleConfig(
            n_trajectories=64, master_seed=7, worker_count=1, integrator=integ)).mean_state
        self._assert_matches_per_state(model, states)
        report = build_bound_report(model, stats_stub(
            np.arange(len(states)), states, np.zeros(len(states))))
        assert report.rhs_bound.tobytes() == entropy_rate_bound(model, states).tobytes()

    def test_one_state_gives_a_scalar(self):
        model = qubit_model(QubitScenario(kappa=1.0, alpha=6.0))
        rho = bloch_to_density((0.0, 0.0, 0.6))
        assert np.ndim(entropy_rate_bound(model, rho)) == 0
        assert np.ndim(observable_variance(model.probe, rho)) == 0
        assert certifies_entropy_nondecreasing(model, rho) is True

    @pytest.mark.parametrize("evaluate", [
        lambda model, states: observable_variance(model.probe, states),
        entropy_rate_bound,
        certifies_entropy_nondecreasing,
    ], ids=["observable_variance", "entropy_rate_bound", "certifies_entropy_nondecreasing"])
    def test_an_invalid_state_in_a_stack_is_named_by_its_index(self, evaluate):
        model = qubit_model(QubitScenario(kappa=1.0, alpha=6.0))
        states = np.array([random_density(2, seed=s) for s in range(12)]).reshape(3, 4, 2, 2)
        states[2, 1] = np.diag([0.7, 0.7])
        with pytest.raises(ValidationError, match="trace") as err:
            evaluate(model, states)
        assert err.value.index == (2, 1)

    def test_a_stack_of_another_dimension_is_rejected(self):
        model = qubit_model(QubitScenario(kappa=1.0, alpha=6.0))
        with pytest.raises(ValidationError, match="dimension mismatch"):
            entropy_rate_bound(model, np.tile(np.eye(3) / 3, (4, 1, 1)))


class TestEntropyRateEstimate:
    def test_constant_series(self):
        times = np.linspace(0, 1, 11)
        states = np.tile(np.eye(2) / 2, (11, 1, 1))
        stats = stats_stub(times, states, np.full(11, 0.3))
        rate, se = entropy_rate_estimate(stats)
        np.testing.assert_allclose(rate, np.zeros(11), atol=1e-15)
        np.testing.assert_allclose(se, np.zeros(11), atol=1e-15)

    def test_linear_series_exact(self):
        times = np.linspace(0, 1, 21)
        states = np.tile(np.eye(2) / 2, (21, 1, 1))
        stats = stats_stub(times, states, 0.5 * times)
        rate, _ = entropy_rate_estimate(stats)
        np.testing.assert_allclose(rate, np.full(21, 0.5), atol=1e-12)

    def test_se_propagation(self):
        times = np.array([0.0, 0.1, 0.2])
        states = np.tile(np.eye(2) / 2, (3, 1, 1))
        stats = stats_stub(times, states, np.zeros(3), entropy_se=np.array([0.3, 0.4, 0.5]))
        _, se = entropy_rate_estimate(stats)
        assert se[0] == pytest.approx(np.hypot(0.3, 0.4) / 0.1)
        assert se[1] == pytest.approx(np.hypot(0.5, 0.3) / 0.2)

    def test_too_few_checkpoints(self):
        stats = stats_stub([0.0, 0.1], np.tile(np.eye(2) / 2, (2, 1, 1)), [0.0, 0.1])
        with pytest.raises(ValidationError, match="checkpoints"):
            entropy_rate_estimate(stats)


class TestBoundReport:
    def test_frozen_dynamics_all_zero(self):
        model = ModelSpec(dim=2, hamiltonian=np.zeros((2, 2), dtype=complex),
                          probe=np.zeros((2, 2), dtype=complex),
                          decoherence=np.zeros((2, 2), dtype=complex))
        times = np.linspace(0, 1, 5)
        states = np.tile(np.eye(2) / 2, (5, 1, 1))
        stats = stats_stub(times, states, np.full(5, np.log(2)))
        report = build_bound_report(model, stats)
        assert isinstance(report, EntropyBoundReport)
        np.testing.assert_allclose(report.lhs_rate, 0.0, atol=1e-15)
        np.testing.assert_allclose(report.rhs_bound, 0.0, atol=1e-15)
        assert not report.has_violation
        assert np.all(report.sufficient_flag)

    def test_violation_flag_definition(self):
        # synthetic decreasing entropy with a bound of zero must flag
        model = ModelSpec(dim=2, hamiltonian=np.zeros((2, 2), dtype=complex),
                          probe=np.zeros((2, 2), dtype=complex),
                          decoherence=np.zeros((2, 2), dtype=complex))
        times = np.linspace(0, 1, 5)
        states = np.tile(np.eye(2) / 2, (5, 1, 1))
        stats = stats_stub(times, states, -1.0 * times)
        report = build_bound_report(model, stats)
        assert report.has_violation
        assert np.all(report.violation_flag == (report.lhs_rate < report.rhs_bound - 3 * report.lhs_se))

    def test_alpha_zero_sufficient_only_near_pure_target(self):
        model = qubit_model(QubitScenario(kappa=1.0, alpha=0.0))
        times = np.linspace(0, 1, 4)
        zs = [0.0, 0.5, 0.9, 1.0]
        states = np.stack([bloch_to_density((0, 0, z)) for z in zs])
        entropies = np.array([von_neumann_entropy(s) for s in states])
        stats = stats_stub(times, states, entropies)
        report = build_bound_report(model, stats)
        np.testing.assert_array_equal(report.sufficient_flag, [False, False, False, True])

    def test_a_simulated_ensemble_keeps_the_sufficient_condition(self):
        # the paper's claim where it applies: near the excited state the bound
        # is nonnegative, so the entropy of the ensemble mean must not fall
        model = qubit_model(QubitScenario(kappa=1.0, alpha=6.0))
        stats = run_ensemble(model, bloch_to_density((0.6, 0.0, 0.8)), EnsembleConfig(
            n_trajectories=2048, master_seed=42, worker_count=1,
            integrator=IntegratorConfig(dt=1e-3, t_final=0.3, record_stride=3)))
        report = build_bound_report(model, stats)
        sufficient = report.sufficient_flag
        assert sufficient.sum() >= 10
        assert not report.has_violation
        assert np.all(report.lhs_rate[sufficient] >= -3.0 * report.lhs_se[sufficient])
