import numpy as np
import pytest

from entroflux.linalg import ValidationError, is_hermitian, random_density, random_operator
from entroflux.model import (
    ControlLaw,
    ModelSpec,
    dissipator,
    evaluate_control,
    innovation,
    lindblad_rhs,
    sme_increment,
)
from entroflux.qubit import SIGMA_MINUS, SIGMA_X, SIGMA_Y, SIGMA_Z, bloch_to_density

KET0 = np.diag([1.0, 0.0]).astype(complex)
KET1 = np.diag([0.0, 1.0]).astype(complex)
MIXED = np.eye(2, dtype=complex) / 2


def qubit_spec(kappa=1.0, gamma=0.0, control=None):
    return ModelSpec(
        dim=2,
        hamiltonian=SIGMA_Y.copy(),
        probe=np.sqrt(kappa) * SIGMA_Z,
        decoherence=np.sqrt(gamma) * SIGMA_MINUS,
        control=control or ControlLaw(),
    )


class TestDissipator:
    def test_probe_eigenstate_is_fixed(self):
        np.testing.assert_allclose(dissipator(SIGMA_Z, KET0), np.zeros((2, 2)), atol=1e-15)

    def test_lowering_on_excited_state(self):
        want = KET1 - KET0
        np.testing.assert_allclose(dissipator(SIGMA_MINUS, KET0), want, atol=1e-15)

    def test_dephasing_kills_coherence(self):
        x = 0.37
        rho = bloch_to_density((x, 0.0, 0.0))
        np.testing.assert_allclose(dissipator(SIGMA_Z, rho), -x * SIGMA_X, atol=1e-14)

    def test_traceless_and_hermitian_sweep(self):
        rng = np.random.default_rng(0)
        for trial in range(1000):
            d = int(rng.integers(2, 5))
            a = random_operator(d, rng)
            rho = random_density(d, seed=trial)
            out = dissipator(a, rho)
            assert abs(np.trace(out)) <= 1e-12
            assert np.max(np.abs(out - out.conj().T)) <= 1e-12


class TestInnovation:
    def test_zero_at_measurement_eigenstate(self):
        np.testing.assert_allclose(innovation(SIGMA_Z, KET0), np.zeros((2, 2)), atol=1e-15)

    def test_maximally_mixed(self):
        np.testing.assert_allclose(innovation(SIGMA_Z, MIXED), SIGMA_Z, atol=1e-15)

    def test_traceless_sweep(self):
        rng = np.random.default_rng(1)
        for trial in range(1000):
            d = int(rng.integers(2, 5))
            a = random_operator(d, rng)
            rho = random_density(d, seed=trial)
            assert abs(np.trace(innovation(a, rho))) <= 1e-12


class TestControl:
    def test_zero_law(self):
        assert evaluate_control(ControlLaw(), MIXED) == 0.0

    def test_constant_law(self):
        assert evaluate_control(ControlLaw(kind="constant", value=0.3), MIXED) == 0.3

    def test_bloch_proportional(self):
        plus = bloch_to_density((1.0, 0.0, 0.0))
        law = ControlLaw(kind="bloch_x_proportional", gain=2.0)
        assert evaluate_control(law, plus) == pytest.approx(-2.0)

    def test_bloch_requires_qubit(self):
        law = ControlLaw(kind="bloch_x_proportional", gain=1.0)
        with pytest.raises(ValidationError, match="two-level"):
            evaluate_control(law, np.eye(3) / 3)

    def test_model_with_bloch_law_requires_qubit(self):
        law = ControlLaw(kind="bloch_x_proportional", gain=1.0)
        with pytest.raises(ValidationError, match="two-level"):
            ModelSpec(dim=3, hamiltonian=np.eye(3), probe=np.eye(3),
                      decoherence=np.zeros((3, 3)), control=law)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValidationError, match="unknown control law"):
            ControlLaw(kind="bang_bang")

    @pytest.mark.parametrize("field", ["value", "gain"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_parameter_rejected(self, field, bad):
        with pytest.raises(ValidationError, match=f"control {field} must be finite"):
            ControlLaw(kind="constant", **{field: bad})


class TestSmeIncrement:
    @pytest.mark.parametrize("dt", [0.0, -1e-3, float("nan")])
    def test_rejects_bad_dt(self, dt):
        with pytest.raises(ValidationError, match="dt must be positive"):
            sme_increment(qubit_spec(), MIXED, dt=dt, dW=0.1)

    def test_fixed_point_of_all_terms(self):
        spec = qubit_spec(kappa=1.0, gamma=0.0)
        inc = sme_increment(spec, KET0, dt=0.01, dW=0.3)
        np.testing.assert_allclose(inc, np.zeros((2, 2)), atol=1e-14)

    def test_mixed_state_innovation_only(self):
        # at I/2 the drift vanishes and the increment is H[sigma_z](I/2) dW
        # = sigma_z dW, so rho + increment = diag(0.6, 0.4) for dW = 0.1
        spec = qubit_spec(kappa=1.0, gamma=0.0)
        inc = sme_increment(spec, MIXED, dt=0.01, dW=0.1)
        np.testing.assert_allclose(inc, 0.1 * SIGMA_Z, atol=1e-15)
        np.testing.assert_allclose(MIXED + inc, np.diag([0.6, 0.4]), atol=1e-15)

    def test_traceless_sweep(self):
        spec = qubit_spec(kappa=0.7, gamma=1.3)
        rng = np.random.default_rng(2)
        for trial in range(200):
            rho = random_density(2, seed=trial)
            dw = float(rng.normal(0, 0.03))
            inc = sme_increment(spec, rho, dt=1e-3, dW=dw)
            assert abs(np.trace(inc)) <= 1e-12

    def test_averaged_increment_matches_lindblad(self):
        # zero-mean noise: the mean of many increments converges to the
        # deterministic drift at Monte-Carlo rate
        spec = qubit_spec(kappa=1.0, gamma=2.0)
        rho = bloch_to_density((0.4, 0.1, -0.2))
        dt = 1e-3
        rng = np.random.default_rng(9)
        draws = rng.normal(0.0, np.sqrt(dt), 10_000)
        mean_inc = np.zeros((2, 2), dtype=complex)
        for dw in draws:
            mean_inc += sme_increment(spec, rho, dt=dt, dW=float(dw))
        mean_inc /= len(draws)
        drift = lindblad_rhs(spec, rho, u_override=0.0) * dt
        # noise floor: |H[L]rho| * se(mean dW), with 5 sigma headroom
        se = np.sqrt(dt / len(draws))
        assert np.max(np.abs(mean_inc - drift)) <= 5.0 * 2.0 * se


class TestLindbladRhs:
    def test_dephasing_rate(self):
        spec = qubit_spec(kappa=1.0, gamma=0.0)
        x = 0.8
        rhs = lindblad_rhs(spec, bloch_to_density((x, 0, 0)), u_override=0.0)
        dx_dt = np.trace(SIGMA_X @ rhs).real
        assert dx_dt == pytest.approx(-2.0 * x, abs=1e-12)

    def test_decay_rate(self):
        spec = ModelSpec(
            dim=2, hamiltonian=SIGMA_Y.copy(),
            probe=np.zeros((2, 2), dtype=complex), decoherence=SIGMA_MINUS.copy(),
        )
        z = 0.25
        rhs = lindblad_rhs(spec, bloch_to_density((0, 0, z)), u_override=0.0)
        dz_dt = np.trace(SIGMA_Z @ rhs).real
        assert dz_dt == pytest.approx(-(1.0 + z), abs=1e-12)

    def test_ground_state_fixed_point(self):
        spec = ModelSpec(
            dim=2, hamiltonian=SIGMA_Y.copy(),
            probe=np.zeros((2, 2), dtype=complex), decoherence=SIGMA_MINUS.copy(),
        )
        rhs = lindblad_rhs(spec, KET1, u_override=0.0)
        np.testing.assert_allclose(rhs, np.zeros((2, 2)), atol=1e-14)

    def test_linearity_in_state(self):
        spec = qubit_spec(kappa=1.0, gamma=0.5)
        for trial in range(100):
            r1 = random_density(2, seed=trial)
            r2 = random_density(2, seed=trial + 500)
            lam = 0.3
            mix = lam * r1 + (1 - lam) * r2
            lhs = lindblad_rhs(spec, mix, u_override=0.4)
            rhs = lam * lindblad_rhs(spec, r1, u_override=0.4) + \
                (1 - lam) * lindblad_rhs(spec, r2, u_override=0.4)
            assert np.max(np.abs(lhs - rhs)) <= 1e-12


class TestModelSpec:
    def test_rejects_non_hermitian_hamiltonian(self):
        with pytest.raises(ValidationError, match="Hermitian"):
            ModelSpec(dim=2, hamiltonian=SIGMA_MINUS.copy(),
                      probe=SIGMA_Z.copy(), decoherence=SIGMA_MINUS.copy())

    @pytest.mark.parametrize("dim", [2.0, True])
    def test_rejects_a_non_integer_dim(self, dim):
        with pytest.raises(ValidationError, match=f"dim must be an integer, got {dim!r}"):
            ModelSpec(dim=dim, hamiltonian=SIGMA_Y.copy(),
                      probe=SIGMA_Z.copy(), decoherence=SIGMA_MINUS.copy())

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValidationError, match="shape"):
            ModelSpec(dim=3, hamiltonian=SIGMA_Y.copy(),
                      probe=SIGMA_Z.copy(), decoherence=SIGMA_MINUS.copy())

    def test_non_hermitian_couplings_allowed(self):
        # only the Hamiltonian must be Hermitian; L and M are free
        spec = ModelSpec(dim=2, hamiltonian=SIGMA_Y.copy(),
                         probe=SIGMA_MINUS.copy(), decoherence=SIGMA_MINUS.copy())
        assert not is_hermitian(spec.probe)
