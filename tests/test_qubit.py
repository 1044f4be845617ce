import numpy as np
import pytest

from entroflux.integrate import IntegratorConfig, integrate_master_equation
from entroflux.linalg import ValidationError, dagger
from entroflux.model import ControlLaw
from entroflux.qubit import (
    SIGMA_MINUS,
    BlochVector,
    QubitScenario,
    bloch_to_density,
    decay_z,
    density_to_bloch,
    dephasing_x,
    qubit_model,
    threshold_consistency,
    unconditional_bloch,
    z_threshold,
)

KET0 = np.diag([1.0, 0.0]).astype(complex)
KET1 = np.diag([0.0, 1.0]).astype(complex)


class TestBlochMaps:
    def test_north_pole_is_excited_state(self):
        np.testing.assert_allclose(bloch_to_density((0, 0, 1)), KET0, atol=1e-15)

    def test_plus_state(self):
        want = 0.5 * np.array([[1, 1], [1, 1]], dtype=complex)
        np.testing.assert_allclose(bloch_to_density((1, 0, 0)), want, atol=1e-15)

    def test_maximally_mixed(self):
        np.testing.assert_allclose(bloch_to_density((0, 0, 0)), np.eye(2) / 2, atol=1e-15)

    def test_ground_state_coordinates(self):
        assert density_to_bloch(KET1) == BlochVector(0.0, 0.0, -1.0)

    def test_round_trip(self):
        b = (0.3, -0.2, 0.5)
        back = density_to_bloch(bloch_to_density(b))
        np.testing.assert_allclose(back, b, atol=1e-12)

    def test_rejects_outside_sphere(self):
        with pytest.raises(ValidationError, match="norm"):
            bloch_to_density((0.9, 0.9, 0.9))

    def test_rejects_non_qubit(self):
        with pytest.raises(ValidationError, match="qubit"):
            density_to_bloch(np.eye(3) / 3)


class TestScenarioModel:
    def test_no_decoherence_at_alpha_zero(self):
        spec = qubit_model(QubitScenario(kappa=1.0, alpha=0.0))
        np.testing.assert_array_equal(spec.decoherence, np.zeros((2, 2)))

    def test_alpha_scales_decoherence(self):
        spec = qubit_model(QubitScenario(kappa=1.0, alpha=6.0))
        np.testing.assert_allclose(spec.decoherence, np.sqrt(6.0) * SIGMA_MINUS)

    def test_operator_identities(self):
        spec = qubit_model(QubitScenario(kappa=2.0, alpha=3.0))
        assert np.max(np.abs(spec.probe - dagger(spec.probe))) == 0.0
        assert np.max(np.abs(spec.hamiltonian - dagger(spec.hamiltonian))) == 0.0
        mdm = dagger(spec.decoherence) @ spec.decoherence
        np.testing.assert_allclose(mdm, 6.0 * KET0, atol=1e-12)

    def test_control_law_passes_through(self):
        law = ControlLaw(kind="constant", value=0.5)
        assert qubit_model(QubitScenario(control=law)).control == law

    def test_rejects_negative_rates(self):
        with pytest.raises(ValidationError):
            QubitScenario(kappa=-1.0)
        with pytest.raises(ValidationError):
            QubitScenario(alpha=-0.5)

    @pytest.mark.parametrize("field", ["kappa", "alpha"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_rejects_non_finite_rates(self, field, bad):
        with pytest.raises(ValidationError, match=f"{field} must be finite"):
            QubitScenario(**{field: bad})


class TestThreshold:
    def test_exact_endpoints(self):
        assert z_threshold(0.0) == 1.0
        assert z_threshold(6.0) == pytest.approx(0.5, abs=1e-15)

    def test_large_alpha_limit(self):
        assert z_threshold(1e6) < 1e-4

    def test_alpha_whose_square_overflows(self):
        assert z_threshold(1e200) == 4e-200

    def test_strictly_decreasing(self):
        alphas = np.logspace(-3, 6, 50)
        values = [z_threshold(float(a)) for a in alphas]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_solves_quadratic(self):
        for alpha in np.logspace(-3, 6, 30):
            thr = z_threshold(float(alpha))
            assert abs(4.0 * thr * thr + alpha * thr - 4.0) <= 1e-10

    def test_rejects_negative(self):
        with pytest.raises(ValidationError):
            z_threshold(-1.0)


class TestAnalyticSolutions:
    def test_initial_values(self):
        assert dephasing_x(0.7, 1.0, 0.0) == 0.7
        assert decay_z(0.3, 1.0, 0.0) == pytest.approx(0.3, abs=1e-15)

    def test_asymptotics(self):
        assert dephasing_x(1.0, 1.0, 50.0) == pytest.approx(0.0, abs=1e-12)
        assert decay_z(1.0, 1.0, 50.0) == pytest.approx(-1.0, abs=1e-12)

    def test_reference_points(self):
        assert dephasing_x(1.0, 1.0, 1.0) == pytest.approx(np.exp(-2.0), abs=1e-15)
        assert decay_z(1.0, 1.0, 1.0) == pytest.approx(-1.0 + 2.0 * np.exp(-1.0), abs=1e-15)

    def test_unconditional_bloch_matches_rk4(self):
        scen = QubitScenario(kappa=1.0, alpha=2.0)
        cfg = IntegratorConfig(dt=1e-3, t_final=2.0, record_stride=250)
        rec = integrate_master_equation(qubit_model(scen), bloch_to_density((0.8, -0.3, 0.2)), cfg)
        for t, rho in zip(rec.times, rec.states):
            want = unconditional_bloch(scen, (0.8, -0.3, 0.2), t)
            got = density_to_bloch(rho)
            np.testing.assert_allclose(got, want, atol=1e-9)

    def test_unconditional_bloch_pure_limits(self):
        # gamma = 0 reduces to dephasing of x; kappa = 0 to bare decay of z
        b = unconditional_bloch(QubitScenario(kappa=1.0, alpha=0.0), (1, 0, 0), 0.7)
        assert b.x == pytest.approx(dephasing_x(1.0, 1.0, 0.7), abs=1e-15)
        b = unconditional_bloch(QubitScenario(kappa=0.0, alpha=0.0), (0, 0, 1), 0.7)
        assert b.z == 1.0  # alpha 0 with kappa 0: frozen
        scen = QubitScenario(kappa=2.0, alpha=1.5)  # gamma = 3
        b = unconditional_bloch(scen, (0, 0, 1), 0.7)
        assert b.z == pytest.approx(decay_z(1.0, 3.0, 0.7), abs=1e-15)


class TestThresholdConsistency:
    def test_boundary_point(self):
        assert threshold_consistency(QubitScenario(kappa=1.0, alpha=6.0), 0.5)

    def test_grid_alpha_two(self):
        scen = QubitScenario(kappa=1.0, alpha=2.0)
        for z in np.linspace(-1, 1, 201):
            assert threshold_consistency(scen, float(z))

    def test_alpha_zero_near_top(self):
        assert threshold_consistency(QubitScenario(kappa=1.0, alpha=0.0), 0.999)

    def test_alpha_zero_ground_state_corner(self):
        # At alpha = 0 the second root of 4z^2 + alpha z - 4 sits exactly
        # at z = -1: the condition holds there (zero variance) while the
        # one-sided threshold comparison does not, so consistency fails
        # at this single corner.
        assert not threshold_consistency(QubitScenario(kappa=1.0, alpha=0.0), -1.0)

    def test_requires_physical_z(self):
        with pytest.raises(ValidationError):
            threshold_consistency(QubitScenario(kappa=1.0, alpha=1.0), 1.5)
