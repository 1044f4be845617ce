import numpy as np
import pytest
import scipy.linalg

from entroflux.entropy import dissipator_entropy_gap, log_inequality_gap
from entroflux.linalg import (
    SpectralDecomposition,
    ValidationError,
    commutator,
    dagger,
    expectation,
    hermitian_eig,
    inverse_density,
    is_hermitian,
    log_density,
    matrix_function,
    random_density,
    random_hermitian,
    require_hermitian,
    trace_distance,
    validate_densities,
    validate_density,
)
from entroflux.qubit import SIGMA_X, SIGMA_Y, SIGMA_Z, SIGMA_MINUS, SIGMA_PLUS

KET0 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
KET1 = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)
PLUS = 0.5 * np.array([[1.0, 1.0], [1.0, 1.0]], dtype=complex)


class TestHermitianEig:
    def test_pauli_spectrum(self):
        dec = hermitian_eig(SIGMA_Z)
        np.testing.assert_allclose(dec.eigenvalues, [1.0, -1.0])

    def test_degenerate_identity(self):
        dec = hermitian_eig(np.eye(2) / 2)
        np.testing.assert_allclose(dec.eigenvalues, [0.5, 0.5])

    def test_reconstruction_random(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            m = random_hermitian(4, rng)
            dec = hermitian_eig(m)
            assert np.max(np.abs(dec.reconstruct() - m)) <= 1e-12
            unit = dagger(dec.vectors) @ dec.vectors - np.eye(4)
            assert np.max(np.abs(unit)) <= 1e-10

    def test_descending_order(self):
        dec = hermitian_eig(np.diag([0.1, 0.7, 0.2]))
        assert np.all(np.diff(dec.eigenvalues) <= 0)

    def test_rejects_non_hermitian(self):
        m = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValidationError, match="asymmetry"):
            hermitian_eig(m)


class TestLogDensity:
    def test_maximally_mixed(self):
        out = log_density(np.eye(2) / 2)
        np.testing.assert_allclose(out, -np.log(2) * np.eye(2), atol=1e-14)

    def test_diagonal_eigenvalues(self):
        out = log_density(np.diag([0.9, 0.1]))
        np.testing.assert_allclose(out, np.diag([np.log(0.9), np.log(0.1)]), atol=1e-14)

    def test_pure_state_floor(self):
        out = log_density(KET0, floor=1e-12)
        np.testing.assert_allclose(out, np.diag([0.0, np.log(1e-12)]), atol=1e-10)

    def test_matches_scipy_logm_on_full_rank(self):
        # independent oracle for the spectral-function route
        for seed in range(10):
            rho = random_density(3, min_eig=0.05, seed=seed)
            np.testing.assert_allclose(log_density(rho), scipy.linalg.logm(rho), atol=1e-9)

    def test_commutes_with_state(self):
        for seed in range(20):
            rho = random_density(4, min_eig=0.01, seed=seed)
            comm = commutator(rho, log_density(rho))
            assert np.max(np.abs(comm)) <= 1e-10

    def test_invalid_state_rejected(self):
        with pytest.raises(ValidationError):
            log_density(np.diag([0.7, 0.7]))


class TestInverseDensity:
    def test_matches_inverse_on_full_rank(self):
        rho = random_density(3, min_eig=0.05, seed=1)
        np.testing.assert_allclose(inverse_density(rho) @ rho, np.eye(3), atol=1e-9)


class TestCommutator:
    def test_ladder_pair(self):
        np.testing.assert_allclose(commutator(SIGMA_PLUS, SIGMA_MINUS), SIGMA_Z)

    def test_self_commutation(self):
        np.testing.assert_allclose(commutator(SIGMA_Z, SIGMA_Z), np.zeros((2, 2)))

    def test_pauli_algebra(self):
        np.testing.assert_allclose(commutator(SIGMA_X, SIGMA_Y), 2j * SIGMA_Z)

    def test_dim_mismatch(self):
        with pytest.raises(ValidationError, match="mismatch"):
            commutator(SIGMA_X, np.eye(3))


class TestExpectation:
    def test_eigenstate(self):
        assert expectation(SIGMA_Z, KET0) == pytest.approx(1.0)

    def test_traceless_on_mixed(self):
        assert expectation(SIGMA_Z, np.eye(2) / 2) == pytest.approx(0.0, abs=1e-15)

    def test_plus_state(self):
        assert expectation(SIGMA_X, PLUS).real == pytest.approx(1.0)

    def test_real_for_hermitian(self):
        rng = np.random.default_rng(5)
        for seed in range(20):
            a = random_hermitian(3, rng)
            rho = random_density(3, seed=seed)
            assert abs(expectation(a, rho).imag) <= 1e-12


class TestRandomDensity:
    def test_deterministic(self):
        a = random_density(2, min_eig=0.05, seed=7)
        b = random_density(2, min_eig=0.05, seed=7)
        np.testing.assert_array_equal(a, b)

    def test_unit_trace(self):
        rho = random_density(3, min_eig=0.01, seed=11)
        assert abs(np.trace(rho).real - 1.0) <= 1e-12

    def test_batch_validity(self):
        for seed in range(100):
            rho = random_density(4, min_eig=0.0, seed=seed)
            validate_density(rho)

    def test_min_eig_enforced(self):
        for seed in range(20):
            rho = random_density(3, min_eig=0.1, seed=seed)
            assert np.linalg.eigvalsh(rho)[0] >= 0.1 - 1e-12

    def test_infeasible_floor(self):
        with pytest.raises(ValidationError, match="min_eig"):
            random_density(2, min_eig=0.6, seed=0)

    @pytest.mark.parametrize("dim", [2.0, True])
    def test_rejects_a_non_integer_dim(self, dim):
        with pytest.raises(ValidationError, match=f"dim must be an integer, got {dim!r}"):
            random_density(dim)


class TestValidateDensity:
    def test_rejects_bad_trace(self):
        with pytest.raises(ValidationError, match="trace"):
            validate_density(np.diag([0.7, 0.7]))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValidationError, match="negative eigenvalue"):
            validate_density(np.diag([1.2, -0.2]))

    def test_rejects_non_hermitian(self):
        m = np.array([[0.5, 0.3], [0.0, 0.5]])
        with pytest.raises(ValidationError, match="asymmetry"):
            validate_density(m)


class TestValidateDensities:
    def corrupt(self, rho, kind):
        return {"trace": 1.1 * rho,
                "hermiticity": rho + np.array([[0.0, 1e-6], [0.0, 0.0]]),
                "negative": np.diag([1.2, -0.2]).astype(complex),
                "nan": np.full((2, 2), np.nan, dtype=complex)}[kind]

    def stack(self, shape, dim=2):
        states = [random_density(dim, seed=s) for s in range(int(np.prod(shape)))]
        return np.array(states).reshape(*shape, dim, dim)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_valid_stack_passes(self, dim):
        validate_densities(self.stack((6, 5), dim))

    @pytest.mark.parametrize("kind", ["trace", "hermiticity", "negative", "nan"])
    def test_first_rejected_state_gets_validate_density_text(self, kind):
        states = self.stack((6, 5))
        states[2, 4] = self.corrupt(states[2, 4], kind)
        states[3, 0] = self.corrupt(states[3, 0], "trace")  # later in C order
        with pytest.raises(ValidationError) as want:
            validate_density(states[2, 4])
        with pytest.raises(ValidationError) as got:
            validate_densities(states)
        assert str(got.value) == str(want.value)
        assert got.value.index == (2, 4)

    def test_rejects_exactly_what_validate_density_rejects(self):
        # perturbations around each tolerance: the batched check must agree
        # state by state with validate_density; odd seeds perturb a pure
        # state along a Hermitian traceless direction, so only its smallest
        # eigenvalue can fail
        rng = np.random.default_rng(5)
        for seed in range(300):
            scale = 10.0 ** rng.uniform(-11.5, -9.0)
            g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            if seed % 2:
                psi = g[0] / np.linalg.norm(g[0])
                h = g + dagger(g)
                rho = np.outer(psi, psi.conj()) + scale * (h - np.trace(h) / 2 * np.eye(2))
            else:
                rho = random_density(2, seed=seed) + scale * g
            try:
                validate_density(rho)
                rejected = False
            except ValidationError:
                rejected = True
            if rejected:
                with pytest.raises(ValidationError):
                    validate_densities(rho[None])
            else:
                validate_densities(rho[None])



# States that break more than one invariant, with the message that names
# the first of non-finite, Hermiticity, trace and eigenvalue they break.
FIRST_FAILURE = {
    "hermiticity_and_trace": ([[0.7, 0.3], [0.0, 0.7]],
                              "density matrix is not Hermitian: max asymmetry 3.000e-01 > 1.0e-10"),
    "trace_and_eigenvalue": ([[1.5, 0.0], [0.0, -0.25]],
                             "density matrix trace 1.25+0j is not 1 within 1.0e-10"),
    "nan": ([[0.5, np.nan], [np.nan, 0.5]], "density matrix contains non-finite entries"),
}


class TestDensityChecker:
    @pytest.mark.parametrize("case", sorted(FIRST_FAILURE))
    def test_validate_density_names_the_first_failure(self, case):
        state, text = FIRST_FAILURE[case]
        with pytest.raises(ValidationError) as err:
            validate_density(np.array(state))
        assert str(err.value) == text

    @pytest.mark.parametrize("case", sorted(FIRST_FAILURE))
    def test_validate_densities_names_the_first_failure_and_its_index(self, case):
        state, text = FIRST_FAILURE[case]
        states = np.array([random_density(2, seed=s) for s in range(12)]).reshape(3, 4, 2, 2)
        states[1, 2] = state
        states[2, 0] = np.diag([0.7, 0.7])  # a later trace failure in C order
        with pytest.raises(ValidationError) as err:
            validate_densities(states)
        assert str(err.value) == text
        assert err.value.index == (1, 2)

    @pytest.mark.parametrize("state, tolerance, loose, text", [
        ([[0.5, 1e-6], [0.0, 0.5]], "herm_tol",
         1e-5, "density matrix is not Hermitian: max asymmetry 1.000e-06 > 1.0e-07"),
        ([[0.5, 0.0], [0.0, 0.5 + 1e-6]], "trace_tol",
         1e-5, "density matrix trace 1.0000010000000001+0j is not 1 within 1.0e-07"),
        ([[1.0 + 1e-6, 0.0], [0.0, -1e-6]], "eig_tol",
         1e-5, "density matrix has negative eigenvalue -1.000e-06 below -1.0e-07"),
    ])
    def test_validate_density_honours_its_tolerances(self, state, tolerance, loose, text):
        rho = np.array(state)
        with pytest.raises(ValidationError):
            validate_density(rho)
        got = validate_density(rho, **{tolerance: loose})
        assert got.dtype == np.complex128 and np.array_equal(got, rho)
        with pytest.raises(ValidationError) as err:
            validate_density(rho, **{tolerance: 1e-7})
        assert str(err.value) == text

def test_trace_distance_orthogonal_pure_states():
    assert trace_distance(KET0, KET1) == pytest.approx(1.0)
    assert trace_distance(KET0, KET0) == pytest.approx(0.0, abs=1e-15)


def test_spectral_decomposition_is_frozen():
    dec = hermitian_eig(SIGMA_Z)
    assert isinstance(dec, SpectralDecomposition)
    with pytest.raises(AttributeError):
        dec.eigenvalues = None


@pytest.mark.parametrize("floor", [0.0, -1e-12, float("nan")])
def test_matrix_functions_reject_a_nonpositive_floor(floor):
    mixed = np.eye(2) / 2
    for fn in (lambda: log_density(KET0, floor=floor), lambda: inverse_density(KET0, floor=floor),
               lambda: matrix_function(KET0, np.log, floor=floor),
               lambda: dissipator_entropy_gap(SIGMA_MINUS, mixed, floor=floor),
               lambda: log_inequality_gap(mixed, floor=floor)):
        with pytest.raises(ValidationError, match="floor must be positive"):
            fn()


def test_hermiticity_rule():
    assert is_hermitian(np.array([[0.0, 1e-10], [0.0, 0.0]]))
    assert not is_hermitian(np.array([[0.0, 2e-10], [0.0, 0.0]]))
    require_hermitian(np.eye(2), "unused {:.3e}")
    with pytest.raises(ValidationError) as err:
        require_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]), "probe asymmetry {:.3e}")
    assert str(err.value) == "probe asymmetry 1.000e+00"


def test_hermitian_eig_follows_the_hermiticity_rule():
    hermitian_eig(np.array([[0.0, 1e-10], [0.0, 0.0]]))
    with pytest.raises(ValidationError) as err:
        hermitian_eig(np.array([[0.0, 2e-10], [0.0, 0.0]]))
    assert str(err.value) == "matrix is not Hermitian: max asymmetry 2.000e-10 > 1.0e-10"
