import math

import numpy as np
import pytest

from conftest import random_mixed_qubit, random_traceless_hermitian
from coopmetro.linalg import eigh, expm, hermitize, normalize, outer, pauli
from coopmetro.qfi import (
    StateFamily,
    _sld_outcomes,
    differentiate_pure_state,
    differentiate_state,
    fd_default_step,
    qfi_pure,
    qfi_qubit,
    qfi_sld,
)
from coopmetro.scenarios import (
    ScenarioSpec,
    analytic_coop_spont_qfi,
    analytic_coop_spont_state,
    analytic_coop_spont_state_deriv,
    controlled_hamiltonian,
    state_family,
)


def ground_vector(b_z, b_x):
    return eigh(controlled_hamiltonian(b_z, b_x))[1][:, 0]


class TestQfiPure:
    def test_zero_derivative(self):
        psi = normalize(np.array([1.0, 1.0]))
        assert qfi_pure(psi, np.zeros(2)).value == 0.0

    @pytest.mark.parametrize(
        "b_z,b_x,expected",
        [(0.1, 0.1, 25.0), (0.3, 0.1, 1.0)],
    )
    def test_ground_state_closed_form(self, b_z, b_x, expected):
        # oracle: F(|g>) = b_x^2/(b_x^2+b_z^2)^2 for the controlled Hamiltonian
        psi0, dpsi = differentiate_pure_state(lambda b: ground_vector(b, b_x), b_z)
        result = qfi_pure(psi0, dpsi)
        assert result.method == "pure"
        assert result.value == pytest.approx(expected, rel=1e-6)


class TestQfiQubit:
    def test_no_parameter_dependence(self):
        assert qfi_qubit(np.eye(2, dtype=complex) / 2, np.zeros((2, 2))).value == 0.0

    def test_classical_binary_distribution(self):
        # hand oracle: classical Fisher information 1/(p(1-p)) at p = 1/2
        rho = np.diag([0.5, 0.5]).astype(complex)
        drho = np.diag([1.0, -1.0]).astype(complex)
        assert qfi_qubit(rho, drho).value == pytest.approx(4.0, rel=1e-12)

    def test_matches_reference_closed_form(self):
        # analytic evolved state and its analytic derivative against the
        # full closed-form expression
        rho = analytic_coop_spont_state(0.1, 0.1, 0.5, 1.0)
        drho = analytic_coop_spont_state_deriv(0.1, 0.1, 0.5, 1.0)
        value = qfi_qubit(rho, drho).value
        assert value == pytest.approx(analytic_coop_spont_qfi(0.1, 0.1, 0.5, 1.0), abs=1e-8)

    def test_near_pure_fallback_tagged(self):
        psi = normalize(np.array([1.0, 1.0]))
        rho = outer(psi, psi)
        drho = np.array([[0.0, 1.0j], [-1.0j, 0.0]])
        result = qfi_qubit(rho, drho)
        assert result.method == "sld-spectral"

    def test_dimension_error(self):
        with pytest.raises(ValueError):
            qfi_qubit(np.eye(4, dtype=complex) / 4, np.zeros((4, 4)))

    def test_non_hermitian_derivative_rejected(self):
        with pytest.raises(ValueError):
            qfi_qubit(np.eye(2, dtype=complex) / 2, np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestQfiSld:
    def test_zero_derivative(self):
        assert qfi_sld(np.eye(4, dtype=complex) / 4, np.zeros((4, 4))).value == 0.0

    def test_agrees_with_qubit_formula(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            rho = random_mixed_qubit(rng)
            drho = random_traceless_hermitian(rng, 2)
            a = qfi_sld(rho, drho).value
            b = qfi_qubit(rho, drho).value
            assert a == pytest.approx(b, rel=1e-8, abs=1e-10)

    def test_pure_limit_agrees_with_qfi_pure(self):
        # differentiable pure family psi(b) = (cos b, e^{i phi} sin b)
        phi = 0.6

        def psi(b):
            return np.array([math.cos(b), math.sin(b) * np.exp(1j * phi)])

        b0 = 0.4
        psi0, dpsi = differentiate_pure_state(psi, b0)
        pure = qfi_pure(psi0, dpsi).value
        rho = outer(psi(b0), psi(b0))
        drho = differentiate_state(StateFamily(lambda b: outer(psi(b), psi(b)), b0))
        assert qfi_sld(rho, drho).value == pytest.approx(pure, rel=1e-6)


def reference_sld(rho: np.ndarray, drho: np.ndarray) -> float:
    """The spectral SLD sum of one state, written out matrix by matrix."""
    values, vectors = eigh(hermitize(rho))
    m = vectors.conj().T @ drho @ vectors
    denom = values[:, None] + values[None, :]
    mask = denom > 1e-12
    return max(2.0 * float(np.sum((np.abs(m) ** 2)[mask] / denom[mask])), 0.0)


def random_state(rng: np.random.Generator, dim: int, rank: int) -> np.ndarray:
    a = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


class TestStackedSld:
    def test_stack_equals_states_alone(self):
        rng = np.random.default_rng(41)
        # ranks 1 to 4; a rank-1 state has pairs that the 1e-12 mask drops
        rho = np.array([random_state(rng, 4, 1 + k % 4) for k in range(40)])
        drho = np.array([random_traceless_hermitian(rng, 4) for _ in range(40)])
        outcomes = _sld_outcomes(rho, drho)
        assert outcomes == [qfi_sld(r, d) for r, d in zip(rho, drho)]
        assert [o.value for o in outcomes] == [reference_sld(r, d) for r, d in zip(rho, drho)]

    def test_non_hermitian_derivative_fails_only_its_state(self):
        rng = np.random.default_rng(43)
        rho = np.array([random_state(rng, 4, 2) for _ in range(5)])
        drho = np.array([random_traceless_hermitian(rng, 4) for _ in range(5)])
        drho[2, 0, 1] += 1e-6
        outcomes = _sld_outcomes(rho, drho)
        with pytest.raises(ValueError) as alone:
            qfi_sld(rho[2], drho[2])
        assert str(alone.value).startswith("state derivative not Hermitian within 1e-8: deviation 1.000e-06")
        assert (type(outcomes[2]), str(outcomes[2])) == (type(alone.value), str(alone.value))
        assert outcomes[:2] + outcomes[3:] == [qfi_sld(r, d) for r, d in zip(rho[[0, 1, 3, 4]], drho[[0, 1, 3, 4]])]


    def test_non_finite_value_fails_only_its_state(self):
        rng = np.random.default_rng(47)
        rho = np.array([random_state(rng, 4, 2) for _ in range(3)])
        drho = np.array([random_traceless_hermitian(rng, 4) for _ in range(3)])
        drho[1] *= 1e200
        with np.errstate(over="ignore"):
            outcomes = _sld_outcomes(rho, drho)
        assert isinstance(outcomes[1], ValueError) and "not finite" in str(outcomes[1])
        assert outcomes[::2] == [qfi_sld(r, d) for r, d in zip(rho[::2], drho[::2])]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestNonFiniteQfi:
    """Each formula route raises, naming the value, where the QFI is not finite."""

    @pytest.mark.parametrize("bad", [math.nan, 1e200])
    def test_pure(self, bad):
        with pytest.raises(ValueError, match="QFI computed as (nan|inf), which is not finite"):
            qfi_pure(normalize(np.array([1.0, 1.0])), np.array([bad, 0.0]))

    @pytest.mark.parametrize("bad", [math.nan, 1e200])
    def test_qubit(self, bad):
        drho = np.array([[0.0, bad], [bad, 0.0]], dtype=complex)
        with pytest.raises(ValueError, match="QFI computed as (nan|inf), which is not finite"):
            qfi_qubit(np.diag([0.6, 0.4]).astype(complex), drho)

    @pytest.mark.parametrize("bad", [math.nan, 1e200])
    def test_sld(self, bad):
        drho = np.zeros((4, 4), dtype=complex)
        drho[0, 1] = drho[1, 0] = bad
        with pytest.raises(ValueError, match="QFI computed as (nan|inf), which is not finite"):
            qfi_sld(np.eye(4, dtype=complex) / 4, drho)


class TestDifferentiateState:
    def test_constant_family(self):
        rho = np.full((2, 2), 0.5, dtype=complex)
        drho = differentiate_state(StateFamily(lambda b: rho, 0.3))
        assert np.max(np.abs(drho)) <= 1e-10

    def test_standard_dephasing_coherence_derivative(self):
        # probe |+> under H = b sigma_z with dephasing eta/2:
        # rho_01(t) = e^{-eta t} e^{-2 i b t}/2, so |d rho_01/db| = t e^{-eta t}
        eta, t = 0.5, 1.0
        family = state_family(ScenarioSpec(kind="std-deph", b_z=0.1, eta=eta), t)
        drho = differentiate_state(family)
        assert abs(drho[0, 1]) == pytest.approx(t * math.exp(-eta * t), rel=1e-9)

    def test_matches_analytic_derivative_of_analytic_family(self):
        family = StateFamily(lambda b: analytic_coop_spont_state(b, 0.1, 0.5, 1.0), 0.1)
        drho = differentiate_state(family)
        oracle = analytic_coop_spont_state_deriv(0.1, 0.1, 0.5, 1.0)
        assert np.max(np.abs(drho - oracle)) <= 1e-9

    def test_pipeline_matches_analytic_derivative(self):
        spec = ScenarioSpec(kind="coop-spont", b_z=0.1, b_x=0.1, gamma=0.5)
        for t in (0.5, 1.0, 2.0):
            drho = differentiate_state(state_family(spec, t))
            oracle = analytic_coop_spont_state_deriv(0.1, 0.1, 0.5, t)
            assert np.max(np.abs(drho - oracle)) <= 1e-7

    def test_ground_family_reproduces_closed_form(self):
        psi0, dpsi = differentiate_pure_state(lambda b: ground_vector(b, 0.1), 0.1)
        assert qfi_pure(psi0, dpsi).value == pytest.approx(25.0, rel=1e-6)

    def test_default_step(self):
        assert fd_default_step(0.1) == pytest.approx(1e-5)
        assert fd_default_step(3.0) == pytest.approx(3e-5)


class TestUnitaryLimits:
    def test_heisenberg_baseline_exact(self):
        # qfi(T) = 4 T^2 for the unitary single-spin pipeline
        from coopmetro.scenarios import qfi_at

        spec = ScenarioSpec(kind="unitary-baseline", b_z=0.1, n_spins=1)
        for t in (0.5, 1.0, 2.0, 5.0):
            assert qfi_at(spec, t).value == pytest.approx(4.0 * t * t, rel=1e-8)

    def test_noiseless_pipeline_agrees_with_pure_route(self):
        # gamma -> 0 limit: mixed-state pipeline vs pure-state route, rel 1e-5
        from coopmetro.scenarios import qfi_at

        t = 1.0
        spec = ScenarioSpec(kind="unitary-baseline", b_z=0.1, n_spins=1)
        mixed = qfi_at(spec, t).value
        plus = normalize(np.array([1.0, 1.0]))

        def psi(b):
            return expm(-1j * b * pauli("z") * t) @ plus

        psi0, dpsi = differentiate_pure_state(psi, 0.1)
        pure = qfi_pure(psi0, dpsi).value
        assert mixed == pytest.approx(pure, rel=1e-5)

    def test_non_negative(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            rho = random_mixed_qubit(rng)
            drho = random_traceless_hermitian(rng, 2)
            assert qfi_sld(rho, drho).value >= 0.0
