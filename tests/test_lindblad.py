import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from conftest import random_hermitian
from coopmetro.lindblad import (
    InvalidModelError,
    InvalidStateError,
    LindbladChannel,
    LindbladModel,
    hermitize,
    liouvillian,
    propagate,
    propagate_rk4,
    validate_density_matrix,
    vec,
)
from coopmetro.qfi import StateFamily, differentiate_state, qfi_sld
from coopmetro.scenarios import SIGMA_Z, ScenarioSpec, build_model, probe_state, qfi_at

LOWER = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)  # |0><1|


def test_vec_unvec_roundtrip():
    rng = np.random.default_rng(0)
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    np.testing.assert_array_equal(vec(m).reshape((4, 4), order="F"), m)
    # column stacking: vec(A rho B) = (B^T kron A) vec(rho)
    a, b = (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)) for _ in range(2))
    np.testing.assert_allclose(vec(a @ m @ b), np.kron(b.T, a) @ vec(m), rtol=1e-12)


class TestLiouvillian:
    def test_trivial_generator(self):
        model = LindbladModel(hamiltonian=np.zeros((2, 2), dtype=complex))
        np.testing.assert_array_equal(model.liouvillian, np.zeros((4, 4)))

    def test_amplitude_damping_population_entry(self):
        model = LindbladModel(
            hamiltonian=np.zeros((2, 2), dtype=complex),
            channels=(LindbladChannel(0.5, LOWER),),
        )
        gen = liouvillian(model)
        # vec index of rho_11 in column stacking of a 2x2 matrix is 3
        assert gen[3, 3] == pytest.approx(-0.5)
        # population leaves |1> and arrives at |0> (index 0)
        assert gen[0, 3] == pytest.approx(0.5)

    def test_pure_hamiltonian_commutator(self):
        h = 0.1 * SIGMA_Z
        model = LindbladModel(hamiltonian=h)
        gen = model.liouvillian
        expected = -1j * (np.kron(np.eye(2), h) - np.kron(h.T, np.eye(2)))
        np.testing.assert_allclose(gen, expected, atol=1e-15)
        np.testing.assert_allclose(sorted(np.diag(gen), key=lambda z: z.imag), [-0.2j, 0, 0, 0.2j], atol=1e-15)
        assert np.max(np.abs(gen - np.diag(np.diag(gen)))) == 0.0


def kron_liouvillian(model: LindbladModel) -> np.ndarray:
    """Textbook Kronecker-product assembly, the reference for `liouvillian`:
    -i(I⊗H - H^T⊗I) + sum gamma (conj(L)⊗L - (1/2) I⊗L†L - (1/2) (L†L)^T⊗I)."""
    h = model.hamiltonian
    ident = np.eye(model.dim, dtype=complex)
    gen = -1j * (np.kron(ident, h) - np.kron(h.T, ident))
    for ch in model.channels:
        jdj = ch.jump.conj().T @ ch.jump
        gen += ch.rate * (
            np.kron(ch.jump.conj(), ch.jump) - 0.5 * np.kron(ident, jdj) - 0.5 * np.kron(jdj.T, ident)
        )
    return gen


class TestLiouvillianReference:
    @pytest.mark.parametrize("dim", (2, 4))
    @pytest.mark.parametrize("n_channels", range(5))
    def test_matches_kron_assembly(self, dim, n_channels):
        rng = np.random.default_rng(100 * dim + n_channels)
        for _ in range(10):
            h = random_hermitian(rng, dim)
            channels = tuple(
                LindbladChannel(
                    rng.uniform(0.0, 20.0), rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
                )
                for _ in range(n_channels)
            )
            model = LindbladModel(hamiltonian=h, channels=channels)
            reference = kron_liouvillian(model)
            tol = 1e-13 * max(1.0, float(np.max(np.abs(reference))))
            assert np.max(np.abs(liouvillian(model) - reference)) <= tol


class TestModelValidation:
    def test_non_hermitian_hamiltonian(self):
        with pytest.raises(InvalidModelError):
            LindbladModel(hamiltonian=LOWER)

    def test_dim_mismatch(self):
        with pytest.raises(InvalidModelError):
            LindbladModel(
                hamiltonian=np.zeros((4, 4), dtype=complex),
                channels=(LindbladChannel(1.0, LOWER),),
            )

    def test_negative_rate(self):
        with pytest.raises(InvalidModelError):
            LindbladChannel(-0.1, LOWER)

    @pytest.mark.parametrize("rate", [math.inf, math.nan])
    def test_non_finite_rate(self, rate):
        with pytest.raises(InvalidModelError, match=f"^channel rate is not finite: {rate}$"):
            LindbladChannel(rate, LOWER)

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_entries_named_before_hermiticity(self, bad):
        # inf - inf is a NaN Hermiticity deviation: the entry is named instead.
        h = np.array([[bad, 0.0], [0.0, -bad]], dtype=complex)
        with pytest.raises(InvalidModelError, match="^Hamiltonian has non-finite entries$"):
            LindbladModel(hamiltonian=h)
        with pytest.raises(InvalidModelError, match="^jump operator has non-finite entries$"):
            LindbladModel(hamiltonian=np.zeros((2, 2)), channels=(LindbladChannel(1.0, np.array([[0.0, bad], [0.0, 0.0]])),))


class TestDensityValidation:
    def test_accepts_probe(self):
        validate_density_matrix(np.full((2, 2), 0.5, dtype=complex))

    def test_rejects_bad_trace(self):
        with pytest.raises(InvalidStateError):
            validate_density_matrix(np.eye(2, dtype=complex))

    def test_rejects_non_hermitian(self):
        with pytest.raises(InvalidStateError):
            validate_density_matrix(np.array([[0.5, 0.1], [0.4, 0.5]], dtype=complex))

    def test_rejects_negative(self):
        with pytest.raises(InvalidStateError):
            validate_density_matrix(np.diag([1.5, -0.5]).astype(complex))

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidStateError, match="non-finite"):
            validate_density_matrix(np.full((2, 2), np.nan, dtype=complex))

    def test_batched_check_names_each_bad_matrix(self):
        good = np.full((2, 2), 0.5, dtype=complex)
        validate_density_matrix(good)
        with pytest.raises(InvalidStateError, match="trace"):
            validate_density_matrix(np.eye(2, dtype=complex))
        with pytest.raises(InvalidStateError, match="eigenvalue"):
            validate_density_matrix(np.diag([1.5, -0.5]).astype(complex))


class TestHermitize:
    def test_hermitize_exact(self):
        rng = np.random.default_rng(13)
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        h = hermitize(m)
        assert np.max(np.abs(h - h.conj().T)) == 0.0

    def test_hermitize_stack(self):
        rng = np.random.default_rng(14)
        stack = rng.standard_normal((3, 2, 4, 4)) + 1j * rng.standard_normal((3, 2, 4, 4))
        h = hermitize(stack)
        for i in range(3):
            for j in range(2):
                np.testing.assert_array_equal(h[i, j], hermitize(stack[i, j]))

    def test_hermitize_keeps_infinite_entries(self):
        # Halving inf+1j as a complex number, by 2+0j, would give inf+nanj.
        m = np.array([[1.0, np.inf + 1j], [np.inf - 1j, 1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            h = hermitize(m)
        np.testing.assert_array_equal(h, m)
        assert h.tobytes() == m.astype(complex).tobytes()


class TestPropagate:
    def test_identity_at_zero_time(self):
        spec = ScenarioSpec(kind="coop-spont", b_z=0.1, b_x=0.1, gamma=0.5)
        rho0 = probe_state(spec)
        np.testing.assert_array_equal(propagate(build_model(spec), rho0, 0.0), rho0)

    def test_amplitude_damping_decay(self):
        # master equation with H = b_z sigma_z and jump |0><1| at rate gamma:
        # starting from |1><1| the excited population is exactly e^{-gamma t}
        model = build_model(ScenarioSpec(kind="std-spont", b_z=0.1, gamma=0.5))
        rho0 = np.diag([0.0, 1.0]).astype(complex)
        for t in (0.5, 1.0, 2.0):
            rho = propagate(model, rho0, t)
            assert rho[1, 1].real == pytest.approx(math.exp(-0.5 * t), rel=1e-12)
            assert abs(rho[0, 1]) < 1e-14

    def test_negative_time_rejected(self):
        spec = ScenarioSpec(kind="std-spont", b_z=0.1, gamma=0.5)
        with pytest.raises(ValueError):
            propagate(build_model(spec), probe_state(spec), -1.0)

    @pytest.mark.parametrize("t", (math.nan, math.inf))
    def test_non_finite_time_rejected(self, t):
        spec = ScenarioSpec(kind="std-spont", b_z=0.1, gamma=0.5)
        with pytest.raises(ValueError, match="finite"):
            propagate(build_model(spec), probe_state(spec), t)

    def test_semigroup_property(self):
        spec = ScenarioSpec(kind="coop-spont", b_z=0.1, b_x=0.1, gamma=0.5)
        model = build_model(spec)
        rho0 = probe_state(spec)
        for t1, t2 in ((0.3, 0.7), (1.0, 2.0)):
            once = propagate(model, rho0, t1 + t2)
            twice = propagate(model, propagate(model, rho0, t1), t2)
            assert np.max(np.abs(once - twice)) <= 1e-9

    def test_steady_state_is_ground_projector(self):
        spec = ScenarioSpec(kind="coop-spont", b_z=0.1, b_x=0.1, gamma=0.5)
        model = build_model(spec)
        ground = np.linalg.eigh(model.hamiltonian)[1][:, 0]
        rho = propagate(model, probe_state(spec), 30.0 / spec.gamma)
        assert np.max(np.abs(rho - np.outer(ground, ground.conj()))) <= 1e-6


class TestRk4:
    def test_identity_at_zero_time(self):
        spec = ScenarioSpec(kind="std-spont", b_z=0.1, gamma=0.5)
        rho0 = probe_state(spec)
        np.testing.assert_array_equal(propagate_rk4(build_model(spec), rho0, 0.0, 10), rho0)

    def test_agrees_with_expm(self):
        spec = ScenarioSpec(kind="std-spont", b_z=0.1, gamma=0.5)
        model = build_model(spec)
        rho0 = probe_state(spec)
        exact = propagate(model, rho0, 1.0)
        stepped = propagate_rk4(model, rho0, 1.0, 10_000)
        assert np.max(np.abs(exact - stepped)) <= 1e-8

    def test_unitary_purity_conserved(self):
        model = build_model(ScenarioSpec(kind="unitary-baseline", b_z=0.4, n_spins=1))
        rho0 = np.full((2, 2), 0.5, dtype=complex)
        rho = propagate_rk4(model, rho0, 3.0, 3000)
        assert np.trace(rho @ rho).real == pytest.approx(1.0, abs=1e-8)

    def test_rejects_zero_steps(self):
        spec = ScenarioSpec(kind="std-spont", b_z=0.1, gamma=0.5)
        with pytest.raises(ValueError):
            propagate_rk4(build_model(spec), probe_state(spec), 1.0, 0)

    def test_fourth_order(self):
        # Halving the step divides the error by 2^4 = 16 (2^3 = 8 for a third-order method).
        spec = ScenarioSpec(kind="coop-spont", b_z=0.1, b_x=0.1, gamma=0.5)
        model, rho0 = build_model(spec), probe_state(spec)
        exact = propagate(model, rho0, 5.0)
        coarse, fine = (np.max(np.abs(propagate_rk4(model, rho0, 5.0, n) - exact)) for n in (20, 40))
        assert 14.0 < coarse / fine < 18.0

    def test_richardson_derivative_of_a_stiff_state(self):
        # The bench's reference route: Richardson differences of RK4 states,
        # here 9,808 steps of a two-spin model with |L| t ~ 2e4.  Rounding that
        # every step repeats is divided by the 1e-5 step: it must stay small.
        spec = ScenarioSpec(kind="two-spin-coop", b_z=1.3716638489288124, b_x=0.05839639382636609,
                            dipole=10.10758812500961)
        t = 0.675655620602559

        def evaluate(b):
            return propagate_rk4(build_model(replace(spec, b_z=b)), probe_state(spec), t, 9808)

        value = qfi_sld(evaluate(spec.b_z), differentiate_state(StateFamily(evaluate, spec.b_z))).value
        assert value == pytest.approx(qfi_at(spec, t).value, rel=1e-9)
