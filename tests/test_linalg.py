import math
import warnings

import numpy as np
import pytest

from conftest import random_hermitian
from coopmetro.linalg import (
    NonHermitianError,
    eigh,
    hermitize,
    identity,
    outer,
    pauli,
    tensor,
)
from coopmetro.scenarios import two_spin_hamiltonian


class TestPauli:
    def test_z_diagonal(self):
        np.testing.assert_array_equal(pauli("z"), np.diag([1.0, -1.0]).astype(complex))

    def test_x(self):
        np.testing.assert_array_equal(pauli("x"), np.array([[0, 1], [1, 0]], dtype=complex))

    def test_ladder_identity(self):
        # (x + i y)/2 = |0><1| in the sigma_z|0> = +|0> convention
        raising = (pauli("x") + 1j * pauli("y")) / 2
        np.testing.assert_allclose(raising, outer(identity(2)[0], identity(2)[1]), atol=1e-15)

    def test_unknown_axis(self):
        with pytest.raises(ValueError):
            pauli("w")


class TestTensor:
    def test_identity(self):
        np.testing.assert_array_equal(tensor(identity(2), identity(2)), identity(4))

    def test_sigma_z_identity_entries(self):
        m = tensor(pauli("z"), identity(2))
        assert m[0, 0] == 1.0
        assert m[3, 3] == -1.0

    def test_sigma_z_sigma_z(self):
        np.testing.assert_array_equal(
            tensor(pauli("z"), pauli("z")), np.diag([1.0, -1.0, -1.0, 1.0]).astype(complex)
        )

    def test_associative(self):
        a, b, c = pauli("x"), pauli("y"), pauli("z")
        np.testing.assert_array_equal(tensor(tensor(a, b), c), tensor(a, tensor(b, c)))

    def test_equals_np_kron_on_every_shape(self):
        rng = np.random.default_rng(17)
        shapes = [(rows, cols) for rows in range(1, 5) for cols in range(1, 5)]
        for shape_a in shapes:
            for shape_b in shapes:
                a = rng.standard_normal(shape_a) + 1j * rng.standard_normal(shape_a)
                b = rng.standard_normal(shape_b) + 1j * rng.standard_normal(shape_b)
                assert np.array_equal(tensor(a, b), np.kron(a, b)), (shape_a, shape_b)
        assert tensor(np.eye(2), np.ones((1, 3))).dtype == complex

    def test_broadcast_stack_equals_pairs(self):
        rng = np.random.default_rng(19)
        a = rng.standard_normal((3, 1, 2, 2)) + 1j * rng.standard_normal((3, 1, 2, 2))
        b = rng.standard_normal((5, 4, 4)) + 1j * rng.standard_normal((5, 4, 4))
        stack = tensor(a, b)
        assert stack.shape == (3, 5, 8, 8)
        for i, j in np.ndindex(3, 5):
            assert np.array_equal(stack[i, j], tensor(a[i, 0], b[j]))
        shared = tensor(a[0, 0], b)  # one matrix against a stack
        for j in range(5):
            assert np.array_equal(shared[j], tensor(a[0, 0], b[j]))


class TestEigh:
    def test_sigma_z_spectrum(self):
        np.testing.assert_allclose(eigh(pauli("z"))[0], [-1.0, 1.0], atol=1e-15)

    def test_two_spin_diagonal_spectrum(self):
        # b_x = 0 makes the two-spin Hamiltonian diagonal; read off
        # b_z(±1±1) + (±1)(±1) at b_z = 0.3.
        values, _ = eigh(two_spin_hamiltonian(0.3, 0.0))
        np.testing.assert_allclose(sorted(values), [-1.0, -1.0, 0.4, 1.6], atol=1e-12)

    def test_two_level_spectrum(self):
        h = 0.1 * pauli("z") + 0.1 * pauli("x")
        expected = math.sqrt(0.1**2 + 0.1**2)
        np.testing.assert_allclose(eigh(h)[0], [-expected, expected], rtol=1e-12)

    def test_reconstruction_and_unitarity(self):
        rng = np.random.default_rng(11)
        for dim in (2, 4, 16):
            for _ in range(10):
                h = random_hermitian(rng, dim)
                w, v = eigh(h)
                assert np.max(np.abs(v.conj().T @ v - np.eye(dim))) <= 1e-12
                recon = v @ np.diag(w) @ v.conj().T
                assert np.max(np.abs(recon - h)) <= 1e-10
                assert np.max(np.abs(h @ v - v @ np.diag(w))) <= 1e-10 * max(
                    1.0, np.linalg.norm(h)
                )
                assert np.all(np.diff(w) >= 0)

    def test_stack_equals_matrices_alone(self):
        rng = np.random.default_rng(29)
        for dim, degenerate in ((2, identity(2)), (4, two_spin_hamiltonian(0.3, 0.0))):
            matrices = [degenerate] + [random_hermitian(rng, dim) for _ in range(29)]
            stack = np.array(matrices).reshape(5, 6, dim, dim)
            values, vectors = eigh(stack)
            for index in np.ndindex(5, 6):
                alone_values, alone_vectors = eigh(stack[index])
                assert np.array_equal(values[index], alone_values)
                assert np.array_equal(vectors[index], alone_vectors)

    def test_non_hermitian_rejected(self):
        m = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        with pytest.raises(NonHermitianError):
            eigh(m)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            eigh(np.zeros((2, 3), dtype=complex))


class TestHelpers:
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
