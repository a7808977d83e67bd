"""Dense complex linear algebra and spin operators for 2- and 4-level systems.

All operators, states and superoperators are plain complex numpy arrays
(row-major, square).  Superoperators go up to dimension 16.  Everything here
is a pure function over immutable inputs; nothing mutates its arguments.
`tensor`, `hermitize`, `eigh` and `outer` also take stacks (..., d, d) of
matrices (or (..., d) of vectors) and act on each one, with the same bits as
one at a time.  `eigh` fixes no gauge: only its eigenprojectors are
physical, and the library reads nothing else of an eigenbasis.  The module
needs numpy alone.

Basis convention: sigma_z |0> = +|0>, sigma_z |1> = -|1>.  With this choice
(sigma_x + i*sigma_y)/2 = |0><1|.
"""

import numpy as np

__all__ = [
    "NonHermitianError",
    "pauli",
    "identity",
    "tensor",
    "hermitize",
    "eigh",
    "outer",
]

HERM_TOL = 1e-10

_PAULI = {
    "x": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    "z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}


class NonHermitianError(ValueError):
    """Operator expected to be Hermitian deviates beyond tolerance."""


def pauli(which: str) -> np.ndarray:
    """Return the 2x2 Pauli matrix for axis 'x', 'y' or 'z'."""
    try:
        return _PAULI[which].copy()
    except KeyError:
        raise ValueError(f"unknown Pauli axis {which!r}") from None


def identity(dim: int) -> np.ndarray:
    return np.eye(dim, dtype=complex)


def tensor(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two matrices, of any sizes, or of each pair of two
    stacks broadcast over their leading axes: dim(a*b) = dim(a)*dim(b).
    Written by broadcasting: for d <= 4 it costs a fraction of np.kron."""
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    product = a[..., :, None, :, None] * b[..., None, :, None, :]
    return product.reshape(*product.shape[:-4], a.shape[-2] * b.shape[-2], a.shape[-1] * b.shape[-1])


def hermitize(m: np.ndarray) -> np.ndarray:
    """Symmetrize (m + m†)/2 over the last two axes, so a stack (..., d, d)
    is symmetrized matrix by matrix.  The result is exactly Hermitian entrywise.
    The real and imaginary parts are halved as floats, through a float view
    of the sum: numpy divides a complex array by 2.0 as by 2+0j, which turns
    an entry inf+1j into inf+nanj."""
    m = np.asarray(m, dtype=complex)
    h = np.ascontiguousarray(m + m.conj().swapaxes(-1, -2))
    h.view(np.float64)[...] /= 2.0
    return h


def _herm_deviation(m: np.ndarray) -> float:
    """max |m - m†| of a matrix, or the largest over the matrices of a stack."""
    m = np.asarray(m)
    return float(np.abs(m - m.conj().mT).max())


def eigh(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(values, vectors) of a Hermitian matrix, or of each matrix of a stack
    (..., d, d) in one LAPACK call: ascending values (..., d) and unitary
    eigenvector columns (..., d, d), h @ vectors = vectors @ diag(values).

    Only the eigenprojectors are determined: the phase of each column, and
    the basis within a degenerate eigenspace, are LAPACK's, and every caller
    reads only quantities that do not depend on them.  Raises
    NonHermitianError if max |h - h†| of a matrix exceeds 1e-10.
    """
    h = np.asarray(h, dtype=complex)
    if h.ndim < 2 or h.shape[-1] != h.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {h.shape}")
    deviation = _herm_deviation(h)
    if deviation > HERM_TOL:
        raise NonHermitianError(
            f"matrix is not Hermitian: max |h - h†| = {deviation:.3e} > {HERM_TOL:.1e}"
        )
    return np.linalg.eigh(hermitize(h))


def outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """|a><b| for state vectors a, b, or for each pair of two stacks (..., d)."""
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    return a[..., :, None] * b.conj()[..., None, :]
