"""Dense complex linear algebra and spin operators for 2- and 4-level systems.

All operators, states and superoperators are plain complex numpy arrays
(row-major, square); `expm` also keeps a real matrix real.  Superoperators go up to dimension 16.  Everything here
is a pure function over immutable inputs; nothing mutates its arguments.
`tensor`, `hermitize`, `herm_deviation`, `eigh` and `outer` also take
stacks (..., d, d) of matrices (or (..., d) of vectors) and act on each one,
with the same bits as one at a time.

Basis convention: sigma_z |0> = +|0>, sigma_z |1> = -|1>.  With this choice
(sigma_x + i*sigma_y)/2 = |0><1|.
"""

import numpy as np
import scipy.linalg

__all__ = [
    "NonHermitianError",
    "pauli",
    "identity",
    "tensor",
    "hermitize",
    "herm_deviation",
    "eigh",
    "expm",
    "outer",
    "normalize",
    "phase_align",
]

HERM_TOL = 1e-10
DEGENERACY_TOL = 1e-9
GAUGE_TOL = 1e-12

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
    is symmetrized matrix by matrix.  The result is exactly Hermitian entrywise."""
    m = np.asarray(m, dtype=complex)
    return (m + m.conj().swapaxes(-1, -2)) / 2.0


def herm_deviation(m: np.ndarray) -> float:
    """max |m - m†| of a matrix, or the largest over the matrices of a stack."""
    m = np.asarray(m)
    return float(np.abs(m - m.conj().mT).max())


def _fix_gauge(vectors: np.ndarray) -> np.ndarray:
    """Rotate each column of a matrix or stack so that its first component
    above GAUGE_TOL in magnitude is real and positive; a column without one
    is left as it is."""
    d = vectors.shape[-1]
    flat = vectors.reshape(-1, d, d)
    above = np.abs(flat) > GAUGE_TOL
    matrices, columns = np.arange(len(flat))[:, None], np.arange(d)
    lead = flat[matrices, above.argmax(axis=1), columns]
    lead[~above.any(axis=1)] = 1.0
    # The scalar abs of each lead: numpy's array abs can round the last bit differently.
    size = np.array([abs(x) for x in lead.flat]).reshape(lead.shape)
    return (flat * (lead.conj() / size)[:, None, :]).reshape(vectors.shape)


def _order_degenerate(values: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """Reorder columns inside each degenerate cluster by descending |v[0]|."""
    v = vectors.copy()
    n = values.shape[0]
    start = 0
    while start < n:
        stop = start + 1
        while stop < n and values[stop] - values[stop - 1] < DEGENERACY_TOL:
            stop += 1
        if stop - start > 1:
            block = v[:, start:stop]
            order = np.argsort(-np.abs(block[0, :]), kind="stable")
            v[:, start:stop] = block[:, order]
        start = stop
    return v


def eigh(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(values, vectors) of a Hermitian matrix, or of each matrix of a stack
    (..., d, d) in one LAPACK call: ascending values (..., d) and unitary
    eigenvector columns (..., d, d), h @ vectors = vectors @ diag(values).

    Phase gauge: the first component of each eigenvector whose magnitude
    exceeds 1e-12 is real and positive.  Within a degenerate cluster
    (eigenvalue gap < 1e-9) columns are ordered by descending magnitude of
    their first component.  Raises NonHermitianError if max |h - h†| of a
    matrix exceeds 1e-10.
    """
    h = np.asarray(h, dtype=complex)
    if h.ndim < 2 or h.shape[-1] != h.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {h.shape}")
    deviation = herm_deviation(h)
    if deviation > HERM_TOL:
        raise NonHermitianError(
            f"matrix is not Hermitian: max |h - h†| = {deviation:.3e} > {HERM_TOL:.1e}"
        )
    values, vectors = np.linalg.eigh(hermitize(h))
    close = values[..., 1:] - values[..., :-1] < DEGENERACY_TOL
    if close.any():
        for index in map(tuple, np.argwhere(close.any(axis=-1))):  # () for one matrix
            vectors[index] = _order_degenerate(values[index], vectors[index])
    return values, _fix_gauge(vectors)


def expm(m: np.ndarray) -> np.ndarray:
    """Matrix exponential (scaling-and-squaring Padé, via scipy) of a matrix
    or of each matrix of a stack (..., n, n).  A real input stays real, in
    real arithmetic; any other input is taken as complex."""
    m = np.asarray(m)
    return scipy.linalg.expm(np.asarray(m, dtype=float if np.isrealobj(m) else complex))


def outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """|a><b| for state vectors a, b, or for each pair of two stacks (..., d)."""
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    return a[..., :, None] * b.conj()[..., None, :]


def normalize(psi: np.ndarray) -> np.ndarray:
    psi = np.asarray(psi, dtype=complex)
    norm = np.linalg.norm(psi)
    if norm == 0:
        raise ValueError("cannot normalize the zero vector")
    return psi / norm


def phase_align(psi: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """Rotate the global phase of psi so that <reference|psi> is real positive.

    Needed before finite-differencing eigenvectors: eigensolver output
    carries an arbitrary phase per call.
    """
    overlap = np.vdot(reference, psi)
    mag = abs(overlap)
    if mag < GAUGE_TOL:
        raise ValueError("states are (numerically) orthogonal; phase undefined")
    return psi * (overlap.conjugate() / mag)
