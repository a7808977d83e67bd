"""Dense complex linear algebra and spin operators for 2- and 4-level systems.

All operators, states and superoperators are plain complex numpy arrays
(row-major, square); `expm` also keeps a real matrix real.  Superoperators
go up to dimension 16.  Everything here is a pure function over immutable
inputs; nothing mutates its arguments.  `tensor`, `hermitize`, `eigh` and
`outer` also take stacks (..., d, d) of matrices (or (..., d) of vectors)
and act on each one, with the same bits as one at a time; `expm` takes one
matrix.  `eigh` fixes no gauge: only its eigenprojectors are physical, and
the library reads nothing else of an eigenbasis.  The module needs numpy
alone: `expm` is its own scaling-and-squaring Padé approximant, not
scipy's, so that `lindblad.propagate` runs without scipy.

Basis convention: sigma_z |0> = +|0>, sigma_z |1> = -|1>.  With this choice
(sigma_x + i*sigma_y)/2 = |0><1|.
"""

import functools
import math

import numpy as np

__all__ = [
    "NonHermitianError",
    "pauli",
    "identity",
    "tensor",
    "hermitize",
    "eigh",
    "expm",
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
    is symmetrized matrix by matrix.  The result is exactly Hermitian entrywise."""
    m = np.asarray(m, dtype=complex)
    return (m + m.conj().swapaxes(-1, -2)) / 2.0


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


# The [13/13] Padé approximant r(B) = (V - U)^{-1} (V + U) of e^B, with U
# the odd and V the even part of its numerator, sum_k b_k B^k (Higham 2005,
# sec. 2).  Evaluated as U = B (B^6 (b13 B^6 + b11 B^4 + b9 B^2) + b7 B^6 +
# ... + b1 I) and V = B^6 (b12 B^6 + ...) + b6 B^6 + ... + b0 I: row j of
# _PADE_TERMS holds the coefficients of I, B^2, B^4, B^6 in the j-th of the
# four sums, and _PADE_DEGREES the power of B each coefficient multiplies in
# the end, so that one scale 2^-s of B is one factor 2^(-s degree) on it.
_PADE_13 = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0, 1187353796428800.0,
    129060195264000.0, 10559470521600.0, 670442572800.0, 33522128640.0,
    1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0,
)
_PADE_DEGREES = np.array([[0, 9, 11, 13], [1, 3, 5, 7], [0, 8, 10, 12], [0, 2, 4, 6]])
_PADE_TERMS = np.array([_PADE_13[k] for k in _PADE_DEGREES.flat]).reshape(4, 4)
_PADE_TERMS[[0, 2], 0] = 0.0  # the inner sums have no identity term
# Al-Mohy & Higham's bound on the scaled norm for degree 13, tested as
# ||A^k||_1 <= (theta_13 2^s)^k for k = 6, 8, 10.
_ETA_POWERS = (6, 8, 10)
_BELOW_THETA_13_POWERS = ((1.0 - 2.0**-53) / 4.25 ** np.array(_ETA_POWERS)).tolist()
# A larger A is scaled by a power of two to ||A||_1 < 2^_POWERS_RANGE before
# its powers are taken, so that A^10 < 2^1000 is finite.  Such an A also
# gets at least the squarings that bring ||B||_1 below 2^_SCALED_RANGE, more
# than the eta rule asks for where ||A||_1 outgrows eta by more than that (a
# nearly nilpotent A): then sum_k b_k B^k < 2^1000 stays finite.
_POWERS_RANGE = 100
_SCALED_RANGE = 72


def _onenorm(m: np.ndarray) -> np.ndarray:
    """The 1-norm (largest absolute column sum) of a matrix or of each
    matrix of a stack (the powers of `_powers`)."""
    return np.abs(m).sum(axis=-2).max(axis=-1)


@functools.cache
def _identity(n: int) -> np.ndarray:
    eye = np.eye(n)
    eye.flags.writeable = False
    return eye


def expm(m: np.ndarray) -> np.ndarray:
    """Matrix exponential of one square matrix: scaling and squaring with the
    [13/13] Padé approximant (Higham, SIAM J. Matrix Anal. Appl. 26, 1179
    (2005)) and the number of squarings s of Al-Mohy & Higham, SIAM J.
    Matrix Anal. Appl. 31, 970 (2009): the smallest s >= 0 with 2^-s eta <=
    theta_13 = 4.25, where eta = min(max(d6, d8), max(d8, d10)) and d_k =
    ||A^k||_1^(1/k), from exact norms (no ell correction).  A real input
    stays real, in real arithmetic; any other input is taken as complex.
    An input that is not one square matrix (a stack of them included)
    raises ValueError.

    - Where ||A||_1 >= 2^100 the powers and norms are taken of A 2^-s0, an
      exact power-of-two scaling to below 2^100, so that none overflows
      however large A.  A smaller A is not scaled: its powers would lose
      their smallest products to underflow.  So would those of a scaled A
      whose entries span more than ~2^500, such as [[1, 1e300], [0, 1]],
      which then comes out inaccurate.
    - The approximant is formed as I + 2 (V - U)^{-1} U, not (V - U)^{-1}
      (V + U): a zero column of A (an absorbing level of a rate matrix)
      stays an exact unit column through every squaring, and e^0 = I.
    - A matrix with a non-finite entry gives all NaN.
    - The scalar steps are Python floats, a fraction of the cost of numpy's
      0-d operations.

    In the package only `lindblad.propagate`, the reference route of the
    tests and the benchmark, calls it, on one Liouvillian at a time: the
    QFI pipeline propagates in closed form (`scenarios._propagated`).
    """
    m = np.asarray(m)
    a = np.asarray(m, dtype=float if np.isrealobj(m) else complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected one square matrix, got shape {a.shape}")
    norm = float(_onenorm(a))
    if not math.isfinite(norm):
        return np.full(a.shape, np.nan, dtype=a.dtype)
    exponent = math.frexp(norm)[1]
    s0 = max(exponent - _POWERS_RANGE, 0)
    a = a * 2.0**-s0
    powers = _powers(a)
    # Per k, the smallest s with ||a^k|| <= (theta_13 2^s)^k: ceil(e / k) for
    # e = ceil(log2(||a^k|| / theta_13^k)), read off the binary exponent of
    # the ratio taken an ulp low; no bound where a^k = 0.
    need = [
        (math.frexp(x * below)[1] + k - 1) // k if x > 0 else -2048
        for x, below, k in zip(_onenorm(powers[3:]).tolist(), _BELOW_THETA_13_POWERS, _ETA_POWERS)
    ]
    s = max(max(need[1], min(need[0], need[2])) + s0, exponent - _SCALED_RANGE if s0 else 0)
    x = _pade(a, powers, s0 - s)
    for _ in range(s):
        x = x @ x
    return x


def _powers(a: np.ndarray) -> np.ndarray:
    """I, a^2, a^4, a^6, a^8 and a^10 of a matrix, stacked (6, n, n)."""
    n = a.shape[-1]
    powers = np.empty((6, n, n), dtype=a.dtype)
    powers[0] = _identity(n)
    np.matmul(a, a, out=powers[1])
    np.matmul(powers[1], powers[1], out=powers[2])
    np.matmul(powers[1], powers[2], out=powers[3])
    np.matmul(powers[2:3], powers[2:4], out=powers[4:6])
    return powers


def _pade(a: np.ndarray, powers: np.ndarray, scale: int) -> np.ndarray:
    """r_13(B) = I + 2 (V - U)^{-1} U of B = a 2^scale, from a and its
    `_powers`; the factors 2^(scale degree) go on the coefficients: exact."""
    n = a.shape[-1]
    terms = _PADE_TERMS * np.ldexp(1.0, _PADE_DEGREES * scale)
    sums = (terms @ powers[:4].reshape(4, n * n)).reshape(4, n, n)
    sums = powers[3:4] @ sums[0::2] + sums[1::2]
    u = a @ sums[0]
    return 2.0 * np.linalg.solve(sums[1] - u, u) + _identity(n)


def outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """|a><b| for state vectors a, b, or for each pair of two stacks (..., d)."""
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    return a[..., :, None] * b.conj()[..., None, :]
