"""Markovian master equations: model container, Liouvillian, propagation.

The generator is d rho/dt = -i[H, rho] + sum_i gamma_i (L_i rho L_i†
- (1/2){L_i† L_i, rho}) with a time-independent Hamiltonian and rates
(hbar = 1).  Propagation exponentiates the vectorized generator.

The anticommutator terms fold into the effective Hamiltonian
K = H - (i/2) sum_i gamma_i L_i† L_i, which gives the equivalent form
d rho/dt = -i(K rho - rho K†) + sum_i gamma_i L_i rho L_i†.

Vectorization is column-stacking: vec(rho) stacks columns, so
vec(A rho B) = (B^T ⊗ A) vec(rho).  With (K†)^T = conj(K) and
(L†)^T = conj(L) the Liouvillian is therefore
-i (I ⊗ K) + i (conj(K) ⊗ I) + sum_i gamma_i (conj(L_i) ⊗ L_i).
`propagate` and `propagate_rk4` work in this complex form, as references
for the QFI pipeline, which propagates in the Hamiltonian's eigenframe
(`scenarios._propagated`).

The module also holds what the pipeline shares of a state: the
density-matrix invariants (`validate_density_matrix`, and `_invariant_errors`
for a stack) and `hermitize`, which symmetrizes a matrix or a stack.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

__all__ = [
    "InvalidModelError",
    "InvalidStateError",
    "NumericalFailureError",
    "LindbladChannel",
    "LindbladModel",
    "hermitize",
    "validate_density_matrix",
    "vec",
    "liouvillian",
    "propagate",
    "propagate_rk4",
]

HERM_TOL = 1e-10
DENSITY_HERM_TOL = 1e-10
DENSITY_TRACE_TOL = 1e-10
DENSITY_EIG_TOL = -1e-9


class InvalidModelError(ValueError):
    """Hamiltonian/channel data do not form a valid Lindblad model."""


class InvalidStateError(ValueError):
    """Matrix violates the density-matrix invariants."""


class NumericalFailureError(RuntimeError):
    """Propagation produced a state outside the density-matrix tolerances."""


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


def _invariant_errors(flat: np.ndarray, finite: np.ndarray, min_eig: np.ndarray) -> dict[int, str]:
    """The density-matrix check of a stack (n, d, d), given which matrices
    are finite and the smallest eigenvalue of each (0 where not finite):
    the message of the first failed invariant (finite entries, Hermiticity
    1e-10, unit trace 1e-10, positivity -1e-9) of each matrix that fails
    one, by its index."""
    dev = np.abs(flat - flat.conj().swapaxes(-1, -2)).max(axis=(-2, -1))
    tr = np.trace(flat, axis1=-2, axis2=-1)
    ok = (
        finite
        & (dev <= DENSITY_HERM_TOL)
        & (np.abs(tr - 1.0) <= DENSITY_TRACE_TOL)
        & (min_eig >= DENSITY_EIG_TOL)
    )
    errors = {}
    for i in np.flatnonzero(~ok).tolist():
        if not finite[i]:
            errors[i] = "density matrix has non-finite entries"
        elif dev[i] > DENSITY_HERM_TOL:
            errors[i] = f"density matrix not Hermitian: deviation {dev[i]:.3e}"
        elif abs(tr[i] - 1.0) > DENSITY_TRACE_TOL:
            errors[i] = f"density matrix trace {tr[i]:.15g} != 1"
        else:
            errors[i] = f"density matrix has eigenvalue {min_eig[i]:.3e} < -1e-9"
    return errors


def validate_density_matrix(rho: np.ndarray) -> np.ndarray:
    """Check one density matrix against the invariants of `_invariant_errors`.

    Returns rho as a complex array; raises InvalidStateError otherwise.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise InvalidStateError(f"density matrix must be square, got shape {rho.shape}")
    flat = rho[None]
    finite = np.isfinite(flat).all(axis=(-2, -1))
    # A non-finite matrix is replaced by 0 so the eigensolver cannot fail on it.
    min_eig = np.linalg.eigvalsh(np.where(finite[:, None, None], hermitize(flat), 0.0))[:, 0]
    errors = _invariant_errors(flat, finite, min_eig)
    if errors:
        raise InvalidStateError(errors[0])
    return rho


@dataclass(frozen=True)
class LindbladChannel:
    """One dissipative channel: nonnegative rate and jump operator."""

    rate: float
    jump: np.ndarray

    def __post_init__(self):
        if self.rate < 0:
            raise InvalidModelError(f"channel rate must be >= 0, got {self.rate}")
        object.__setattr__(self, "jump", np.asarray(self.jump, dtype=complex))


@dataclass(frozen=True, eq=False)
class LindbladModel:
    """Hamiltonian plus channels; immutable after construction.

    The Liouvillian is computed on first access and kept with the model.
    """

    hamiltonian: np.ndarray
    channels: tuple = field(default_factory=tuple)

    def __post_init__(self):
        h = np.asarray(self.hamiltonian, dtype=complex)
        if h.ndim != 2 or h.shape[0] != h.shape[1]:
            raise InvalidModelError(f"Hamiltonian must be square, got shape {h.shape}")
        deviation = _herm_deviation(h)
        if not deviation <= HERM_TOL:  # a NaN deviation fails too
            raise InvalidModelError(f"Hamiltonian not Hermitian within 1e-10: deviation {deviation:.3e}")
        channels = tuple(self.channels)
        for ch in channels:
            if ch.jump.shape != h.shape:
                raise InvalidModelError(
                    f"jump operator shape {ch.jump.shape} does not match Hamiltonian {h.shape}"
                )
        object.__setattr__(self, "hamiltonian", h)
        object.__setattr__(self, "channels", channels)

    @property
    def dim(self) -> int:
        return self.hamiltonian.shape[0]

    @cached_property
    def liouvillian(self) -> np.ndarray:
        return liouvillian(self)


def vec(rho: np.ndarray) -> np.ndarray:
    """Column-stack a matrix into a vector."""
    return np.asarray(rho, dtype=complex).reshape(-1, order="F")


def liouvillian(model: LindbladModel) -> np.ndarray:
    """dim² x dim² generator acting on column-stacked states."""
    ident = np.eye(model.dim, dtype=complex)
    k, jumps = _rhs_terms(model)
    gen = 1j * np.kron(k.conj(), ident) - 1j * np.kron(ident, k)
    for rate, jump, _ in jumps:
        gen = gen + rate * np.kron(jump.conj(), jump)
    return gen


def propagate(model: LindbladModel, rho0: np.ndarray, t: float) -> np.ndarray:
    """rho(t) = expm(L t) vec(rho0), reshaped column-major, re-Hermitized and validated.

    The reference route of the tests: it needs scipy (the `test` extra), whose
    `scipy.linalg.expm` (Al-Mohy & Higham, SIAM J. Matrix Anal. Appl. 31, 970
    (2009)) exponentiates.  scipy is imported here, not with the module, so
    that importing the package and running the CLI load no scipy.  The
    exponential leaves ~1e-15 Hermiticity noise on the output; symmetrizing
    keeps downstream eigensolvers stable.
    """
    import scipy.linalg

    if not math.isfinite(t):
        raise ValueError(f"propagation time must be finite, got {t}")
    if t < 0:
        raise ValueError(f"propagation time must be >= 0, got {t}")
    rho0 = validate_density_matrix(rho0)
    if rho0.shape[0] != model.dim:
        raise InvalidModelError(
            f"state dimension {rho0.shape[0]} does not match model dimension {model.dim}"
        )
    if t == 0:
        return rho0.copy()
    rho = (scipy.linalg.expm(model.liouvillian * t) @ vec(rho0)).reshape((model.dim, model.dim), order="F")
    rho = hermitize(rho)
    try:
        return validate_density_matrix(rho)
    except InvalidStateError as exc:
        raise NumericalFailureError(f"propagation to t={t} lost state invariants: {exc}") from exc


def _rhs_terms(model: LindbladModel):
    # Effective-Hamiltonian form: drho = -i(K rho - rho K†) + sum gamma L rho L†
    # with K = H - (i/2) sum gamma L†L.
    k = model.hamiltonian.astype(complex)
    jumps = []
    for ch in model.channels:
        k = k - 0.5j * ch.rate * (ch.jump.conj().T @ ch.jump)
        jumps.append((ch.rate, ch.jump, ch.jump.conj().T))
    return k, jumps


def propagate_rk4(model: LindbladModel, rho0: np.ndarray, t: float, steps: int) -> np.ndarray:
    """Fixed-step classical RK4 integration of the master equation.

    Independent cross-check for `propagate`; not meant for stiff production
    use.  The right-hand side is the matrix form of the master equation, not
    the Kronecker assembly of `liouvillian`: applied to the d² basis matrices
    it gives the generator G column by column.  The equation is linear, so
    one RK4 step of size h is exactly v <- T4(hG) v with
    T4(z) = 1 + z + z²/2 + z³/6 + z⁴/24, taken as `steps` matrix-vector
    products v <- v + (T4(hG) - 1) v.  Keeping the 1 out of the stored
    matrix keeps its rounding, which every step repeats, relative to the
    increment, as in the stage-by-stage form: with T4(hG) stored whole, the
    Richardson derivative of a stiff two-spin state lost a factor 15.
    """
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    if t < 0:
        raise ValueError(f"propagation time must be >= 0, got {t}")
    rho = validate_density_matrix(rho0).copy()
    d = model.dim
    if rho.shape[0] != d:
        raise InvalidModelError(
            f"state dimension {rho.shape[0]} does not match model dimension {d}"
        )
    if t == 0:
        return rho
    k_eff, jumps = _rhs_terms(model)
    k_eff_dag = k_eff.conj().T

    def rhs(r):
        out = -1j * (k_eff @ r - r @ k_eff_dag)
        for rate, jump, jump_dag in jumps:
            out += rate * (jump @ r @ jump_dag)
        return out

    # The basis matrices unvec(e_i), i < d², and the columns vec(rhs(unvec(e_i))) of G.
    basis = np.eye(d * d, dtype=complex).reshape(d * d, d, d).swapaxes(-1, -2)
    z = (t / steps) * rhs(basis).swapaxes(-1, -2).reshape(d * d, d * d).T
    ident = np.eye(d * d, dtype=complex)
    increment = z @ (ident + z @ (ident + z @ (ident + z / 4.0) / 3.0) / 2.0)
    v = vec(rho)
    for _ in range(steps):
        v = v + increment @ v
    rho = hermitize(v.reshape((d, d), order="F"))
    try:
        return validate_density_matrix(rho)
    except InvalidStateError as exc:
        raise NumericalFailureError(f"RK4 propagation to t={t} lost state invariants: {exc}") from exc
