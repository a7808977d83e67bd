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
"""

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .linalg import expm, herm_deviation, hermitize, is_hermitian

__all__ = [
    "InvalidModelError",
    "InvalidStateError",
    "NumericalFailureError",
    "LindbladChannel",
    "LindbladModel",
    "validate_density_matrix",
    "vec",
    "unvec",
    "liouvillian",
    "propagate",
    "propagate_rk4",
]

DENSITY_HERM_TOL = 1e-10
DENSITY_TRACE_TOL = 1e-10
DENSITY_EIG_TOL = -1e-9


class InvalidModelError(ValueError):
    """Hamiltonian/channel data do not form a valid Lindblad model."""


class InvalidStateError(ValueError):
    """Matrix violates the density-matrix invariants."""


class NumericalFailureError(RuntimeError):
    """Propagation produced a state outside the density-matrix tolerances."""


def validate_density_matrix(rho: np.ndarray) -> np.ndarray:
    """Check Hermiticity (1e-10), unit trace (1e-10) and positivity (-1e-9).

    Returns rho as a complex array; raises InvalidStateError otherwise.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise InvalidStateError(f"density matrix must be square, got shape {rho.shape}")
    dev = herm_deviation(rho)
    if dev > DENSITY_HERM_TOL:
        raise InvalidStateError(f"density matrix not Hermitian: deviation {dev:.3e}")
    tr = np.trace(rho)
    if abs(tr - 1.0) > DENSITY_TRACE_TOL:
        raise InvalidStateError(f"density matrix trace {tr:.15g} != 1")
    min_eig = float(np.linalg.eigvalsh(hermitize(rho)).min())
    if min_eig < DENSITY_EIG_TOL:
        raise InvalidStateError(f"density matrix has eigenvalue {min_eig:.3e} < -1e-9")
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

    The Liouvillian is computed lazily and cached.  For concurrent use,
    touch `.liouvillian` once before sharing across threads.
    """

    hamiltonian: np.ndarray
    channels: tuple = field(default_factory=tuple)

    def __post_init__(self):
        h = np.asarray(self.hamiltonian, dtype=complex)
        if h.ndim != 2 or h.shape[0] != h.shape[1]:
            raise InvalidModelError(f"Hamiltonian must be square, got shape {h.shape}")
        if not is_hermitian(h):
            raise InvalidModelError(
                f"Hamiltonian not Hermitian within 1e-10: deviation {herm_deviation(h):.3e}"
            )
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


def unvec(v: np.ndarray, dim: int) -> np.ndarray:
    return np.asarray(v, dtype=complex).reshape((dim, dim), order="F")


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two d x d matrices, by broadcasting: for d <= 4 it
    costs a fraction of the general-purpose numpy routine."""
    d = a.shape[0]
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(d * d, d * d)


def liouvillian(model: LindbladModel) -> np.ndarray:
    """dim² x dim² generator acting on column-stacked states."""
    d = model.dim
    ident = np.eye(d, dtype=complex)
    k = model.hamiltonian.copy()
    for ch in model.channels:
        k -= 0.5j * ch.rate * (ch.jump.conj().T @ ch.jump)
    gen = 1j * _kron(k.conj(), ident) - 1j * _kron(ident, k)
    for ch in model.channels:
        gen += ch.rate * _kron(ch.jump.conj(), ch.jump)
    return gen


def propagate(model: LindbladModel, rho0: np.ndarray, t: float) -> np.ndarray:
    """rho(t) = unvec(expm(L t) vec(rho0)), re-Hermitized and validated.

    Padé exponentiation leaves ~1e-15 Hermiticity noise on the output;
    symmetrizing keeps downstream eigensolvers stable.
    """
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
    rho = unvec(expm(model.liouvillian * t) @ vec(rho0), model.dim)
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
    """Fixed-step classical RK4 integration of the master equation in matrix form.

    Independent cross-check for `propagate`; not meant for stiff production use.
    """
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    if t < 0:
        raise ValueError(f"propagation time must be >= 0, got {t}")
    rho = validate_density_matrix(rho0).copy()
    if rho.shape[0] != model.dim:
        raise InvalidModelError(
            f"state dimension {rho.shape[0]} does not match model dimension {model.dim}"
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

    dt = t / steps
    for _ in range(steps):
        k1 = rhs(rho)
        k2 = rhs(rho + 0.5 * dt * k1)
        k3 = rhs(rho + 0.5 * dt * k2)
        k4 = rhs(rho + dt * k3)
        rho = rho + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    rho = hermitize(rho)
    try:
        return validate_density_matrix(rho)
    except InvalidStateError as exc:
        raise NumericalFailureError(f"RK4 propagation to t={t} lost state invariants: {exc}") from exc
