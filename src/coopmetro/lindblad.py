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

A model may also be a stack of models of one shape: a Hamiltonian stack
(..., d, d) and, per channel, a rate or a rate stack (...) and a jump stack
(..., d, d) or one jump (d, d) shared by the stack.  Its Liouvillian is
then the stack (..., d², d²), each matrix bit for bit the Liouvillian of
that model alone.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .linalg import HERM_TOL, expm, herm_deviation, hermitize, tensor

__all__ = [
    "InvalidModelError",
    "InvalidStateError",
    "NumericalFailureError",
    "LindbladChannel",
    "LindbladModel",
    "density_matrix_errors",
    "validate_density_matrix",
    "vec",
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


def density_matrix_errors(rho: np.ndarray) -> np.ndarray:
    """Check a stack (..., d, d) of density matrices in one batched call.

    Returns an object array of shape rho.shape[:-2] holding, per matrix, the
    message of the first failed invariant (finite entries, Hermiticity 1e-10,
    unit trace 1e-10, positivity -1e-9), or None where all of them hold.
    """
    rho = np.asarray(rho, dtype=complex)
    flat = rho.reshape(-1, *rho.shape[-2:])
    finite = np.isfinite(flat).all(axis=(-2, -1))
    dev = np.abs(flat - flat.conj().swapaxes(-1, -2)).max(axis=(-2, -1))
    tr = np.trace(flat, axis1=-2, axis2=-1)
    # Non-finite matrices are replaced by 0 so the eigensolver cannot fail on them.
    min_eig = np.linalg.eigvalsh(np.where(finite[:, None, None], hermitize(flat), 0.0)).min(axis=-1)
    ok = (
        finite
        & (dev <= DENSITY_HERM_TOL)
        & (np.abs(tr - 1.0) <= DENSITY_TRACE_TOL)
        & (min_eig >= DENSITY_EIG_TOL)
    )
    errors = np.full(flat.shape[0], None, dtype=object)
    for i in np.flatnonzero(~ok):
        if not finite[i]:
            errors[i] = "density matrix has non-finite entries"
        elif dev[i] > DENSITY_HERM_TOL:
            errors[i] = f"density matrix not Hermitian: deviation {dev[i]:.3e}"
        elif abs(tr[i] - 1.0) > DENSITY_TRACE_TOL:
            errors[i] = f"density matrix trace {tr[i]:.15g} != 1"
        else:
            errors[i] = f"density matrix has eigenvalue {min_eig[i]:.3e} < -1e-9"
    return errors.reshape(rho.shape[:-2])


def validate_density_matrix(rho: np.ndarray) -> np.ndarray:
    """Check one density matrix against the invariants of `density_matrix_errors`.

    Returns rho as a complex array; raises InvalidStateError otherwise.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise InvalidStateError(f"density matrix must be square, got shape {rho.shape}")
    error = density_matrix_errors(rho)[()]
    if error is not None:
        raise InvalidStateError(error)
    return rho


@dataclass(frozen=True)
class LindbladChannel:
    """One dissipative channel: nonnegative rate and jump operator, or the
    rates (...) and jump operators of a stack of models."""

    rate: float | np.ndarray
    jump: np.ndarray

    def __post_init__(self):
        negative = self.rate < 0
        if negative.any() if isinstance(negative, np.ndarray) else negative:
            raise InvalidModelError(f"channel rate must be >= 0, got {np.min(self.rate)}")
        object.__setattr__(self, "jump", np.asarray(self.jump, dtype=complex))


@dataclass(frozen=True, eq=False)
class LindbladModel:
    """Hamiltonian plus channels, or a stack of them (see the module
    docstring); immutable after construction.

    The Liouvillian is computed on first access and kept with the model.
    """

    hamiltonian: np.ndarray
    channels: tuple = field(default_factory=tuple)

    def __post_init__(self):
        h = np.asarray(self.hamiltonian, dtype=complex)
        if h.ndim < 2 or h.shape[-1] != h.shape[-2]:
            raise InvalidModelError(f"Hamiltonian must be square, got shape {h.shape}")
        deviation = herm_deviation(h)
        if not deviation <= HERM_TOL:  # a NaN deviation fails too
            raise InvalidModelError(f"Hamiltonian not Hermitian within 1e-10: deviation {deviation:.3e}")
        channels = tuple(self.channels)
        for ch in channels:
            if ch.jump.shape not in (h.shape, h.shape[-2:]):
                raise InvalidModelError(
                    f"jump operator shape {ch.jump.shape} does not match Hamiltonian {h.shape}"
                )
        object.__setattr__(self, "hamiltonian", h)
        object.__setattr__(self, "channels", channels)

    @property
    def dim(self) -> int:
        return self.hamiltonian.shape[-1]

    @cached_property
    def liouvillian(self) -> np.ndarray:
        return liouvillian(self)


def vec(rho: np.ndarray) -> np.ndarray:
    """Column-stack a matrix into a vector."""
    return np.asarray(rho, dtype=complex).reshape(-1, order="F")


def liouvillian(model: LindbladModel) -> np.ndarray:
    """dim² x dim² generator acting on column-stacked states, or the stack
    of them of a stacked model."""
    d = model.dim
    ident = np.eye(d, dtype=complex)
    # A rate stack scales its models' matrices; a scalar rate all of them.
    rates = [ch.rate[..., None, None] if isinstance(ch.rate, np.ndarray) else ch.rate for ch in model.channels]
    k = model.hamiltonian.copy()
    for rate, ch in zip(rates, model.channels):
        k -= 0.5j * rate * (ch.jump.conj().mT @ ch.jump)
    gen = 1j * tensor(k.conj(), ident) - 1j * tensor(ident, k)
    for rate, ch in zip(rates, model.channels):
        gen += rate * tensor(ch.jump.conj(), ch.jump)
    return gen


def propagate(model: LindbladModel, rho0: np.ndarray, t: float) -> np.ndarray:
    """rho(t) = expm(L t) vec(rho0), reshaped column-major, re-Hermitized and validated.

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
    rho = (expm(model.liouvillian * t) @ vec(rho0)).reshape((model.dim, model.dim), order="F")
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
