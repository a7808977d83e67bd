"""Quantum Fisher information of pure and mixed states.

Three routes are provided and cross-checked against each other in the test
suite: the pure-state overlap formula, the qubit determinant closed form,
and the spectral SLD sum valid in any dimension.  Parameter derivatives of
whole simulation pipelines are taken by Richardson-extrapolated central
differences, because the parameter typically enters the Hamiltonian, the
jump operators and the rates at once and analytic eigenvector derivatives
are error-prone.
"""

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .linalg import eigh, hermitize, normalize, phase_align

__all__ = [
    "QfiResult",
    "StateFamily",
    "qfi_pure",
    "qfi_qubit",
    "qfi_sld",
    "differentiate_state",
    "differentiate_pure_state",
    "richardson_stencil",
    "fd_default_step",
]

METHOD_PURE = "pure"
METHOD_QUBIT = "qubit-closed-form"
METHOD_SLD = "sld-spectral"

NEAR_PURE_DET_TOL = 1e-10
SLD_SPECTRAL_EPS = 1e-12
QFI_NEGATIVE_TOL = -1e-9
DERIV_HERM_TOL = 1e-8


@dataclass(frozen=True)
class QfiResult:
    """QFI value with the method tag and, if any, the finite-difference step."""

    value: float
    method: str
    fd_step: float | None = None


@dataclass(frozen=True)
class StateFamily:
    """Parameter-to-state contract: evaluate(b) -> density matrix, around b0."""

    evaluate: Callable[[float], np.ndarray]
    b0: float


def _clamp(value: float) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"QFI computed as {value}, which is not finite")
    if value < QFI_NEGATIVE_TOL:
        raise ValueError(f"QFI computed as {value:.3e}, below the -1e-9 tolerance")
    return max(value, 0.0)


def _check_derivative(drho: np.ndarray, traceless: bool = False) -> np.ndarray:
    drho = np.asarray(drho, dtype=complex)
    dev = float(np.max(np.abs(drho - drho.conj().T)))
    if dev > DERIV_HERM_TOL:
        raise ValueError(f"state derivative not Hermitian within 1e-8: deviation {dev:.3e}")
    if traceless and abs(np.trace(drho)) > DERIV_HERM_TOL:
        raise ValueError(f"state derivative not traceless within 1e-8: trace {np.trace(drho):.3e}")
    return drho


def qfi_pure(psi: np.ndarray, dpsi: np.ndarray) -> QfiResult:
    """QFI of a pure family: 4(<dpsi|dpsi> - |<dpsi|psi>|^2)."""
    psi = np.asarray(psi, dtype=complex)
    dpsi = np.asarray(dpsi, dtype=complex)
    value = 4.0 * (np.vdot(dpsi, dpsi).real - abs(np.vdot(dpsi, psi)) ** 2)
    return QfiResult(value=_clamp(value), method=METHOD_PURE)


def qfi_qubit(rho: np.ndarray, drho: np.ndarray) -> QfiResult:
    """Qubit QFI via the determinant closed form.

    F = Tr[(drho)^2] + Tr[(rho drho)^2] / Det[rho].  Near-pure states
    (Det < 1e-10) make the division explosive; those fall back to the
    spectral SLD route and are tagged accordingly.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (2, 2):
        raise ValueError(f"qubit formula needs a 2x2 state, got shape {rho.shape}")
    drho = _check_derivative(drho, traceless=True)
    det = np.linalg.det(rho).real
    if det < NEAR_PURE_DET_TOL:
        return qfi_sld(rho, drho)
    rd = rho @ drho
    value = np.trace(drho @ drho).real + np.trace(rd @ rd).real / det
    return QfiResult(value=_clamp(value), method=METHOD_QUBIT)


def _recorded(formula: Callable, *args):
    """formula(*args), or the ValueError it raises: recorded, not raised, so
    that one bad state of a stack does not lose the others."""
    try:
        return formula(*args)
    except ValueError as exc:
        return exc


def _sld_outcomes(rho: np.ndarray, drho: np.ndarray) -> list:
    """`qfi_sld` at each state of a stack (n, d, d) with its derivative, or
    the ValueError of a derivative that fails its check: one batched eigh
    and one stacked product V† drho V, then the pair mask and the masked
    sum state by state."""
    rho = hermitize(np.asarray(rho, dtype=complex))
    drho = np.asarray(drho, dtype=complex)
    outcomes = [_recorded(_check_derivative, d) for d in drho]
    ok = [k for k, outcome in enumerate(outcomes) if not isinstance(outcome, ValueError)]
    if not ok:
        return outcomes
    values, vectors = eigh(rho[ok])
    weights = np.abs(vectors.conj().mT @ drho[ok] @ vectors) ** 2
    denoms = values[:, :, None] + values[:, None, :]
    for k, weight, denom in zip(ok, weights, denoms):
        mask = denom > SLD_SPECTRAL_EPS
        value = _recorded(_clamp, 2.0 * float(np.sum(weight[mask] / denom[mask])))
        outcomes[k] = value if isinstance(value, ValueError) else QfiResult(value=value, method=METHOD_SLD)
    return outcomes


def qfi_sld(rho: np.ndarray, drho: np.ndarray) -> QfiResult:
    """Spectral SLD formula, any dimension: the one-state case of `_sld_outcomes`.

    Diagonalize rho = sum_k lam_k |k><k| and sum
    2 |<i|drho|j>|^2 / (lam_i + lam_j) over pairs with lam_i + lam_j > 1e-12.
    """
    (outcome,) = _sld_outcomes(np.asarray(rho)[None], np.asarray(drho)[None])
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def fd_default_step(b0: float) -> float:
    """Default central-difference step: balances truncation vs. cancellation
    for states computed to ~1e-12."""
    return 1e-5 * max(1.0, abs(b0))


def richardson_stencil(b0: float, h: float) -> tuple[tuple[float, ...], Callable[[Sequence], np.ndarray]]:
    """The Richardson-extrapolated central difference at b0 with step h.

    Returns the fields b0 - h, b0 + h, b0 - h/2, b0 + h/2 and the function
    that combines the values there, in that order (a sequence or an array
    stacked on its first axis), into (4 D_{h/2} - D_h)/3, with
    D_s = (f(b0 + s) - f(b0 - s)) / 2s.
    """

    def derivative(values: Sequence) -> np.ndarray:
        lo, hi, lo2, hi2 = (np.asarray(v, dtype=complex) for v in values)
        d_h = (hi - lo) / (2.0 * h)
        d_h2 = (hi2 - lo2) / (2.0 * (h / 2.0))
        return (4.0 * d_h2 - d_h) / 3.0

    return (b0 - h, b0 + h, b0 - h / 2.0, b0 + h / 2.0), derivative


def differentiate_state(family: StateFamily, h: float | None = None) -> np.ndarray:
    """d rho / db at family.b0 by Richardson-extrapolated central differences
    (`richardson_stencil`), symmetrized."""
    if h is None:
        h = fd_default_step(family.b0)
    stencil, derivative = richardson_stencil(family.b0, h)
    return hermitize(derivative([family.evaluate(b) for b in stencil]))


def differentiate_pure_state(
    evaluate: Callable[[float], np.ndarray], b0: float, h: float | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """(psi(b0), d psi/db) for a pure-state family, gauge-aligned.

    Each evaluation is normalized and phase-aligned so <psi(b0)|psi(b)> is
    real positive before differencing; otherwise eigensolver gauge noise
    corrupts <dpsi|psi>.
    """
    if h is None:
        h = fd_default_step(b0)
    psi0 = normalize(np.asarray(evaluate(b0), dtype=complex))
    stencil, derivative = richardson_stencil(b0, h)
    aligned = [phase_align(normalize(np.asarray(evaluate(b), dtype=complex)), psi0) for b in stencil]
    return psi0, derivative(aligned)
