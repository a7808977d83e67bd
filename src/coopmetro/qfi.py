"""Quantum Fisher information of density matrices.

Two routes are provided and cross-checked against each other, and against
the pure-state overlap formula, in the test suite: the qubit determinant
closed form and the spectral SLD sum valid in any dimension.

The scenario pipeline gets its state derivatives exactly, by propagating
the b_z derivative with the state (`scenarios.qfi_grid`), and the ground-state
QFI is a sum over states (`scenarios.exact_two_spin_ground_qfi`).
Richardson-extrapolated central differences (`differentiate_state`) stay as
the independent reference route for arbitrary state families.  The spectra
are numpy's (`np.linalg.eigh`, of states that `lindblad.hermitize` made
exactly Hermitian).
"""

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .lindblad import hermitize

__all__ = [
    "QfiResult",
    "StateFamily",
    "qfi_qubit",
    "qfi_sld",
    "differentiate_state",
]

METHOD_QUBIT = "qubit-closed-form"
METHOD_SLD = "sld-spectral"

NEAR_PURE_DET_TOL = 1e-10
SLD_SPECTRAL_EPS = 1e-12
QFI_NEGATIVE_TOL = -1e-9
DERIV_HERM_TOL = 1e-8


@dataclass(frozen=True)
class QfiResult:
    """QFI value with the tag of the formula that gave it."""

    value: float
    method: str


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


def qfi_qubit(rho: np.ndarray, drho: np.ndarray) -> QfiResult:
    """Qubit QFI via the determinant closed form.

    F = Tr[(drho)^2] + Tr[(rho drho)^2] / Det[rho].  Near-pure states
    (Det < 1e-10) make the division explosive; those fall back to the
    spectral SLD route and are tagged accordingly.  A grid decides this
    route for its whole stack of qubit states (`scenarios._scores`): one
    batched det, then one `_sld_outcomes` call over the near-pure states,
    which gives each the bits that this function gives it alone.
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


def _sld_outcomes(rho: np.ndarray, drho: np.ndarray, spectrum: tuple | None = None) -> tuple[np.ndarray, dict]:
    """`qfi_sld` at each state of a stack (n, d, d) with its derivative:
    the values (n,), NaN where a state fails, and the ValueError of each
    state that fails, by index, as `qfi_sld` raises it.  One Hermiticity
    screen of the derivative stack, one batched `np.linalg.eigh` of the
    hermitized states, one stacked product V† drho V, one masked sum and
    one clamp over the whole stack; `_check_derivative` and `_clamp` run
    alone only at a state that the screen or the clamp fails, to name its
    error.  Each state's sum runs over all d x d pairs, with an exact 0.0
    at every masked pair, so a state gives the same bits alone as in any
    stack.  A caller that has the (values, vectors) of the Hermitian stack
    rho passes them as `spectrum`."""
    drho = np.asarray(drho, dtype=complex)
    # `_check_derivative`'s deviation, for the whole stack; NaN fails it too.
    passes = np.abs(drho - drho.conj().mT).max(axis=(-2, -1)) <= DERIV_HERM_TOL
    values, vectors = spectrum or np.linalg.eigh(hermitize(np.asarray(rho, dtype=complex)))
    weights = np.abs(vectors.conj().mT @ drho @ vectors) ** 2
    denoms = values[:, :, None] + values[:, None, :]
    kept = np.divide(weights, denoms, out=np.zeros_like(weights), where=denoms > SLD_SPECTRAL_EPS)
    qfi = 2.0 * kept.sum(axis=(-2, -1))
    # `_clamp`'s rules, for the whole stack: NaN, inf and values below the
    # tolerance fail, and values just below 0 are 0.
    fails = ~(passes & (qfi >= QFI_NEGATIVE_TOL) & (qfi < math.inf))
    errors = {}
    for k in np.flatnonzero(fails).tolist():
        error = None if passes[k] else _recorded(_check_derivative, drho[k])
        if not isinstance(error, ValueError):  # a NaN deviation passes the check alone
            error = _recorded(_clamp, qfi[k])
        if isinstance(error, ValueError):
            errors[k] = error
        else:
            fails[k] = False
    values = np.maximum(qfi, 0.0)
    if errors:
        values[list(errors)] = math.nan
    return values, errors


def qfi_sld(rho: np.ndarray, drho: np.ndarray) -> QfiResult:
    """Spectral SLD formula, any dimension: the one-state case of `_sld_outcomes`.

    Diagonalize rho = sum_k lam_k |k><k| and sum
    2 |<i|drho|j>|^2 / (lam_i + lam_j) over pairs with lam_i + lam_j > 1e-12.
    """
    values, errors = _sld_outcomes(np.asarray(rho)[None], np.asarray(drho)[None])
    if errors:
        raise errors[0]
    return QfiResult(value=float(values[0]), method=METHOD_SLD)


def differentiate_state(family: StateFamily, h: float | None = None) -> np.ndarray:
    """d rho / db at family.b0 by the Richardson-extrapolated central
    difference (4 D_{h/2} - D_h) / 3, with D_s = (rho(b0 + s) - rho(b0 - s)) / 2s,
    symmetrized.  The default step h = 1e-5 max(1, |b0|) balances truncation
    against cancellation for states computed to ~1e-12."""
    b0 = family.b0
    if h is None:
        h = 1e-5 * max(1.0, abs(b0))
    stencil = (b0 - h, b0 + h, b0 - h / 2.0, b0 + h / 2.0)
    lo, hi, lo2, hi2 = (np.asarray(family.evaluate(b), dtype=complex) for b in stencil)
    return hermitize((4.0 * (hi2 - lo2) / h - (hi - lo) / (2.0 * h)) / 3.0)
