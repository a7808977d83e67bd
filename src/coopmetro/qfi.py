"""Quantum Fisher information of density matrices.

Two routes are provided and cross-checked against each other, and against
the pure-state overlap formula, in the test suite: the qubit determinant
closed form and the spectral SLD sum valid in any dimension.  Each scores
a stack of states at once, screening its derivatives as arrays and naming
each state that fails by its index, in one record (`_Outcomes`);
`qfi_qubit` and `qfi_sld` are their one-state cases.

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
from typing import Callable, NamedTuple

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


class _Outcomes(NamedTuple):
    """The results of a stack of n points, from the formulas to the CLI."""

    values: np.ndarray  # (n,) QFI values, NaN where a point fails
    errors: dict  # point index -> the exception that failed it
    sld: np.ndarray  # (n,) bool, True where the SLD sum scores the point

    def methods(self) -> list[str]:
        """Each point's method tag, as its QfiResult names its route."""
        return [METHOD_SLD if s else METHOD_QUBIT for s in self.sld.tolist()]


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


def _recorded(formula: Callable, *args):
    """formula(*args), or the ValueError it raises: recorded, not raised, so
    that one bad state of a stack does not lose the others."""
    try:
        return formula(*args)
    except ValueError as exc:
        return exc


def _sld_outcomes(rho: np.ndarray, drho: np.ndarray, spectrum: tuple | None = None) -> _Outcomes:
    """`qfi_sld` at each state of a stack (n, d, d) with its derivative, as
    a record whose states all take the SLD route, each error as `qfi_sld`
    raises it.  One Hermiticity screen of the derivative stack, one batched
    `np.linalg.eigh` of the hermitized states, one stacked product V† drho
    V, one masked sum and one clamp over the whole stack; `_check_derivative`
    and `_clamp` run alone only at a state that the screen or the clamp
    fails, to name its error.  Each state's sum runs over all d x d pairs,
    with an exact 0.0 at every masked pair, so a state gives the same bits
    alone as in any stack.  A caller that has the (values, vectors) of the
    Hermitian stack rho passes them as `spectrum`."""
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
    return _Outcomes(values, errors, np.ones(len(values), dtype=bool))


def _qubit_outcomes(rho: np.ndarray, drho: np.ndarray) -> _Outcomes:
    """`qfi_qubit` at each state of a qubit stack (n, 2, 2) with its
    derivative, as a record: each error as `qfi_qubit` raises it, and the
    SLD route where a state is near-pure (Det < 1e-10).  One screen of the
    derivative stack, Hermitian and traceless within 1e-8;
    `_check_derivative` runs alone only at a state that fails it (or is
    NaN), to name its error.  One batched `np.linalg.det` both picks the
    route and divides the closed form, so no state's determinant is taken
    twice, and one `_sld_outcomes` call scores the near-pure states.  The
    closed form runs state by state, as `qfi_qubit` always wrote it, and
    `_clamp`'s rules run over the stack, with `_clamp` alone only to name a
    failure."""
    rho, drho = np.asarray(rho, dtype=complex), np.asarray(drho, dtype=complex)
    if rho.shape[1:] != (2, 2):
        raise ValueError(f"qubit formula needs a 2x2 state, got shape {rho.shape[1:]}")
    # `_check_derivative`'s two checks, for the whole stack; NaN fails them too.
    passes = np.abs(drho - drho.conj().mT).max(axis=(-2, -1)) <= DERIV_HERM_TOL
    passes &= np.abs(np.trace(drho, axis1=-2, axis2=-1)) <= DERIV_HERM_TOL
    errors = {}
    for k in np.flatnonzero(~passes).tolist():
        error = _recorded(_check_derivative, drho[k], True)
        if isinstance(error, ValueError):  # a NaN deviation passes the check alone
            errors[k] = error
    det = np.linalg.det(rho).real
    near_pure = det < NEAR_PURE_DET_TOL
    sld, closed = [], []
    for k, pure in enumerate(near_pure.tolist()):
        if k not in errors:
            (sld if pure else closed).append(k)
    values = np.full(len(rho), math.nan)
    if sld:
        values[sld], sld_errors, _ = _sld_outcomes(rho[sld], drho[sld])
        errors.update((sld[j], error) for j, error in sld_errors.items())
    for k in closed:
        rd = rho[k] @ drho[k]
        values[k] = np.trace(drho[k] @ drho[k]).real + np.trace(rd @ rd).real / det[k]
    # `_clamp`'s rules over the closed-form values: NaN, inf and values
    # below the tolerance fail, and values just below 0 are 0.  (Its
    # `max(value, 0.0)` keeps a -0.0, which Tr[drho^2] >= +0.0 rules out.)
    qfi = values[closed]
    for j in np.flatnonzero(~((qfi >= QFI_NEGATIVE_TOL) & (qfi < math.inf))).tolist():
        errors[closed[j]] = _recorded(_clamp, qfi[j])
    values[closed] = np.maximum(qfi, 0.0)
    if errors:
        values[list(errors)] = math.nan
    return _Outcomes(values, errors, near_pure)


def qfi_qubit(rho: np.ndarray, drho: np.ndarray) -> QfiResult:
    """Qubit QFI via the determinant closed form: the one-state case of
    `_qubit_outcomes`.

    F = Tr[(drho)^2] + Tr[(rho drho)^2] / Det[rho] (Liu et al., J. Phys. A
    53, 023001 (2020)).  Near-pure states (Det < 1e-10) make the division
    explosive; those take the spectral SLD route and are tagged accordingly.
    """
    record = _qubit_outcomes(np.asarray(rho)[None], np.asarray(drho)[None])
    if record.errors:
        raise record.errors[0]
    return QfiResult(value=float(record.values[0]), method=record.methods()[0])


def qfi_sld(rho: np.ndarray, drho: np.ndarray) -> QfiResult:
    """Spectral SLD formula, any dimension: the one-state case of `_sld_outcomes`.

    Diagonalize rho = sum_k lam_k |k><k| and sum
    2 |<i|drho|j>|^2 / (lam_i + lam_j) over pairs with lam_i + lam_j > 1e-12.
    """
    values, errors, _ = _sld_outcomes(np.asarray(rho)[None], np.asarray(drho)[None])
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
