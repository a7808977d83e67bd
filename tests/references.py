"""Reference routes that only the tests use: the pure-state QFI, the
qubit closed form written state by state, the one-point finite-difference state family of a scenario, the closed-form
evolved state of the cooperative spontaneous-emission scenario with its
b_z derivative, the propagated state and derivative in the lab frame, and
the dense rate matrices of a frame assembled channel by channel."""

import math
from dataclasses import replace

import numpy as np

from coopmetro.lindblad import hermitize, propagate
from coopmetro.qfi import (
    METHOD_QUBIT,
    NEAR_PURE_DET_TOL,
    QfiResult,
    StateFamily,
    _check_derivative,
    _clamp,
    qfi_sld,
)
from coopmetro.scenarios import _KINDS, ScenarioSpec, _angle_delta, _propagated, build_model, probe_state

METHOD_PURE = "pure"


def qfi_pure(psi: np.ndarray, dpsi: np.ndarray) -> QfiResult:
    """QFI of a pure family: 4(<dpsi|dpsi> - |<dpsi|psi>|^2)."""
    psi = np.asarray(psi, dtype=complex)
    dpsi = np.asarray(dpsi, dtype=complex)
    value = 4.0 * (np.vdot(dpsi, dpsi).real - abs(np.vdot(dpsi, psi)) ** 2)
    return QfiResult(value=_clamp(value), method=METHOD_PURE)


def qfi_qubit_per_point(rho: np.ndarray, drho: np.ndarray) -> QfiResult:
    """The qubit closed form F = Tr[(drho)^2] + Tr[(rho drho)^2] / Det[rho]
    of one state, with each check made for that state alone: the shape,
    `_check_derivative` (Hermitian and traceless within 1e-8), its own
    determinant, the SLD fallback below Det 1e-10 and `_clamp`.  The
    reference for the stacked `qfi._qubit_outcomes`, which must give each
    state these bits, this tag or this error."""
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


def state_family(spec: ScenarioSpec, t: float) -> StateFamily:
    """The parameter-to-state pipeline b |-> rho(b, t) around spec.b_z.

    b enters the Hamiltonian, the jump operators and (for thermal/two-spin
    kinds) the rates, so each evaluation assembles the full model at its
    own field value.  Propagates one point at a time through
    `lindblad.propagate`: the reference route for finite differences of the
    state (`differentiate_state`), which `qfi_grid` does not take.
    """
    probe = probe_state(spec)

    def evaluate(b: float) -> np.ndarray:
        return propagate(build_model(replace(spec, b_z=b)), probe, t)

    return StateFamily(evaluate=evaluate, b0=spec.b_z)


def _eigenbasis_columns(theta: float) -> np.ndarray:
    """Columns (|e>, |g>) of the controlled Hamiltonian in the computational
    basis, with the phase choice under which the analytic evolved state below
    is written."""
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return np.array([[c, -s], [s, c]], dtype=complex)


def _analytic_state_eg(theta: float, delta: float, gamma: float, t: float) -> np.ndarray:
    """Evolved probe in the (|e>, |g>) basis: populations relax at gamma,
    the coherence precesses at the gap 2*Delta and decays at gamma/2."""
    excited = 0.5 * (1.0 + math.sin(theta)) * math.exp(-gamma * t)
    coherence = 0.5 * math.cos(theta) * np.exp(-0.5 * (gamma + 4.0j * delta) * t)
    return np.array(
        [[excited, coherence], [np.conj(coherence), 1.0 - excited]], dtype=complex
    )


def analytic_coop_spont_state(b_z: float, b_x: float, gamma: float, t: float) -> np.ndarray:
    """Closed-form evolved probe of the cooperative spontaneous-emission
    scenario, in the computational basis."""
    theta, delta = _angle_delta(b_z, b_x)
    u = _eigenbasis_columns(theta)
    return u @ _analytic_state_eg(theta, delta, gamma, t) @ u.conj().T


def analytic_coop_spont_state_deriv(b_z: float, b_x: float, gamma: float, t: float) -> np.ndarray:
    """d rho / d b_z of the closed-form evolved state, by the chain rule
    through theta(b_z) and Delta(b_z).  Independent oracle for the
    pipeline's state derivative."""
    theta, delta = _angle_delta(b_z, b_x)
    dtheta = -b_x / delta**2
    ddelta = b_z / delta
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    u = _eigenbasis_columns(theta)
    du = 0.5 * dtheta * np.array([[-s, -c], [c, -s]], dtype=complex)

    rho_eg = _analytic_state_eg(theta, delta, gamma, t)
    d_excited = 0.5 * math.cos(theta) * dtheta * math.exp(-gamma * t)
    d_coherence = (
        0.5
        * np.exp(-0.5 * (gamma + 4.0j * delta) * t)
        * (-math.sin(theta) * dtheta - 2.0j * t * ddelta * math.cos(theta))
    )
    drho_eg = np.array(
        [[d_excited, d_coherence], [np.conj(d_coherence), -d_excited]], dtype=complex
    )
    return (
        du @ rho_eg @ u.conj().T
        + u @ drho_eg @ u.conj().T
        + u @ rho_eg @ du.conj().T
    )


def lab_propagated(spec: ScenarioSpec, t: float) -> tuple[np.ndarray, np.ndarray]:
    """The probe's state and b_z derivative at time t, from
    `scenarios._propagated` in the Hamiltonian's eigenframe, rotated back to
    the computational basis with the V that the kind's builder states:
    (herm(V rho V†), herm(V d rho V†))."""
    rho, drho, _ = _propagated(spec, spec.b_z, spec.b_x, probe_state(spec), t)
    vectors = _KINDS[spec.kind].build(spec, spec.b_z, spec.b_x).vectors
    if vectors is None:
        return rho, drho
    return hermitize(vectors @ rho @ vectors.conj().T), hermitize(vectors @ drho @ vectors.conj().T)


def frame_rates(frame) -> tuple[np.ndarray, ...]:
    """(W, dW, lam, d lam) of a frame of `scenarios`, assembled channel by
    channel from its jumps and rates: the rate matrix W (..., d, d) of the
    populations, dp/dt = W p, and the rate lam_ab (..., d, d) of each
    coherence, d rho_ab/dt = lam_ab rho_ab (a != b), with their b_z
    derivatives.  A transition i -> j at rate r moves population from i to
    j and damps every coherence of level i at r/2; a diagonal jump diag(w)
    damps coherence ab at r (w_a - w_b)^2 / 2 and leaves the populations.
    The reference for the kinds' channel tables (`scenarios._frame_rates`)."""
    *shape, d = np.broadcast_shapes(frame.energies.shape, frame.d_energies.shape)
    w, dw = np.zeros((2, *shape, d, d))
    decay, d_decay = np.zeros((2, *shape, d, d))
    for k, jump in enumerate(frame.channels.jumps):
        rate, d_rate = frame.rates[..., 0, k], frame.rates[..., 1, k]
        if isinstance(jump, tuple):
            i, j = jump
            for m, r in ((w, rate), (dw, d_rate)):
                m[..., j, i] += r
                m[..., i, i] -= r
            damped = np.zeros(d)
            damped[i] = 0.5
            damping = damped[:, None] + damped[None, :]
        else:
            damping = 0.5 * (jump[:, None] - jump[None, :]) ** 2
        decay += np.asarray(rate)[..., None, None] * damping
        d_decay += np.asarray(d_rate)[..., None, None] * damping
    gaps = lambda e: e[..., :, None] - e[..., None, :]  # E_a - E_b at [..., a, b]
    return w, dw, -(decay + 1j * gaps(frame.energies)), -(d_decay + 1j * gaps(frame.d_energies))
