"""Physical setups: model builders, probe states and analytic references.

Seven scenario kinds are supported.  The "standard" kinds encode the field
b_z only in the Hamiltonian; the "cooperative" kinds add a transverse
control b_x so that the dissipative channels, built in the eigenbasis of
the controlled Hamiltonian, carry b_z dependence as well.

Angle convention: theta = atan2(b_x, b_z), so b_z = Delta cos(theta) and
b_x = Delta sin(theta) with Delta = sqrt(b_z^2 + b_x^2).  Ground state |g>
is the eigenvector of the smaller eigenvalue.
"""

import math
from dataclasses import dataclass, fields, replace
from functools import lru_cache

import numpy as np

from .lindblad import LindbladChannel, LindbladModel, propagate
from .linalg import eigh, identity, outer, pauli, tensor
from .qfi import (
    QfiResult,
    StateFamily,
    differentiate_pure_state,
    differentiate_state,
    fd_default_step,
    qfi_pure,
    qfi_qubit,
    qfi_sld,
)

__all__ = [
    "KINDS",
    "COOP_KINDS",
    "InvalidScenarioError",
    "DegeneracyError",
    "OutOfRegimeError",
    "ScenarioSpec",
    "TradeoffPoint",
    "spin_count",
    "hilbert_dim",
    "controlled_hamiltonian",
    "two_spin_hamiltonian",
    "build_model",
    "probe_state",
    "state_family",
    "qfi_at",
    "analytic_coop_spont_state",
    "analytic_coop_spont_state_deriv",
    "analytic_coop_spont_qfi",
    "taylor_coefficients",
    "standard_limit_formulas",
    "heisenberg_limit",
    "effective_two_spin_ground_qfi",
    "exact_two_spin_ground_qfi",
    "tradeoff_width",
]

KINDS = (
    "std-spont",
    "coop-spont",
    "std-deph",
    "coop-deph",
    "coop-thermal",
    "two-spin-coop",
    "unitary-baseline",
)
COOP_KINDS = ("coop-spont", "coop-deph", "coop-thermal", "two-spin-coop")

# Decay pairs (i, j) of the two-spin cool reservoir, 1-based with
# E_1 < E_2 < E_3 < E_4: the jump |E_j><E_i| de-excites i -> j.
TWO_SPIN_DECAY_PAIRS = ((4, 3), (4, 2), (3, 2), (3, 1))

GROUND_DEGENERACY_TOL = 1e-9


class InvalidScenarioError(ValueError):
    """Scenario parameters violate the invariants of the requested kind."""


class DegeneracyError(RuntimeError):
    """Eigenlevel degeneracy makes the requested derivative undefined."""


class OutOfRegimeError(ValueError):
    """Requested quantity only exists for F_max > 16 T^2."""


@dataclass(frozen=True)
class ScenarioSpec:
    """One physical setup.  Only the fields relevant to `kind` are consulted.

    Units: hbar = 1; fields and rates share inverse-time units, t_e is the
    bath temperature with k_B = 1, dipole is |d| of the thermal/two-spin
    decay rates.
    """

    kind: str
    b_z: float = 0.0
    b_x: float = 0.0
    gamma: float = 0.0
    eta: float = 0.0
    dipole: float = 0.0
    t_e: float = 0.0
    n_spins: int = 1

    def __post_init__(self):
        if self.kind not in KINDS:
            raise InvalidScenarioError(f"unknown scenario kind {self.kind!r}")
        for name in _FLOAT_FIELDS:
            if not math.isfinite(getattr(self, name)):
                raise InvalidScenarioError(f"{name} must be finite, got {getattr(self, name)}")
        if self.kind in COOP_KINDS and self.b_z == 0.0:
            raise InvalidScenarioError(
                f"b_z must be nonzero for kind {self.kind!r} (the eigenbasis angle is undefined at b_z = 0)"
            )
        if self.kind == "two-spin-coop" and not self.b_x > 0.0:
            raise InvalidScenarioError(
                "b_x must be > 0 for kind 'two-spin-coop' (levels 2 and 3 are degenerate at b_x = 0)"
            )
        if self.kind in ("coop-spont", "coop-deph", "coop-thermal") and self.b_x < 0.0:
            raise InvalidScenarioError(f"b_x must be >= 0, got {self.b_x}")
        if self.kind in ("std-spont", "coop-spont") and self.gamma < 0.0:
            raise InvalidScenarioError(f"gamma must be >= 0, got {self.gamma}")
        if self.kind in ("std-deph", "coop-deph") and self.eta < 0.0:
            raise InvalidScenarioError(f"eta must be >= 0, got {self.eta}")
        if self.kind in ("coop-thermal", "two-spin-coop"):
            if self.dipole < 0.0:
                raise InvalidScenarioError(f"dipole must be >= 0, got {self.dipole}")
            if self.t_e < 0.0:
                raise InvalidScenarioError(f"t_e must be >= 0, got {self.t_e}")
        if self.kind == "unitary-baseline" and self.n_spins not in (1, 2):
            raise InvalidScenarioError(f"n_spins must be 1 or 2, got {self.n_spins}")


_FLOAT_FIELDS = tuple(f.name for f in fields(ScenarioSpec) if f.type is float)


def spin_count(spec: ScenarioSpec) -> int:
    if spec.kind == "two-spin-coop":
        return 2
    if spec.kind == "unitary-baseline":
        return spec.n_spins
    return 1


def hilbert_dim(spec: ScenarioSpec) -> int:
    return 2 ** spin_count(spec)


def controlled_hamiltonian(b_z: float, b_x: float) -> np.ndarray:
    """Single-spin H = b_z sigma_z + b_x sigma_x."""
    return b_z * pauli("z") + b_x * pauli("x")


def _two_spin_operators() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    sz, sx, i2 = pauli("z"), pauli("x"), identity(2)
    sz1, sz2 = tensor(sz, i2), tensor(i2, sz)
    sx1, sx2 = tensor(sx, i2), tensor(i2, sx)
    operators = (sz1 @ sz2, sz1 + sz2, sx1 + sx2)
    for op in operators:
        op.setflags(write=False)
    return operators


# sigma_z^1 sigma_z^2, sigma_z^1 + sigma_z^2 and sigma_x^1 + sigma_x^2, built once.
SZZ, SZ_SUM, SX_SUM = _two_spin_operators()


def two_spin_hamiltonian(b_z: float, b_x: float) -> np.ndarray:
    """H = sigma_z^1 sigma_z^2 + b_z (sigma_z^1 + sigma_z^2) + b_x (sigma_x^1 + sigma_x^2),
    coupling strength 1."""
    return SZZ + b_z * SZ_SUM + b_x * SX_SUM


def _field_basis(b_z: float, b_x: float) -> tuple[np.ndarray, np.ndarray]:
    """(|g>, |e>) of the controlled single-spin Hamiltonian, ascending order."""
    system = eigh(controlled_hamiltonian(b_z, b_x))
    return system.vector(0), system.vector(1)


_LOWER = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)  # |0><1|, decays |1> -> |0>


@lru_cache(maxsize=512)
def build_model(spec: ScenarioSpec) -> LindbladModel:
    """Assemble the Lindblad model of the given scenario.

    Memoized on the (frozen) spec so time sweeps reuse one model instance
    and its cached Liouvillian; treat the returned model as read-only.
    """
    kind = spec.kind
    if kind == "std-spont":
        return LindbladModel(
            hamiltonian=spec.b_z * pauli("z"),
            channels=(LindbladChannel(spec.gamma, _LOWER),),
        )
    if kind == "std-deph":
        # eta/2 (sigma_z rho sigma_z - rho) is the dissipator of jump sigma_z at rate eta/2.
        return LindbladModel(
            hamiltonian=spec.b_z * pauli("z"),
            channels=(LindbladChannel(spec.eta / 2.0, pauli("z")),),
        )
    if kind == "coop-spont":
        g, e = _field_basis(spec.b_z, spec.b_x)
        return LindbladModel(
            hamiltonian=controlled_hamiltonian(spec.b_z, spec.b_x),
            channels=(LindbladChannel(spec.gamma, outer(g, e)),),
        )
    if kind == "coop-deph":
        delta = math.hypot(spec.b_z, spec.b_x)
        sigma_n = (spec.b_z * pauli("z") + spec.b_x * pauli("x")) / delta
        return LindbladModel(
            hamiltonian=controlled_hamiltonian(spec.b_z, spec.b_x),
            channels=(LindbladChannel(spec.eta / 2.0, sigma_n),),
        )
    if kind == "coop-thermal":
        g, e = _field_basis(spec.b_z, spec.b_x)
        omega = 2.0 * math.hypot(spec.b_z, spec.b_x)
        gamma0 = 4.0 * omega**3 * spec.dipole**2 / 3.0
        # Bose occupation 1/(e^x - 1), written to underflow to 0 instead of
        # overflowing for x = omega/t_e beyond ~709; t_e = 0 is x = inf.
        x = math.inf if spec.t_e == 0.0 else omega / spec.t_e
        occupation = math.exp(-x) / -math.expm1(-x)
        channels = [LindbladChannel(gamma0 * (occupation + 1.0), outer(g, e))]
        if occupation > 0.0:
            channels.append(LindbladChannel(gamma0 * occupation, outer(e, g)))
        return LindbladModel(
            hamiltonian=controlled_hamiltonian(spec.b_z, spec.b_x),
            channels=tuple(channels),
        )
    if kind == "two-spin-coop":
        h = two_spin_hamiltonian(spec.b_z, spec.b_x)
        system = eigh(h)
        energies = system.values
        channels = []
        for i, j in TWO_SPIN_DECAY_PAIRS:
            omega = energies[i - 1] - energies[j - 1]
            rate = 4.0 * omega**3 * spec.dipole**2 / 3.0
            channels.append(LindbladChannel(rate, outer(system.vector(j - 1), system.vector(i - 1))))
        return LindbladModel(hamiltonian=h, channels=tuple(channels))
    if kind == "unitary-baseline":
        if spec.n_spins == 1:
            h = spec.b_z * pauli("z")
        else:
            h = two_spin_hamiltonian(spec.b_z, 0.0)
        return LindbladModel(hamiltonian=h, channels=())
    raise InvalidScenarioError(f"unknown scenario kind {kind!r}")


def probe_state(spec: ScenarioSpec) -> np.ndarray:
    """(|0>+|1>)/sqrt(2) for one spin, (|00>+|11>)/sqrt(2) for two."""
    if spin_count(spec) == 1:
        return np.full((2, 2), 0.5, dtype=complex)
    rho = np.zeros((4, 4), dtype=complex)
    for i in (0, 3):
        for j in (0, 3):
            rho[i, j] = 0.5
    return rho


def state_family(spec: ScenarioSpec, t: float) -> StateFamily:
    """The parameter-to-state pipeline b |-> rho(b, t) around spec.b_z.

    b enters the Hamiltonian, the jump operators and (for thermal/two-spin
    kinds) the rates, so each evaluation assembles the full model at its
    own field value (memoized across repeated values, e.g. time sweeps).
    """
    probe = probe_state(spec)

    def evaluate(b: float) -> np.ndarray:
        return propagate(build_model(replace(spec, b_z=b)), probe, t)

    return StateFamily(evaluate=evaluate, b0=spec.b_z)


def qfi_at(spec: ScenarioSpec, t: float, h: float | None = None) -> QfiResult:
    """QFI with respect to b_z of the propagated probe at time t."""
    if not math.isfinite(t):
        raise ValueError(f"time must be finite, got {t}")
    if t < 0:
        raise ValueError(f"time must be >= 0, got {t}")
    family = state_family(spec, t)
    step = h if h is not None else fd_default_step(spec.b_z)
    drho = differentiate_state(family, step)
    rho = family.evaluate(spec.b_z)
    if rho.shape[0] == 2:
        result = qfi_qubit(rho, drho)
    else:
        result = qfi_sld(rho, drho)
    return QfiResult(value=result.value, method=result.method, fd_step=step)


# ---------------------------------------------------------------------------
# analytic references for the cooperative spontaneous-emission scenario
# ---------------------------------------------------------------------------


def _angle_delta(b_z: float, b_x: float) -> tuple[float, float]:
    if b_z == 0.0 and b_x == 0.0:
        raise ValueError("b_z and b_x cannot both be zero")
    return math.atan2(b_x, b_z), math.hypot(b_z, b_x)


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
    finite-difference pipeline derivative."""
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


def analytic_coop_spont_qfi(b_z: float, b_x: float, gamma: float, t: float) -> float:
    """Closed-form QFI of the evolved probe (cooperative spontaneous emission)."""
    theta, delta = _angle_delta(b_z, b_x)
    s = math.sin(theta)
    c = math.cos(theta)
    s3 = math.sin(3.0 * theta)
    c2 = math.cos(2.0 * theta)
    c4 = math.cos(4.0 * theta)
    dt2 = delta**2 * t**2
    eg = math.exp(gamma * t)
    eg_half = math.exp(-0.5 * gamma * t)
    bracket = (
        -24.0 * s
        + 8.0 * s3
        + 8.0 * c2 * (4.0 * dt2 + 1.0)
        + c4 * (8.0 * dt2 - 1.0)
        + 24.0 * dt2
        + 64.0 * delta * t * s * c**2 * eg_half * math.sin(2.0 * delta * t) * (s - eg + 1.0)
        + 32.0 * s**2 * eg_half * math.cos(2.0 * delta * t) * (s * (eg - 1.0) - 1.0)
        - 16.0 * (s + 2.0) * s**3 * math.sinh(gamma * t)
        - 8.0 * s**2 * (-4.0 * s + c2 - 5.0) * math.cosh(gamma * t)
        + 2.0 * math.sin(2.0 * theta) ** 2 * math.cos(4.0 * delta * t)
        - 7.0
    )
    return math.exp(-gamma * t) * bracket / (16.0 * delta**2)


def taylor_coefficients(b_z: float, b_x: float, gamma: float) -> tuple[float, float]:
    """(dF/dt, d2F/dt2) of the cooperative spontaneous-emission QFI at t = 0."""
    theta, delta = _angle_delta(b_z, b_x)
    s = math.sin(theta)
    c = math.cos(theta)
    fdot0 = gamma * s**2 * c**2 / delta**2
    fddot0 = (gamma**2 * s**2 / (2.0 * delta**2)) * (6.0 * s**2 + 4.0 * s - 1.0) + 8.0
    return fdot0, fddot0


def standard_limit_formulas(kind: str, rate: float, t: float) -> float:
    """Best QFI of the standard (uncontrolled) noisy schemes at time t:
    4 e^{-gamma t} t^2 for spontaneous emission, 4 e^{-2 eta t} t^2 for dephasing."""
    if t < 0:
        raise ValueError(f"time must be >= 0, got {t}")
    if kind == "spont":
        return 4.0 * math.exp(-rate * t) * t**2
    if kind == "deph":
        return 4.0 * math.exp(-2.0 * rate * t) * t**2
    raise ValueError(f"unknown standard-limit kind {kind!r}; expected 'spont' or 'deph'")


def heisenberg_limit(n_spins: int, t: float) -> float:
    """Best QFI under controlled unitary dynamics: 4 n^2 t^2."""
    if n_spins < 1:
        raise ValueError(f"n_spins must be >= 1, got {n_spins}")
    return 4.0 * n_spins**2 * t**2


def effective_two_spin_ground_qfi(b_z: float, b_x: float) -> float:
    """Ground-state QFI of the two-level effective model of the two-spin
    Hamiltonian: 2 b_x^2 / (2 b_x^2 + (b_z - 1)^2)^2, peaking at the
    critical point b_z = 1."""
    denom = 2.0 * b_x**2 + (b_z - 1.0) ** 2
    if denom == 0.0:
        raise ValueError("undefined at the critical point with b_x = 0")
    return 2.0 * b_x**2 / denom**2


def exact_two_spin_ground_qfi(b_z: float, b_x: float, h: float | None = None) -> float:
    """Ground-state QFI of the full two-spin Hamiltonian.

    Phase-aligned finite differences of the ground eigenvector over b_z,
    then the pure-state formula.  Raises DegeneracyError if the ground level
    is degenerate within 1e-9 anywhere on the difference stencil.
    """
    if not b_x > 0.0:
        raise InvalidScenarioError(f"b_x must be > 0, got {b_x}")

    def ground(b: float) -> np.ndarray:
        system = eigh(two_spin_hamiltonian(b, b_x))
        gap = system.values[1] - system.values[0]
        if gap < GROUND_DEGENERACY_TOL:
            raise DegeneracyError(
                f"ground level degenerate at b_z={b}: gap {gap:.3e} < 1e-9"
            )
        return system.vector(0)

    psi0, dpsi = differentiate_pure_state(ground, b_z, h)
    return qfi_pure(psi0, dpsi).value


def tradeoff_width(f_max: float, t: float) -> float:
    """Width of the b_z region whose ground-state QFI exceeds 16 t^2,
    from the trade-off relation W^2/4 = (1/sqrt(F))(1/(4t) - 1/sqrt(F))."""
    if t <= 0:
        raise ValueError(f"probe time must be > 0, got {t}")
    if not f_max > 16.0 * t**2:
        raise OutOfRegimeError(
            f"trade-off relation requires F_max > 16 t^2 = {16.0 * t ** 2:.6g}, got {f_max:.6g}"
        )
    inv_root = 1.0 / math.sqrt(f_max)
    return 2.0 * math.sqrt(inv_root * (1.0 / (4.0 * t) - inv_root))


@dataclass(frozen=True)
class TradeoffPoint:
    """Peak ground-state QFI, surpassing-region width and probe time."""

    f_max: float
    width: float
    t: float

    @classmethod
    def from_f_max(cls, f_max: float, t: float) -> "TradeoffPoint":
        return cls(f_max=f_max, width=tradeoff_width(f_max, t), t=t)

    def identity_residual(self) -> float:
        inv_root = 1.0 / math.sqrt(self.f_max)
        return abs(self.width**2 / 4.0 - inv_root * (1.0 / (4.0 * self.t) - inv_root))
