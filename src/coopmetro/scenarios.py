"""Physical setups: model builders, probe states and analytic references.

Seven scenario kinds are supported.  The "standard" kinds encode the field
b_z only in the Hamiltonian; the "cooperative" kinds add a transverse
control b_x so that the dissipative channels, built in the eigenbasis of
the controlled Hamiltonian, carry b_z dependence as well.

Angle convention: theta = atan2(b_x, b_z), so b_z = Delta cos(theta) and
b_x = Delta sin(theta) with Delta = sqrt(b_z^2 + b_x^2).  Ground state |g>
is the eigenvector of the smaller eigenvalue.  Basis convention:
sigma_z|0> = +|0> and sigma_z|1> = -|1> (`SIGMA_Z`), so the spontaneous
emission jump (sigma_x + i sigma_y)/2 is |0><1|.  The spin operators are
real, read-only numpy constants, and the eigenframes come from
`np.linalg.eigh` of the real symmetric Hamiltonians: real frames.

Each kind's model builder is written once, over stacks of field values:
given b_z and b_x as floats it states one model, given them as arrays the
stack of models over their broadcast shape.  It states the model in the
eigenframe of its Hamiltonian, with the b_z derivatives of the levels and
of the frame, and its channels' rates and their b_z derivatives.  Each
kind states its channels once, at import, as a table (`_Channels`): each
is a transition between eigenstates or a diagonal jump.
`build_model` derives the Lindblad model from that statement, and the QFI
pipeline propagates the probe and its exact b_z derivative in that frame
(see `_propagated`; no finite differences in b_z).  The rates and their
derivatives are numpy expressions over the broadcast fields too, and one
model is the one-point case of the same routines.  numpy's ufunc loops
give an element the same bits whatever the array's length (its scalar
power does not: a cube is two products), so a stack equals its models
built one at a time bit for bit.
"""

import math
from dataclasses import dataclass, fields, replace
from typing import Callable, NamedTuple

import numpy as np
from numpy.typing import ArrayLike

from .lindblad import (
    LindbladChannel,
    LindbladModel,
    NumericalFailureError,
    _invariant_errors,
    hermitize,
    validate_density_matrix,
)
from .qfi import (
    DERIV_HERM_TOL,
    METHOD_SLD,
    NEAR_PURE_DET_TOL,
    QfiResult,
    _check_derivative,
    _recorded,
    _sld_outcomes,
    qfi_qubit,
)

__all__ = [
    "KINDS",
    "InvalidScenarioError",
    "DegeneracyError",
    "OutOfRegimeError",
    "ScenarioSpec",
    "spin_count",
    "controlled_hamiltonian",
    "two_spin_hamiltonian",
    "build_model",
    "probe_state",
    "qfi_grid",
    "qfi_at",
    "analytic_coop_spont_qfi",
    "taylor_coefficients",
    "standard_limit_formulas",
    "heisenberg_limit",
    "effective_two_spin_ground_qfi",
    "exact_two_spin_ground_qfi",
    "tradeoff_width",
]

# Decay pairs (i, j) of the two-spin cool reservoir, 1-based with
# E_1 < E_2 < E_3 < E_4: the jump |E_j><E_i| de-excites i -> j.
TWO_SPIN_DECAY_PAIRS = ((4, 3), (4, 2), (3, 2), (3, 1))

# Two levels are close within this fraction of the spectrum's largest
# |level|: see `_eigen_derivative`.
GROUND_DEGENERACY_TOL = 1e-6
# Below this fraction of ||dH||, <j|dH|k> is rounding; below this ratio to
# its partner's, dH leaves a vector of a close pair alone (`_check_close_pairs`).
_COUPLING_TOL = 1e-12
_MIXING_TOL = 1e-4

# Fields that no kind may read with a negative value.
_NONNEGATIVE = ("b_x", "gamma", "eta", "dipole", "t_e")


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
        entry = _KINDS.get(self.kind)
        if entry is None:
            raise InvalidScenarioError(f"unknown scenario kind {self.kind!r}")
        if not math.isfinite(self.b_z):
            raise InvalidScenarioError(f"b_z must be finite, got {self.b_z}")
        if entry.cooperative and self.b_z == 0.0:
            raise InvalidScenarioError(
                f"b_z must be nonzero for kind {self.kind!r} (the eigenbasis angle is undefined at b_z = 0)"
            )
        for name in _FLOAT_FIELDS:
            if not math.isfinite(getattr(self, name)):
                raise InvalidScenarioError(f"{name} must be finite, got {getattr(self, name)}")
        if entry.cooperative and entry.spins == 2 and not self.b_x > 0.0:
            raise InvalidScenarioError(
                f"b_x must be > 0 for kind {self.kind!r} (levels 2 and 3 are degenerate at b_x = 0)"
            )
        for name in entry.reads:
            if name in _NONNEGATIVE and getattr(self, name) < 0.0:
                raise InvalidScenarioError(f"{name} must be >= 0, got {getattr(self, name)}")
        if entry.spins is None and self.n_spins not in (1, 2):
            raise InvalidScenarioError(f"n_spins must be 1 or 2, got {self.n_spins}")

    @property
    def parameters(self) -> tuple[str, ...]:
        """The fields that this kind reads, besides `kind`."""
        return _KINDS[self.kind].reads


# The float fields besides b_z, whose rules `__post_init__` states first.
_FLOAT_FIELDS = tuple(f.name for f in fields(ScenarioSpec) if f.type is float and f.name != "b_z")


def spin_count(spec: ScenarioSpec) -> int:
    spins = _KINDS[spec.kind].spins
    return spec.n_spins if spins is None else spins


def _scale(c: ArrayLike, m: np.ndarray) -> np.ndarray:
    """c * m, or the stack of c_i * m over the entries of an array c."""
    return c[..., None, None] * m if isinstance(c, np.ndarray) else c * m


def _read_only(*operators: np.ndarray) -> tuple[np.ndarray, ...]:
    for op in operators:
        op.setflags(write=False)
    return operators


# sigma_z (sigma_z|0> = +|0>) and sigma_x.
SIGMA_Z, SIGMA_X = _read_only(np.array([[1.0, 0.0], [0.0, -1.0]]), np.array([[0.0, 1.0], [1.0, 0.0]]))


def controlled_hamiltonian(b_z: ArrayLike, b_x: ArrayLike) -> np.ndarray:
    """Single-spin H = b_z sigma_z + b_x sigma_x, or its stack over arrays of fields."""
    return _scale(b_z, SIGMA_Z) + _scale(b_x, SIGMA_X)


def _two_spin_operators() -> tuple[np.ndarray, ...]:
    i2 = np.eye(2)
    sz1, sz2 = np.kron(SIGMA_Z, i2), np.kron(i2, SIGMA_Z)
    sx1, sx2 = np.kron(SIGMA_X, i2), np.kron(i2, SIGMA_X)
    return _read_only(sz1 @ sz2, sz1 + sz2, sx1 + sx2)


# sigma_z^1 sigma_z^2, sigma_z^1 + sigma_z^2 and sigma_x^1 + sigma_x^2, built once.
SZZ, SZ_SUM, SX_SUM = _two_spin_operators()


def two_spin_hamiltonian(b_z: ArrayLike, b_x: ArrayLike) -> np.ndarray:
    """H = sigma_z^1 sigma_z^2 + b_z (sigma_z^1 + sigma_z^2) + b_x (sigma_x^1 + sigma_x^2),
    coupling strength 1; or its stack over arrays of fields."""
    return SZZ + _scale(b_z, SZ_SUM) + _scale(b_x, SX_SUM)


def _eigen_derivative(h: np.ndarray, dh: np.ndarray) -> tuple:
    """(values, vectors, d values, V† dV, errors) of a Hamiltonian (or a
    stack) whose derivative is dh, from one batched `np.linalg.eigh`.  Every
    Hamiltonian here is real symmetric, so V, V† dH V and V† dV are real,
    with real products; the same code takes a complex V.

    Hellmann-Feynman gives d lam_k = <k|dH|k>, first-order perturbation
    theory d v_k = sum_{j != k} v_j <j|dH|k> / (lam_k - lam_j), so
    (V† dV)_jk = <j|dH|k> / (lam_k - lam_j) off the diagonal, an
    anti-Hermitian matrix.  Its zero diagonal leaves out a phase of each
    v_k, which a jump between eigenstates does not see; a phase (or, for a
    real V, a sign) that LAPACK gives v_k multiplies row and column k of
    V† dV alike, so V (V† dV) V† and every quantity built from it are
    gauge-free.

    eigh's vectors of two levels a gap g apart are good only to about
    eps max|lam| / g (Davis & Kahan, SIAM J. Numer. Anal. 7, 1 (1970)), and
    V† dV divides their coupling by g again, so two levels are close where
    their gap is at most 1e-6 max|lam|, relative to the spectrum (a tiny
    field is not a degeneracy).  A close pair adds nothing to V† dV if it
    passes `_check_close_pairs`; otherwise its model fails with
    DegeneracyError.  A V† dV that overflows (a subnormal gap, levels near
    the float range) is set to 0 and fails its model with
    NumericalFailureError: `errors` holds each failure by its stack index.
    """
    values, vectors = np.linalg.eigh(h)
    coupling = vectors.conj().mT @ dh @ vectors  # <j|dH|k> at [..., j, k]
    slopes = np.diagonal(coupling, axis1=-2, axis2=-1).real
    # A complex coupling's real and imaginary parts are divided by the real
    # gaps one at a time: numpy's complex division forms 1 / gap, which
    # overflows at a subnormal gap where a quotient may not.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        gaps = values[..., None, :] - values[..., :, None]  # lam_k - lam_j at [..., j, k]
        rotation = coupling.real / gaps
        if np.iscomplexobj(coupling):
            rotation = rotation + 1j * (coupling.imag / gaps)
    level = np.abs(values).max(axis=-1)[..., None, None]
    close = np.abs(gaps) <= GROUND_DEGENERACY_TOL * level
    pairs = close & ~np.eye(h.shape[-1], dtype=bool)
    errors = _check_close_pairs(coupling, slopes, gaps, level, pairs, dh) if pairs.any() else {}
    rotation[close] = 0.0
    if not np.isfinite(rotation).all():
        for index in map(tuple, np.argwhere(~np.isfinite(rotation).all(axis=(-2, -1))).tolist()):
            errors.setdefault(index, NumericalFailureError("the b_z derivative of the Liouvillian has non-finite entries"))
            rotation[index] = 0.0
    return values, vectors, slopes, rotation, errors


def _check_close_pairs(coupling, slopes, gaps, level, pairs, dh) -> dict:
    """The DegeneracyError, by stack index, of each model with a close pair
    (`_eigen_derivative`'s mask, off the diagonal) whose frame eigh cannot
    resolve, naming its closest such pair.  A pair passes if two of these hold:

    - its gap g resolves it: eigh mixes the pair's vectors by up to
      d eps max|lam| / g, at most 1/2 here;
    - dH neither couples nor splits it: |<j|dH|k>| and |d lam_j - d lam_k|
      are at most 1e-12 ||dH||;
    - dH leaves one of its vectors alone: its residual r_k = ||dH v_k -
      (v_k† dH v_k) v_k|| is at most 1e-4 of its partner's r_j.  The ratio
      is the mixing that eigh made of a vector that symmetry decouples
      exactly (the two-spin singlet); the QFI moves by about its square.

    An unresolved pair's vectors, and the channels that tell its levels
    apart, are arbitrary unless the other two vouch for them.  Residuals
    that are only both small (the upper two-spin levels at a tiny field)
    leave no vector alone.
    """
    d = coupling.shape[-1]
    tol = _COUPLING_TOL * np.linalg.norm(dh, 2)
    off = np.where(np.eye(d, dtype=bool), 0.0, coupling)
    residual = np.linalg.norm(off, axis=-2)  # r_k of a unitary V
    r_k, r_j = residual[..., None, :], residual[..., :, None]
    inert = (np.abs(off) <= tol) & (np.abs(slopes[..., :, None] - slopes[..., None, :]) <= tol)
    alone = np.minimum(r_j, r_k) <= _MIXING_TOL * np.maximum(r_j, r_k)
    resolved = 2.0 * d * np.finfo(float).eps * level <= np.abs(gaps)
    unresolved = pairs & ~((resolved & inert) | (resolved & alone) | (inert & alone))
    errors = {}
    for index in map(tuple, np.argwhere(unresolved.any(axis=(-2, -1))).tolist()):
        ratio = np.where(unresolved[index], np.abs(gaps[index]) / level[index], np.inf)
        worst = index + np.unravel_index(np.argmin(ratio), (d, d))
        errors[index] = DegeneracyError(
            f"coupled levels degenerate: gap {abs(gaps[worst]):.3e} <= 1e-6 max|E| = "
            f"{GROUND_DEGENERACY_TOL * level[index].item():.3e}, so the b_z derivative is undefined"
        )
    return errors


# The transitions whose rates the closed-form populations read, in their
# order: (r, u) of `_two_level` and (a, b, c, e) of `_four_level`.
_SLOTS = {2: ((1, 0), (0, 1)), 4: tuple((i - 1, j - 1) for i, j in TWO_SPIN_DECAY_PAIRS)}


class _Channels(NamedTuple):
    """A kind's channels in its eigenframe, stated once, at import: each
    jump, the transition |j><i| (i decays to j) for jump = (i, j) or
    diag(w) for a weight vector w, and the table (C, d + d^2) that takes
    the C rates to the `_SLOTS` rates and to each coherence's damping, r/2
    for each level i of a transition from i and r (w_a - w_b)^2 / 2 for
    coherence ab of diag(w)."""

    jumps: tuple
    table: np.ndarray


def _channels(d: int, *jumps) -> _Channels:
    """The table of the channels of a d-level kind.  A transition that no
    closed form reads raises ValueError at import."""
    table = np.zeros((len(jumps), d + d * d))
    for row, jump in zip(table, jumps):
        if isinstance(jump, tuple):
            row[_SLOTS[d].index(jump)] = 1.0
            damped = np.zeros(d)
            damped[jump[0]] = 0.5
            damping = damped[:, None] + damped[None, :]
        else:
            damping = 0.5 * (jump[:, None] - jump[None, :]) ** 2
        row[d:] = damping.ravel()
    return _Channels(jumps, *_read_only(table))


class _Frame(NamedTuple):
    """The model of one kind at fields b_z and b_x, or the stack of models
    over their broadcast shape, stated in the eigenframe of its Hamiltonian
    H = V diag(E) V†, with the b_z derivatives of E and V, the kind's
    channel table and the channels' rates.  A builder costs one `eigh`
    where H is not diagonal and a few array operations on its rates: about
    45 µs for one two-spin model and 240 µs for 101 (timeit, 2-vCPU VM)."""

    hamiltonian: np.ndarray  # H (..., d, d)
    energies: np.ndarray  # E (..., d)
    vectors: np.ndarray | None  # V (..., d, d), unitary; None where H is diagonal (V = I)
    d_energies: np.ndarray  # dE (..., d)
    rotation: np.ndarray | None  # A = V† dV (..., d, d), anti-Hermitian; None where V = I
    errors: dict  # stack index -> error of each failed model, whose non-finite A or rates are 0
    channels: _Channels
    rates: np.ndarray  # (..., 2, C): each channel's rate, then its b_z derivative; finite


def _diagonal_frame(h: np.ndarray, dh: np.ndarray, channels: _Channels, rates: np.ndarray) -> _Frame:
    """The frame of a diagonal Hamiltonian h with diagonal derivative dh:
    the identity, with no eigensolver."""
    diagonal = lambda m: np.diagonal(m, axis1=-2, axis2=-1).real
    return _Frame(h, diagonal(h), None, diagonal(dh), None, {}, channels, rates)


def _checked(names: tuple[str, ...], rates: np.ndarray, errors: dict) -> np.ndarray:
    """Rates (..., 2, C) that the levels set, checked finite at once.  A
    model whose rates are not gets rates 0 and, unless `errors` (the
    levels') has one, an error naming its first non-finite rate or b_z
    derivative in channel order."""
    if not np.isfinite(rates).all():
        labels = [label for name in names for label in (name, f"b_z derivative of the {name}")]
        ordered = rates.swapaxes(-1, -2).reshape(*rates.shape[:-2], -1)  # each rate, then its derivative
        for index in map(tuple, np.argwhere(~np.isfinite(ordered).all(axis=-1)).tolist()):
            first = np.argmin(np.isfinite(ordered[index]))
            errors.setdefault(index, NumericalFailureError(f"the {labels[first]} is not finite: {ordered[index][first]}"))
            rates[index] = 0.0
    return rates


_SIGNS = np.array([-1.0, 1.0])  # the ascending eigenvalues of a Pauli matrix

# Each kind's channels: |0><1| (std-spont) and |g><e| are the transition
# 1 -> 0; eta/2 (sigma rho sigma - rho) is the jump sigma at rate eta/2,
# sigma_z = diag(1, -1) for std-deph, H / Delta = diag(-1, 1) for coop-deph.
_SPONT, _STD_DEPH, _COOP_DEPH = _channels(2, (1, 0)), _channels(2, -_SIGNS), _channels(2, _SIGNS)
_THERMAL = _channels(2, (1, 0), (0, 1))  # decay |g><e|, absorption |e><g|
_TWO_SPIN = _channels(4, *_SLOTS[4])
_TWO_SPIN_NAMES = tuple(f"decay rate of levels {i} -> {j}" for i, j in TWO_SPIN_DECAY_PAIRS)
_UNITARY = {d: _channels(d) for d in (2, 4)}
_TWO_SPIN_LEVELS = _read_only(*np.array(_SLOTS[4]).T)  # upper and lower level of each decay pair

# The model builders: the frame of `spec` at fields b_z and b_x, or the
# stack of them over the broadcast shape of arrays b_z and b_x, with its
# rates as one array.  `build_model` and `_propagated` both read it.


def _std_spont(spec: ScenarioSpec, b_z: ArrayLike, b_x: ArrayLike) -> _Frame:
    return _diagonal_frame(_scale(b_z, SIGMA_Z), SIGMA_Z, _SPONT, np.array([[spec.gamma], [0.0]]))


def _std_deph(spec: ScenarioSpec, b_z: ArrayLike, b_x: ArrayLike) -> _Frame:
    return _diagonal_frame(_scale(b_z, SIGMA_Z), SIGMA_Z, _STD_DEPH, np.array([[spec.eta / 2.0], [0.0]]))


def _coop_spont(spec: ScenarioSpec, b_z: ArrayLike, b_x: ArrayLike) -> _Frame:
    h = controlled_hamiltonian(b_z, b_x)
    return _Frame(h, *_eigen_derivative(h, SIGMA_Z), _SPONT, np.array([[spec.gamma], [0.0]]))


def _coop_deph(spec: ScenarioSpec, b_z: ArrayLike, b_x: ArrayLike) -> _Frame:
    h = controlled_hamiltonian(b_z, b_x)
    return _Frame(h, *_eigen_derivative(h, SIGMA_Z), _COOP_DEPH, np.array([[spec.eta / 2.0], [0.0]]))


def _coop_thermal(spec: ScenarioSpec, b_z: ArrayLike, b_x: ArrayLike) -> _Frame:
    h = controlled_hamiltonian(b_z, b_x)
    levels = _eigen_derivative(h, SIGMA_Z)
    # numpy's warnings are silenced: `_checked` names a rate that overflows,
    # and x = omega/t_e overflows to inf by design (t_e = 0 too).
    with np.errstate(all="ignore"):
        omega = 2.0 * np.hypot(b_z, b_x)
        d_omega = 2.0 * (b_z / np.hypot(b_z, b_x))
        dipole2 = np.float64(spec.dipole) ** 2  # numpy's power overflows to inf, where Python's raises
        gamma0 = 4.0 * omega * omega * omega * dipole2 / 3.0
        d_gamma0 = 4.0 * (omega * omega) * d_omega * dipole2
        # Bose occupation n = 1/(e^x - 1), written to underflow to 0 instead
        # of overflowing beyond x ~ 709, and with it the absorption rate
        # gamma0 n and gamma0 dn = -gamma0 n (n + 1) d_omega / t_e.  Where n
        # underflows, the absorption rate is exactly 0 and adds exact zeros.
        n = np.exp(-omega / spec.t_e) / -np.expm1(-omega / spec.t_e)
        up = gamma0 * n
        d_n = 0.0 if spec.t_e == 0.0 else -up * (n + 1.0) * d_omega / spec.t_e
        rates = np.stack((
            np.stack((gamma0 * (n + 1.0), up), axis=-1),
            np.stack((d_gamma0 * (n + 1.0) + d_n, d_gamma0 * n + d_n), axis=-1),
        ), axis=-2)
    return _Frame(h, *levels, _THERMAL, _checked(("thermal decay rate", "thermal absorption rate"), rates, levels[4]))


def _two_spin_coop(spec: ScenarioSpec, b_z: ArrayLike, b_x: ArrayLike) -> _Frame:
    h = two_spin_hamiltonian(b_z, b_x)
    levels = _eigen_derivative(h, SZ_SUM)
    upper, lower = _TWO_SPIN_LEVELS
    # 4 omega^3 |d|^2 / 3 of each decay pair, omega its level gap, and its
    # derivative 4 omega^2 d omega |d|^2 (an overflow is named, not warned).
    with np.errstate(all="ignore"):
        omega, d_omega = (e[..., upper] - e[..., lower] for e in (levels[0], levels[2]))
        dipole2 = np.float64(spec.dipole) ** 2  # numpy's power overflows to inf, where Python's raises
        rates = np.empty((*omega.shape[:-1], 2, 4))
        rates[..., 0, :] = 4.0 * omega * omega * omega * dipole2 / 3.0
        rates[..., 1, :] = 4.0 * (omega * omega) * d_omega * dipole2
    return _Frame(h, *levels, _TWO_SPIN, _checked(_TWO_SPIN_NAMES, rates, levels[4]))


def _unitary_baseline(spec: ScenarioSpec, b_z: ArrayLike, b_x: ArrayLike) -> _Frame:
    if spec.n_spins == 1:
        return _diagonal_frame(_scale(b_z, SIGMA_Z), SIGMA_Z, _UNITARY[2], np.zeros((2, 0)))
    return _diagonal_frame(two_spin_hamiltonian(b_z, 0.0), SZ_SUM, _UNITARY[4], np.zeros((2, 0)))


class _Kind(NamedTuple):
    """What one scenario kind reads, what it requires and how its model is built."""

    reads: tuple[str, ...]  # the ScenarioSpec fields it consults, besides kind
    build: Callable[[ScenarioSpec, ArrayLike, ArrayLike], _Frame]  # its model builder, above
    spins: int | None = 1  # None: the spec's n_spins, 1 or 2
    # Channels in the eigenbasis of the controlled Hamiltonian: b_z = 0
    # leaves that basis undefined, so b_z != 0 is required.  With two spins,
    # levels 2 and 3 are degenerate at b_x = 0, so b_x > 0 is required too.
    cooperative: bool = False


_KINDS = {
    "std-spont": _Kind(("b_z", "gamma"), _std_spont),
    "coop-spont": _Kind(("b_z", "b_x", "gamma"), _coop_spont, cooperative=True),
    "std-deph": _Kind(("b_z", "eta"), _std_deph),
    "coop-deph": _Kind(("b_z", "b_x", "eta"), _coop_deph, cooperative=True),
    "coop-thermal": _Kind(("b_z", "b_x", "dipole", "t_e"), _coop_thermal, cooperative=True),
    "two-spin-coop": _Kind(("b_z", "b_x", "dipole"), _two_spin_coop, spins=2, cooperative=True),
    "unitary-baseline": _Kind(("b_z", "n_spins"), _unitary_baseline, spins=None),
}
KINDS = tuple(_KINDS)


def _lab_jump(vectors: np.ndarray | None, jump, d: int) -> np.ndarray:
    """The jump operator of a frame channel of one model in the computational basis."""
    v = np.eye(d) if vectors is None else vectors
    if isinstance(jump, tuple):
        i, j = jump
        return np.outer(v[:, j], v[:, i].conj())
    return (v * jump) @ v.conj().T


def build_model(spec: ScenarioSpec) -> LindbladModel:
    """Assemble the Lindblad model of the given scenario from the one-model
    case of its kind's frame statement, which also differentiates it in b_z.
    Raises the error that the frame records: DegeneracyError where two
    levels within 1e-6 max|E| fail `_check_close_pairs`, and
    NumericalFailureError where the derivative or a rate is not finite."""
    frame = _KINDS[spec.kind].build(spec, spec.b_z, spec.b_x)
    if frame.errors:
        raise frame.errors[()]
    d = frame.energies.shape[-1]
    rates = frame.rates[0].tolist()
    return LindbladModel(
        hamiltonian=frame.hamiltonian,
        channels=tuple(LindbladChannel(r, _lab_jump(frame.vectors, jump, d)) for r, jump in zip(rates, frame.channels.jumps)),
    )


def _checked_probe(dim: int) -> np.ndarray:
    rho = np.zeros((dim, dim))
    rho[np.ix_((0, -1), (0, -1))] = 0.5
    validate_density_matrix(rho)
    rho.setflags(write=False)
    return rho


# The probe of each dimension, validated once at import and read-only: the
# grids propagate it without checking it again.
_PROBES = {dim: _checked_probe(dim) for dim in (2, 4)}


def probe_state(spec: ScenarioSpec) -> np.ndarray:
    """(|0>+|1>)/sqrt(2) for one spin, (|00>+|11>)/sqrt(2) for two."""
    return _PROBES[2 ** spin_count(spec)].copy()


def _frame_rates(frame: _Frame) -> tuple[np.ndarray, np.ndarray]:
    """(q, lam) of a frame, each over a pair axis that holds it and its b_z
    derivative: the rates q (..., 2, d) of the `_SLOTS` transitions, which
    the closed-form populations read, and the rate lam_ab (..., 2, d, d) of
    each coherence, d rho_ab/dt = lam_ab rho_ab (a != b): one product of the
    rates with the kind's table, and the level gaps.  About 10 µs for one
    two-spin model and 50 µs for 101 (dense matrices took 55 and 100)."""
    d = frame.energies.shape[-1]
    rates = frame.rates @ frame.channels.table
    gaps = np.empty((*frame.energies.shape[:-1], 2, d, d))  # E_a - E_b at [..., a, b], and its derivative
    for k, e in enumerate((frame.energies, frame.d_energies)):
        np.subtract(e[..., :, None], e[..., None, :], out=gaps[..., k, :, :])
    return rates[..., :d], -(rates[..., d:].reshape(*rates.shape[:-1], d, d) + 1j * gaps)


def _propagated(spec: ScenarioSpec, b_z: ArrayLike, b_x: ArrayLike, probe: np.ndarray, t: ArrayLike):
    """(states, d states / d b_z, the frame's errors) of the probe at time t,
    in the eigenframe of the Hamiltonian of the model at fields b_z and b_x:
    floats, or arrays of points over whose broadcast shape (...) the states
    are stacked, (..., d, d) each.  The fields' shape is the stack of models
    that the kind's builder states; a time grid over one model builds it
    once.  numpy's warnings are silenced: a field near the float range
    overflows H, its gaps or its rates, which fails a model or a state.

    The kind's builder states the model in the eigenframe of its
    Hamiltonian, H = V diag(E) V†, where every channel is a transition
    between eigenstates or a diagonal jump, so the master equation splits
    exactly (Breuer & Petruccione, The Theory of Open Quantum Systems, 2002,
    sec. 3.3): the populations p of rho~ = V† rho V follow dp/dt = W p, and
    each coherence alone d rho~_ab/dt = lam_ab rho~_ab (`_frame_rates`).

    With A = V† dV, d rho~(0) = rho~(0) A - A rho~(0).  The coherences are
    e^{lam t} rho~_ab(0) and e^{lam t} d rho~_ab(0) + (e^{lam t} t) d lam
    rho~_ab(0).  e^{lam t} is exactly 0 where its modulus underflows, and
    each term is exactly 0 where its factor rho~_ab(0) or d rho~_ab(0) is 0
    (`_times`), however large t d lam grows or however NaN the phase of an
    undamped coherence whose gap t overflows: a two-spin QFI holds its value
    out to t = 1.7e308.
    The populations and their derivatives are closed forms too, for one
    spin (`_two_level`) and for two (`_four_level`): no point takes a
    matrix exponential.  The state and its derivative travel as one pair
    (..., 2, d, d) through the steps that treat them alike.
    The pair is returned as herm(rho~) and herm(d rho~ + A rho~ - rho~ A),
    herm(m) = (m + m†)/2: V† (rho, d rho) V, which has the QFI and state
    invariants of the lab pair (Liu et al., J. Phys. A 53, 023001 (2020)).
    The diagonal of d rho is rounded to 50 bits of its largest entry, where
    it sums exactly in any order, and its last entry set to minus the sum of
    the others: d rho is traceless exactly, however large it grows (a tiny
    cooperative field).  The trace of rho is left as propagated, so that a
    drift of the populations fails the state check instead of passing as a
    value.  At t = 0, where the frame terms cancel only to rounding, d rho
    is the exact zero of a probe that does not depend on b_z.
    """
    d = probe.shape[0]
    times = np.asarray(t, dtype=float)[..., None, None]
    level = np.arange(d)
    with np.errstate(over="ignore", invalid="ignore"):
        frame = _KINDS[spec.kind].build(spec, b_z, b_x)
        q, lam = _frame_rates(frame)
        vectors, rotation = frame.vectors, frame.rotation
        rho0 = probe if vectors is None else vectors.conj().mT @ probe @ vectors
        initial = np.zeros((*rho0.shape[:-2], 2, d, d), dtype=rho0.dtype)  # rho~(0) and d rho~(0)
        initial[..., 0, :, :] = rho0
        if rotation is not None:
            initial[..., 1, :, :] = rho0 @ rotation - rotation @ rho0
        exponent = lam[..., 0, :, :] * times
        evolution = np.exp(exponent)
        evolution[np.exp(exponent.real) == 0] = 0.0
        state = _times(initial, evolution[..., None, :, :])
        state[..., 1, :, :] += _times(rho0, (evolution * times) * lam[..., 1, :, :])
        populations = np.diagonal(initial, axis1=-2, axis2=-1).real
        state[..., level, level] = (_two_level if d == 2 else _four_level)(q, populations, times[..., 0])
        if rotation is not None:  # A rho - rho A from rho's real and imaginary parts: real products
            re, im = state[..., 0, :, :].real, state[..., 0, :, :].imag
            d_rho = state[..., 1, :, :]
            d_rho += rotation @ re - re @ rotation
            d_rho += 1j * (rotation @ im - im @ rotation)
        state = hermitize(state)
    rho, d_rho = state[..., 0, :, :], state[..., 1, :, :]
    # Multiples of one power of two, the largest below 2^50 of them (so
    # rounded by at most 4 ulps of it), whose partial sums are all exact.
    diagonal = d_rho[..., level, level].real
    unit = np.ldexp(1.0, np.maximum(np.frexp(np.abs(diagonal).max(axis=-1))[1] - 50, -1074))[..., None]
    diagonal = np.rint(diagonal / unit) * unit
    diagonal[..., -1] = -diagonal[..., :-1].sum(axis=-1)
    d_rho[..., level, level] = diagonal
    return rho, np.where(times == 0, 0.0, d_rho), frame.errors


def _two_level(q: np.ndarray, p: np.ndarray, t: np.ndarray) -> np.ndarray:
    """The populations of two levels and their b_z derivatives (..., 2, 2)
    at times t (..., 1), dp/dt = W p with W = [[-u, r], [u, -r]] (r the
    rate 1 -> 0, u the rate 0 -> 1), from the rates q = (r, u) and their
    derivatives dq (a pair (..., 2, 2)) and p(0) = p0 and its derivative
    dp0 (a pair too), in closed form: e^{W t} = I + phi W (Breuer &
    Petruccione, sec. 3.3), so no exponential is squared.

    With kappa = r + u, E = e^{-kappa t}, the stationary state pi = q /
    kappa and phi = (1 - E) / kappa = -expm1(-kappa t) / kappa, p(t) = pi +
    E (p0 - pi) and dp(t) = (dq - pi d kappa) phi + E dp0 - (E t) d kappa
    (p0 - pi).  Where kappa = 0, pi = p0 and phi = t.  The column sums of
    e^{W t} hold to one rounding at any t, and E underflows to exactly 0
    past relaxation, where E t is exactly 0 too: t d kappa alone would
    overflow at t ~ 1e300 and make inf * 0 = NaN.
    """
    (rates, d_rates), (p0, dp0) = (q[..., 0, :], q[..., 1, :]), (p[..., 0, :], p[..., 1, :])
    kappa, d_kappa = rates.sum(axis=-1, keepdims=True), d_rates.sum(axis=-1, keepdims=True)
    relaxes = kappa > 0
    safe = np.where(relaxes, kappa, 1.0)
    with np.errstate(over="ignore"):  # kappa t past the float range: E = 0, phi = 1 / kappa
        x = kappa * t
    decay = np.exp(-x)
    pi = np.where(relaxes, rates / safe, p0)
    phi = np.where(relaxes, -np.expm1(-x) / safe, t)
    dp_t = (d_rates - pi * d_kappa) * phi + decay * dp0 - (decay * t) * d_kappa * (p0 - pi)
    return np.stack((pi + decay * (p0 - pi), dp_t), axis=-2)


# Horner coefficients, highest power first, of G / t^2 (`_moments`) as a
# series in x = k t, sum_j (-x)^j (j + 1) / (j + 2)!: below x = 0.5, the
# first of the terms left out is below 1.4e-18.
_G_SERIES = [(-1) ** j * (j + 1) / math.factorial(j + 2) for j in range(14, -1, -1)]


def _moments(k: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, ...]:
    """(E, F, G, H) of decay rates k >= 0 at times t: E = e^{-k t} and
    (F, G, H) = int_0^t (1, s, t - s) e^{-k s} ds.  F = -expm1(-k t) / k
    (t where k = 0), G = (F - t E) / k, or t^2 times its series where
    k t < 0.5 (k = 0 among them; the caller silences numpy), and H = t F - G."""
    x = k * t
    decay = np.exp(-x)
    f = np.where(k > 0, -np.expm1(-x) / k, t)
    small = x < 0.5
    g = (f - t * decay) / k
    if small.any():
        g = np.where(small, t * (t * np.polyval(_G_SERIES, x)), g)
    return decay, f, g, t * f - g


def _times(factor: np.ndarray, integral: np.ndarray) -> np.ndarray:
    """factor * integral, exactly 0 where the factor is 0: an integral may
    pass the float range (t^2 / 2 past t ~ 1e154, a phase gap t past it)
    where the rate, decay or initial value that multiplies it is 0, and
    0 * inf and 0 * NaN are NaN."""
    return np.where(factor == 0, 0.0, factor * integral)


def _four_level(q: np.ndarray, p: np.ndarray, t: np.ndarray) -> np.ndarray:
    """The two-spin populations and their b_z derivatives (..., 2, 4) at
    times t (..., 1), dp/dt = W p, from the rates (a, b, c, e) and their
    derivatives (a pair q (..., 2, 4)) and p(0) = (q0, ..., q3) and its
    derivative (dq0, ..., dq3) (a pair p (..., 2, 4)), in closed form
    (Breuer & Petruccione, sec. 3.3; the README writes it out).

    W only decays: a (3 -> 2), b (3 -> 1), c (2 -> 1) and e (2 -> 0), W[j, i]
    the rate i -> j.  With k2 = c + e and k3 = a + b, m and K the smaller and
    the larger, and E, F, G, H of `_moments`: p3 = q3 E3, p2 = q2 E2 + a q3 D,
    and levels 0 and 1 gain e I2 and b I3 + c I2, where I3 = q3 F(k3) and
    I2 = q2 F(k2) + a q3 J are the time that levels 3 and 2 hold.  D = E_m
    F(K - m) and J = (F(m) - D) / K integrate e^{-k2 u - k3 v} over u + v =
    t and over u + v <= t, so k2 = k3 is no special case.  The derivatives
    follow term by term.  Each division by K loses at most 3 bits where
    K t >= 0.5; below that, 18 Taylor terms of e^{B t} [q; dq], B = [[W, 0],
    [dW, W]], serve instead.  A term whose rate, rate derivative or decay
    is 0 is exactly 0 (`_times`), so W = 0 (the two-spin unitary baseline)
    gives no NaN at t = 1e300.  The rates are read straight from their pair,
    and only the Taylor terms build W and dW: about 80 µs at one point and
    105 µs at 101.
    """
    # Where K < 1/2 the rates are scaled up by the power of two that brings K
    # to [1/2, 1), and t down by it: exact, so p and dp keep their bits, and
    # G(k) ~ 1 / k^2 stays in range for rates down to ~1e-300.
    scale = np.ldexp(1.0, np.maximum(-np.frexp((q[..., 0, 2::-2] + q[..., 0, 3::-2]).max(axis=-1))[1], 0))
    times, t = t[..., 0], t[..., 0] / scale
    scaled = q * scale[..., None, None]
    (a, b, c, e), (da, db, dc, de) = ([r[..., j] for j in range(4)] for r in (scaled[..., 0, :], scaled[..., 1, :]))
    (q0, q1, q2, q3), (dq0, dq1, dq2, dq3) = ([r[..., j] for j in range(4)] for r in (p[..., 0, :], p[..., 1, :]))
    k = scaled[..., 2::-2] + scaled[..., 3::-2]  # (k2, k3) and (dk2, dk3)
    (k2, k3), (dk2, dk3) = (k[..., 0, 0], k[..., 0, 1]), (k[..., 1, 0], k[..., 1, 1])
    ordered = np.where((k2 > k3)[..., None, None], k[..., ::-1], k)  # (m, K) and (dm, dK)
    m, big, dm, d_big = ordered[..., 0, :1], ordered[..., 0, 1], ordered[..., 1, 0], ordered[..., 1, 1]
    # numpy's warnings are silenced: an integral past the float range is
    # inf, and the closed form divides by K = 0 where the Taylor terms serve.
    with np.errstate(all="ignore"):
        decay, f, g, h = _moments(np.concatenate((k[..., 0, :], big[..., None] - m, m), axis=-1), t[..., None])
        e2, e3, f2, f3, f_d = decay[..., 0], decay[..., 1], f[..., 0], f[..., 1], f[..., 2]
        g2, g3, g_d, h_d = g[..., 0], g[..., 1], g[..., 2], h[..., 2]
        e_m, f_m, g_m = decay[..., 3], f[..., 3], g[..., 3]
        pull, d_pull = a * q3, da * q3 + a * dq3
        dd = e_m * f_d
        psi_mmk, psi_mkk = _times(e_m, h_d), _times(e_m, g_d)
        j = (f_m - dd) / big
        phi_mmk, phi_mkk = (g_m - psi_mmk) / big, (j - psi_mkk) / big
        i3, i2 = q3 * f3, q2 * f2 + pull * j
        di3 = dq3 * f3 - q3 * _times(dk3, g3)
        di2 = dq2 * f2 - q2 * dk2 * g2 + d_pull * j - pull * (_times(dm, phi_mmk) + d_big * phi_mkk)
        pair = np.empty((*i2.shape, 2, 4))
        pair[..., 0, 0] = q0 + e * i2
        pair[..., 0, 1] = q1 + b * i3 + c * i2
        pair[..., 0, 2] = q2 * e2 + pull * dd
        pair[..., 0, 3] = q3 * e3
        pair[..., 1, 0] = dq0 + de * i2 + _times(e, di2)
        pair[..., 1, 1] = dq1 + db * i3 + b * di3 + dc * i2 + _times(c, di2)
        pair[..., 1, 2] = dq2 * e2 - q2 * (e2 * t) * dk2 + d_pull * dd - pull * (dm * psi_mmk + d_big * psi_mkk)
        pair[..., 1, 3] = dq3 * e3 - q3 * (e3 * t) * dk3
        taylor = big * t < 0.5
        if taylor.any():
            pair = np.where(taylor[..., None, None], _taylor(q, p, times), pair)
    return pair


# Taylor terms of `_taylor`, which `_four_level` takes where K t < 0.5.
_TAYLOR_TERMS = 18


def _taylor(q: np.ndarray, p: np.ndarray, t: np.ndarray) -> np.ndarray:
    """The pair (p(t), dp(t)) (..., 2, d) = e^{B t} [p0; dp0], B = [[W, 0],
    [dW, W]], W and dW the rate matrices (a transition i -> j at rate r
    moves population from level i to level j) of the `_SLOTS` rates and
    their b_z derivatives (the pair q), at times t (...) to _TAYLOR_TERMS
    Taylor terms, fewer once every term of the stack is 0."""
    w = np.zeros((*q.shape, q.shape[-1]))  # W and dW (..., 2, d, d)
    for k, (i, j) in enumerate(_SLOTS[q.shape[-1]]):
        w[..., j, i] += q[..., k]
        w[..., i, i] -= q[..., k]
    w, dw = w[..., 0, :, :], w[..., 1, :, :]
    v, u = p[..., 0, :, None], p[..., 1, :, None]
    p_t, dp_t = v, u
    for n in range(1, _TAYLOR_TERMS + 1):
        step = (t / n)[..., None, None]
        v, u = (w @ v) * step, (w @ u + dw @ v) * step
        if not (v.any() or u.any()):
            break
        p_t, dp_t = p_t + v, dp_t + u
    return np.concatenate(np.broadcast_arrays(p_t, dp_t), axis=-1).swapaxes(-1, -2)


def _scores(states: np.ndarray, drho: np.ndarray, t: ArrayLike) -> tuple[np.ndarray, list]:
    """The QFI values (n,) of grid points from their states and state
    derivatives (n, d, d) in the Hamiltonian's eigenframe at times t, NaN
    where a point fails, and each point's outcome: its exception, its
    QfiResult where the qubit closed form scored it alone, or None where
    the SLD sum over the stack gave its value.  The state check comes
    first; a derivative that is not finite (overflowing as the QFI does)
    fails its point, named.

    Two spins: one SLD sum over the stack, whose eigh the state check
    shares.  One spin: each point takes `qfi_qubit`'s route, decided here
    once per stack.  One batched det, the LAPACK call that `qfi_qubit`
    makes per state, marks the near-pure states (det < 1e-10).  Every
    other point runs `qfi_qubit` alone, the closed form.  One
    `_sld_outcomes` call over the near-pure points gives each the bits of
    its one-state `qfi_sld` fallback, after the checks that `qfi_qubit`
    makes first: its screen holds the derivatives Hermitian within 1e-8,
    and an array screen here holds them traceless within 1e-8.  A point
    that fails either is checked alone, by `_check_derivative`, so that it
    reports the check's own message."""
    n, d = len(states), drho.shape[-1]
    finite = np.isfinite(states).all(axis=(-2, -1))
    # 0 for a non-finite state, which LAPACK rejects; qubits need no vectors (eigvalsh is cheaper).
    safe = states if finite.all() else np.where(finite[:, None, None], states, 0.0)
    spectrum = (np.linalg.eigvalsh(safe), None) if d == 2 else np.linalg.eigh(safe)
    failed = {j: f"lost state invariants: {e}" for j, e in _invariant_errors(states, finite, spectrum[0][:, 0]).items()}
    for j in np.flatnonzero(~np.isfinite(drho).all(axis=(-2, -1))).tolist():
        failed.setdefault(j, None)
    # A derivative near the float range (a tiny cooperative field, a huge
    # time) overflows either formula: its value is then non-finite, which
    # the formula names, so numpy's warnings are silenced, once per grid.
    with np.errstate(over="ignore", invalid="ignore"):
        if d == 2:
            pure = [j for j in (np.linalg.det(safe).real < NEAR_PURE_DET_TOL).nonzero()[0].tolist() if j not in failed]
            skipped = failed.keys() | pure
            outcomes = [None if j in skipped else _recorded(qfi_qubit, states[j], drho[j]) for j in range(n)]
            values = np.array([o.value if isinstance(o, QfiResult) else math.nan for o in outcomes])
            if pure:
                pure = np.array(pure)
                traced = np.abs(np.trace(drho[pure], axis1=-2, axis2=-1)) > DERIV_HERM_TOL
                for j in pure[traced].tolist():
                    outcomes[j] = _recorded(_check_derivative, drho[j], True)
                pure = pure[~traced]
                values[pure], errors = _sld_outcomes(states[pure], drho[pure])
                for k, error in errors.items():
                    outcomes[pure[k]] = error
        else:
            values, errors = _sld_outcomes(states, drho, spectrum)
            outcomes = [errors.get(j) for j in range(n)]
    for j, error in failed.items():
        time = np.broadcast_to(t, n)[j].item()
        values[j], outcomes[j] = math.nan, NumericalFailureError(
            f"propagation to t={time} {error}" if error is not None
            else f"the b_z derivative of the state at t={time} has non-finite entries"
        )
    return values, outcomes


# Points of a grid per stacked build, propagation and scoring.  Each stack
# pays one builder call and one batched eigh of its Hamiltonians and, with
# two spins, of its states; its working memory grows with its size.  128
# holds a whole 101-point region prescan: on the bench's two-spin
# `searches` workload (2-vCPU VM) it gave 76-80 requests per second against
# 65-67 at 32, for 1.4 MB more peak RSS, and 256 gave no more.
_CHUNK = 128


def _grid_outcomes(spec: ScenarioSpec, values: ArrayLike, axis: str, t: float | None) -> tuple[np.ndarray, list]:
    """`qfi_grid` as its values (NaN where a point fails) and outcomes
    (`_scores`), with no QfiResult made of a stack's SLD values."""
    if axis not in ("t", "b_z", "b_x"):
        raise ValueError(f"grid axis must be 't', 'b_z' or 'b_x', got {axis!r}")
    if axis != "t" and t is None:
        raise ValueError(f"a grid over {axis!r} requires the probe time t")
    if axis != "t" and axis not in spec.parameters:
        raise ValueError(f"axis {axis!r} is not read by kind {spec.kind!r} (it reads {', '.join(spec.parameters)})")
    t = None if axis == "t" else float(t)
    values = np.atleast_1d(np.asarray(values, dtype=float))
    # The screen above: a field value > 0 is a nonzero b_z and a b_x > 0.
    if axis == "t":
        passes = np.isfinite(values) & (values >= 0)
    else:
        passes = np.isfinite(values) & (values > 0) & (math.isfinite(t) and t >= 0)
    scores, outcomes = np.full(len(values), math.nan), [None] * len(values)
    for k in np.flatnonzero(~passes):
        value = float(values[k])
        time = value if axis == "t" else t
        try:
            if axis != "t":
                replace(spec, **{axis: value})
            if not math.isfinite(time):
                raise ValueError(f"time must be finite, got {time}")
            if time < 0:
                raise ValueError(f"time must be >= 0, got {time}")
        except ValueError as exc:  # recorded, not raised: keep the other points
            outcomes[k] = exc
        else:
            passes[k] = True
    ready = np.flatnonzero(passes)  # the indices of the points that pass qfi_at's checks
    for start in range(0, len(ready), _CHUNK):  # one stacked build, propagation and scoring each
        chunk = ready[start:start + _CHUNK]
        fields = {"b_z": spec.b_z, "b_x": spec.b_x, "t": t, axis: values[chunk]}
        states, drho, errors = _propagated(spec, fields["b_z"], fields["b_x"], _PROBES[2 ** spin_count(spec)], fields["t"])
        scores[chunk], stack = _scores(states, drho, fields["t"])
        for k, outcome in zip(chunk.tolist(), stack):
            outcomes[k] = outcome
        for index, error in errors.items():  # a model that fails: () is a time grid's one model
            for k in np.atleast_1d(chunk[index]).tolist():
                scores[k], outcomes[k] = math.nan, error
    return scores, outcomes


def qfi_grid(
    spec: ScenarioSpec, values: ArrayLike, *, axis: str = "t", t: float | None = None
) -> list[QfiResult | Exception]:
    """QFI with respect to b_z of the propagated probe at each value of a
    grid over one axis: probe times in any order (axis "t"), or values of
    the field b_z or b_x at probe time t.  A field that the kind does not
    read is a ValueError, as it is a usage error of the CLI.

    Returns one entry per value: a QfiResult, or the exception that failed
    that point, so one bad point does not lose the others.  One array
    screen passes the points that pass every check of `qfi_at`: a finite
    field value > 0 at a finite time t >= 0, or a finite time >= 0.  Only a
    point that it rejects is checked alone as `qfi_at` checks it: a field
    value through the spec's rules, then its time, which must be finite and
    >= 0.  A point that passes is one (b_z, b_x, t) of a stack; a state that
    breaks an invariant, a QFI below tolerance or a model that cannot be
    built fails only its points: the builder names each failed model with
    the error it gives alone.  Any other exception propagates.

    The state and its exact b_z derivative, with no b_z step and no matrix
    exponential, are propagated and scored in the Hamiltonian's eigenframe
    (`_propagated`, `_scores`).  The state check is what holds rho to unit
    trace: a point whose populations drift off it fails with
    NumericalFailureError.  _CHUNK (128) points at a time go as one stack.
    The probe is not checked again: it is validated once per dimension, at
    import.  Each point gets, bit for bit, what `qfi_at` gives at it.
    """
    scores, outcomes = _grid_outcomes(spec, values, axis, t)
    return [QfiResult(value, METHOD_SLD) if o is None else o for value, o in zip(scores.tolist(), outcomes)]


def qfi_at(spec: ScenarioSpec, t: float) -> QfiResult:
    """QFI with respect to b_z of the propagated probe at time t: the
    one-point case of `qfi_grid`."""
    (outcome,) = qfi_grid(spec, t)
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


# ---------------------------------------------------------------------------
# analytic references for the cooperative spontaneous-emission scenario
# ---------------------------------------------------------------------------


def _angle_delta(b_z: float, b_x: float) -> tuple[float, float]:
    if b_z == 0.0 and b_x == 0.0:
        raise ValueError("b_z and b_x cannot both be zero")
    return math.atan2(b_x, b_z), math.hypot(b_z, b_x)


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


def exact_two_spin_ground_qfi(b_z: ArrayLike, b_x: float) -> float | np.ndarray:
    """Ground-state QFI of the full two-spin Hamiltonian at b_z, or at each
    b_z of an array: the fidelity susceptibility
    F = 4 sum_{k>0} |<k|dH|0>|^2 / (E_k - E_0)^2 (Zanardi & Paunković,
    PRE 74, 031123 (2006)), dH = sigma_z^1 + sigma_z^2, read off the frame
    rotation V† dV of one batched `np.linalg.eigh` (`_eigen_derivative`).
    Raises the error of the first b_z that fails, as a loop of scalar calls
    would (DegeneracyError where close levels fail `_check_close_pairs`).
    """
    if not b_x > 0.0:
        raise InvalidScenarioError(f"b_x must be > 0, got {b_x}")
    b_z = np.asarray(b_z, dtype=float)
    *_, rotation, errors = _eigen_derivative(two_spin_hamiltonian(b_z, b_x), SZ_SUM)
    if errors:
        raise errors[min(errors)]
    value = 4.0 * (np.abs(rotation[..., 1:, 0]) ** 2).sum(axis=-1)
    return value if b_z.ndim else float(value)


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
