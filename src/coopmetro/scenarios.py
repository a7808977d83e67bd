"""Physical setups: model builders, probe states and analytic references.

Seven scenario kinds are supported.  The "standard" kinds encode the field
b_z only in the Hamiltonian; the "cooperative" kinds add a transverse
control b_x so that the dissipative channels, built in the eigenbasis of
the controlled Hamiltonian, carry b_z dependence as well.

Angle convention: theta = atan2(b_x, b_z), so b_z = Delta cos(theta) and
b_x = Delta sin(theta) with Delta = sqrt(b_z^2 + b_x^2).  Ground state |g>
is the eigenvector of the smaller eigenvalue.

Each kind's model builder is written once, over stacks of field values:
given b_z and b_x as floats it builds one model (`build_model`), given them
as arrays it builds the stack of models over their broadcast shape.  Only
the matrix work is vectorised.  The scalar coefficients (level gaps,
rates, the Bose occupation) are computed element by element with the
scalar expressions of one model, because numpy's array routines (power,
hypot, exp) can round the last bit differently, and a stack must equal its
models built one at a time bit for bit.
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
    density_matrix_errors,
    propagate,
    validate_density_matrix,
    vec,
)
from .linalg import eigh, expm, hermitize, identity, outer, pauli, tensor
from .qfi import (
    QfiResult,
    _recorded,
    _sld_outcomes,
    StateFamily,
    differentiate_pure_state,
    fd_default_step,
    qfi_pure,
    qfi_qubit,
    richardson_stencil,
)

__all__ = [
    "KINDS",
    "InvalidScenarioError",
    "DegeneracyError",
    "OutOfRegimeError",
    "ScenarioSpec",
    "TradeoffPoint",
    "spin_count",
    "controlled_hamiltonian",
    "two_spin_hamiltonian",
    "build_model",
    "probe_state",
    "state_family",
    "qfi_grid",
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

# Decay pairs (i, j) of the two-spin cool reservoir, 1-based with
# E_1 < E_2 < E_3 < E_4: the jump |E_j><E_i| de-excites i -> j.
TWO_SPIN_DECAY_PAIRS = ((4, 3), (4, 2), (3, 2), (3, 1))

GROUND_DEGENERACY_TOL = 1e-9

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
        _check_b_z(self.kind, self.b_z)
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


# The float fields besides b_z, whose rules `_check_b_z` states.
_FLOAT_FIELDS = tuple(f.name for f in fields(ScenarioSpec) if f.type is float and f.name != "b_z")


def _check_b_z(kind: str, *values: float) -> None:
    """Check values of b_z for a spec of this kind, its own or its stencil
    fields: each must be finite, and nonzero for a cooperative kind."""
    for b_z in values:
        if not math.isfinite(b_z):
            raise InvalidScenarioError(f"b_z must be finite, got {b_z}")
        if _KINDS[kind].cooperative and b_z == 0.0:
            raise InvalidScenarioError(
                f"b_z must be nonzero for kind {kind!r} (the eigenbasis angle is undefined at b_z = 0)"
            )


def spin_count(spec: ScenarioSpec) -> int:
    spins = _KINDS[spec.kind].spins
    return spec.n_spins if spins is None else spins


def _scale(c: ArrayLike, m: np.ndarray) -> np.ndarray:
    """c * m, or the stack of c_i * m over the entries of an array c."""
    return c[..., None, None] * m if isinstance(c, np.ndarray) else c * m


def _each(expression: Callable[..., tuple], *fields: ArrayLike) -> tuple:
    """The values of expression(*scalars) at each element of the broadcast
    fields, one array of their shape per value (scalars for scalar fields):
    scalar arithmetic, element by element."""
    if all(getattr(f, "ndim", 0) == 0 for f in fields):
        return expression(*fields)
    shape = np.broadcast_shapes(*(np.shape(f) for f in fields))
    scalars = zip(*(np.broadcast_to(f, shape).ravel() for f in fields))
    values = np.array([expression(*x) for x in scalars], dtype=float).reshape(*shape, -1)
    return tuple(np.moveaxis(values, -1, 0))


def controlled_hamiltonian(b_z: ArrayLike, b_x: ArrayLike) -> np.ndarray:
    """Single-spin H = b_z sigma_z + b_x sigma_x, or its stack over arrays of fields."""
    return _scale(b_z, pauli("z")) + _scale(b_x, pauli("x"))


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


def two_spin_hamiltonian(b_z: ArrayLike, b_x: ArrayLike) -> np.ndarray:
    """H = sigma_z^1 sigma_z^2 + b_z (sigma_z^1 + sigma_z^2) + b_x (sigma_x^1 + sigma_x^2),
    coupling strength 1; or its stack over arrays of fields."""
    return SZZ + _scale(b_z, SZ_SUM) + _scale(b_x, SX_SUM)


def _field_basis(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(|g>, |e>) of a controlled single-spin Hamiltonian (or stacks of them), ascending order."""
    system = eigh(h)
    return system.vector(0), system.vector(1)


_LOWER = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)  # |0><1|, decays |1> -> |0>

# The model builders: the model of `spec` at fields b_z and b_x, or the
# stack of them over the broadcast shape of arrays b_z and b_x.


def _std_spont(spec: ScenarioSpec, b_z: ArrayLike, b_x: ArrayLike) -> LindbladModel:
    return LindbladModel(
        hamiltonian=_scale(b_z, pauli("z")),
        channels=(LindbladChannel(spec.gamma, _LOWER),),
    )


def _std_deph(spec: ScenarioSpec, b_z: ArrayLike, b_x: ArrayLike) -> LindbladModel:
    # eta/2 (sigma_z rho sigma_z - rho) is the dissipator of jump sigma_z at rate eta/2.
    return LindbladModel(
        hamiltonian=_scale(b_z, pauli("z")),
        channels=(LindbladChannel(spec.eta / 2.0, pauli("z")),),
    )


def _coop_spont(spec: ScenarioSpec, b_z: ArrayLike, b_x: ArrayLike) -> LindbladModel:
    h = controlled_hamiltonian(b_z, b_x)
    g, e = _field_basis(h)
    return LindbladModel(hamiltonian=h, channels=(LindbladChannel(spec.gamma, outer(g, e)),))


def _coop_deph(spec: ScenarioSpec, b_z: ArrayLike, b_x: ArrayLike) -> LindbladModel:
    h = controlled_hamiltonian(b_z, b_x)
    (delta,) = _each(lambda b_z, b_x: (math.hypot(b_z, b_x),), b_z, b_x)
    sigma_n = h / np.asarray(delta)[..., None, None]
    return LindbladModel(hamiltonian=h, channels=(LindbladChannel(spec.eta / 2.0, sigma_n),))


def _thermal_rates(spec: ScenarioSpec, b_z: float, b_x: float) -> tuple[float, float]:
    """Decay and absorption rates of the thermal channel at one field."""
    omega = 2.0 * math.hypot(b_z, b_x)
    gamma0 = 4.0 * omega**3 * spec.dipole**2 / 3.0
    # Bose occupation 1/(e^x - 1), written to underflow to 0 instead of
    # overflowing for x = omega/t_e beyond ~709; t_e = 0 is x = inf.
    x = math.inf if spec.t_e == 0.0 else omega / spec.t_e
    occupation = math.exp(-x) / -math.expm1(-x)
    return gamma0 * (occupation + 1.0), gamma0 * occupation


def _coop_thermal(spec: ScenarioSpec, b_z: ArrayLike, b_x: ArrayLike) -> LindbladModel:
    h = controlled_hamiltonian(b_z, b_x)
    g, e = _field_basis(h)
    down, up = _each(lambda b_z, b_x: _thermal_rates(spec, b_z, b_x), b_z, b_x)
    channels = [LindbladChannel(down, outer(g, e))]
    # No absorption channel where the occupation underflows to 0; in a stack
    # that has it elsewhere, its rate there is 0, which adds exact zeros.
    absorbs = up > 0.0
    if absorbs.any() if isinstance(absorbs, np.ndarray) else absorbs:
        channels.append(LindbladChannel(up, outer(e, g)))
    return LindbladModel(hamiltonian=h, channels=tuple(channels))


def _two_spin_coop(spec: ScenarioSpec, b_z: ArrayLike, b_x: ArrayLike) -> LindbladModel:
    h = two_spin_hamiltonian(b_z, b_x)
    system = eigh(h)

    def rates(*energies: float) -> tuple[float, ...]:
        # 4 omega^3 |d|^2 / 3 of each decay pair, omega its level gap
        return tuple(4.0 * (energies[i - 1] - energies[j - 1]) ** 3 * spec.dipole**2 / 3.0
                     for i, j in TWO_SPIN_DECAY_PAIRS)

    levels = [system.values[..., k] for k in range(4)]
    channels = (
        LindbladChannel(rate, outer(system.vector(j - 1), system.vector(i - 1)))
        for rate, (i, j) in zip(_each(rates, *levels), TWO_SPIN_DECAY_PAIRS)
    )
    return LindbladModel(hamiltonian=h, channels=tuple(channels))


def _unitary_baseline(spec: ScenarioSpec, b_z: ArrayLike, b_x: ArrayLike) -> LindbladModel:
    if spec.n_spins == 1:
        h = _scale(b_z, pauli("z"))
    else:
        h = two_spin_hamiltonian(b_z, 0.0)
    return LindbladModel(hamiltonian=h, channels=())


class _Kind(NamedTuple):
    """What one scenario kind reads, what it requires and how its model is built."""

    reads: tuple[str, ...]  # the ScenarioSpec fields it consults, besides kind
    # The model of a spec at fields b_z and b_x (floats), or the stack of
    # models over the shape of arrays b_z and b_x.
    build: Callable[[ScenarioSpec, ArrayLike, ArrayLike], LindbladModel]
    spins: int | None = 1  # None: the spec's n_spins, 1 or 2
    # Channels in the eigenbasis of the controlled Hamiltonian: b_z = 0 leaves
    # that basis undefined, so b_z != 0 is required and the default FD step is
    # capped at |b_z|/2 to keep the stencil off it.  With two spins, levels 2
    # and 3 are degenerate at b_x = 0, so b_x > 0 is required too.
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


def build_model(spec: ScenarioSpec) -> LindbladModel:
    """Assemble the Lindblad model of the given scenario: the one-model case
    of the kind's stacked builder."""
    return _KINDS[spec.kind].build(spec, spec.b_z, spec.b_x)


def probe_state(spec: ScenarioSpec) -> np.ndarray:
    """(|0>+|1>)/sqrt(2) for one spin, (|00>+|11>)/sqrt(2) for two."""
    dim = 2 ** spin_count(spec)
    rho = np.zeros((dim, dim), dtype=complex)
    rho[np.ix_((0, -1), (0, -1))] = 0.5
    return rho


def state_family(spec: ScenarioSpec, t: float) -> StateFamily:
    """The parameter-to-state pipeline b |-> rho(b, t) around spec.b_z.

    b enters the Hamiltonian, the jump operators and (for thermal/two-spin
    kinds) the rates, so each evaluation assembles the full model at its
    own field value.  Propagates one point at a time; `qfi_grid` is the
    batched route over a time grid.
    """
    probe = probe_state(spec)

    def evaluate(b: float) -> np.ndarray:
        return propagate(build_model(replace(spec, b_z=b)), probe, t)

    return StateFamily(evaluate=evaluate, b0=spec.b_z)


def _fd_step(spec: ScenarioSpec) -> float:
    """`fd_default_step(b_z)`, capped at |b_z|/2 for the cooperative kinds
    (undefined at b_z = 0) so that the difference stencil never reaches it."""
    step = fd_default_step(spec.b_z)
    if _KINDS[spec.kind].cooperative:
        step = min(step, abs(spec.b_z) / 2.0)
    return step


def _states(v: np.ndarray, d: int) -> np.ndarray:
    """Hermitized density matrices (..., d, d) of column-stacked states (..., d²).

    vec stacks columns, so a row-major reshape gives the transposed matrix.
    """
    return hermitize(v.reshape(*v.shape[:-1], d, d).swapaxes(-1, -2))


def _walk(generators: np.ndarray, rho0: np.ndarray, t0: float, dt: float, n: int) -> np.ndarray:
    """Hermitized states e^{L (t0 + k dt)} rho0, k < n, of every Liouvillian
    L of a stack (..., d², d²), stacked to shape (..., n, d, d).

    Two exponential calls on the stack, e^{L t0} and e^{L dt}; the semigroup
    property e^{L (t + dt)} = e^{L dt} e^{L t} walks the grid with one
    matvec per step.
    """
    d = rho0.shape[0]
    v = np.broadcast_to(vec(rho0)[:, None], (*generators.shape[:-1], 1))
    if t0 > 0:
        v = expm(generators * t0) @ v
    out = np.empty((*generators.shape[:-2], n, d * d), dtype=complex)
    out[..., 0, :] = v[..., 0]
    if n > 1:
        step = expm(generators * dt)
        for k in range(1, n):
            v = step @ v
            out[..., k, :] = v[..., 0]
    return _states(out, d)


def _scores(states: np.ndarray, drho: np.ndarray, times, steps) -> list:
    """The outcomes of grid points from the states (5, n, d, d) of their five
    stencil models (centre first), their state derivatives (n, d, d), times
    and FD steps: one state check, then the qubit closed form point by
    point, or the SLD formula on the stack of larger states."""
    errors = [next((e for e in point if e is not None), None) for point in density_matrix_errors(states).T]
    ok = [j for j, error in enumerate(errors) if error is None]
    if drho.shape[-1] == 2:
        results = [_recorded(qfi_qubit, states[0, j], drho[j]) for j in ok]
    else:
        results = _sld_outcomes(states[0, ok], drho[ok])
    outcomes: list = [
        None if error is None else NumericalFailureError(f"propagation to t={t} lost state invariants: {error}")
        for t, error in zip(times, errors)
    ]
    for j, result in zip(ok, results):
        outcomes[j] = result if isinstance(result, Exception) else replace(result, fd_step=steps[j])
    return outcomes


def _time_grid(spec: ScenarioSpec, times: np.ndarray, h: float | None) -> list:
    if not np.isfinite(times).all():
        raise ValueError(f"time must be finite, got {times[~np.isfinite(times)][0]}")
    dt = (times[-1] - times[0]) / (len(times) - 1) if len(times) > 1 else 0.0
    if len(times) > 1 and not (dt > 0 and np.allclose(np.diff(times), dt, rtol=1e-6, atol=0.0)):
        raise ValueError("times must be evenly spaced and ascending")
    first = int(np.searchsorted(times, 0.0))  # the times before it are negative
    outcomes: list = [ValueError(f"time must be >= 0, got {t}") for t in times[:first]]
    if first == len(times):
        return outcomes
    probe = validate_density_matrix(probe_state(spec))
    step = h if h is not None else _fd_step(spec)
    stencil, derivative = richardson_stencil(spec.b_z, step)
    _check_b_z(spec.kind, *stencil)
    generators = _KINDS[spec.kind].build(spec, np.array((spec.b_z, *stencil)), spec.b_x).liouvillian
    states = _walk(generators, probe, float(times[first]), dt, len(times) - first)
    return outcomes + _scores(states, hermitize(derivative(states[1:])), times[first:], [step] * len(states[0]))


# Points of a field grid per stacked build, exponential and state check
# (40 stencil models): bounds the working memory of a long grid.
_CHUNK = 8


def _one_field_point(spec: ScenarioSpec, axis: str, value: float, t: float, h: float | None):
    """qfi_at at one point of a field grid, or the exception it raises."""
    try:
        return qfi_at(replace(spec, **{axis: value}), t, h)
    except Exception as exc:  # recorded, not raised: keep the other points
        return exc


def _field_chunk(spec: ScenarioSpec, points: list, probe: np.ndarray, t: float) -> list:
    """The outcomes of field-grid points (centre spec, FD step) that passed
    qfi_at's checks: one stacked build of their five stencil models each,
    one expm call and one state check."""
    stencils = [richardson_stencil(centre.b_z, step) for centre, step in points]
    b_z = np.array([(centre.b_z, *fields) for (centre, _), (fields, _) in zip(points, stencils)]).T
    b_x = np.array([centre.b_x for centre, _ in points])
    states = _walk(_KINDS[spec.kind].build(spec, b_z, b_x).liouvillian, probe, t, 0.0, 1)[..., 0, :, :]
    drho = hermitize(np.stack([derivative(states[1:, j]) for j, (_, derivative) in enumerate(stencils)]))
    return _scores(states, drho, [t] * len(points), [step for _, step in points])


def _field_grid(spec: ScenarioSpec, axis: str, values: list[float], t: float, h: float | None) -> list:
    outcomes: list = [None] * len(values)
    ready = []  # (index, centre spec, FD step) of the points that pass qfi_at's checks
    for k, value in enumerate(values):
        try:
            centre = replace(spec, **{axis: value})
            step = h if h is not None else _fd_step(centre)
            _check_b_z(spec.kind, *richardson_stencil(centre.b_z, step)[0])
        except InvalidScenarioError:
            centre = None
        if centre is not None and math.isfinite(t) and t >= 0:
            ready.append((k, centre, step))
        else:  # qfi_at raises here: record its error
            outcomes[k] = _one_field_point(spec, axis, value, t, h)
    if ready:
        probe = validate_density_matrix(probe_state(spec))
    for start in range(0, len(ready), _CHUNK):
        chunk = ready[start:start + _CHUNK]
        try:
            scored = _field_chunk(spec, [(centre, step) for _, centre, step in chunk], probe, t)
        except Exception:  # a model that fails to build or propagate: each point raises its own error
            scored = [_one_field_point(spec, axis, values[k], t, h) for k, _, _ in chunk]
        for (k, _, _), outcome in zip(chunk, scored):
            outcomes[k] = outcome
    return outcomes


def qfi_grid(
    spec: ScenarioSpec, values: ArrayLike, h: float | None = None, *, axis: str = "t", t: float | None = None
) -> list[QfiResult | Exception]:
    """QFI with respect to b_z of the propagated probe at each value of a
    grid over one axis: evenly spaced, ascending probe times (axis "t"), or
    values of the field b_z or b_x at probe time t.

    Returns one entry per value: a QfiResult, or the exception that failed
    that point, so one bad point does not lose the others.  On a time grid
    that is a negative time, a state that breaks an invariant or a QFI below
    tolerance; errors that concern the whole time grid (non-finite or uneven
    times, an invalid stencil model) are raised.  On a field grid it is any
    exception that `qfi_at` raises at that point.

    A time grid builds the model at b_z and its four Richardson stencil
    models b_z + {-h, h, -h/2, h/2} as one stack, with two expm calls
    whatever the number of points (see `_walk`) and one state check.  A
    field grid builds the stencil models of _CHUNK points at a time as one
    stack, with one expm call and one state check per chunk.  Either gives,
    bit for bit, what `qfi_at` gives at each point.
    """
    values = np.atleast_1d(np.asarray(values, dtype=float))
    if axis == "t":
        return _time_grid(spec, values, h)
    if axis not in ("b_z", "b_x"):
        raise ValueError(f"grid axis must be 't', 'b_z' or 'b_x', got {axis!r}")
    if t is None:
        raise ValueError(f"a grid over {axis!r} requires the probe time t")
    return _field_grid(spec, axis, values.tolist(), float(t), h)


def qfi_at(spec: ScenarioSpec, t: float, h: float | None = None) -> QfiResult:
    """QFI with respect to b_z of the propagated probe at time t: the
    one-point case of `qfi_grid`."""
    (outcome,) = qfi_grid(spec, t, h)
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
