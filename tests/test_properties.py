"""Property tests: the one-point, field-grid and time-grid routes to the QFI
of one scenario point agree bit for bit, or fail with the same error, and so
do field and time grids of many points and their points one at a time; the QFI does
not see the phases of the eigenvectors it is computed from; the states
propagated in the Hamiltonian's eigenframe agree with `propagate`'s complex
route (scipy's exponential of the Liouvillian), and their exact b_z
derivatives with Richardson differences of it; one spin's closed-form
populations agree with `propagate` out to t = 50 and hold the QFI flat past
relaxation out to t = 1e300; two spins' agree with scipy's exponential of
their Van Loan block out to t = 50 and stay finite out to t = 1e300; and the
pure-state, qubit and SLD routes give one QFI on pure families; and
`propagate` of a random Lindblad model is completely positive and trace
preserving."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

import coopmetro.scenarios as scenarios
from conftest import outcome
from references import frame_rates, lab_propagated, qfi_pure, state_family
from coopmetro.lindblad import LindbladChannel, LindbladModel, hermitize, propagate
from coopmetro.qfi import differentiate_state, qfi_qubit, qfi_sld
from coopmetro.scenarios import (
    GROUND_DEGENERACY_TOL,
    KINDS,
    DegeneracyError,
    InvalidScenarioError,
    ScenarioSpec,
    build_model,
    probe_state,
    qfi_at,
    qfi_grid,
    two_spin_hamiltonian,
)


@st.composite
def scenario_points(draw, kinds=KINDS):
    kind = draw(st.sampled_from(kinds))
    fields = dict(
        b_z=draw(st.floats(-2.0, 2.0)),
        b_x=draw(st.floats(0.0, 1.0)),
        gamma=draw(st.floats(0.0, 2.0)),
        eta=draw(st.floats(0.0, 2.0)),
        dipole=draw(st.floats(0.0, 10.0)),
        t_e=draw(st.floats(0.0, 1.0)),
        n_spins=draw(st.sampled_from((1, 2))),
    )
    try:
        spec = ScenarioSpec(kind=kind, **fields)
    except InvalidScenarioError:
        assume(False)
    return spec, draw(st.floats(0.0, 6.0))


@settings(max_examples=30, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.filter_too_much])
@given(scenario_points(), st.data())
def test_one_point_field_grid_and_time_grid_agree(point, data):
    spec, t = point
    # Compared by repr, which tells floats apart bit for bit and, unlike ==,
    # finds a NaN QFI equal to itself.
    alone = repr(outcome(lambda: qfi_at(spec, t)))
    assert repr(outcome(lambda: qfi_grid(spec, [spec.b_z], axis="b_z", t=t)[0])) == alone
    # A time grid in any order and spacing, with t = 0 and negative times:
    # every point is what qfi_at gives at its time.
    others = data.draw(st.lists(st.floats(-2.0, 6.0), max_size=8))
    times = data.draw(st.permutations([t, 0.0, -0.5, *others]))
    grid = qfi_grid(spec, times)
    assert repr([outcome(lambda: g) for g in grid]) == repr([outcome(lambda: qfi_at(spec, s)) for s in times])


@settings(max_examples=12, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.filter_too_much])
@given(scenario_points(), st.data())
def test_field_grid_equals_qfi_at_point_by_point(point, data):
    # Up to 70 points in stacks of 32: one stack, or two or three.
    spec, t = point
    axis = data.draw(st.sampled_from([a for a in ("b_z", "b_x") if a in spec.parameters]))
    n = data.draw(st.integers(1, 70))
    values = data.draw(st.lists(st.floats(-2.0, 2.0), min_size=n, max_size=n))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(scenarios, "_CHUNK", 32)
        grid = qfi_grid(spec, values, axis=axis, t=t)
    alone = [outcome(lambda: qfi_at(replace(spec, **{axis: v}), t)) for v in values]
    assert repr([outcome(lambda: g) for g in grid]) == repr(alone)


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=15, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.filter_too_much])
@given(data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_qfi_is_gauge_free(kind, data, seed):
    # Only the eigenprojectors are physical: with a random sign on every
    # eigenvector column that numpy's eigh returns (the gauge of the real
    # solver, which the Hamiltonians take), or a random phase (which makes
    # the Hamiltonians' frames complex, through the same code), each point
    # gives the same QFI, or the same error.  The QFI route calls eigh on
    # the Hamiltonians and on the states.
    spec, t = data.draw(scenario_points(kinds=(kind,)))
    rng = np.random.default_rng(seed)
    gauges = {
        "sign": lambda shape: rng.choice((-1.0, 1.0), shape),
        "phase": lambda shape: np.exp(2j * np.pi * rng.random(shape)),
    }

    def regauging(solver, gauge):
        def regauged(h):
            values, vectors = solver(h)
            return values, vectors * gauge((*vectors.shape[:-2], 1, vectors.shape[-1]))
        return regauged

    unpatched = outcome(lambda: qfi_at(spec, t))
    for name, gauge in gauges.items():
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(np.linalg, "eigh", regauging(np.linalg.eigh, gauge))
            patched = outcome(lambda: qfi_at(spec, t))
        if isinstance(unpatched, tuple):
            assert patched == unpatched, name
            continue
        assert patched.method == unpatched.method, name
        floor = _rounding_floor(spec, t, unpatched.value)
        assert patched.value == pytest.approx(unpatched.value, rel=1e-9, abs=floor), name


def _rounding_floor(spec: ScenarioSpec, t: float, value: float) -> float:
    """How far rounding of ~delta = 1e-15 (1 + ||V† dV||) in rho and d rho can
    move the QFI value F: through the SLD sum sum_ij 2 |x_ij|^2 / s_ij, with
    s the smallest eigenvalue sum of rho that the sum keeps (above its 1e-12
    mask), by ~delta (sqrt(F / s) + (F + delta) / s).  Past 1e-9 F only where
    rho is near pure (s small) or the frame terms of d rho cancel (t -> 0)."""
    rotation = scenarios._KINDS[spec.kind].build(spec, spec.b_z, spec.b_x).rotation
    delta = 1e-15 * (1.0 + (0.0 if rotation is None else np.abs(rotation).max()))
    state, _, _ = scenarios._propagated(spec, spec.b_z, spec.b_x, probe_state(spec), t)
    lam = np.linalg.eigvalsh(state)
    sums = lam[:, None] + lam[None, :]
    kept = sums[sums > 1e-12].min()
    return 10.0 * delta * (math.sqrt(value / kept) + (value + delta) / kept)


@st.composite
def model_points(draw, kinds=KINDS):
    """A spec of any kind at a field away from b_z = 0, or at b_z = 0 for
    the standard kinds; for two spins also b_x much smaller than b_z (down
    to 1e-3 |b_z|), away from the level crossings at |b_z| = 1 that b_x
    opens."""
    kind = draw(st.sampled_from(kinds))
    b_z = draw(st.floats(0.05, 2.0)) * draw(st.sampled_from((1.0, -1.0)))
    if not scenarios._KINDS[kind].cooperative and draw(st.booleans()):
        b_z = 0.0
    if kind == "two-spin-coop":
        b_x = abs(b_z) * 10.0 ** draw(st.floats(-3.0, 0.0))
        assume(abs(abs(b_z) - 1.0) > 0.05)
    else:
        b_x = draw(st.floats(0.0, 1.0))
    return ScenarioSpec(
        kind=kind,
        b_z=b_z,
        b_x=b_x,
        gamma=draw(st.floats(0.0, 2.0)),
        eta=draw(st.floats(0.0, 2.0)),
        dipole=draw(st.floats(0.0, 10.0)),
        t_e=draw(st.floats(0.0, 1.0)),
        n_spins=draw(st.sampled_from((1, 2))),
    )


@settings(max_examples=60, deadline=None, derandomize=True)
@given(model_points(), st.floats(0.0, 6.0))
def test_bloch_states_match_propagate(spec, t):
    state, _ = lab_propagated(spec, t)
    assert np.abs(state - propagate(build_model(spec), probe_state(spec), t)).max() <= 1e-10


def _rate_matrix(q) -> np.ndarray:
    """W (..., d, d) of the rates q (..., d) of the transitions that the
    closed forms read (`scenarios._SLOTS`; for two spins (a, b, c, e): 3 ->
    2, 3 -> 1, 2 -> 1 and 2 -> 0, 0-based), as the channel-by-channel
    reference `references.frame_rates` assembles it."""
    *shape, d = np.shape(q)
    w = np.zeros((*shape, d, d))
    for k, (i, j) in enumerate(scenarios._SLOTS[d]):
        w[..., j, i] += q[..., k]
        w[..., i, i] -= q[..., k]
    return w


@settings(max_examples=60, deadline=None, derandomize=True)
@given(model_points(), st.booleans())
def test_channel_tables_give_the_dense_rates(spec, stacked):
    # The one product of a kind's rates with its table, and the closed
    # forms' transition rates, against the rate matrices and coherence
    # rates assembled channel by channel: bit for bit, at one point and on
    # a stack of three.
    b_z = spec.b_z * np.array([1.0, 1.0 + 1e-3, 1.0 - 1e-3]) if stacked else spec.b_z
    frame = scenarios._KINDS[spec.kind].build(spec, b_z, spec.b_x)
    q, lam = scenarios._frame_rates(frame)
    w, dw, lam_ref, d_lam_ref = frame_rates(frame)
    for table, dense in zip((_rate_matrix(q[..., 0, :]), _rate_matrix(q[..., 1, :]),
                             lam[..., 0, :, :], lam[..., 1, :, :]), (w, dw, lam_ref, d_lam_ref)):
        assert np.array_equal(np.broadcast_to(table, dense.shape), dense)


def _relaxation_rate(spec: ScenarioSpec) -> float:
    """kappa = r + u of a one-spin model: the rate at which its populations
    relax to their stationary state (0 where they do not move)."""
    rates = scenarios._frame_rates(scenarios._KINDS[spec.kind].build(spec, spec.b_z, spec.b_x))[0][0]
    return float(rates.sum())


ONE_SPIN = tuple(kind for kind in KINDS if kind != "two-spin-coop")


@settings(max_examples=60, deadline=None, derandomize=True)
@given(model_points(kinds=ONE_SPIN), st.floats(0.0, 50.0))
def test_two_level_states_match_propagate(spec, t):
    # The closed-form populations of every one-spin kind (unitary-baseline
    # with one spin, coop-thermal at t_e > 0 too) against `propagate`'s
    # exponential of the whole Liouvillian.  That reference drifts off unit
    # trace by ~eps per unit of kappa t through its squarings: 1.0e-11 at
    # kappa t = 3.7e5 (dipole 10, t 48), where the 40-digit oracle state
    # puts the closed form within 1.1e-16.
    spec = replace(spec, n_spins=1)
    state, _ = lab_propagated(spec, t)
    bound = 1e-12 + np.finfo(float).eps * _relaxation_rate(spec) * t
    assert np.abs(state - propagate(build_model(spec), probe_state(spec), t)).max() <= bound


@st.composite
def relaxing_points(draw):
    """A one-spin model whose populations relax (kappa > 0): spontaneous
    emission or a thermal bath (t_e > 0 too), with dipoles up to 1e5, whose
    rates' b_z derivatives reach ~1e12, so that t d kappa overflows by
    t = 1e300."""
    kind = draw(st.sampled_from(("std-spont", "coop-spont", "coop-thermal")))
    return ScenarioSpec(
        kind=kind,
        b_z=draw(st.floats(0.05, 2.0)) * draw(st.sampled_from((1.0, -1.0))),
        b_x=draw(st.floats(0.0, 1.0)),
        gamma=draw(st.floats(0.01, 2.0)),
        dipole=10.0 ** draw(st.floats(-1.0, 5.0)),
        t_e=draw(st.floats(0.0, 1.0)),
    )


@settings(max_examples=60, deadline=None, derandomize=True)
@given(relaxing_points(), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
@example(ScenarioSpec(kind="coop-thermal", b_z=1.0, b_x=0.5, dipole=1e5, t_e=0.5), 0.0, 1.0)
def test_qfi_is_flat_past_relaxation(spec, start, fraction):
    # Once kappa t > 800, e^{-kappa t} is 0 and the populations are their
    # stationary state: the QFI no longer moves, out to t = 1e300.  There
    # e^{-kappa t} t d kappa is formed as (e^{-kappa t} t) d kappa, exactly
    # 0, and so is the coherences' e^{lam t} t d lam: formed with t d kappa
    # or t d lam first, either is 0 * inf = NaN (the example).
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        t0 = 800.0 / _relaxation_rate(spec) * 10.0**start
        t1 = 10.0 ** (math.log10(t0) + fraction * (300.0 - math.log10(t0)))
        assert qfi_at(spec, t1).value == pytest.approx(qfi_at(spec, t0).value, rel=1e-12, abs=0.0)


@st.composite
def four_level_points(draw):
    """(rates, d rates, p0, dp0) of the two-spin pattern: rates (a, b, c, e)
    in 1e-3 ... 2.3e4 (the fig. 5 block's reach), each exactly 0 one time in
    four, and at times (c, e) a permutation of (a, b), so that k2 = c + e
    equals k3 = a + b bit for bit.  Each rate's derivative is the rate
    times 1e-3 ... 1e2 of either sign (the model's is 3 r d omega / omega),
    so 0 where the rate is 0; p0 is a distribution and dp0 any vector in
    [-1, 1]."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rates = 10.0 ** rng.uniform(-3.0, math.log10(2.3e4), 4) * (rng.random(4) < 0.75)
    if draw(st.booleans()):
        rates[2:] = rates[rng.permutation(2)]
    d_rates = rates * rng.choice((-1.0, 1.0), 4) * 10.0 ** rng.uniform(-3.0, 2.0, 4)
    p0 = rng.random(4)
    return rates, d_rates, p0 / p0.sum(), rng.uniform(-1.0, 1.0, 4)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(four_level_points(), st.one_of(st.floats(0.0, 50.0), st.floats(-6.0, 1.0).map(lambda x: 10.0**x)))
def test_four_level_matches_the_block_exponential(point, t):
    # The closed-form two-spin populations and their derivatives (the
    # Taylor terms where K t < 0.5) against scipy's exponential of the Van
    # Loan block, whose own rounding grows with ||W t||_1 through its
    # squarings.  A derivative far larger than its rate (unphysical) put
    # scipy up to 7 times past this bound, 4.4e-9 off a 50-digit mpmath
    # exponential where the closed form was 1.2e-13 off.
    rates, d_rates, p0, dp0 = point
    w, dw = _rate_matrix(rates), _rate_matrix(d_rates)
    blocks = np.block([[w, np.zeros((4, 4))], [dw, w]])
    reference = scipy.linalg.expm(blocks * t) @ np.concatenate([p0, dp0])
    p, dp = scenarios._four_level(np.stack((rates, d_rates)), np.stack((p0, dp0)), np.array([t]))
    error = np.abs(np.concatenate([p, dp]) - reference).max() / np.abs(reference).max()
    assert error <= 1e-13 + 1e-16 * np.abs(w * t).sum(axis=0).max()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(four_level_points(), st.floats(0.0, 308.0))
@example((np.zeros(4), np.zeros(4), np.array([0.5, 0.0, 0.0, 0.5]), np.zeros(4)), 300.0)
@example((np.array([1.0, 2, 2, 1]), np.array([3.0, -6, 6, 3]), np.full(4, 0.25), np.zeros(4)), 300.0)
@example((np.array([2.3e4, 1e-3, 0, 0]), np.array([2.3e6, 0, 0, 0]), np.full(4, 0.25), np.zeros(4)), 308.0)
@example((np.array([1e-160, 3e-160, 2e-160, 5e-161]), np.array([1e-159, -3e-160, 5e-160, 0]),
          np.full(4, 0.25), np.array([0.1, -0.2, 0.3, -0.2])), 300.0)
def test_four_level_is_finite_out_to_t_1e300(point, decades):
    # Past t ~ 1e154, t^2 / 2 (the integral G of a rate 0, or H and G of
    # k3 - k2 = 0) passes the float range, and near t = 1e308 so does the
    # derivative of the time that level 2 holds, I2 (examples: the two-spin
    # unitary baseline, W = 0; k2 = k3 = 3; k2 = 0).  A term whose rate,
    # rate derivative or decay is 0 is still exactly 0, with no NaN and no
    # warning.  Rates ~1e-160 (a dipole ~1e-80) would put 1 / k^2 past the
    # float range too, unless scaled (the last example).
    rates, d_rates, p0, dp0 = point
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        p, dp = scenarios._four_level(np.stack((rates, d_rates)), np.stack((p0, dp0)), np.array([10.0**decades]))
    assert np.isfinite(p).all() and np.isfinite(dp).all()
    assert abs(p.sum() - 1.0) <= 1e-14


@settings(max_examples=60, deadline=None, derandomize=True)
@given(model_points(), st.floats(0.0, 6.0))
def test_eigenframe_derivative_matches_richardson_of_propagate(spec, t):
    # The state derivative of the eigenframe route against Richardson
    # differences of `propagate`'s complex Kronecker route, which shares no
    # code with it beyond `build_model`.  Those differences divide the
    # rounding of e^{L t} by the step: on the stiffest two-spin points
    # (dipole ~10, t ~5) they are good to ~5e-7, whatever the step.
    _, derivative = lab_propagated(spec, t)
    richardson = differentiate_state(state_family(spec, t))
    assert np.abs(derivative - richardson).max() <= 1e-6 * max(1.0, np.abs(richardson).max())


@settings(max_examples=60, deadline=None, derandomize=True)
@given(model_points(), st.floats(0.0, 6.0))
def test_frame_scores_equal_sld_of_the_lab_pair(spec, t):
    # The grids score each state in the Hamiltonian's eigenframe, which
    # conjugates rho and d rho by one unitary and so leaves the QFI as it
    # is (Liu et al., J. Phys. A 53, 023001 (2020)): the value equals the
    # SLD sum of the pair rotated back to the lab frame, to rounding, at
    # each point of a stack.
    times = [t, 0.5 * t, 0.25 * t]
    for time, result in zip(times, qfi_grid(spec, times)):
        lab = qfi_sld(*lab_propagated(spec, time))
        assert result.value == pytest.approx(lab.value, rel=0.0, abs=_rounding_floor(spec, time, lab.value))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(model_points(), st.floats(0.0, 150.0), st.floats(0.0, 6.0))
@example(ScenarioSpec(kind="two-spin-coop", b_z=0.0546875, b_x=0.0546875), 9.0, 0.0)
def test_output_state_invariants(spec, decades, t):
    # At fields down to 1e-150, where d rho grows to ~1e150: rho and d rho
    # Hermitian entry by entry, d rho traceless exactly, and the trace of
    # rho, which the output does not set, within 1e-12 of 1.  Two spins are
    # the exception: their upper levels 1 +- 2 b_z, which dH couples, fall
    # inside the relative degeneracy rule once their gap is at most 1e-6
    # max|E| (|b_z| below ~2.5e-7, as at the example), and fail with
    # DegeneracyError there; so may the ground level and the singlet, once
    # within the rule, where eigh does not resolve the singlet.
    spec = replace(spec, b_z=spec.b_z * 10.0**-decades, b_x=spec.b_x * 10.0**-decades)
    close = np.zeros(3, dtype=bool)
    if spec.kind == "two-spin-coop":
        levels = np.linalg.eigh(two_spin_hamiltonian(spec.b_z, spec.b_x))[0]
        close = np.diff(levels) <= GROUND_DEGENERACY_TOL * np.abs(levels).max()
    rho, drho, errors = scenarios._propagated(spec, spec.b_z, spec.b_x, probe_state(spec), t)
    if errors:
        (error,) = errors.values()
        assert isinstance(error, DegeneracyError), error
        assert close.any() and str(error).startswith("coupled levels degenerate"), error
        return
    assert not close[2]  # levels 2 and 3: the upper pair where |b_z| < 1
    assert np.array_equal(rho, rho.conj().T)
    assert np.array_equal(drho, drho.conj().T)
    assert np.trace(drho) == 0.0
    assert abs(np.trace(rho) - 1.0) <= 1e-12


@st.composite
def pure_families(draw):
    """A random normalized state psi of dimension 2 or 4 and a derivative
    dpsi of any size from 1e-3 to 1e3 with Re <psi|dpsi> = 0, the derivative
    of a normalized family."""
    d = draw(st.sampled_from((2, 4)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    psi = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    psi /= np.linalg.norm(psi)
    dpsi = (rng.standard_normal(d) + 1j * rng.standard_normal(d)) * 10.0 ** draw(st.floats(-3.0, 3.0))
    return psi, dpsi - np.vdot(psi, dpsi).real * psi


@settings(max_examples=200, deadline=None, derandomize=True)
@given(pure_families())
def test_pure_qubit_and_sld_routes_agree(family):
    # rho = |psi><psi| and d rho = |dpsi><psi| + |psi><dpsi|.  Measured over
    # 40,000 draws of this strategy: the routes differ by at most 2.3e-15 of
    # 4 <dpsi|dpsi>, the scale of the QFI (relative to the QFI itself, up to
    # 1.5e-11 where dpsi nearly parallels i psi and the pure formula
    # cancels).  The qubit formula takes the SLD route on a pure state.
    psi, dpsi = family
    rho, drho = np.outer(psi, psi.conj()), np.outer(dpsi, psi.conj()) + np.outer(psi, dpsi.conj())
    pure = qfi_pure(psi, dpsi).value
    bound = 1e-14 * 4.0 * np.vdot(dpsi, dpsi).real
    assert abs(qfi_sld(rho, drho).value - pure) <= bound
    if len(psi) == 2:
        qubit = qfi_qubit(rho, drho)
        assert qubit.method == "sld-spectral"
        assert abs(qubit.value - pure) <= bound


def _random_isometry(rng: np.random.Generator, rows: int, d: int) -> np.ndarray:
    """A Haar-random isometry (rows, d), V† V = I: a unitary where rows = d."""
    q, r = np.linalg.qr(rng.standard_normal((rows, d)) + 1j * rng.standard_normal((rows, d)))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


@st.composite
def full_rank_points(draw, dims):
    """(rho, drho, rng): a random state of a dimension in dims whose every
    eigenvalue is at least 1e-3, so that the SLD sum masks no pair, a
    random traceless Hermitian derivative of it, and a generator for the
    map applied to both."""
    d = draw(st.sampled_from(dims))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    weights = rng.random(d)
    levels = 1e-3 + (1.0 - d * 1e-3) * weights / weights.sum()
    u = _random_isometry(rng, d, d)
    m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    drho = m + m.conj().T
    return hermitize((u * levels) @ u.conj().T), hermitize(drho - np.trace(drho) / d * np.eye(d)), rng


QFI_FORMULAS = [pytest.param(qfi_sld, (2, 3, 4), id="qfi_sld"), pytest.param(qfi_qubit, (2,), id="qfi_qubit")]


@pytest.mark.parametrize("formula, dims", QFI_FORMULAS)
@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=st.data())
def test_a_b_z_independent_unitary_leaves_the_qfi_unchanged(formula, dims, data):
    # A unitary U that does not depend on b_z maps the family rho(b_z) to
    # U rho U†, whose QFI is rho's (Braunstein & Caves, PRL 72, 3439 (1994)).
    rho, drho, rng = data.draw(full_rank_points(dims))
    u = _random_isometry(rng, len(rho), len(rho))
    rotated = formula(hermitize(u @ rho @ u.conj().T), hermitize(u @ drho @ u.conj().T))
    assert rotated.value == pytest.approx(formula(rho, drho).value, rel=1e-9)


@pytest.mark.parametrize("formula, dims", QFI_FORMULAS)
@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=st.data(), kraus=st.integers(1, 4))
def test_a_b_z_independent_channel_never_raises_the_qfi(formula, dims, data, kraus):
    # A channel sum_k K_k rho K_k† with Kraus operators that do not depend
    # on b_z (the blocks of a random isometry, sum_k K_k† K_k = I) is a
    # coarse-graining: the QFI of its output is at most rho's (Braunstein &
    # Caves 1994).  One Kraus operator is a unitary, which keeps it.
    rho, drho, rng = data.draw(full_rank_points(dims))
    d = len(rho)
    blocks = _random_isometry(rng, kraus * d, d).reshape(kraus, d, d)
    channel = lambda m: hermitize(sum(k @ m @ k.conj().T for k in blocks))
    assert formula(channel(rho), channel(drho)).value <= formula(rho, drho).value * (1.0 + 1e-9)


@st.composite
def lindblad_models(draw):
    """A random Lindblad model of dimension 2 or 4: a random Hermitian H and
    one to three random jumps, at rates in [0, 2]."""
    d = draw(st.sampled_from((2, 4)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    complex_normal = lambda: rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rates = draw(st.lists(st.floats(0.0, 2.0), min_size=1, max_size=3))
    return LindbladModel(hermitize(complex_normal()), tuple(LindbladChannel(rate, complex_normal()) for rate in rates))


def _choi(model: LindbladModel, t: float) -> np.ndarray:
    """The Choi matrix sum_ij |i><j| (x) E(|i><j|) of the map E = `propagate`
    to time t, which takes only density matrices: by linearity, from its
    images of the projectors P_i and of |+><+| and |y><y|, |+> = (|i> + |j>)
    / sqrt 2 and |y> = (|i> + i |j>) / sqrt 2, since |i><j| = |+><+| +
    i |y><y| - (1 + i)(P_i + P_j) / 2."""
    d = model.dim
    basis = np.eye(d)
    image = lambda v: propagate(model, np.outer(v, v.conj()), t)
    diagonal = [image(e) for e in basis]
    choi = np.zeros((d, d, d, d), dtype=complex)  # choi[i, :, j, :] = E(|i><j|)
    for i, j in np.ndindex(d, d):
        if i == j:
            choi[i, :, i, :] = diagonal[i]
        else:
            plus, y = (basis[i] + basis[j]) / math.sqrt(2.0), (basis[i] + 1j * basis[j]) / math.sqrt(2.0)
            choi[i, :, j, :] = image(plus) + 1j * image(y) - (1 + 1j) / 2 * (diagonal[i] + diagonal[j])
    return choi


@settings(max_examples=60, deadline=None, derandomize=True)
@given(lindblad_models(), st.floats(0.0, 5.0))
def test_propagate_is_completely_positive_and_trace_preserving(model, t):
    # A Lindblad generator with rates >= 0 gives a CPTP map at every t >= 0
    # (Lindblad, Commun. Math. Phys. 48, 119 (1976)): its Choi matrix is
    # positive semidefinite, here within rounding, and the trace over the
    # output of E(|i><j|) is delta_ij.
    choi = _choi(model, t)
    d = model.dim
    flat = choi.reshape(d * d, d * d)
    assert np.abs(flat - flat.conj().T).max() <= 1e-12
    assert np.linalg.eigvalsh(hermitize(flat))[0] >= -1e-12
    assert np.abs(np.trace(choi, axis1=1, axis2=3) - np.eye(d)).max() <= 1e-12
