"""Property tests: the one-point, field-grid and time-grid routes to the QFI
of one scenario point agree bit for bit, or fail with the same error, and so
do field grids of many points and their points one at a time; the
exact b_z derivative of each kind's Liouvillian agrees with Richardson
differences of Liouvillians built at the stencil fields; the real Bloch
generators give back the complex ones, and the states propagated in Bloch
coordinates agree with `propagate`'s complex route."""

from dataclasses import replace

import numpy as np
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import coopmetro.scenarios as scenarios
from conftest import outcome
from coopmetro.lindblad import _BLOCH, _real_generator, liouvillian_derivative, propagate
from coopmetro.qfi import fd_default_step, richardson_stencil
from coopmetro.scenarios import KINDS, InvalidScenarioError, ScenarioSpec, build_model, probe_state, qfi_at, qfi_grid


@st.composite
def scenario_points(draw):
    kind = draw(st.sampled_from(KINDS))
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
@given(scenario_points())
def test_one_point_field_grid_and_time_grid_agree(point):
    spec, t = point
    # Compared by repr, which tells floats apart bit for bit and, unlike ==,
    # finds a NaN QFI equal to itself.
    alone = repr(outcome(lambda: qfi_at(spec, t)))
    assert repr(outcome(lambda: qfi_grid(spec, [spec.b_z], axis="b_z", t=t)[0])) == alone
    assert repr(outcome(lambda: qfi_grid(spec, [t, t + 1.0])[0])) == alone


@settings(max_examples=12, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.filter_too_much])
@given(scenario_points(), st.data())
def test_field_grid_equals_qfi_at_point_by_point(point, data):
    # Up to 70 points: one stack, or two and three stacks of _CHUNK points.
    spec, t = point
    axis = data.draw(st.sampled_from([a for a in ("b_z", "b_x") if a in spec.parameters]))
    n = data.draw(st.integers(1, 70))
    values = data.draw(st.lists(st.floats(-2.0, 2.0), min_size=n, max_size=n))
    grid = qfi_grid(spec, values, axis=axis, t=t)
    alone = [outcome(lambda: qfi_at(replace(spec, **{axis: v}), t)) for v in values]
    assert repr([outcome(lambda: g) for g in grid]) == repr(alone)


@st.composite
def generator_points(draw):
    """A spec of any kind at a field away from b_z = 0; for two spins also
    b_x much smaller than b_z (down to 1e-3 |b_z|), away from the level
    crossings at |b_z| = 1 that b_x opens."""
    kind = draw(st.sampled_from(KINDS))
    b_z = draw(st.floats(0.05, 2.0)) * draw(st.sampled_from((1.0, -1.0)))
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
@given(generator_points())
def test_exact_generator_derivative_matches_richardson(spec):
    model, tangent = scenarios._KINDS[spec.kind].build(spec, spec.b_z, spec.b_x)
    exact = liouvillian_derivative(model, *tangent)
    stencil, derivative = richardson_stencil(spec.b_z, fd_default_step(spec.b_z))
    richardson = derivative([build_model(replace(spec, b_z=b)).liouvillian for b in stencil])
    scale = np.abs(exact).max()
    assert np.abs(exact - richardson).max() <= 1e-8 * scale


@settings(max_examples=60, deadline=None, derandomize=True)
@given(generator_points())
def test_real_generators_give_back_the_complex_ones(spec):
    model, tangent = scenarios._KINDS[spec.kind].build(spec, spec.b_z, spec.b_x)
    for complex_form in (model.liouvillian, liouvillian_derivative(model, *tangent)):
        u = _BLOCH[model.dim].columns
        real = _real_generator(complex_form)
        assert real.dtype == np.float64 and not real[0].any()
        assert np.abs(u @ real @ u.conj().T - complex_form).max() <= 1e-12 * np.abs(complex_form).max()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(generator_points(), st.floats(0.0, 6.0))
def test_bloch_states_match_propagate(spec, t):
    probe = probe_state(spec)
    (state,), _ = scenarios._propagated(spec, spec.b_z, spec.b_x, probe, t, 0.0, 1)
    assert np.abs(state - propagate(build_model(spec), probe, t)).max() <= 1e-10
