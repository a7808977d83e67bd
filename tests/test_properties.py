"""Property tests: the one-point, field-grid and time-grid routes to the QFI
of one scenario point agree bit for bit, or fail with the same error, and so
do field grids of many points and their points one at a time; the states
propagated in the Hamiltonian's eigenframe agree with `propagate`'s complex
route, and their exact b_z derivatives with Richardson differences of it."""

from dataclasses import replace

import numpy as np
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import coopmetro.scenarios as scenarios
from conftest import outcome
from coopmetro.lindblad import propagate
from coopmetro.qfi import differentiate_state
from coopmetro.scenarios import (
    KINDS,
    InvalidScenarioError,
    ScenarioSpec,
    build_model,
    probe_state,
    qfi_at,
    qfi_grid,
    state_family,
)


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
def model_points(draw):
    """A spec of any kind at a field away from b_z = 0, or at b_z = 0 for
    the standard kinds; for two spins also b_x much smaller than b_z (down
    to 1e-3 |b_z|), away from the level crossings at |b_z| = 1 that b_x
    opens."""
    kind = draw(st.sampled_from(KINDS))
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
    probe = probe_state(spec)
    (state,), _ = scenarios._propagated(spec, spec.b_z, spec.b_x, probe, t, 0.0, 1)
    assert np.abs(state - propagate(build_model(spec), probe, t)).max() <= 1e-10


@settings(max_examples=60, deadline=None, derandomize=True)
@given(model_points(), st.floats(0.0, 6.0))
def test_eigenframe_derivative_matches_richardson_of_propagate(spec, t):
    # The state derivative of the eigenframe route against Richardson
    # differences of `propagate`'s complex Kronecker route, which shares no
    # code with it beyond `build_model`.  Those differences divide the
    # rounding of e^{L t} by the step: on the stiffest two-spin points
    # (dipole ~10, t ~5) they are good to ~5e-7, whatever the step.
    _, (derivative,) = scenarios._propagated(spec, spec.b_z, spec.b_x, probe_state(spec), t, 0.0, 1)
    richardson = differentiate_state(state_family(spec, t))
    assert np.abs(derivative - richardson).max() <= 1e-6 * max(1.0, np.abs(richardson).max())
