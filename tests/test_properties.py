"""Property tests: the one-point, field-grid and time-grid routes to the QFI
of one scenario point agree bit for bit, or fail with the same error."""

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from conftest import outcome
from coopmetro.scenarios import KINDS, InvalidScenarioError, ScenarioSpec, qfi_at, qfi_grid


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
    # finds a NaN QFI (from a subnormal FD step) equal to itself.
    alone = repr(outcome(lambda: qfi_at(spec, t)))
    assert repr(outcome(lambda: qfi_grid(spec, [spec.b_z], axis="b_z", t=t)[0])) == alone
    assert repr(outcome(lambda: qfi_grid(spec, [t, t + 1.0])[0])) == alone
