import importlib
import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

import coopmetro.scenarios as scenarios
from conftest import outcome
from coopmetro.linalg import eigh
from coopmetro.qfi import (
    differentiate_pure_state,
    differentiate_state,
    qfi_pure,
    qfi_qubit,
    qfi_sld,
    richardson_stencil,
)
from coopmetro.scenarios import (
    InvalidScenarioError,
    ScenarioSpec,
    analytic_coop_spont_qfi,
    controlled_hamiltonian,
    effective_two_spin_ground_qfi,
    qfi_at,
    qfi_grid,
    state_family,
    tradeoff_width,
)
from coopmetro.sweep import SweepGrid, find_region, maximize_qfi, scenario_objective, sweep

SWEEP = importlib.import_module("coopmetro.sweep")  # the package attribute is the function
UNITARY = ScenarioSpec(kind="unitary-baseline", b_z=0.1, n_spins=1)
COOP = ScenarioSpec(kind="coop-spont", b_z=0.1, b_x=0.1, gamma=0.5)


class TestSweepGrid:
    def test_values(self):
        grid = SweepGrid("t", 0.0, 2.0, 9)
        np.testing.assert_allclose(grid.values(), np.linspace(0.0, 2.0, 9))

    def test_validation(self):
        with pytest.raises(ValueError):
            SweepGrid("q", 0.0, 1.0, 5)
        with pytest.raises(ValueError):
            SweepGrid("t", 1.0, 0.0, 5)
        with pytest.raises(ValueError):
            SweepGrid("t", 0.0, 1.0, 1)


class TestSweep:
    def test_unitary_baseline_values(self):
        points = sweep(UNITARY, SweepGrid("t", 0.0, 2.0, 9))
        assert [p.value for p in points] == list(np.linspace(0.0, 2.0, 9))
        for p in points:
            assert p.error is None
            assert p.result.value == pytest.approx(4.0 * p.value**2, rel=1e-8, abs=1e-10)

    def test_matches_analytic_curve(self):
        points = sweep(COOP, SweepGrid("t", 0.1, 5.0, 8))
        for p in points:
            assert p.result.value == pytest.approx(
                analytic_coop_spont_qfi(0.1, 0.1, 0.5, p.value), rel=1e-6
            )

    def test_failed_points_recorded(self):
        # b_z = 0 is invalid for cooperative kinds: recorded, not raised
        points = sweep(COOP, SweepGrid("b_z", -0.1, 0.1, 5), t=0.5)
        by_value = {round(p.value, 6): p for p in points}
        assert by_value[0.0].result is None
        assert "b_z" in by_value[0.0].error
        assert by_value[0.1].result is not None
        assert by_value[-0.1].result is not None

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_qfi_recorded_per_point(self):
        # at a subnormal b_z the capped FD step is subnormal and the QFI comes out NaN
        points = sweep(replace(COOP, b_z=2.2e-311), SweepGrid("b_z", 2.2e-311, 0.1, 3), t=1.0)
        assert points[0].error == "ValueError: QFI computed as nan, which is not finite"
        assert [p.result for p in points[1:]] == [qfi_at(replace(COOP, b_z=p.value), 1.0) for p in points[1:]]

    def test_requires_time_for_field_axes(self):
        with pytest.raises(ValueError):
            sweep(COOP, SweepGrid("b_z", 0.05, 0.2, 3))

    def test_deterministic(self):
        grid = SweepGrid("t", 0.1, 1.0, 4)
        assert sweep(COOP, grid) == sweep(COOP, grid)


# Every kind, with the relative tolerance of the grid walk against pointwise
# propagation: the two-spin derivative sits at a higher FD noise floor.
GRID_CASES = [
    (ScenarioSpec(kind="std-spont", b_z=0.1, gamma=0.5), SweepGrid("t", 0.0, 5.0, 11), 1e-8),
    (ScenarioSpec(kind="coop-spont", b_z=0.1, b_x=0.1, gamma=0.5), SweepGrid("t", 0.3, 5.0, 8), 1e-8),
    (ScenarioSpec(kind="std-deph", b_z=0.2, eta=0.4), SweepGrid("t", 0.0, 4.0, 9), 1e-8),
    (ScenarioSpec(kind="coop-deph", b_z=0.1, b_x=0.1, eta=0.5), SweepGrid("t", 0.0, 5.0, 11), 1e-8),
    (ScenarioSpec(kind="coop-thermal", b_z=0.3, b_x=0.1, dipole=2.0, t_e=0.1), SweepGrid("t", 0.0, 5.0, 11), 1e-8),
    (ScenarioSpec(kind="two-spin-coop", b_z=1.0, b_x=0.1, dipole=10.0), SweepGrid("t", 0.0, 1.0, 5), 1e-6),
    (ScenarioSpec(kind="unitary-baseline", b_z=0.1, n_spins=1), SweepGrid("t", 0.2, 2.0, 7), 1e-8),
    (ScenarioSpec(kind="unitary-baseline", b_z=0.3, n_spins=2), SweepGrid("t", 0.0, 2.0, 5), 1e-8),
]


# Stencils with a field that breaks the b_z rules: (spec, FD step, message).
INVALID_STENCILS = [
    # a cooperative stencil that reaches b_z = 0 exactly
    (COOP, 0.1, "b_z must be nonzero for kind 'coop-spont'"),
    # a stencil field that overflows to inf
    (replace(COOP, b_z=1.5e308), 1e308, "b_z must be finite, got inf"),
]


def pointwise_qfi(spec: ScenarioSpec, t: float, h: float) -> float:
    """Reference: one propagation per stencil point, no time grid."""
    family = state_family(spec, t)
    rho = family.evaluate(spec.b_z)
    formula = qfi_qubit if rho.shape[0] == 2 else qfi_sld
    return formula(rho, differentiate_state(family, h)).value


class TestTimeGrid:
    @pytest.mark.parametrize("spec, grid, rtol", GRID_CASES, ids=lambda c: getattr(c, "kind", ""))
    def test_matches_pointwise_propagation(self, spec, grid, rtol):
        points = sweep(spec, grid)
        for p in points:
            assert p.error is None
            reference = pointwise_qfi(spec, p.value, p.result.fd_step)
            assert p.result.value == pytest.approx(reference, rel=rtol, abs=1e-12)

    def test_negative_times_fail_alone(self):
        points = sweep(COOP, SweepGrid("t", -1.0, 1.0, 5))
        assert [p.error for p in points[:2]] == [
            "ValueError: time must be >= 0, got -1.0",
            "ValueError: time must be >= 0, got -0.5",
        ]
        for p in points[2:]:
            assert p.error is None
            assert p.result.value == pytest.approx(qfi_at(COOP, p.value).value, rel=1e-8, abs=1e-12)

    def test_rejects_uneven_or_descending_times(self):
        for times in ([0.1, 0.2, 0.5], [1.0, 0.5, 0.0]):
            with pytest.raises(ValueError, match="evenly spaced"):
                qfi_grid(COOP, times)

    def test_invariant_failure_fails_only_its_point(self, monkeypatch):
        grid = SweepGrid("t", 0.5, 2.5, 5)
        clean = sweep(COOP, grid)
        walk = scenarios._walk

        def corrupted(*args):
            states = walk(*args).copy()
            states[3, 2] *= 1.5  # trace 1.5 for one stencil model at t = 1.5
            return states

        monkeypatch.setattr(scenarios, "_walk", corrupted)
        points = sweep(COOP, grid)
        assert points[2].result is None
        assert points[2].error.startswith(
            "NumericalFailureError: propagation to t=1.5 lost state invariants: density matrix trace"
        )
        assert points[:2] + points[3:] == clean[:2] + clean[3:]

    @pytest.mark.parametrize("n_points", (3, 60))
    def test_two_exponentials_per_stencil_model(self, monkeypatch, n_points):
        calls = []
        expm = scipy.linalg.expm
        monkeypatch.setattr(scipy.linalg, "expm", lambda m: calls.append(m.shape) or expm(m))
        sweep(COOP, SweepGrid("t", 0.5, 5.0, n_points))
        assert len(calls) == 2
        assert sum(shape[0] for shape in calls) == 10
        calls.clear()
        sweep(COOP, SweepGrid("t", 0.0, 5.0, n_points))  # e^{L 0} = I needs no exponential
        assert len(calls) == 1
        assert sum(shape[0] for shape in calls) == 5

    @pytest.mark.parametrize("spec", [COOP, GRID_CASES[5][0]], ids=lambda s: s.kind)
    def test_qfi_at_one_builder_call_and_one_exponential(self, monkeypatch, spec):
        builds, exponentials = [], []
        kind = scenarios._KINDS[spec.kind]
        build = kind.build
        monkeypatch.setitem(
            scenarios._KINDS, spec.kind, kind._replace(build=lambda *args: builds.append(args[1]) or build(*args))
        )
        monkeypatch.setattr(scenarios, "build_model", None)  # the one-point builder is not used
        expm = scipy.linalg.expm
        monkeypatch.setattr(scipy.linalg, "expm", lambda m: exponentials.append(m.shape) or expm(m))
        qfi_at(spec, 1.0)
        (b_z,) = builds
        stencil, _ = richardson_stencil(spec.b_z, scenarios._fd_step(spec))
        assert b_z.tolist() == [spec.b_z, *stencil]
        d2 = 4 ** scenarios.spin_count(spec)
        assert exponentials == [(5, d2, d2)]

    @pytest.mark.parametrize("spec, h, message", INVALID_STENCILS)
    def test_invalid_stencil_field_raises_as_qfi_at(self, spec, h, message):
        with pytest.raises(InvalidScenarioError, match=message):
            qfi_at(spec, 0.5, h)
        assert outcome(lambda: qfi_grid(spec, [0.5, 1.0], h)) == outcome(lambda: qfi_at(spec, 0.5, h))


# Every kind (both unitary-baseline sizes), swept over each field it reads
# on a grid longer than one chunk.
FIELD_SPECS = [
    ScenarioSpec(kind="std-spont", b_z=0.1, gamma=0.5),
    COOP,
    ScenarioSpec(kind="std-deph", b_z=0.2, eta=0.4),
    ScenarioSpec(kind="coop-deph", b_z=0.1, b_x=0.1, eta=0.5),
    ScenarioSpec(kind="coop-thermal", b_z=0.3, b_x=0.1, dipole=2.0, t_e=0.1),
    ScenarioSpec(kind="two-spin-coop", b_z=1.0, b_x=0.1, dipole=10.0),
    UNITARY,
    ScenarioSpec(kind="unitary-baseline", b_z=0.3, n_spins=2),
]
FIELD_CASES = [(spec, axis) for spec in FIELD_SPECS for axis in ("b_z", "b_x") if axis in spec.parameters]
TWO_SPIN = FIELD_SPECS[5]


class TestFieldGrid:
    @pytest.mark.parametrize("spec, axis", FIELD_CASES, ids=lambda c: getattr(c, "kind", c))
    def test_equals_qfi_at_bit_for_bit(self, spec, axis):
        values = np.linspace(0.05, 1.2, 11)
        expected = [qfi_at(replace(spec, **{axis: float(v)}), 1.3) for v in values]
        assert qfi_grid(spec, values, axis=axis, t=1.3) == expected

    def test_cooperative_grid_through_zero(self):
        points = sweep(COOP, SweepGrid("b_z", -0.1, 0.1, 5), t=0.5)
        assert points[2].error == (
            "InvalidScenarioError: b_z must be nonzero for kind 'coop-spont' "
            "(the eigenbasis angle is undefined at b_z = 0)"
        )
        for p in points[:2] + points[3:]:
            assert p.result == qfi_at(replace(COOP, b_z=p.value), 0.5)

    @pytest.mark.parametrize("spec, h, message", INVALID_STENCILS)
    def test_invalid_stencil_field_records_qfi_at_error(self, spec, h, message):
        with pytest.raises(InvalidScenarioError, match=message):
            qfi_at(spec, 0.5, h)
        values = [spec.b_z, 1.01 * spec.b_z]  # the second is valid for b_z = 0.1 only
        expected = [outcome(lambda: qfi_at(replace(spec, b_z=b), 0.5, h)) for b in values]
        assert [outcome(lambda: o) for o in qfi_grid(spec, values, h, axis="b_z", t=0.5)] == expected

    def test_negative_time_fails_every_point_alone(self):
        points = sweep(COOP, SweepGrid("b_z", 0.1, 0.2, 3), t=-1.0)
        assert [p.error for p in points] == ["ValueError: time must be >= 0, got -1.0"] * 3

    def test_invariant_failure_fails_only_its_point(self, monkeypatch):
        grid = SweepGrid("b_z", 0.5, 1.5, 21)
        clean = sweep(TWO_SPIN, grid, t=1.0)
        states = scenarios._states
        calls = []

        def corrupted(v, d):
            out = states(v, d)
            if not calls:  # the first chunk only
                calls.append(v.shape)
                out = out.copy()
                out[2, 3] *= 1.5  # trace 1.5 for one stencil model of point 3
            return out

        monkeypatch.setattr(scenarios, "_states", corrupted)
        points = sweep(TWO_SPIN, grid, t=1.0)
        assert points[3].result is None
        assert points[3].error.startswith(
            "NumericalFailureError: propagation to t=1.0 lost state invariants: density matrix trace"
        )
        assert points[:3] + points[4:] == clean[:3] + clean[4:]

    def test_one_exponential_call_per_chunk(self, monkeypatch):
        calls = []
        expm = scipy.linalg.expm
        monkeypatch.setattr(scipy.linalg, "expm", lambda m: calls.append(m.shape) or expm(m))
        sweep(TWO_SPIN, SweepGrid("b_z", 0.5, 1.5, 21), t=1.0)
        assert len(calls) == math.ceil(21 / scenarios._CHUNK) < 105
        assert sum(shape[0] * shape[1] for shape in calls) == 5 * 21  # five stencil models per point

    def test_region_prescan_equals_plain_callable(self):
        objective = scenario_objective(TWO_SPIN, 1.0, "b_z")
        region = find_region(objective, 16.0, (0.5, 1.5))
        assert region.resolved
        assert region == find_region(lambda b: objective(b), 16.0, (0.5, 1.5))

    def test_region_one_grid_call_per_bisection_step(self, monkeypatch):
        sizes = []
        objective = scenario_objective(TWO_SPIN, 1.0, "b_z")
        (lower, _), (upper, _) = edges_bisected_alone(objective, 16.0, (0.5, 1.5))
        grid = SWEEP.qfi_grid

        def counted(spec, values, **kwargs):
            sizes.append(len(values))
            return grid(spec, values, **kwargs)

        monkeypatch.setattr(SWEEP, "qfi_grid", counted)
        monkeypatch.setattr(SWEEP, "qfi_at", None)  # no point is evaluated alone
        assert find_region(objective, 16.0, (0.5, 1.5)).resolved
        assert sizes == [101] + [2] * min(len(lower), len(upper)) + [1] * abs(len(lower) - len(upper))

    def test_maximize_coarse_scan_equals_plain_callable(self):
        objective = scenario_objective(TWO_SPIN, 1.0, "b_z")
        assert maximize_qfi(objective, [(0.5, 1.5)]) == maximize_qfi(lambda b: objective(b), [(0.5, 1.5)])

    def test_prescan_raises_the_first_failure(self):
        objective = scenario_objective(COOP, 0.5, "b_z")
        with pytest.raises(InvalidScenarioError, match="b_z must be nonzero"):
            find_region(objective, 1.0, (-0.1, 0.1), prescan=5)


def limited(objective, calls: int = 500):
    """The objective, raising once called more than `calls` times: a search
    that does not terminate fails instead of hanging."""
    count = iter(range(calls))

    def wrapped(*args):
        if next(count, None) is None:
            raise RuntimeError(f"objective called more than {calls} times")
        return objective(*args)

    return wrapped


def edges_bisected_alone(objective, threshold: float, bracket: tuple[float, float], xtol: float = 1e-4):
    """Reference for find_region on a unimodal objective: (midpoints,
    crossing) of each edge of its 101-point prescan, the lower first, each
    edge bisected alone."""
    xs = np.linspace(*bracket, 101)
    above = np.flatnonzero([objective(float(x)) >= threshold for x in xs])
    edges = []
    for lo, hi in ((xs[above[0] - 1], xs[above[0]]), (xs[above[-1]], xs[above[-1] + 1])):
        lo, hi = float(lo), float(hi)
        hi_above = objective(hi) - threshold > 0.0
        midpoints = []
        while hi - lo > xtol:
            midpoints.append(0.5 * (lo + hi))
            if (objective(midpoints[-1]) - threshold > 0.0) == hi_above:
                hi = midpoints[-1]
            else:
                lo = midpoints[-1]
        edges.append((midpoints, 0.5 * (lo + hi)))
    return edges


def effective_objective(failures: dict[str, int] | None = None):
    """The effective two-spin ground QFI at b_x = 0.1 (peak 50 at b_z = 1),
    recording the midpoints that find_region's bisection evaluates on each
    edge; raises LookupError(edge) at the failures[edge]-th midpoint of an
    edge."""
    failures = failures or {}
    prescan = []
    midpoints = {"lower": [], "upper": []}

    def objective(b):
        if len(prescan) < 101:
            prescan.append(b)
        else:
            edge = "lower" if b < 1.0 else "upper"
            midpoints[edge].append(b)
            if len(midpoints[edge]) == failures.get(edge):
                raise LookupError(edge)
        return effective_two_spin_ground_qfi(b, 0.1)

    return objective, midpoints


class TestFindRegion:
    def test_lockstep_edges_see_their_midpoints_alone(self):
        (lower, lower_end), (upper, upper_end) = edges_bisected_alone(effective_objective()[0], 16.0, (0.5, 1.5))
        objective, midpoints = effective_objective()
        region = find_region(objective, 16.0, (0.5, 1.5))
        assert midpoints == {"lower": lower, "upper": upper}
        assert (region.lower, region.upper) == (lower_end, upper_end)

    def test_lower_edge_failure_raises_at_once(self):
        objective, midpoints = effective_objective({"lower": 3})
        with pytest.raises(LookupError, match="lower"):
            find_region(objective, 16.0, (0.5, 1.5))
        assert (len(midpoints["lower"]), len(midpoints["upper"])) == (3, 2)

    def test_upper_edge_failure_waits_for_the_lower_edge(self):
        ((lower, _), _) = edges_bisected_alone(effective_objective()[0], 16.0, (0.5, 1.5))
        objective, midpoints = effective_objective({"upper": 1})
        with pytest.raises(LookupError, match="upper"):
            find_region(objective, 16.0, (0.5, 1.5))
        assert midpoints == {"lower": lower, "upper": midpoints["upper"][:1]}

    def test_lower_edge_failure_wins(self):
        objective, midpoints = effective_objective({"lower": 2, "upper": 1})
        with pytest.raises(LookupError, match="lower"):
            find_region(objective, 16.0, (0.5, 1.5))
        assert (len(midpoints["lower"]), len(midpoints["upper"])) == (2, 1)

    def test_effective_model_width(self):
        objective = lambda b: effective_two_spin_ground_qfi(b, 0.1)
        region = find_region(objective, 16.0, (0.5, 1.5))
        assert region.resolved
        width = region.upper - region.lower
        assert width == pytest.approx(tradeoff_width(50.0, 1.0), abs=1e-3)

    def test_tight_tolerance(self):
        objective = lambda b: effective_two_spin_ground_qfi(b, 0.1)
        region = find_region(objective, 16.0, (0.5, 1.5), xtol=1e-9)
        assert region.upper - region.lower == pytest.approx(tradeoff_width(50.0, 1.0), abs=1e-8)

    def test_unresolved_above_maximum(self):
        objective = lambda b: effective_two_spin_ground_qfi(b, 0.1)
        region = find_region(objective, 100.0, (0.5, 1.5))
        assert not region.resolved
        assert math.isnan(region.lower) and math.isnan(region.upper)

    def test_region_touching_bracket_edges(self):
        region = find_region(lambda x: 1.0, 0.5, (0.0, 1.0))
        assert region.resolved
        assert region.lower == 0.0 and region.upper == 1.0

    def test_evaluates_no_point_twice(self):
        calls = []

        def objective(b):
            calls.append(b)
            return effective_two_spin_ground_qfi(b, 0.1)

        region = find_region(objective, 16.0, (0.5, 1.5))
        assert region.resolved
        assert len(calls) == len(set(calls))
        assert region.upper - region.lower == pytest.approx(tradeoff_width(50.0, 1.0), abs=1e-3)

    def test_zero_xtol_bisects_to_adjacent_floats(self):
        objective = lambda b: effective_two_spin_ground_qfi(b, 0.1)
        region = find_region(limited(objective), 16.0, (0.5, 1.5), xtol=0.0)
        assert region.upper - region.lower == pytest.approx(tradeoff_width(50.0, 1.0), abs=1e-12)
        for edge in (region.lower, region.upper):
            # the threshold is crossed between the edge and one of its neighbouring floats
            left, here, right = (objective(x) > 16.0 for x in (math.nextafter(edge, -1.0), edge, math.nextafter(edge, 2.0)))
            assert left != here or here != right

    @pytest.mark.parametrize("xtol", [-1.0, math.nan, math.inf])
    def test_bad_xtol_rejected(self, xtol):
        with pytest.raises(ValueError, match="xtol must be finite and >= 0"):
            find_region(lambda b: effective_two_spin_ground_qfi(b, 0.1), 16.0, (0.5, 1.5), xtol=xtol)

    def test_invalid_bracket(self):
        with pytest.raises(ValueError):
            find_region(lambda x: x, 1.0, (1.0, 0.0))
        with pytest.raises(ValueError):
            find_region(lambda x: x, -1.0, (0.0, 1.0))


class TestMaximize:
    def test_effective_model_peak(self):
        argmax, value = maximize_qfi(lambda b: effective_two_spin_ground_qfi(b, 0.1), [(0.0, 2.0)])
        assert argmax == pytest.approx(1.0, abs=1e-4)
        assert value == pytest.approx(50.0, abs=1e-6)

    def test_monotone_decreasing_hits_lower_bound(self):
        # ground-state QFI b_x^2/(b_x^2+b_z^2)^2 decreases in b_z > 0
        def objective(b_z):
            def ground(b):
                return eigh(controlled_hamiltonian(b, 0.1))[1][:, 0]

            psi0, dpsi = differentiate_pure_state(ground, b_z)
            return qfi_pure(psi0, dpsi).value

        argmax, value = maximize_qfi(objective, [(0.05, 1.0)])
        assert argmax == pytest.approx(0.05, abs=1e-4)
        assert value == pytest.approx(0.01 / (0.01 + 0.05**2) ** 2, rel=1e-5)

    def test_unitary_baseline_hits_upper_bound_exactly(self):
        objective = scenario_objective(UNITARY, 0.0, axis="t")
        argmax, value = maximize_qfi(objective, [(0.0, 2.0)])
        assert argmax == 2.0
        assert value == pytest.approx(16.0, rel=1e-9)

    def test_refinement_soundness(self):
        objective = lambda b: effective_two_spin_ground_qfi(b, 0.1)
        coarse_best = max(objective(x) for x in np.linspace(0.0, 2.0, 33))
        _, value = maximize_qfi(objective, [(0.0, 2.0)])
        assert value >= coarse_best

    def test_two_parameter_maximization(self):
        # peak of the effective ground QFI over (b_z, b_x): b_z = 1 and the
        # smallest allowed control, value 1/(2 b_x^2)
        argmax, value = maximize_qfi(
            lambda bz, bx: effective_two_spin_ground_qfi(bz, bx),
            [(0.5, 1.5), (0.05, 0.3)],
        )
        assert argmax[0] == pytest.approx(1.0, abs=1e-3)
        assert argmax[1] == pytest.approx(0.05, abs=1e-3)
        assert value == pytest.approx(200.0, rel=1e-3)

    def test_zero_xtol_terminates(self):
        # 1.0 is not on the coarse grid of [0.5, 1.6], so golden section refines the peak
        objective = lambda b: effective_two_spin_ground_qfi(b, 0.1)
        argmax, value = maximize_qfi(limited(objective), [(0.5, 1.6)], xtol=0.0)
        assert argmax == pytest.approx(1.0, abs=1e-6)
        assert value == pytest.approx(50.0, rel=1e-12)

    @pytest.mark.parametrize("xtol", [-1.0, math.nan, math.inf])
    def test_bad_xtol_rejected(self, xtol):
        for bounds in ([(0.5, 1.5)], [(0.5, 1.5), (0.05, 0.3)]):
            with pytest.raises(ValueError, match="xtol must be finite and >= 0"):
                maximize_qfi(lambda *x: 0.0, bounds, xtol=xtol)

    def test_bounds_validation(self):
        with pytest.raises(ValueError):
            maximize_qfi(lambda x: x, [(0.0, math.inf)])
        with pytest.raises(ValueError):
            maximize_qfi(lambda x, y, z: 0.0, [(0, 1), (0, 1), (0, 1)])
