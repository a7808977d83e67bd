import importlib
import itertools
import math
import random
import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import coopmetro.scenarios as scenarios
from conftest import controlled_ground_state, outcome
from references import qfi_pure, state_family
from coopmetro.qfi import (
    QfiResult,
    _check_derivative,
    differentiate_state,
    qfi_qubit,
    qfi_sld,
)
from coopmetro.scenarios import (
    InvalidScenarioError,
    ScenarioSpec,
    analytic_coop_spont_qfi,
    effective_two_spin_ground_qfi,
    heisenberg_limit,
    qfi_at,
    qfi_grid,
    tradeoff_width,
)
from coopmetro.sweep import SweepGrid, find_region, maximize_qfi, scenario_objective, sweep

SWEEP = importlib.import_module("coopmetro.sweep")  # the package attribute is the function
QFI = importlib.import_module("coopmetro.qfi")
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

    def test_non_finite_qfi_recorded_per_point(self, request):
        grid = SweepGrid("b_z", 0.1, 0.2, 3)
        clean = sweep(COOP, grid, t=1.0)
        request.getfixturevalue("nan_first_qfi")  # the first point's QFI comes out NaN
        points = sweep(COOP, grid, t=1.0)
        assert points[0].error == "ValueError: QFI computed as nan, which is not finite"
        assert points[1:] == clean[1:]

    def test_non_finite_derivative_recorded_per_point(self, request):
        grid = SweepGrid("b_z", 0.1, 0.2, 3)
        clean = sweep(COOP, grid, t=1.0)
        request.getfixturevalue("nan_first_derivative")  # the first point's derivative is NaN
        points = sweep(COOP, grid, t=1.0)
        assert points[0].error == "NumericalFailureError: the b_z derivative of the state at t=1.0 has non-finite entries"
        assert points[1:] == clean[1:]

    def test_requires_time_for_field_axes(self):
        with pytest.raises(ValueError):
            sweep(COOP, SweepGrid("b_z", 0.05, 0.2, 3))

    def test_deterministic(self):
        grid = SweepGrid("t", 0.1, 1.0, 4)
        assert sweep(COOP, grid) == sweep(COOP, grid)


# Every kind, with the relative tolerance of the time grid against pointwise
# propagation and finite differences: the two-spin reference sits at a
# higher FD noise floor.
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


def pointwise_qfi(spec: ScenarioSpec, t: float) -> float:
    """Reference: Richardson differences of one propagation per stencil
    point, no time grid and no derivative of the generator."""
    family = state_family(spec, t)
    rho = family.evaluate(spec.b_z)
    formula = qfi_qubit if rho.shape[0] == 2 else qfi_sld
    return formula(rho, differentiate_state(family)).value


def exponential_calls(monkeypatch) -> list:
    """The shapes of the calls that reach scipy.linalg.expm from here on: the
    only matrix exponential left, which the `propagate` reference route
    looks up at each call."""
    calls = []
    expm = scipy.linalg.expm
    monkeypatch.setattr(scipy.linalg, "expm", lambda m: calls.append(m.shape) or expm(m))
    return calls


# Time grids of one spin whose states pass det rho = 1e-10, where qfi_qubit
# leaves its closed form for the SLD sum: the t_e = 0 thermal state is pure
# at t = 0, mixed until t ~ 20 and near-pure again once it has relaxed to
# the ground state; the unitary state is pure at every t, and its QFI 4 t^2
# overflows at t = 1e160.
ROUTE_CASES = [
    (
        ScenarioSpec(kind="coop-thermal", b_z=0.3, b_x=0.1, dipole=2.0, t_e=0.0),
        [*np.linspace(0.0, 30.0, 31).tolist(), 1e3, 1e300],
        {"qubit-closed-form", "sld-spectral"},
    ),
    (UNITARY, [*np.linspace(0.0, 5.0, 11).tolist(), 1e150, 1e160], {"sld-spectral"}),
]


class TestTimeGrid:
    @pytest.mark.parametrize("spec, grid, rtol", GRID_CASES, ids=lambda c: getattr(c, "kind", ""))
    def test_matches_pointwise_propagation(self, spec, grid, rtol):
        points = sweep(spec, grid)
        for p in points:
            assert p.error is None
            reference = pointwise_qfi(spec, p.value)
            assert p.result.value == pytest.approx(reference, rel=rtol, abs=1e-12)

    def test_negative_times_fail_alone(self):
        points = sweep(COOP, SweepGrid("t", -1.0, 1.0, 5))
        assert [p.error for p in points[:2]] == [
            "ValueError: time must be >= 0, got -1.0",
            "ValueError: time must be >= 0, got -0.5",
        ]
        for p in points[2:]:
            assert p.error is None
            assert p.result == qfi_at(COOP, p.value)

    def test_uneven_or_descending_times_equal_qfi_at(self):
        for times in ([0.1, 0.2, 0.5], [1.0, 0.5, 0.0]):
            assert qfi_grid(COOP, times) == [qfi_at(COOP, t) for t in times]

    @pytest.mark.parametrize("spec, times, methods", ROUTE_CASES, ids=["coop-thermal-cold", "unitary-baseline"])
    def test_qubit_points_take_the_route_of_qfi_qubit_alone(self, spec, times, methods):
        # Each point of one stack gets the value bits and tag, or the error,
        # that qfi_qubit gives its state alone and that qfi_at gives.
        states, drho, _ = scenarios._propagated(spec, spec.b_z, spec.b_x, scenarios._PROBES[2], np.asarray(times))
        grid = [outcome(lambda: o) for o in qfi_grid(spec, times)]
        with np.errstate(over="ignore", invalid="ignore"):
            alone = [outcome(lambda: qfi_qubit(rho, d_rho)) for rho, d_rho in zip(states, drho)]
        assert repr(grid) == repr(alone)
        assert repr(grid) == repr([outcome(lambda: qfi_at(spec, t)) for t in times])
        assert {o.method for o in grid if isinstance(o, QfiResult)} == methods

    def test_near_pure_points_make_one_stacked_sld_call(self, monkeypatch):
        spec, times, _ = ROUTE_CASES[0]
        sizes, alone = [], []
        stacked, one_state = scenarios._sld_outcomes, QFI.qfi_sld
        monkeypatch.setattr(scenarios, "_sld_outcomes", lambda rho, *args: sizes.append(len(rho)) or stacked(rho, *args))
        monkeypatch.setattr(QFI, "qfi_sld", lambda *args: alone.append(args) or one_state(*args))
        grid = qfi_grid(spec, times)
        assert sizes == [sum(o.method == "sld-spectral" for o in grid)]
        assert sizes[0] > 1
        assert alone == []

    @pytest.mark.parametrize(
        "entry, check", [((0, 1), "not Hermitian"), ((0, 0), "not traceless")], ids=["non-hermitian", "non-traceless"]
    )
    def test_bad_derivative_at_a_near_pure_point_fails_only_it(self, monkeypatch, entry, check):
        spec, times, _ = ROUTE_CASES[0]
        clean = qfi_grid(spec, times)
        k = 25  # t = 25, where the state has relaxed to near-pure
        assert clean[k].method == "sld-spectral"
        propagated, corrupted = scenarios._propagated, []

        def corrupting(*args):
            states, drho, errors = propagated(*args)
            drho[k][entry] += 1e-6
            corrupted.append(drho[k].copy())
            return states, drho, errors

        monkeypatch.setattr(scenarios, "_propagated", corrupting)
        grid = qfi_grid(spec, times)
        (bad,) = corrupted
        expected = outcome(lambda: _check_derivative(bad, traceless=True))
        assert expected[0] is ValueError and check in expected[1]
        assert outcome(lambda: grid[k]) == expected
        assert grid[:k] + grid[k + 1:] == clean[:k] + clean[k + 1:]

    def test_invariant_failure_fails_only_its_point(self, monkeypatch):
        grid = SweepGrid("t", 0.5, 2.5, 5)
        clean = sweep(COOP, grid)
        propagated = scenarios._propagated

        def corrupted(*args):
            states, drho, errors = propagated(*args)
            states[2] *= 1.5  # the state at t = 1.5: trace 1.5
            return states, drho, errors

        monkeypatch.setattr(scenarios, "_propagated", corrupted)
        points = sweep(COOP, grid)
        assert points[2].result is None
        assert points[2].error.startswith(
            "NumericalFailureError: propagation to t=1.5 lost state invariants: density matrix trace"
        )
        assert points[:2] + points[3:] == clean[:2] + clean[3:]

    @pytest.mark.parametrize("n_points", (3, 60))
    def test_one_exponential_call_per_time_grid(self, monkeypatch, n_points):
        # A time grid of one spin or two makes no exponential call at all:
        # both population blocks are closed forms.
        calls = exponential_calls(monkeypatch)
        for start in (0.5, 0.0):
            for spec in (COOP, TWO_SPIN):
                points = sweep(spec, SweepGrid("t", start, 5.0, n_points))
                assert all(point.result is not None for point in points), points
        assert calls == []

    @pytest.mark.parametrize("spec", [COOP, GRID_CASES[5][0]], ids=lambda s: s.kind)
    def test_qfi_at_one_builder_call_and_one_exponential(self, monkeypatch, spec):
        builds = []
        kind = scenarios._KINDS[spec.kind]
        build = kind.build
        monkeypatch.setitem(
            scenarios._KINDS, spec.kind, kind._replace(build=lambda *args: builds.append(args[1]) or build(*args))
        )
        monkeypatch.setattr(scenarios, "build_model", None)  # the one-point builder is not used
        exponentials = exponential_calls(monkeypatch)
        qfi_at(spec, 1.0)
        assert builds == [spec.b_z]  # no stencil fields
        assert exponentials == []  # the two- and four-level populations are closed forms

    @pytest.mark.parametrize(
        "spec",
        [spec for spec, _, _ in GRID_CASES],
        ids=lambda s: s.kind + ("-two-spins" if s.kind == "unitary-baseline" and s.n_spins == 2 else ""),
    )
    def test_single_spin_grids_make_no_exponential(self, monkeypatch, spec):
        # Every kind, one spin or two (coop-thermal at t_e > 0 and both
        # unitary-baseline sizes among them): one point, a time grid and a
        # grid over each field it reads all propagate the populations in
        # closed form, with no matrix exponential.
        calls = exponential_calls(monkeypatch)
        outcomes = [qfi_at(spec, 1.0), *qfi_grid(spec, [0.0, 0.5, 2.0])]
        for axis in ("b_z", "b_x"):
            if axis in spec.parameters:
                outcomes += qfi_grid(spec, [0.05, 0.3], axis=axis, t=1.0)
        assert all(isinstance(outcome, QfiResult) for outcome in outcomes), outcomes
        assert calls == []


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


def searches_like(seed: int) -> tuple:
    """(spec, t, bracket) of a two-spin region search, drawn from the
    parameter ranges of the bench's `searches` requests."""
    rng = random.Random(seed)
    spec = replace(TWO_SPIN, b_x=rng.uniform(0.05, 0.12), dipole=rng.uniform(9.0, 11.0))
    return spec, rng.uniform(0.8, 1.2), (rng.uniform(0.5, 0.7), rng.uniform(1.3, 1.5))


# The fig. 5 region (the `region` example of the README) and five like it.
REGION_CASES = [pytest.param(TWO_SPIN, 1.0, (0.5, 1.5), id="fig5")] + [
    pytest.param(*searches_like(seed), id=f"searches-{seed}") for seed in range(5)
]

# Grids that mix values that the array screen of `qfi_grid` rejects with
# values that it passes, for each cooperative kind; the last is a time grid.
_REJECTED_B_Z = [0.4, 0.0, -0.0, 1.1, -0.3, math.nan, math.inf, -math.inf, 0.9]
SCREEN_CASES = [(spec, "b_z", _REJECTED_B_Z) for spec in FIELD_SPECS if scenarios._KINDS[spec.kind].cooperative] + [
    (TWO_SPIN, "b_x", [0.1, 0.0, 0.3, -0.1, 0.05]),
    (TWO_SPIN, "t", [0.5, -1.0, math.nan, 0.0, math.inf, -0.0, 1.0]),
]


# Grids whose models fail to build at some points or at all (a frame that
# eigh cannot resolve, a rate or a rotation that overflows), with the number
# of points that fail: each fails alone, with the error of its model.
_TINY_CONTROL = ScenarioSpec(kind="two-spin-coop", b_z=1.0, b_x=1e-7, dipole=1.0)
BUILD_FAILURE_CASES = [
    pytest.param(_TINY_CONTROL, "b_z", np.geomspace(1e-7, 1e-5, 101), 20, id="two-spin-degenerate"),
    pytest.param(replace(_TINY_CONTROL, b_x=5.46875e-11), "b_z", np.geomspace(1e-11, 1, 101), 101, id="two-spin-all-degenerate"),
    pytest.param(
        ScenarioSpec(kind="coop-thermal", b_z=1.0, b_x=0.1, dipole=1.0, t_e=0.1), "b_z", np.geomspace(1e100, 1e105, 101), 56,
        id="thermal-rate-overflow",
    ),
    pytest.param(
        ScenarioSpec(kind="coop-thermal", b_z=1e103, b_x=0.1, dipole=1.0), "t", [0.0, 1.0, 2.0], 3, id="thermal-time-grid"
    ),
    pytest.param(replace(TWO_SPIN, dipole=1.0), "b_z", np.geomspace(1e100, 1.7e308, 60), 60, id="two-spin-overflow"),
    pytest.param(
        ScenarioSpec(kind="coop-deph", b_z=1.0, b_x=1e-310, eta=0.5), "b_z", np.geomspace(1e-312, 1e-300, 40), 40,
        id="deph-rotation-overflow",
    ),
    pytest.param(replace(TWO_SPIN, dipole=1.0), "b_x", np.geomspace(1e-12, 1e300, 80), 75, id="two-spin-b_x"),
]


def outcome_alone(spec: ScenarioSpec, axis: str, value: float, t: float):
    """qfi_at at one point of a grid over `axis` (at time t on a field
    axis), or the exception that it raises there, the spec's rules included."""
    try:
        return qfi_at(spec, value) if axis == "t" else qfi_at(replace(spec, **{axis: value}), t)
    except Exception as exc:
        return exc


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

    def test_negative_time_fails_every_point_alone(self):
        points = sweep(COOP, SweepGrid("b_z", 0.1, 0.2, 3), t=-1.0)
        assert [p.error for p in points] == ["ValueError: time must be >= 0, got -1.0"] * 3

    @pytest.mark.parametrize(
        "spec, axis, values",
        SCREEN_CASES + [pytest.param(*case.values[:3], id=case.id) for case in BUILD_FAILURE_CASES],
        ids=lambda c: getattr(c, "kind", None),
    )
    def test_screened_points_equal_qfi_at(self, spec, axis, values):
        t = 0.7
        grid = qfi_grid(spec, values, axis=axis, t=None if axis == "t" else t)
        alone = [outcome_alone(spec, axis, v, t) for v in values]
        assert [repr(outcome) for outcome in grid] == [repr(outcome) for outcome in alone]

    @pytest.mark.parametrize("spec, axis, values, failing", BUILD_FAILURE_CASES)
    def test_model_failures_fail_only_their_points_from_one_build(self, monkeypatch, spec, axis, values, failing):
        # One builder call for the stack, whose failing models fail only
        # their own points, with no warning.
        builds = []
        kind = scenarios._KINDS[spec.kind]
        build = kind.build
        counted = kind._replace(build=lambda *args: builds.append(np.broadcast(args[1], args[2]).shape) or build(*args))
        monkeypatch.setitem(scenarios._KINDS, spec.kind, counted)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            grid = qfi_grid(spec, values, axis=axis, t=None if axis == "t" else 1.0)
        assert builds == [() if axis == "t" else (len(values),)]
        assert sum(isinstance(outcome, Exception) for outcome in grid) == failing

    def test_fault_outside_the_model_failures_propagates(self, monkeypatch):
        # Only a model's named failure is recorded per point: any other
        # exception from a stack is a fault, raised out of the grid.
        def faulty(*args):
            raise IndexError("index 3 is out of bounds")

        monkeypatch.setattr(scenarios, "_propagated", faulty)
        with pytest.raises(IndexError, match="^index 3 is out of bounds$"):
            qfi_grid(TWO_SPIN, np.linspace(0.5, 1.5, 5), axis="b_z", t=1.0)

    # The field grids: on a time grid the spec's rules never run.
    @pytest.mark.parametrize("spec, axis, values", SCREEN_CASES[:-1], ids=lambda c: getattr(c, "kind", None))
    def test_spec_rules_run_only_where_the_screen_fails(self, monkeypatch, spec, axis, values):
        checked = []
        monkeypatch.setattr(scenarios, "replace", lambda s, **f: checked.append(f[axis]) or replace(s, **f))
        qfi_grid(spec, values, axis=axis, t=0.7)
        assert repr(checked) == repr([v for v in values if not (math.isfinite(v) and v > 0)])

    def test_invariant_failure_fails_only_its_point(self, monkeypatch):
        grid = SweepGrid("b_z", 0.5, 1.5, 21)
        clean = sweep(TWO_SPIN, grid, t=1.0)
        propagated = scenarios._propagated

        def corrupted(*args):
            states, drho, errors = propagated(*args)
            states[3] *= 1.5  # trace 1.5 for point 3 of the one chunk
            return states, drho, errors

        monkeypatch.setattr(scenarios, "_propagated", corrupted)
        points = sweep(TWO_SPIN, grid, t=1.0)
        assert points[3].result is None
        assert points[3].error.startswith(
            "NumericalFailureError: propagation to t=1.0 lost state invariants: density matrix trace"
        )
        assert points[:3] + points[4:] == clean[:3] + clean[4:]

    def test_one_exponential_call_per_chunk(self, monkeypatch):
        # One builder call per chunk of a two-spin field grid, and no
        # exponential: the population block is a closed form.
        builds = []
        kind = scenarios._KINDS[TWO_SPIN.kind]
        build = kind.build
        counted = kind._replace(build=lambda *args: builds.append(np.shape(args[1])) or build(*args))
        monkeypatch.setitem(scenarios._KINDS, TWO_SPIN.kind, counted)
        calls = exponential_calls(monkeypatch)
        sweep(TWO_SPIN, SweepGrid("b_z", 0.5, 1.5, 21), t=1.0)
        assert len(builds) == math.ceil(21 / scenarios._CHUNK) < 21
        assert sum(shape[0] for shape in builds) == 21
        assert calls == []

    def test_prescan_sized_grid_exponential_calls(self, monkeypatch):
        calls = exponential_calls(monkeypatch)
        outcomes = qfi_grid(TWO_SPIN, np.linspace(0.5, 1.5, 101), axis="b_z", t=1.0)
        assert all(isinstance(outcome, QfiResult) for outcome in outcomes)
        assert scenarios._CHUNK == 128  # the region prescan is one stack
        assert calls == []

    def test_prescan_sized_grid_diagonalizes_once_per_matrix_stack(self, monkeypatch):
        # One eigh of the Hamiltonians' stack and one of the states' stack,
        # which serves both the state check and the SLD sum; no eigvalsh.
        calls = []
        for name in ("eigh", "eigvalsh"):
            solver = getattr(np.linalg, name)
            monkeypatch.setattr(np.linalg, name, lambda m, solver=solver, name=name: calls.append(name) or solver(m))
        outcomes = qfi_grid(TWO_SPIN, np.linspace(0.5, 1.5, 101), axis="b_z", t=1.0)
        assert all(isinstance(outcome, QfiResult) for outcome in outcomes)
        assert calls == ["eigh", "eigh"]

    def test_stack_edges_equal_qfi_at_bit_for_bit(self):
        values = np.linspace(0.5, 1.5, 101)
        grid = qfi_grid(TWO_SPIN, values, axis="b_z", t=1.0)
        for k in (0, 31, 32, 63, 64, 100):
            assert grid[k] == qfi_at(replace(TWO_SPIN, b_z=float(values[k])), 1.0), k

    def test_stack_edges_of_a_longer_grid_equal_qfi_at_bit_for_bit(self):
        # Past _CHUNK points a field grid goes in stacks of _CHUNK points.
        chunk = scenarios._CHUNK
        values = np.linspace(0.5, 1.5, 2 * chunk + 5)
        grid = qfi_grid(TWO_SPIN, values, axis="b_z", t=1.0)
        for k in (chunk - 1, chunk, 2 * chunk - 1, 2 * chunk, len(values) - 1):
            assert grid[k] == qfi_at(replace(TWO_SPIN, b_z=float(values[k])), 1.0), k

    def test_grid_does_not_validate_the_probe_again(self, monkeypatch):
        grids = (lambda: qfi_grid(TWO_SPIN, [0.9, 1.1], axis="b_z", t=1.0), lambda: qfi_grid(TWO_SPIN, [0.5, 1.0]))
        expected = [grid() for grid in grids]
        monkeypatch.setattr(scenarios, "validate_density_matrix", None)
        assert [grid() for grid in grids] == expected
        assert not scenarios._PROBES[4].flags.writeable
        assert np.array_equal(scenarios._PROBES[4], scenarios.probe_state(TWO_SPIN))

    def test_region_prescan_equals_plain_callable(self):
        # The t objective crosses 35 once, near t = 0.65, and stays above it.
        for axis, threshold in (("b_z", 16.0), ("t", 35.0)):
            objective = scenario_objective(TWO_SPIN, 1.0, axis)
            region = find_region(objective, threshold, (0.5, 1.5))
            assert region.resolved, axis
            assert region == find_region(lambda x: objective(x), threshold, (0.5, 1.5)), axis

    def test_region_one_grid_call_per_bisection_step(self, monkeypatch):
        # At xtol = 0 the two edges take different numbers of steps, with
        # different numbers of points per step.
        sizes = []
        objective = scenario_objective(TWO_SPIN, 1.0, "b_z")
        (lower, _), (upper, _) = edges_searched_alone(objective, 16.0, (0.5, 1.5), xtol=0.0)
        assert len(lower) != len(upper)
        grid = SWEEP._grid_outcomes

        def counted(spec, values, axis, t):
            sizes.append(len(values))
            return grid(spec, values, axis, t)

        monkeypatch.setattr(SWEEP, "_grid_outcomes", counted)  # a point evaluated alone would add a 1
        assert find_region(objective, 16.0, (0.5, 1.5), xtol=0.0).resolved
        steps = itertools.zip_longest(lower, upper, fillvalue=[])
        assert sizes == [101] + [len(at_lower) + len(at_upper) for at_lower, at_upper in steps]

    @pytest.mark.parametrize(("spec", "t", "bracket"), REGION_CASES)
    def test_region_two_grid_calls_at_default_xtol(self, monkeypatch, spec, t, bracket):
        # Each edge starts within xtol/4 of its crossing, so one step of three
        # points per edge closes both.
        sizes = []
        grid = SWEEP._grid_outcomes

        def counted(spec, values, axis, t):
            sizes.append(len(values))
            return grid(spec, values, axis, t)

        monkeypatch.setattr(SWEEP, "_grid_outcomes", counted)
        assert find_region(scenario_objective(spec, t, "b_z"), heisenberg_limit(2, t), bracket).resolved
        assert sizes == [101, 6]

    @pytest.mark.parametrize(("spec", "t", "bracket"), REGION_CASES)
    def test_region_edges_within_a_quarter_xtol(self, spec, t, bracket):
        objective = scenario_objective(spec, t, "b_z")
        region, crossings = (find_region(objective, heisenberg_limit(2, t), bracket, xtol=xtol) for xtol in (1e-4, 1e-13))
        assert abs(region.lower - crossings.lower) <= 0.25e-4
        assert abs(region.upper - crossings.upper) <= 0.25e-4

    def test_maximize_coarse_scan_equals_plain_callable(self):
        objective = scenario_objective(TWO_SPIN, 1.0, "b_z")
        assert maximize_qfi(objective, [(0.5, 1.5)]) == maximize_qfi(lambda b: objective(b), [(0.5, 1.5)])

    @pytest.mark.parametrize("axis", ["b_z", "t"])
    def test_maximize_one_grid_call_per_scan(self, monkeypatch, axis):
        sizes = []
        grid = SWEEP._grid_outcomes

        def counted(spec, values, axis, t):
            sizes.append(len(values))
            return grid(spec, values, axis, t)

        monkeypatch.setattr(SWEEP, "_grid_outcomes", counted)  # a point evaluated alone would add a 1
        maximize_qfi(scenario_objective(TWO_SPIN, 1.0, axis), [(0.5, 1.5)])
        assert len(sizes) > 1
        assert set(sizes) == {33}

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


def edges_searched_alone(objective, threshold: float, bracket: tuple[float, float], xtol: float = 1e-4):
    """Reference for find_region on an objective that peaks at b_z = 1:
    (steps, crossing) of each edge of its 101-point prescan, the lower first,
    each edge searched alone: by find_region on the objective held at the
    threshold beyond the peak, where the other edge would be.  `steps` lists
    the points of each grid evaluation after the prescan."""
    edges = []
    for side in (-1.0, 1.0):
        steps = []
        outcomes = SWEEP._outcomes

        def recorded(objective_, xs):
            if objective_ is not objective:  # a call of the objective itself is no step of the search
                steps.append(list(xs))
            return outcomes(objective_, xs)

        def alone(b, side=side):
            return objective(b) if (b - 1.0) * side >= 0.0 else threshold

        with mock.patch.object(SWEEP, "_outcomes", recorded):
            region = find_region(alone, threshold, bracket, xtol=xtol)
        edges.append((steps[1:], region.lower if side < 0 else region.upper))
    return edges


def flat(steps) -> list:
    return [x for step in steps for x in step]


def effective_objective(failures: dict[str, int] | None = None):
    """The effective two-spin ground QFI at b_x = 0.1 (peak 50 at b_z = 1),
    recording the points that find_region's edge search evaluates on each
    edge; raises LookupError(edge) at the failures[edge]-th point of an
    edge."""
    failures = failures or {}
    prescan = []
    points = {"lower": [], "upper": []}

    def objective(b):
        if len(prescan) < 101:
            prescan.append(b)
        else:
            edge = "lower" if b < 1.0 else "upper"
            points[edge].append(b)
            if len(points[edge]) == failures.get(edge):
                raise LookupError(edge)
        return effective_two_spin_ground_qfi(b, 0.1)

    return objective, points


# How far rounding of threshold + bump moves a crossing of `bumps`: at most
# ulp(32) / 0.13 ~ 5.5e-14.
ROUNDING = 1e-12


@st.composite
def bumps(draw):
    """(objective, threshold, bracket, crossings): threshold + a smooth tanh or
    cubic bump over a random bracket, above the threshold strictly between
    the two crossings and below it outside them, with slope >= 0.13 at
    each."""
    lo = draw(st.floats(0.25, 2.0))
    width = draw(st.floats(0.5, 3.0))
    c1 = lo + width * draw(st.floats(0.0, 0.45))
    c2 = lo + width * draw(st.floats(0.55, 1.0))
    threshold = draw(st.floats(0.5, 32.0))
    if draw(st.booleans()):
        k = draw(st.floats(2.0, 200.0)) / width
        bump = lambda x: math.tanh(k * (x - c1)) * math.tanh(k * (c2 - x))
    else:
        m = lo - width * draw(st.floats(0.01, 2.0))
        bump = lambda x: (x - c1) * (c2 - x) * (x - m) / ((c2 - c1) * (c1 - m))
    return (lambda x: threshold + bump(x)), threshold, (lo, lo + width), (c1, c2)


class TestFindRegion:
    # At xtol = 1e-9 each edge of the effective model takes four steps
    # searched alone: three of three points and a last of two.
    XTOL = 1e-9

    def test_lockstep_edges_see_their_midpoints_alone(self):
        (lower, lower_end), (upper, upper_end) = edges_searched_alone(effective_objective()[0], 16.0, (0.5, 1.5), self.XTOL)
        assert [len(step) for step in lower] == [len(step) for step in upper] == [3, 3, 3, 2]
        objective, points = effective_objective()
        region = find_region(objective, 16.0, (0.5, 1.5), xtol=self.XTOL)
        assert points == {"lower": flat(lower), "upper": flat(upper)}
        assert (region.lower, region.upper) == (lower_end, upper_end)

    def test_lower_edge_failure_raises_at_once(self):
        # The lower edge fails at the first point of its second step: that
        # step ends, and the upper edge's second step is never evaluated.
        (lower, _), (upper, _) = edges_searched_alone(effective_objective()[0], 16.0, (0.5, 1.5), self.XTOL)
        objective, points = effective_objective({"lower": len(lower[0]) + 1})
        with pytest.raises(LookupError, match="lower"):
            find_region(objective, 16.0, (0.5, 1.5), xtol=self.XTOL)
        assert points == {"lower": flat(lower[:2]), "upper": flat(upper[:1])}

    def test_upper_edge_failure_waits_for_the_lower_edge(self):
        (lower, _), (upper, _) = edges_searched_alone(effective_objective()[0], 16.0, (0.5, 1.5), self.XTOL)
        objective, points = effective_objective({"upper": 1})
        with pytest.raises(LookupError, match="upper"):
            find_region(objective, 16.0, (0.5, 1.5), xtol=self.XTOL)
        assert points == {"lower": flat(lower), "upper": flat(upper[:1])}

    def test_lower_edge_failure_wins(self):
        (lower, _), (upper, _) = edges_searched_alone(effective_objective()[0], 16.0, (0.5, 1.5), self.XTOL)
        objective, points = effective_objective({"lower": len(lower[0]) + 1, "upper": 1})
        with pytest.raises(LookupError, match="lower"):
            find_region(objective, 16.0, (0.5, 1.5), xtol=self.XTOL)
        assert points == {"lower": flat(lower[:2]), "upper": flat(upper[:1])}

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

    @pytest.mark.parametrize(("n_spins", "t"), [(1, 0.5), (2, 0.5), (1, 3.0)])
    def test_flat_objective_unresolved(self, n_spins, t):
        # The unitary baseline's QFI is the Heisenberg limit at every b_z: its
        # values scatter about 6 ulps around it and locate no crossing.
        objective = scenario_objective(replace(UNITARY, n_spins=n_spins), t, "b_z")
        region = find_region(objective, heisenberg_limit(n_spins, t), (0.1, 1.0))
        assert not region.resolved
        assert math.isnan(region.lower) and math.isnan(region.upper)

    def test_crossings_in_the_end_cells_start_one_sided(self):
        # A cubic objective crossing the threshold in the first and the last
        # prescan cell: the cubic through the four prescan points nearest
        # each end cell is the objective itself, so each edge starts at its
        # crossing and one step of three points closes it there.
        c1, c2 = 0.004, 0.996
        calls = []

        def objective(x):
            calls.append(x)
            return 1.0 + (x - c1) * (c2 - x) * (x + 1.0)

        region = find_region(objective, 1.0, (0.0, 1.0))
        assert len(calls) == 101 + 2 * 3
        assert abs(region.lower - c1) <= 1e-12 and abs(region.upper - c2) <= 1e-12

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

    @pytest.mark.parametrize("side", ["lower", "upper"])
    def test_threshold_met_on_a_prescan_point(self, side):
        # The threshold 0.5 is met exactly at the prescan point 0.5, which
        # counts as inside (f >= threshold) in the prescan and in the edge
        # search alike: the edge ends within xtol/2 of it, not a cell away.
        objective = (lambda x: x) if side == "lower" else (lambda x: 1.0 - x)
        region = find_region(objective, 0.5, (0.0, 1.0))
        assert region.resolved
        edge, end = (region.lower, region.upper) if side == "lower" else (region.upper, region.lower)
        assert abs(edge - 0.5) <= 0.5e-4
        assert end == (1.0 if side == "lower" else 0.0)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(bumps(), st.floats(1e-10, 1e-3))
    def test_edges_of_smooth_crossings(self, bump, xtol):
        objective, threshold, bracket, crossings = bump
        calls, steps = [], []
        outcomes = SWEEP._outcomes

        def recorded(objective_, xs):
            steps.append(list(xs))
            return outcomes(objective_, xs)

        def counted(x):
            calls.append(x)
            return objective(x)

        with mock.patch.object(SWEEP, "_outcomes", recorded):
            region = find_region(counted, threshold, bracket, xtol=xtol)
        assert region.resolved
        for edge, crossing in zip((region.lower, region.upper), crossings):
            assert abs(edge - crossing) <= 0.5 * xtol + ROUNDING
        assert len(calls) == len(set(calls))
        cell = float(np.diff(np.linspace(*bracket, 101)).max())
        assert len(steps) - 1 <= max(0, math.ceil(math.log2(cell / xtol)))

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(bumps())
    def test_zero_xtol_ends_one_float_from_smooth_crossings(self, bump):
        objective, threshold, bracket, crossings = bump
        region = find_region(limited(objective), threshold, bracket, xtol=0.0)
        for edge, crossing in zip((region.lower, region.upper), crossings):
            assert abs(edge - crossing) <= ROUNDING
            if edge in bracket:
                continue  # the region reaches the bracket's end: no edge search there
            neighbours = (math.nextafter(edge, -math.inf), edge, math.nextafter(edge, math.inf))
            left, here, right = (objective(x) >= threshold for x in neighbours)
            assert left != here or here != right


EPS = np.finfo(float).eps


@st.composite
def lorentzians(draw):
    """(objective, bracket, x0, w): a / (1 + ((x - x0)/w)^2) over a random
    bracket, with its peak x0 inside it or up to 20% of its width beyond
    either end."""
    lo = draw(st.floats(-2.0, 2.0))
    width = draw(st.floats(0.5, 3.0))
    x0 = lo + width * draw(st.floats(-0.2, 1.2))
    w = width * 10.0 ** draw(st.floats(-4.0, 0.0))
    a = draw(st.floats(0.1, 100.0))
    return (lambda x: a / (1.0 + ((x - x0) / w) ** 2)), (lo, lo + width), x0, w


class TestMaximize:
    def test_effective_model_peak(self):
        argmax, value = maximize_qfi(lambda b: effective_two_spin_ground_qfi(b, 0.1), [(0.0, 2.0)])
        assert argmax == pytest.approx(1.0, abs=1e-4)
        assert value == pytest.approx(50.0, abs=1e-6)

    def test_monotone_decreasing_hits_lower_bound(self):
        # ground-state QFI b_x^2/(b_x^2+b_z^2)^2 decreases in b_z > 0
        def objective(b_z):
            return qfi_pure(*controlled_ground_state(b_z, 0.1)).value

        argmax, value = maximize_qfi(objective, [(0.05, 1.0)])
        assert argmax == pytest.approx(0.05, abs=1e-4)
        assert value == pytest.approx(0.01 / (0.01 + 0.05**2) ** 2, rel=1e-5)

    def test_unitary_baseline_hits_upper_bound_exactly(self):
        objective = scenario_objective(UNITARY, 0.0, axis="t")
        argmax, value = maximize_qfi(objective, [(0.0, 2.0)])
        assert argmax == 2.0
        assert value == pytest.approx(16.0, rel=1e-9)

    @pytest.mark.parametrize("n_spins", [1, 2])
    def test_flat_objective_reports_no_argmax(self, n_spins):
        # The unitary QFI 4 n^2 t^2 is the same at every b_z; rounding
        # scatters its 33 scanned values by a few ulps, which determine no
        # argmax.  At t = 1/n the value is 4.
        t = 1.0 / n_spins
        spec = replace(UNITARY, n_spins=n_spins)
        objective = scenario_objective(spec, t, "b_z")
        values = [objective(x) for x in np.linspace(0.1, 1.0, 33)]
        assert max(values) - min(values) <= 64 * np.spacing(4.0)
        argmax, value = maximize_qfi(objective, [(0.1, 1.0)])
        assert math.isnan(argmax)
        assert value == max(values)
        assert value == pytest.approx(4.0, rel=1e-14)

    @pytest.mark.parametrize("level", [2.5, -2.5, 0.0])
    def test_constant_objective_reports_no_argmax(self, level):
        # Only the first scan is held to the flat rule: a zoom that ends at
        # adjacent floats keeps its argmax (test_zero_xtol_terminates).
        argmax, value = maximize_qfi(lambda x: level, [(0.0, 1.0)])
        assert math.isnan(argmax) and value == level

    def test_refinement_soundness(self):
        objective = lambda b: effective_two_spin_ground_qfi(b, 0.1)
        coarse_best = max(objective(x) for x in np.linspace(0.0, 2.0, 33))
        _, value = maximize_qfi(objective, [(0.0, 2.0)])
        assert value >= coarse_best

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
            maximize_qfi(lambda x, y: 0.0, [(0.5, 1.5), (0.05, 0.3)])
        with pytest.raises(ValueError):
            maximize_qfi(lambda x, y, z: 0.0, [(0, 1), (0, 1), (0, 1)])

    def test_nan_objective_rejected(self):
        with pytest.raises(ValueError, match="the objective is NaN at 0.5625"):
            maximize_qfi(lambda x: math.nan if x > 0.55 else x, [(0.0, 1.0)])

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(lorentzians(), st.one_of(st.just(0.0), st.floats(1e-10, 1e-3)))
    def test_smooth_peaks(self, peak, xtol):
        objective, bracket, x0, w = peak
        argmax, value = maximize_qfi(objective, [bracket], xtol=xtol)
        top = min(max(x0, bracket[0]), bracket[1])
        # 4 w sqrt(eps): the width of the top that rounding flattens
        assert abs(argmax - top) <= 0.5 * xtol + 4.0 * w * math.sqrt(EPS)
        assert value >= max(objective(x) for x in np.linspace(*bracket, 33))
