import math
from dataclasses import fields, replace

import numpy as np
import pytest

import coopmetro.scenarios as scenarios
from conftest import figure_scenarios
from coopmetro.linalg import eigh, identity, outer, pauli, tensor
from coopmetro.scenarios import (
    KINDS,
    DegeneracyError,
    InvalidScenarioError,
    OutOfRegimeError,
    ScenarioSpec,
    analytic_coop_spont_qfi,
    analytic_coop_spont_state,
    build_model,
    effective_two_spin_ground_qfi,
    exact_two_spin_ground_qfi,
    heisenberg_limit,
    probe_state,
    qfi_at,
    spin_count,
    standard_limit_formulas,
    taylor_coefficients,
    tradeoff_width,
    two_spin_hamiltonian,
)

FIG2 = dict(b_z=0.1, b_x=0.1, gamma=0.5)


class TestSpecValidation:
    def test_unknown_kind(self):
        with pytest.raises(InvalidScenarioError):
            ScenarioSpec(kind="bogus")

    def test_coop_requires_nonzero_bz(self):
        with pytest.raises(InvalidScenarioError, match="b_z"):
            ScenarioSpec(kind="coop-spont", b_z=0.0, b_x=0.1, gamma=0.5)

    def test_two_spin_requires_positive_bx(self):
        with pytest.raises(InvalidScenarioError, match="b_x"):
            ScenarioSpec(kind="two-spin-coop", b_z=1.0, b_x=0.0, dipole=10.0)

    def test_negative_rate_rejected(self):
        with pytest.raises(InvalidScenarioError):
            ScenarioSpec(kind="std-spont", b_z=0.1, gamma=-0.5)

    @pytest.mark.parametrize("field", ("b_z", "b_x", "gamma", "eta", "dipole", "t_e"))
    @pytest.mark.parametrize("value", (math.nan, math.inf, -math.inf))
    def test_non_finite_field_rejected(self, field, value):
        params = dict(b_z=1.0, b_x=0.1, dipole=10.0)
        params[field] = value
        with pytest.raises(InvalidScenarioError, match=f"{field} must be finite"):
            ScenarioSpec(kind="two-spin-coop", **params)

    def test_irrelevant_fields_ignored(self):
        # std-spont consults only b_z and gamma
        ScenarioSpec(kind="std-spont", b_z=0.1, gamma=0.5, eta=-3.0, dipole=-1.0)


# Every kind with every field set; a kind reads only its own.
ALL_FIELDS = dict(b_z=0.7, b_x=0.1, gamma=0.5, eta=0.5, dipole=1.0, t_e=0.1)


class TestKindTable:
    @pytest.mark.parametrize("kind,n_spins", [(kind, 1) for kind in KINDS] + [("unitary-baseline", 2)])
    def test_model_and_probe_dimensions(self, kind, n_spins):
        spec = ScenarioSpec(kind=kind, n_spins=n_spins, **ALL_FIELDS)
        dim = 2 ** spin_count(spec)
        assert build_model(spec).dim == dim
        assert probe_state(spec).shape == (dim, dim)

    def test_spin_counts(self):
        counts = {kind: spin_count(ScenarioSpec(kind=kind, **ALL_FIELDS)) for kind in KINDS}
        assert counts == {kind: 1 for kind in KINDS} | {"two-spin-coop": 2}
        assert spin_count(ScenarioSpec(kind="unitary-baseline", n_spins=2)) == 2

    def test_parameters_are_spec_fields(self):
        names = {f.name for f in fields(ScenarioSpec)} - {"kind"}
        for kind in KINDS:
            parameters = ScenarioSpec(kind=kind, **ALL_FIELDS).parameters
            assert "b_z" in parameters and set(parameters) <= names

    def test_two_spin_ignores_temperature(self):
        # two-spin-coop does not read t_e, so a negative one is not checked
        ScenarioSpec(kind="two-spin-coop", b_z=1.0, b_x=0.1, dipole=10.0, t_e=-1.0)


class TestBuildModel:
    def test_std_spont_structure(self):
        model = build_model(ScenarioSpec(kind="std-spont", b_z=0.1, gamma=0.5))
        np.testing.assert_allclose(model.hamiltonian, np.diag([0.1, -0.1]).astype(complex))
        (ch,) = model.channels
        assert ch.rate == 0.5
        np.testing.assert_array_equal(ch.jump, np.array([[0, 1], [0, 0]], dtype=complex))

    def test_coop_spont_jump_in_eigenbasis(self):
        spec = ScenarioSpec(kind="coop-spont", **FIG2)
        model = build_model(spec)
        _, vectors = eigh(model.hamiltonian)
        g, e = vectors[:, 0], vectors[:, 1]
        (ch,) = model.channels
        # sigma_-^H maps |e> to |g> and annihilates |g>
        np.testing.assert_allclose(ch.jump @ e, g, atol=1e-12)
        np.testing.assert_allclose(ch.jump @ g, np.zeros(2), atol=1e-12)

    def test_coop_deph_jump_along_field(self):
        spec = ScenarioSpec(kind="coop-deph", b_z=0.1, b_x=0.1, eta=0.5)
        model = build_model(spec)
        (ch,) = model.channels
        assert ch.rate == pytest.approx(0.25)
        delta = math.hypot(0.1, 0.1)
        np.testing.assert_allclose(ch.jump, model.hamiltonian / delta, atol=1e-15)
        # unit-square jump: dissipator reduces to eta/2 (s rho s - rho)
        np.testing.assert_allclose(ch.jump @ ch.jump, np.eye(2), atol=1e-12)

    def test_thermal_zero_temperature(self):
        spec = ScenarioSpec(kind="coop-thermal", b_z=0.3, b_x=0.1, dipole=2.0, t_e=0.0)
        model = build_model(spec)
        assert len(model.channels) == 1  # upward channel omitted at N = 0
        omega = 2.0 * math.hypot(0.3, 0.1)
        gamma0 = 4.0 * omega**3 * 2.0**2 / 3.0
        assert model.channels[0].rate == pytest.approx(gamma0, rel=1e-12)
        assert model.channels[0].rate == pytest.approx(1.3492384683385088, rel=1e-12)

    def test_thermal_finite_temperature(self):
        spec = ScenarioSpec(kind="coop-thermal", b_z=0.3, b_x=0.1, dipole=2.0, t_e=1.0)
        model = build_model(spec)
        assert len(model.channels) == 2
        omega = 2.0 * math.hypot(0.3, 0.1)
        gamma0 = 4.0 * omega**3 * 4.0 / 3.0
        occupation = 1.0 / (math.exp(omega / 1.0) - 1.0)
        down, up = model.channels
        assert down.rate == pytest.approx(gamma0 * (occupation + 1.0), rel=1e-12)
        assert up.rate == pytest.approx(gamma0 * occupation, rel=1e-12)

    def test_thermal_tiny_temperature_is_zero_temperature(self):
        # omega / t_e ~ 6300 is far past the exp overflow at ~709: the bath
        # occupation underflows to 0 and the model is the t_e = 0 one
        cold = ScenarioSpec(kind="coop-thermal", b_z=0.3, b_x=0.1, dipole=2.0, t_e=1e-4)
        zero = ScenarioSpec(kind="coop-thermal", b_z=0.3, b_x=0.1, dipole=2.0, t_e=0.0)
        assert len(build_model(cold).channels) == 1
        assert build_model(cold).channels[0].rate == build_model(zero).channels[0].rate
        assert qfi_at(cold, 1.0).value == qfi_at(zero, 1.0).value

    @pytest.mark.parametrize("x", (1e-3, 1.0, 100.0, 700.0))
    def test_thermal_occupation_across_temperatures(self, x):
        # omega / t_e = x from the high-temperature limit up to just below
        # the exp overflow: the occupation is the Bose form 1/(e^x - 1)
        omega = 2.0 * math.hypot(0.3, 0.1)
        spec = ScenarioSpec(kind="coop-thermal", b_z=0.3, b_x=0.1, dipole=2.0, t_e=omega / x)
        down, up = build_model(spec).channels
        assert up.rate / (down.rate - up.rate) == pytest.approx(1.0 / math.expm1(omega / spec.t_e), rel=1e-12)

    def test_two_spin_hamiltonian_matches_tensor_form(self):
        sz, sx, i2 = pauli("z"), pauli("x"), identity(2)
        sz1, sz2 = tensor(sz, i2), tensor(i2, sz)
        sx1, sx2 = tensor(sx, i2), tensor(i2, sx)
        for b_z, b_x in ((1.0, 0.1), (0.3, 1e-4), (-0.7, 2.5), (0.0, 0.0)):
            expected = sz1 @ sz2 + b_z * (sz1 + sz2) + b_x * (sx1 + sx2)
            np.testing.assert_array_equal(two_spin_hamiltonian(b_z, b_x), expected)

    def test_two_spin_channels(self):
        spec = ScenarioSpec(kind="two-spin-coop", b_z=1.0, b_x=0.1, dipole=10.0)
        model = build_model(spec)
        assert len(model.channels) == 4
        energies, vectors = eigh(model.hamiltonian)
        pairs = ((4, 3), (4, 2), (3, 2), (3, 1))
        for (i, j), ch in zip(pairs, model.channels):
            omega = energies[i - 1] - energies[j - 1]
            assert omega > 0
            assert ch.rate == pytest.approx(4.0 * omega**3 * 100.0 / 3.0, rel=1e-12)
            np.testing.assert_allclose(
                ch.jump, outer(vectors[:, j - 1], vectors[:, i - 1]), atol=1e-12
            )

    def test_two_spin_small_bx_gap_limit(self):
        # diagonal limit: spectrum -> {-1, -1, 0.4, 1.6} at b_z = 0.3, so the
        # (3,1) gap approaches 0.4 - (-1) = 1.4
        energies, _ = eigh(two_spin_hamiltonian(0.3, 1e-4))
        assert energies[2] - energies[0] == pytest.approx(1.4, abs=1e-3)

    def test_unitary_baseline_has_no_channels(self):
        model = build_model(ScenarioSpec(kind="unitary-baseline", b_z=0.1, n_spins=1))
        assert model.channels == ()


# Every kind (both unitary-baseline sizes), the thermal one at zero and at
# finite temperature, with every field it reads set.
STACK_SPECS = [
    ScenarioSpec(kind=kind, n_spins=n_spins, **{**ALL_FIELDS, "t_e": t_e})
    for kind, n_spins, t_e in [(kind, 1, 0.1) for kind in KINDS]
    + [("unitary-baseline", 2, 0.1), ("coop-thermal", 1, 0.0)]
]


class TestStackedBuilders:
    @pytest.mark.parametrize("spec", STACK_SPECS, ids=lambda s: f"{s.kind}-{s.n_spins}-{s.t_e}")
    def test_stack_equals_models_built_alone(self, spec):
        # Enough fields that numpy's array hypot, power or exp, which round the
        # last bit differently from Python's on a few percent of inputs, would show.
        rng = np.random.default_rng(11)
        b_z = rng.uniform(0.5, 1.5, (5, 100))
        b_x = rng.uniform(0.05, 0.3, 100)
        stack = scenarios._KINDS[spec.kind].build(spec, b_z, b_x)
        generators = stack.liouvillian
        for index in np.ndindex(b_z.shape):
            alone = build_model(replace(spec, b_z=float(b_z[index]), b_x=float(b_x[index[1]])))
            np.testing.assert_array_equal(stack.hamiltonian[index], alone.hamiltonian)
            np.testing.assert_array_equal(generators[index], alone.liouvillian)
            assert len(stack.channels) == len(alone.channels)
            for stacked, channel in zip(stack.channels, alone.channels):
                assert np.broadcast_to(stacked.rate, b_z.shape)[index] == channel.rate
                np.testing.assert_array_equal(np.broadcast_to(stacked.jump, stack.hamiltonian.shape)[index], channel.jump)

    def test_one_model_is_the_scalar_case(self):
        spec = ScenarioSpec(kind="two-spin-coop", b_z=1.0, b_x=0.1, dipole=10.0)
        model = build_model(spec)
        assert model.hamiltonian.shape == (4, 4) and model.liouvillian.shape == (16, 16)
        assert all(np.ndim(ch.rate) == 0 and ch.jump.shape == (4, 4) for ch in model.channels)


class TestProbeState:
    def test_single_spin(self):
        rho = probe_state(ScenarioSpec(kind="std-spont", b_z=0.1, gamma=0.5))
        np.testing.assert_array_equal(rho, np.full((2, 2), 0.5, dtype=complex))

    def test_two_spin(self):
        rho = probe_state(ScenarioSpec(kind="two-spin-coop", b_z=1.0, b_x=0.1, dipole=10.0))
        expected = np.zeros((4, 4), dtype=complex)
        expected[np.ix_((0, 3), (0, 3))] = 0.5
        np.testing.assert_array_equal(rho, expected)

    def test_purity(self):
        for spec in (
            ScenarioSpec(kind="coop-spont", **FIG2),
            ScenarioSpec(kind="two-spin-coop", b_z=1.0, b_x=0.1, dipole=10.0),
        ):
            rho = probe_state(spec)
            assert np.trace(rho @ rho).real == pytest.approx(1.0, abs=1e-14)


class TestAnalyticState:
    def test_initial_condition(self):
        rho = analytic_coop_spont_state(0.1, 0.1, 0.5, 0.0)
        np.testing.assert_allclose(rho, np.full((2, 2), 0.5), atol=1e-14)

    def test_decay_limit(self):
        # the eigenbasis coherence decays as e^{-gamma t/2}, so the distance
        # to |g><g| is ~cos(theta)/2 e^{-gamma t/2}: 1.1e-7 at gamma*t = 30,
        # below 1e-10 only once gamma*t >= 46
        spec = ScenarioSpec(kind="coop-spont", **FIG2)
        ground = eigh(build_model(spec).hamiltonian)[1][:, 0]
        rho = analytic_coop_spont_state(0.1, 0.1, 0.5, 60.0)  # gamma*t = 30
        assert np.max(np.abs(rho - outer(ground, ground))) <= 1e-6
        rho = analytic_coop_spont_state(0.1, 0.1, 0.5, 100.0)  # gamma*t = 50
        assert np.max(np.abs(rho - outer(ground, ground))) <= 1e-10

    def test_eigenbasis_excited_population(self):
        # <e|rho(t)|e> = (1 + sin(pi/4)) e^{-1/2} / 2 at the fig2 parameters, t = 1
        rho = analytic_coop_spont_state(0.1, 0.1, 0.5, 1.0)
        e = eigh(build_model(ScenarioSpec(kind="coop-spont", **FIG2)).hamiltonian)[1][:, 1]
        population = (e.conj() @ rho @ e).real
        expected = 0.5 * (1.0 + math.sin(math.pi / 4.0)) * math.exp(-0.5)
        assert population == pytest.approx(expected, rel=1e-12)

    def test_matches_propagation(self):
        spec = ScenarioSpec(kind="coop-spont", **FIG2)
        model = build_model(spec)
        from coopmetro.lindblad import propagate

        for t in (0.25, 1.0, 3.0):
            np.testing.assert_allclose(
                propagate(model, probe_state(spec), t),
                analytic_coop_spont_state(0.1, 0.1, 0.5, t),
                atol=1e-12,
            )


class TestAnalyticQfi:
    def test_zero_time(self):
        assert abs(analytic_coop_spont_qfi(0.1, 0.1, 0.5, 0.0)) <= 1e-12

    def test_small_time_slope(self):
        h = 1e-3
        slope = (analytic_coop_spont_qfi(0.1, 0.1, 0.5, h) - analytic_coop_spont_qfi(0.1, 0.1, 0.5, 0.0)) / h
        assert slope == pytest.approx(6.25, rel=0.01)

    def test_long_time_limit(self):
        # b_x^2/(b_x^2+b_z^2)^2 = 25 at the fig2 parameters
        assert analytic_coop_spont_qfi(0.1, 0.1, 0.5, 200.0) == pytest.approx(25.0, abs=1e-9)


class TestQfiAt:
    def test_zero_time_zero_qfi(self):
        for spec, _ in figure_scenarios():
            assert qfi_at(spec, 0.0).value <= 1e-10

    def test_matches_closed_form(self):
        spec = ScenarioSpec(kind="coop-spont", **FIG2)
        for t in (0.5, 1.0, 2.0, 5.0):
            value = qfi_at(spec, t).value
            oracle = analytic_coop_spont_qfi(0.1, 0.1, 0.5, t)
            assert value == pytest.approx(oracle, rel=1e-6)

    def test_method_tags(self):
        assert qfi_at(ScenarioSpec(kind="coop-spont", **FIG2), 1.0).method == "qubit-closed-form"
        assert (
            qfi_at(ScenarioSpec(kind="two-spin-coop", b_z=1.0, b_x=0.1, dipole=10.0), 1.0).method
            == "sld-spectral"
        )

    @pytest.mark.parametrize("t", (math.nan, math.inf))
    def test_non_finite_time_rejected(self, t):
        with pytest.raises(ValueError, match="finite"):
            qfi_at(ScenarioSpec(kind="coop-spont", **FIG2), t)

    def test_records_fd_step(self):
        result = qfi_at(ScenarioSpec(kind="coop-spont", **FIG2), 1.0)
        assert result.fd_step == pytest.approx(1e-5)

    def test_small_field_stencil_stays_off_zero(self):
        # The default step 1e-5 would put the stencil across b_z = 0, where
        # the cooperative kinds are undefined; it is capped at |b_z|/2.
        result = qfi_at(ScenarioSpec(kind="coop-spont", b_z=5e-6, b_x=0.1, gamma=0.5), 1.0)
        assert result.fd_step == 2.5e-6
        assert result.value == pytest.approx(analytic_coop_spont_qfi(5e-6, 0.1, 0.5, 1.0), rel=1e-9)

    def test_small_field_without_control_matches_standard(self):
        coop = qfi_at(ScenarioSpec(kind="coop-spont", b_z=3e-6, b_x=0.0, gamma=0.5), 1.0)
        std = qfi_at(ScenarioSpec(kind="std-spont", b_z=3e-6, gamma=0.5), 1.0)
        assert std.value == pytest.approx(standard_limit_formulas("spont", 0.5, 1.0), rel=1e-9)
        assert coop.value == pytest.approx(std.value, rel=1e-12)


class TestTaylorCoefficients:
    def test_reference_values(self):
        fdot0, fddot0 = taylor_coefficients(0.1, 0.1, 0.5)
        assert fdot0 == pytest.approx(6.25, rel=1e-12)
        # gamma^2 sin^2(th)/(2 Delta^2) (6 sin^2 th + 4 sin th - 1) + 8 at th = pi/4
        s = math.sin(math.pi / 4.0)
        expected = 0.25 * s * s / (2.0 * 0.02) * (6.0 * s * s + 4.0 * s - 1.0) + 8.0
        assert fddot0 == pytest.approx(expected, rel=1e-12)

    def test_unitary_limit(self):
        assert taylor_coefficients(0.1, 0.1, 0.0) == (0.0, 8.0)

    def test_consistent_with_numerical_derivatives(self):
        fdot0, fddot0 = taylor_coefficients(0.1, 0.1, 0.5)
        f = lambda t: analytic_coop_spont_qfi(0.1, 0.1, 0.5, t)
        h = 1e-3
        # one-sided O(h^2) stencils anchored at F(0) = 0
        fdot_num = (4.0 * f(h) - f(2.0 * h)) / (2.0 * h)
        fddot_num = (2.0 * f(0.0) - 5.0 * f(h) + 4.0 * f(2.0 * h) - f(3.0 * h)) / h**2
        assert fdot_num == pytest.approx(fdot0, rel=1e-4)
        assert fddot_num == pytest.approx(fddot0, rel=1e-4)


class TestStandardLimits:
    def test_spont(self):
        assert standard_limit_formulas("spont", 0.5, 1.0) == pytest.approx(2.426123, abs=1e-6)

    def test_deph(self):
        assert standard_limit_formulas("deph", 0.5, 1.0) == pytest.approx(1.471518, abs=1e-6)

    def test_noiseless(self):
        assert standard_limit_formulas("spont", 0.0, 1.5) == pytest.approx(9.0, rel=1e-12)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            standard_limit_formulas("thermal", 0.5, 1.0)


class TestHeisenberg:
    def test_values(self):
        assert heisenberg_limit(1, 1.0) == 4.0
        assert heisenberg_limit(2, 1.0) == 16.0
        assert heisenberg_limit(1, 0.0) == 0.0

    def test_invalid_spins(self):
        with pytest.raises(ValueError):
            heisenberg_limit(0, 1.0)


class TestEffectiveGroundQfi:
    def test_peak(self):
        assert effective_two_spin_ground_qfi(1.0, 0.1) == pytest.approx(50.0, rel=1e-12)

    def test_off_peak(self):
        # 0.02/(0.02+0.0121)^2
        assert effective_two_spin_ground_qfi(0.89, 0.1) == pytest.approx(
            0.02 / (0.02 + 0.0121) ** 2, rel=1e-12
        )
        assert effective_two_spin_ground_qfi(0.89, 0.1) == pytest.approx(19.41, abs=5e-3)

    def test_far_detuned(self):
        assert effective_two_spin_ground_qfi(100.0, 0.1) < 1e-6
        assert effective_two_spin_ground_qfi(-100.0, 0.1) < 1e-6

    def test_undefined_point(self):
        with pytest.raises(ValueError):
            effective_two_spin_ground_qfi(1.0, 0.0)

    def test_symmetric_about_critical_point(self):
        # symmetry holds exactly for the effective model only; the exact
        # model's asymmetry is reported below without being asserted
        for d in (0.05, 0.15, 0.4):
            left = effective_two_spin_ground_qfi(1.0 - d, 0.1)
            right = effective_two_spin_ground_qfi(1.0 + d, 0.1)
            assert left == pytest.approx(right, rel=1e-12)
        exact_left = exact_two_spin_ground_qfi(0.85, 0.1)
        exact_right = exact_two_spin_ground_qfi(1.15, 0.1)
        print(
            f"exact-model asymmetry at b_z = 1 -+ 0.15: {exact_left:.5f} vs {exact_right:.5f} "
            f"({(exact_right - exact_left) / exact_left:+.2%}, reported, not asserted)"
        )


class TestExactGroundQfi:
    def test_near_effective_at_critical_point(self):
        exact = exact_two_spin_ground_qfi(1.0, 0.1)
        assert exact == pytest.approx(50.0, rel=0.1)

    def test_far_detuned(self):
        assert exact_two_spin_ground_qfi(5.0, 0.1) < 0.01

    def test_degeneracy_error(self):
        with pytest.raises(DegeneracyError):
            exact_two_spin_ground_qfi(1.0, 1e-10)

    def test_requires_positive_bx(self):
        with pytest.raises(InvalidScenarioError):
            exact_two_spin_ground_qfi(1.0, 0.0)


class TestTradeoff:
    def test_reference_value(self):
        assert tradeoff_width(50.0, 1.0) == pytest.approx(0.247833, abs=1e-6)

    def test_boundary(self):
        assert tradeoff_width(16.0 * (1.0 + 1e-9), 1.0) < 1e-4

    def test_out_of_regime(self):
        with pytest.raises(OutOfRegimeError):
            tradeoff_width(16.0, 1.0)
        with pytest.raises(OutOfRegimeError):
            tradeoff_width(12.5, 1.0)

    def test_identity_on_log_grid(self):
        for t in (0.5, 1.0, 2.0):
            floor = 16.0 * t * t
            for f_max in np.geomspace(floor * (1.0 + 1e-6), 1e4, 40):
                width = tradeoff_width(float(f_max), t)
                inv_root = 1.0 / math.sqrt(f_max)
                assert abs(width**2 / 4.0 - inv_root * (1.0 / (4.0 * t) - inv_root)) <= 1e-12

    def test_monotone_decreasing_in_f_max(self):
        # W^2/4 = u(1/(4T) - u) with u = 1/sqrt(F_max) peaks at F_max = 64 T^2,
        # so the width-vs-peak trade-off is strictly decreasing only beyond it
        for t in (0.5, 1.0, 2.0):
            widths = [tradeoff_width(f, t) for f in np.geomspace(64.0 * t * t * (1 + 1e-9), 1e6, 50)]
            assert all(a > b for a, b in zip(widths, widths[1:]))

    def test_width_vanishes_at_both_regime_edges(self):
        assert tradeoff_width(16.0 * (1 + 1e-12), 1.0) < 1e-5
        assert tradeoff_width(1e12, 1.0) < 1e-2
        # rising branch below 64 T^2: larger peak, larger width
        assert tradeoff_width(20.0, 1.0) < tradeoff_width(40.0, 1.0) < tradeoff_width(64.0, 1.0)


class TestSchemeComparisons:
    def test_cooperative_beats_standard_spont(self):
        coop = ScenarioSpec(kind="coop-spont", **FIG2)
        std = ScenarioSpec(kind="std-spont", b_z=0.1, gamma=0.5)
        for t in np.arange(0.25, 5.01, 0.25):
            assert qfi_at(coop, float(t)).value > qfi_at(std, float(t)).value

    def test_heisenberg_surpassed_at_small_times(self):
        coop_spont = ScenarioSpec(kind="coop-spont", **FIG2)
        coop_deph = ScenarioSpec(kind="coop-deph", b_z=0.1, b_x=0.1, eta=0.5)
        for t in (0.05, 0.1, 0.25):
            assert qfi_at(coop_spont, t).value > heisenberg_limit(1, t)
            assert qfi_at(coop_deph, t).value > heisenberg_limit(1, t)

    def test_standard_dephasing_attains_maximum(self):
        spec = ScenarioSpec(kind="std-deph", b_z=0.1, eta=0.5)
        for t in (0.5, 1.0, 2.0):
            assert qfi_at(spec, t).value == pytest.approx(
                standard_limit_formulas("deph", 0.5, t), rel=1e-6
            )

    def test_thermal_beats_heisenberg_somewhere(self):
        spec = ScenarioSpec(kind="coop-thermal", b_z=0.3, b_x=0.1, dipole=2.0, t_e=0.0)
        assert any(qfi_at(spec, t).value > heisenberg_limit(1, t) for t in (0.5, 1.0, 2.0))

    def test_rate_free_cooperative_scenarios_recover_heisenberg(self):
        # with all rates zero and the control off, every single-spin coop
        # kind degenerates to the unitary baseline
        t = 1.5
        specs = (
            ScenarioSpec(kind="coop-spont", b_z=0.1, b_x=0.0, gamma=0.0),
            ScenarioSpec(kind="coop-deph", b_z=0.1, b_x=0.0, eta=0.0),
            ScenarioSpec(kind="coop-thermal", b_z=0.1, b_x=0.0, dipole=0.0, t_e=0.0),
        )
        for spec in specs:
            assert qfi_at(spec, t).value == pytest.approx(heisenberg_limit(1, t), rel=1e-6)
