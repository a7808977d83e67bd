import math
import re
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest

import coopmetro.scenarios as scenarios
from conftest import figure_scenarios, outcome, random_hermitian
from references import analytic_coop_spont_state, state_family
from coopmetro.lindblad import NumericalFailureError
from coopmetro.qfi import differentiate_state, qfi_sld
from coopmetro.scenarios import (
    GROUND_DEGENERACY_TOL,
    KINDS,
    DegeneracyError,
    InvalidScenarioError,
    SIGMA_X,
    SIGMA_Z,
    OutOfRegimeError,
    ScenarioSpec,
    analytic_coop_spont_qfi,
    build_model,
    controlled_hamiltonian,
    effective_two_spin_ground_qfi,
    exact_two_spin_ground_qfi,
    heisenberg_limit,
    probe_state,
    qfi_at,
    qfi_grid,
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
        _, vectors = np.linalg.eigh(model.hamiltonian)
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
        assert model.channels[1].rate == 0.0  # no upward rate at N = 0
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

    @pytest.mark.parametrize("t_e", (1e-4, 1e-308, 5e-324))
    def test_thermal_tiny_temperature_is_zero_temperature(self, t_e):
        # omega / t_e ~ 6300 is far past the exp overflow at ~709, and at
        # 1e-308 and below omega / t_e itself overflows to inf: the bath
        # occupation underflows to 0, with no warning, and the model is the
        # t_e = 0 one
        cold = ScenarioSpec(kind="coop-thermal", b_z=0.3, b_x=0.1, dipole=2.0, t_e=t_e)
        zero = ScenarioSpec(kind="coop-thermal", b_z=0.3, b_x=0.1, dipole=2.0, t_e=0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            frames = [scenarios._KINDS[spec.kind].build(spec, spec.b_z, spec.b_x) for spec in (cold, zero)]
            assert np.array_equal(frames[0].rates, frames[1].rates)  # each rate and its b_z derivative
            assert [ch.rate for ch in build_model(cold).channels] == [ch.rate for ch in build_model(zero).channels]
            assert qfi_at(cold, 1.0).value == qfi_at(zero, 1.0).value

    @pytest.mark.parametrize("x", (1e-3, 1.0, 100.0, 700.0))
    def test_thermal_occupation_across_temperatures(self, x):
        # omega / t_e = x from the high-temperature limit up to just below
        # the exp overflow: the occupation is the Bose form 1/(e^x - 1)
        omega = 2.0 * math.hypot(0.3, 0.1)
        spec = ScenarioSpec(kind="coop-thermal", b_z=0.3, b_x=0.1, dipole=2.0, t_e=omega / x)
        down, up = build_model(spec).channels
        assert up.rate / (down.rate - up.rate) == pytest.approx(1.0 / math.expm1(omega / spec.t_e), rel=1e-12)

    def test_spin_operators_read_only_in_the_basis_convention(self):
        # sigma_z|0> = +|0>, so (sigma_x + i sigma_y)/2 = |0><1| is the jump of std-spont.
        # The operators, and so every Hamiltonian built from them, are real.
        np.testing.assert_array_equal(SIGMA_Z @ np.array([1.0, 0.0]), [1.0, 0.0])
        np.testing.assert_array_equal(SIGMA_X, [[0.0, 1.0], [1.0, 0.0]])
        for op in (SIGMA_Z, SIGMA_X, scenarios.SZZ, scenarios.SZ_SUM, scenarios.SX_SUM):
            assert op.dtype == np.float64 and not op.flags.writeable
            with pytest.raises(ValueError):
                op[0, 0] = 0.0
        assert controlled_hamiltonian(np.array([0.1, 0.2]), 0.1).dtype == np.float64
        assert two_spin_hamiltonian(np.array([0.1, 0.2]), 0.1).dtype == np.float64

    def test_two_spin_diagonal_spectrum(self):
        # b_x = 0 makes the two-spin Hamiltonian diagonal; read off
        # b_z(±1±1) + (±1)(±1) at b_z = 0.3.
        values, _ = np.linalg.eigh(two_spin_hamiltonian(0.3, 0.0))
        np.testing.assert_allclose(sorted(values), [-1.0, -1.0, 0.4, 1.6], atol=1e-12)

    def test_two_level_spectrum(self):
        h = 0.1 * SIGMA_Z + 0.1 * SIGMA_X
        expected = math.sqrt(0.1**2 + 0.1**2)
        np.testing.assert_allclose(np.linalg.eigh(h)[0], [-expected, expected], rtol=1e-12)

    def test_stack_equals_matrices_alone(self):
        # numpy's batched eigh gives each matrix of a stack the bits it gives
        # it alone: what makes a stack of models equal its models one by one.
        rng = np.random.default_rng(29)
        for dim, degenerate in ((2, np.eye(2, dtype=complex)), (4, two_spin_hamiltonian(0.3, 0.0))):
            matrices = [degenerate] + [random_hermitian(rng, dim) for _ in range(29)]
            stack = np.array(matrices).reshape(5, 6, dim, dim)
            values, vectors = np.linalg.eigh(stack)
            for index in np.ndindex(5, 6):
                alone_values, alone_vectors = np.linalg.eigh(stack[index])
                assert np.array_equal(values[index], alone_values)
                assert np.array_equal(vectors[index], alone_vectors)

    def test_two_spin_hamiltonian_matches_tensor_form(self):
        sz, sx, i2 = SIGMA_Z, SIGMA_X, np.eye(2, dtype=complex)
        sz1, sz2 = np.kron(sz, i2), np.kron(i2, sz)
        sx1, sx2 = np.kron(sx, i2), np.kron(i2, sx)
        for b_z, b_x in ((1.0, 0.1), (0.3, 1e-4), (-0.7, 2.5), (0.0, 0.0)):
            expected = sz1 @ sz2 + b_z * (sz1 + sz2) + b_x * (sx1 + sx2)
            np.testing.assert_array_equal(two_spin_hamiltonian(b_z, b_x), expected)

    def test_two_spin_channels(self):
        spec = ScenarioSpec(kind="two-spin-coop", b_z=1.0, b_x=0.1, dipole=10.0)
        model = build_model(spec)
        assert len(model.channels) == 4
        energies, vectors = np.linalg.eigh(model.hamiltonian)
        pairs = ((4, 3), (4, 2), (3, 2), (3, 1))
        # Compared gauge-free: a sign or phase on an eigenvector changes the
        # jump |E_j><E_i| but not L†L = |E_i><E_i| nor L rho L† =
        # <E_i|rho|E_i> |E_j><E_j|, which are what the dissipator reads.
        rho = np.random.default_rng(3).standard_normal((4, 4)) + 1j * np.random.default_rng(4).standard_normal((4, 4))
        rho = rho @ rho.conj().T
        for (i, j), ch in zip(pairs, model.channels):
            omega = energies[i - 1] - energies[j - 1]
            assert omega > 0
            assert ch.rate == pytest.approx(4.0 * omega**3 * 100.0 / 3.0, rel=1e-12)
            upper, lower = vectors[:, i - 1], vectors[:, j - 1]
            np.testing.assert_allclose(ch.jump.conj().T @ ch.jump, np.outer(upper, upper.conj()), atol=1e-12)
            landed = (upper.conj() @ rho @ upper) * np.outer(lower, lower.conj())
            np.testing.assert_allclose(ch.jump @ rho @ ch.jump.conj().T, landed, atol=1e-12)

    def test_two_spin_small_bx_gap_limit(self):
        # diagonal limit: spectrum -> {-1, -1, 0.4, 1.6} at b_z = 0.3, so the
        # (3,1) gap approaches 0.4 - (-1) = 1.4
        energies, _ = np.linalg.eigh(two_spin_hamiltonian(0.3, 1e-4))
        assert energies[2] - energies[0] == pytest.approx(1.4, abs=1e-3)

    def test_unitary_baseline_has_no_channels(self):
        model = build_model(ScenarioSpec(kind="unitary-baseline", b_z=0.1, n_spins=1))
        assert model.channels == ()


# Every kind (both unitary-baseline sizes), the thermal one at zero and at
# finite temperature, with every field it reads set.  At t_e = 0.002,
# omega / t_e spans ~500-1530 over a stack, so the absorption rate
# underflows to 0 at some of its points and not at others.
STACK_SPECS = [
    ScenarioSpec(kind=kind, n_spins=n_spins, **{**ALL_FIELDS, "t_e": t_e})
    for kind, n_spins, t_e in [(kind, 1, 0.1) for kind in KINDS]
    + [("unitary-baseline", 2, 0.1), ("coop-thermal", 1, 0.0), ("coop-thermal", 1, 0.002)]
]


class TestStackedBuilders:
    @pytest.mark.parametrize("spec", STACK_SPECS, ids=lambda s: f"{s.kind}-{s.n_spins}-{s.t_e}")
    def test_stack_equals_models_built_alone(self, spec):
        # Enough fields that a rate whose last bit depended on the array's
        # length would show: numpy's scalar power rounds differently from its
        # array loop on a few percent of inputs, so the builders use products.
        rng = np.random.default_rng(11)
        b_z = rng.uniform(0.5, 1.5, (5, 100))
        b_x = rng.uniform(0.05, 0.3, 100)
        build = scenarios._KINDS[spec.kind].build
        stack = build(spec, b_z, b_x)
        for index in np.ndindex(b_z.shape):
            alone = build(spec, float(b_z[index]), float(b_x[index[1]]))
            for stacked, single in zip(stack[:5], alone[:5]):  # H, E, V, dE, V† dV
                if single is None:
                    assert stacked is None
                else:
                    np.testing.assert_array_equal(np.broadcast_to(stacked, (*b_z.shape, *single.shape))[index], single)
            assert stack.channels is alone.channels
            np.testing.assert_array_equal(np.broadcast_to(stack.rates, (*b_z.shape, *alone.rates.shape))[index], alone.rates)
        model = build_model(replace(spec, b_z=float(b_z[0, 0]), b_x=float(b_x[0])))
        np.testing.assert_array_equal(model.hamiltonian, stack.hamiltonian[0, 0])

    def test_one_model_is_the_scalar_case(self):
        spec = ScenarioSpec(kind="two-spin-coop", b_z=1.0, b_x=0.1, dipole=10.0)
        model = build_model(spec)
        assert model.hamiltonian.shape == (4, 4) and model.liouvillian.shape == (16, 16)
        assert all(np.ndim(ch.rate) == 0 and ch.jump.shape == (4, 4) for ch in model.channels)


class TestFrames:
    @pytest.mark.parametrize("spec", STACK_SPECS, ids=lambda s: f"{s.kind}-{s.n_spins}-{s.t_e}")
    def test_jumps_in_the_frame_are_the_stated_channels(self, spec):
        # In its kind's frame the model's H is diag(E) and each jump is the
        # stated transition |j><i| or diagonal diag(w).
        frame = scenarios._KINDS[spec.kind].build(spec, spec.b_z, spec.b_x)
        model = build_model(spec)
        d = model.dim
        v = np.eye(d) if frame.vectors is None else frame.vectors
        rotate = lambda m: v.conj().T @ m @ v
        np.testing.assert_allclose(rotate(model.hamiltonian), np.diag(frame.energies), rtol=0.0, atol=1e-12)
        assert len(model.channels) == len(frame.channels.jumps)
        for channel, jump, rate in zip(model.channels, frame.channels.jumps, frame.rates[0]):
            assert channel.rate == rate
            if isinstance(jump, tuple):
                i, j = jump
                expected = np.zeros((d, d))
                expected[j, i] = 1.0
            else:
                expected = np.diag(jump)
            np.testing.assert_allclose(rotate(channel.jump), expected, rtol=0.0, atol=1e-12)

    def test_real_hamiltonians_give_a_real_frame(self):
        # Every Hamiltonian here is real symmetric: LAPACK's real solver
        # gives a real V, so V† dH V and the rotation A = V† dV are real, an
        # antisymmetric matrix.
        b = np.linspace(0.5, 1.5, 7)
        values, vectors, slopes, rotation, errors = scenarios._eigen_derivative(
            two_spin_hamiltonian(b, 0.1), scenarios.SZ_SUM
        )
        assert errors == {}
        for array in (values, vectors, slopes, rotation):
            assert array.dtype == np.float64
        assert vectors.shape == rotation.shape == (7, 4, 4)
        np.testing.assert_allclose(rotation, -rotation.mT, rtol=0.0, atol=1e-12)
        for spec in STACK_SPECS:
            frame = scenarios._KINDS[spec.kind].build(spec, b, 0.1)
            assert all(part is None or part.dtype == np.float64 for part in frame[:5])  # H, E, V, dE, A


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
        ground = np.linalg.eigh(build_model(spec).hamiltonian)[1][:, 0]
        rho = analytic_coop_spont_state(0.1, 0.1, 0.5, 60.0)  # gamma*t = 30
        assert np.max(np.abs(rho - np.outer(ground, ground.conj()))) <= 1e-6
        rho = analytic_coop_spont_state(0.1, 0.1, 0.5, 100.0)  # gamma*t = 50
        assert np.max(np.abs(rho - np.outer(ground, ground.conj()))) <= 1e-10

    def test_eigenbasis_excited_population(self):
        # <e|rho(t)|e> = (1 + sin(pi/4)) e^{-1/2} / 2 at the fig2 parameters, t = 1
        rho = analytic_coop_spont_state(0.1, 0.1, 0.5, 1.0)
        e = np.linalg.eigh(build_model(ScenarioSpec(kind="coop-spont", **FIG2)).hamiltonian)[1][:, 1]
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

    def test_small_field_is_exact(self):
        # A b_z step of 1e-5 would cross b_z = 0, where the cooperative kinds
        # are undefined; the exact derivative takes no step.
        result = qfi_at(ScenarioSpec(kind="coop-spont", b_z=5e-6, b_x=0.1, gamma=0.5), 1.0)
        assert result.value == pytest.approx(analytic_coop_spont_qfi(5e-6, 0.1, 0.5, 1.0), rel=1e-12)

    def test_small_field_without_control_matches_standard(self):
        coop = qfi_at(ScenarioSpec(kind="coop-spont", b_z=3e-6, b_x=0.0, gamma=0.5), 1.0)
        std = qfi_at(ScenarioSpec(kind="std-spont", b_z=3e-6, gamma=0.5), 1.0)
        assert std.value == pytest.approx(standard_limit_formulas("spont", 0.5, 1.0), rel=1e-9)
        assert coop.value == pytest.approx(std.value, rel=1e-12)

    THERMAL = ScenarioSpec(kind="coop-thermal", b_z=0.3, b_x=0.1, dipole=2.0, t_e=0.1)

    @pytest.mark.parametrize("t", (1e7, 1e12))
    def test_population_drift_fails_the_state_check(self, t):
        # Long past the steady state the closed-form populations keep unit
        # trace, which the state check holds within 1e-10, and the QFI is
        # the 40-digit oracle's stationary value (tests/data/oracle.csv).
        assert qfi_at(self.THERMAL, t).value == pytest.approx(1.6355878828790672026, rel=1e-10, abs=0.0)

    def test_rates_times_time_far_past_relaxation(self):
        # Rates ~5e10 (bath occupation n ~ 5e9) at t = 1: kappa t ~ 1e11.
        # The value is tests/mp_oracle.py's qfi at these fields,
        # 9.9999999999999990481e-21.  The stationary derivative dq - pi
        # d kappa cancels two terms ~n times its size, so it is right only to
        # ~n eps (3.8e-6 measured), not to the oracle table's 1e-10.
        spec = ScenarioSpec(kind="coop-thermal", b_z=1.0, b_x=0.0, dipole=1.0, t_e=1e10)
        assert qfi_at(spec, 1.0).value == pytest.approx(9.9999999999999990481e-21, rel=1e-5, abs=0.0)


class TestQfiGrid:
    @pytest.mark.parametrize(
        "spec, reads",
        [
            (ScenarioSpec(kind="std-spont", b_z=0.1, gamma=0.5), "b_z, gamma"),
            (ScenarioSpec(kind="std-deph", b_z=0.1, eta=0.5), "b_z, eta"),
            (ScenarioSpec(kind="unitary-baseline", b_z=0.1), "b_z, n_spins"),
        ],
        ids=["std-spont", "std-deph", "unitary-baseline"],
    )
    def test_axis_the_kind_does_not_read_is_named(self, monkeypatch, spec, reads):
        # The CLI's usage error, raised before any stack is built.
        monkeypatch.setattr(scenarios, "_propagated", None)
        message = f"axis 'b_x' is not read by kind '{spec.kind}' (it reads {reads})"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            qfi_grid(spec, [0.03, 0.05], axis="b_x", t=1.0)


class TestExactDerivative:
    """Inputs where the old five-point b_z stencil failed or was off."""

    @pytest.mark.parametrize("b_z", (1e-300, 1e-8))
    def test_tiny_cooperative_field_next_to_larger_control(self, b_z):
        result = qfi_at(ScenarioSpec(kind="coop-spont", b_z=b_z, b_x=0.1, gamma=0.5), 1.0)
        assert format(result.value, ".12g") == "32.6676338791"
        assert result.value == pytest.approx(analytic_coop_spont_qfi(b_z, 0.1, 0.5, 1.0), rel=1e-12)

    @pytest.mark.parametrize("t", (1e4, 1e6))
    def test_long_times(self, t):
        # the limit b_x^2 / (b_x^2 + b_z^2)^2 = 25 of the closed form
        assert qfi_at(ScenarioSpec(kind="coop-spont", **FIG2), t).value == pytest.approx(25.0, rel=1e-9)

    def test_curve_tail_of_a_two_spin_field_sweep(self):
        spec = ScenarioSpec(kind="two-spin-coop", b_z=1.2613426, b_x=0.055063, dipole=10.094851)
        assert qfi_at(spec, 1.163839).value == pytest.approx(0.8294410126, rel=1e-8)

    def test_uncoupled_near_degenerate_levels(self):
        # The ground level and the singlet are 2.7e-10 apart, but sigma_z^1 +
        # sigma_z^2 does not couple them, so no gap enters a denominator.
        spec = ScenarioSpec(kind="two-spin-coop", b_z=0.5, b_x=1e-5, dipole=10.0)
        values, _ = np.linalg.eigh(two_spin_hamiltonian(spec.b_z, spec.b_x))
        assert values[1] - values[0] < GROUND_DEGENERACY_TOL
        value = qfi_at(spec, 1.0).value
        family = state_family(spec, 1.0)
        richardson = qfi_sld(family.evaluate(spec.b_z), differentiate_state(family)).value
        assert math.isfinite(value)
        assert value == pytest.approx(richardson, rel=1e-7)

    @pytest.mark.parametrize("b_z, b_x", ((0.5, 1e-9), (2.4, 1e-8), (0.99999, 1e-11)))
    def test_unresolved_singlet_raises(self, b_z, b_x):
        # The ground level and the singlet within 2 d eps max|E| of each
        # other: eigh's vectors of the pair may be any rotation of them, and
        # the channels that tell the two levels apart are then undefined (at
        # b_z = 2.4, b_x = 1.7e-8, t = 5 two solvers' frames gave QFIs 17x
        # apart).
        with pytest.raises(DegeneracyError, match="^coupled levels degenerate"):
            qfi_at(ScenarioSpec(kind="two-spin-coop", b_z=b_z, b_x=b_x, dipole=10.0), 1.0)

    def test_coupled_degenerate_levels_raise(self):
        # The gap 2 sqrt(2) b is the whole spectrum's scale, not a
        # degeneracy: QFI b^2 keeps the closed form's limit 0.09992...
        for b in (1e-10, 1e-12, 1e-14, 1e-100):
            value = qfi_at(ScenarioSpec(kind="coop-spont", b_z=b, b_x=b, gamma=0.5), 1.0).value
            assert value * b * b == pytest.approx(analytic_coop_spont_qfi(b, b, 0.5, 1.0) * b * b, rel=1e-9), b

    @pytest.mark.parametrize("b", (1e-20, 1e-50, 1e-100, 1e-150))
    def test_tiny_cooperative_dephasing_field(self, b):
        # As b -> 0 at theta = pi/4 only the angle carries b_z, d theta/d b_z =
        # -1/(2b), and the state is the probe dephased along n: QFI b^2 tends to
        # F_theta / 4 = ((1 - e)^2 + (1 - e^2)/2) / 4 with e = exp(-eta t).
        e = math.exp(-0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            value = qfi_at(ScenarioSpec(kind="coop-deph", b_z=b, b_x=b, eta=0.5), 1.0).value
        assert value * b * b == pytest.approx(((1.0 - e) ** 2 + (1.0 - e * e) / 2.0) / 4.0, rel=1e-9)

    def test_zero_time_is_exactly_zero_at_a_tiny_field(self):
        # At t = 0 the frame terms of d rho, each ~1e100 here, cancel; the
        # probe does not depend on b_z, and the QFI is exactly 0.
        spec = ScenarioSpec(kind="coop-deph", b_z=1e-100, b_x=1e-100, eta=0.5)
        assert qfi_at(spec, 0.0).value == 0.0
        assert qfi_grid(spec, [0.0, 1.0])[0].value == 0.0

    def test_dephasing_derivative_overflow_is_named(self):
        # d sigma_n ~ 1/Delta overflows at a subnormal Delta
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(NumericalFailureError, match="^the b_z derivative of the Liouvillian has non-finite"):
                qfi_at(ScenarioSpec(kind="coop-deph", b_z=1e-310, b_x=1e-310, eta=0.5), 1.0)

    @pytest.mark.parametrize(
        "kind, b_z, b_x, t_e, rate, value",
        [
            ("coop-thermal", 1e103, 0.1, 0.0, "thermal decay rate", "inf"),  # omega^3 overflows
            ("coop-thermal", 1e-300, 0.0, 1e10, "thermal decay rate", "nan"),  # omega^3 = 0 times n = inf
            ("two-spin-coop", 1e120, 0.1, 0.0, "decay rate of levels 4 -> 3", "inf"),
        ],
    )
    def test_overflowing_rate_is_named(self, kind, b_z, b_x, t_e, rate, value):
        # Both routes raise one error that names the rate, with no warning;
        # in a b_z grid only the overflowing points fail.
        spec = ScenarioSpec(kind=kind, b_z=b_z, b_x=b_x, dipole=1e-5, t_e=t_e)
        message = f"^the {re.escape(rate)} is not finite: {value}$"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for route in (build_model, lambda spec: qfi_at(spec, 1.0)):
                with pytest.raises(NumericalFailureError, match=message):
                    route(spec)
            first, *overflowing = qfi_grid(spec, [1.0, b_z / 2, b_z], axis="b_z", t=1.0)
        assert first.value > 0
        for outcome in overflowing:
            assert isinstance(outcome, NumericalFailureError) and re.match(message, str(outcome))

    @pytest.mark.parametrize(
        "kind, rate", [("coop-thermal", "thermal decay rate"), ("two-spin-coop", "decay rate of levels 4 -> 3")]
    )
    def test_dipole_past_the_float_range_names_the_rate(self, kind, rate):
        # |d|^2 overflows at |d| = 1e200: the rate that it makes infinite is
        # named, as an overflowing field's is, in a grid too.
        spec = ScenarioSpec(kind=kind, b_z=1.0, b_x=0.1, dipole=1e200, t_e=0.1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalFailureError, match=f"^the {re.escape(rate)} is not finite: inf$"):
                qfi_at(spec, 1.0)
            grid = qfi_grid(spec, [0.5, 1.0], axis="b_z", t=1.0)
        assert [str(outcome) for outcome in grid] == [f"the {rate} is not finite: inf"] * 2

    # Each kind at b_z = 1e308 with the error that it fails with there.
    LOST = "propagation to t=1.0 lost state invariants: density matrix has non-finite entries"

    @pytest.mark.parametrize(
        "spec, error",
        [
            (ScenarioSpec(kind="std-spont", b_z=1e308, gamma=0.5), LOST),
            (ScenarioSpec(kind="coop-spont", b_z=1e308, b_x=0.1, gamma=0.5), LOST),
            (ScenarioSpec(kind="std-deph", b_z=1e308, eta=0.5), LOST),
            (ScenarioSpec(kind="coop-deph", b_z=1e308, b_x=0.1, eta=0.5), LOST),
            (
                ScenarioSpec(kind="coop-thermal", b_z=1e308, b_x=0.1, dipole=2.0, t_e=0.1),
                "the thermal decay rate is not finite: inf",
            ),
            (
                ScenarioSpec(kind="two-spin-coop", b_z=1e308, b_x=0.1, dipole=10.0),
                "the b_z derivative of the Liouvillian has non-finite entries",
            ),
            (ScenarioSpec(kind="unitary-baseline", b_z=1e308, n_spins=1), LOST),
            (ScenarioSpec(kind="unitary-baseline", b_z=1e308, n_spins=2), LOST),
        ],
        ids=[*KINDS[:-1], "unitary-baseline-1", "unitary-baseline-2"],
    )
    def test_finite_field_near_the_float_range_fails_named_with_no_warning(self, spec, error):
        # At b_z = 1e308 the Hamiltonian, its level gaps or the rates
        # overflow: each kind fails with one named error, and numpy warns
        # about none of it.
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(NumericalFailureError, match=f"^{re.escape(error)}$"):
                qfi_at(spec, 1.0)

    @pytest.mark.parametrize(
        "spec",
        [
            ScenarioSpec(kind="two-spin-coop", b_z=2.0, b_x=0.1, dipole=10.0),
            ScenarioSpec(kind="coop-spont", b_z=2.0, b_x=0.1, gamma=0.5),
            ScenarioSpec(kind="std-deph", b_z=2.0, eta=0.5),
        ],
        ids=lambda spec: spec.kind,
    )
    def test_stationary_value_holds_out_to_the_float_range(self, spec):
        # At t = 1.7e308 the phase gap t of each coherence overflows, making
        # e^{lam t} NaN: a damped coherence is 0 there, and the two-spin
        # state's undamped one starts at 0, so the QFI is its t = 1e30 value.
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert qfi_at(spec, 1.7e308) == qfi_at(spec, 1e30)

    def test_exact_unitary_value_at_a_subnormal_field(self):
        # The old stencil's step, capped at |b_z|/2, was subnormal here and gave NaN.
        result = qfi_at(ScenarioSpec(kind="coop-spont", b_z=2.2e-311, b_x=0.0, gamma=0.0), 1.0)
        assert result.value == pytest.approx(heisenberg_limit(1, 1.0), rel=1e-12)


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

    def test_exactly_degenerate_coupled_pair_fails(self):
        # Two levels at 1, which dH = sigma_x couples and splits: the frame
        # has no derivative there, and the model's error is recorded.
        message = (
            "coupled levels degenerate: gap 0.000e+00 <= 1e-6 max|E| = 1.000e-06, so the b_z derivative is undefined"
        )
        errors = scenarios._eigen_derivative(np.eye(2, dtype=complex), SIGMA_X)[4]
        assert list(errors) == [()]
        assert type(errors[()]) is DegeneracyError and str(errors[()]) == message

    # Levels 0 and 1 of h are 1e-8 apart, within the 1e-6 max|E| rule;
    # level 2 is far.  dH decides whether eigh's frame of the pair is good.
    CLOSE = np.diag([1.0, 1.0 + 1e-8, 5.0])

    def test_close_pair_with_a_vector_that_dh_leaves_alone_adds_nothing(self):
        # dH couples level 0 to level 2 and leaves level 1 alone (as it does
        # the two-spin singlet): the pair adds nothing, and the far coupling
        # gives <0|dH|2> / (E_2 - E_0).
        dh = np.array([[1.0, 0.0, 0.5], [0.0, -1.0, 0.0], [0.5, 0.0, 0.0]])
        rotation = scenarios._eigen_derivative(self.CLOSE, dh)[3]
        assert rotation[0, 1] == rotation[1, 0] == 0.0
        assert abs(rotation[2, 0]) == pytest.approx(0.5 / 4.0, rel=1e-15)

    def test_close_pair_that_dh_neither_couples_nor_splits_adds_nothing(self):
        dh = np.array([[1.0, 0.0, 0.5], [0.0, 1.0, 0.5], [0.5, 0.5, 0.0]])
        rotation = scenarios._eigen_derivative(self.CLOSE, dh)[3]
        assert rotation[0, 1] == rotation[1, 0] == 0.0

    def test_close_pair_that_dh_splits_fails(self):
        # Uncoupled but with unequal slopes, and both vectors coupled to
        # level 2: eigh's vectors of the pair are only good to eps / 1e-8,
        # and that mixing would couple them through the split.
        dh = np.array([[1.0, 0.0, 0.5], [0.0, -1.0, 0.5], [0.5, 0.5, 0.0]])
        errors = scenarios._eigen_derivative(self.CLOSE, dh)[4]
        assert type(errors[()]) is DegeneracyError
        assert str(errors[()]).startswith("coupled levels degenerate: gap 1.000e-08 <= 1e-6 max")

    def test_stack_raises_the_error_of_its_first_failing_field(self):
        # Each of these b_z fails at b_x = 1e-10, each with its own closest
        # pair: the stack raises what a loop over scalar calls raises first.
        fields = [1.0, 1e-10, 1e-12]
        first = outcome(lambda: exact_two_spin_ground_qfi(fields[0], 1e-10))
        assert first[0] is DegeneracyError
        assert len({outcome(lambda: exact_two_spin_ground_qfi(b, 1e-10)) for b in fields}) == 3
        assert outcome(lambda: exact_two_spin_ground_qfi(fields, 1e-10)) == first

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
