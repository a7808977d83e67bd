import math

import numpy as np
import pytest

import coopmetro.qfi as qfi_module
from conftest import controlled_ground_state, outcome, random_mixed_qubit, random_traceless_hermitian
from references import (
    analytic_coop_spont_state,
    analytic_coop_spont_state_deriv,
    qfi_pure,
    qfi_qubit_per_point,
    state_family,
)
from coopmetro.lindblad import hermitize
from coopmetro.qfi import (
    METHOD_QUBIT,
    METHOD_SLD,
    NEAR_PURE_DET_TOL,
    QfiResult,
    StateFamily,
    _qubit_outcomes,
    _sld_outcomes,
    differentiate_state,
    qfi_qubit,
    qfi_sld,
)
from coopmetro.scenarios import SIGMA_Z, ScenarioSpec, analytic_coop_spont_qfi, controlled_hamiltonian


PLUS = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0)


def ground_vector(b_z, b_x):
    return np.linalg.eigh(controlled_hamiltonian(b_z, b_x))[1][:, 0]


class TestQfiPure:
    def test_zero_derivative(self):
        assert qfi_pure(PLUS, np.zeros(2)).value == 0.0

    @pytest.mark.parametrize(
        "b_z,b_x,expected",
        [(0.1, 0.1, 25.0), (0.3, 0.1, 1.0)],
    )
    def test_ground_state_closed_form(self, b_z, b_x, expected):
        # oracle: F(|g>) = b_x^2/(b_x^2+b_z^2)^2 for the controlled Hamiltonian
        result = qfi_pure(*controlled_ground_state(b_z, b_x))
        assert result.method == "pure"
        assert result.value == pytest.approx(expected, rel=1e-12)


class TestQfiQubit:
    def test_no_parameter_dependence(self):
        assert qfi_qubit(np.eye(2, dtype=complex) / 2, np.zeros((2, 2))).value == 0.0

    def test_classical_binary_distribution(self):
        # hand oracle: classical Fisher information 1/(p(1-p)) at p = 1/2
        rho = np.diag([0.5, 0.5]).astype(complex)
        drho = np.diag([1.0, -1.0]).astype(complex)
        assert qfi_qubit(rho, drho).value == pytest.approx(4.0, rel=1e-12)

    def test_matches_reference_closed_form(self):
        # analytic evolved state and its analytic derivative against the
        # full closed-form expression
        rho = analytic_coop_spont_state(0.1, 0.1, 0.5, 1.0)
        drho = analytic_coop_spont_state_deriv(0.1, 0.1, 0.5, 1.0)
        value = qfi_qubit(rho, drho).value
        assert value == pytest.approx(analytic_coop_spont_qfi(0.1, 0.1, 0.5, 1.0), abs=1e-8)

    def test_near_pure_fallback_tagged(self):
        rho = np.outer(PLUS, PLUS.conj())
        drho = np.array([[0.0, 1.0j], [-1.0j, 0.0]])
        result = qfi_qubit(rho, drho)
        assert result.method == "sld-spectral"

    def test_dimension_error(self):
        with pytest.raises(ValueError):
            qfi_qubit(np.eye(4, dtype=complex) / 4, np.zeros((4, 4)))

    def test_non_hermitian_derivative_rejected(self):
        with pytest.raises(ValueError):
            qfi_qubit(np.eye(2, dtype=complex) / 2, np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestQfiSld:
    def test_zero_derivative(self):
        assert qfi_sld(np.eye(4, dtype=complex) / 4, np.zeros((4, 4))).value == 0.0

    def test_agrees_with_qubit_formula(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            rho = random_mixed_qubit(rng)
            drho = random_traceless_hermitian(rng, 2)
            a = qfi_sld(rho, drho).value
            b = qfi_qubit(rho, drho).value
            assert a == pytest.approx(b, rel=1e-8, abs=1e-10)

    def test_pure_limit_agrees_with_qfi_pure(self):
        # differentiable pure family psi(b) = (cos b, e^{i phi} sin b)
        phi = 0.6

        def psi(b):
            return np.array([math.cos(b), math.sin(b) * np.exp(1j * phi)])

        b0 = 0.4
        dpsi = np.array([-math.sin(b0), math.cos(b0) * np.exp(1j * phi)])
        pure = qfi_pure(psi(b0), dpsi).value
        rho = np.outer(psi(b0), psi(b0).conj())
        drho = differentiate_state(StateFamily(lambda b: np.outer(psi(b), psi(b).conj()), b0))
        assert qfi_sld(rho, drho).value == pytest.approx(pure, rel=1e-6)


def reference_sld(rho: np.ndarray, drho: np.ndarray) -> float:
    """The spectral SLD sum of one state, written out matrix by matrix: over
    all d x d pairs, with each masked pair's term set to 0.0."""
    values, vectors = np.linalg.eigh(hermitize(rho))
    m = vectors.conj().T @ drho @ vectors
    denom = values[:, None] + values[None, :]
    mask = denom > 1e-12
    terms = np.zeros(denom.shape)
    terms[mask] = (np.abs(m) ** 2)[mask] / denom[mask]
    return max(2.0 * float(np.sum(terms)), 0.0)


def random_state(rng: np.random.Generator, dim: int, rank: int) -> np.ndarray:
    a = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def stacked_outcomes(rho: np.ndarray, drho: np.ndarray) -> list:
    """`_sld_outcomes` of a stack as one outcome per state: its ValueError or its QfiResult."""
    values, errors, _ = _sld_outcomes(rho, drho)
    return [errors[k] if k in errors else QfiResult(value, METHOD_SLD) for k, value in enumerate(values.tolist())]


class TestStackedSld:
    def test_stack_equals_states_alone(self):
        rng = np.random.default_rng(41)
        # ranks 1 to 4; a rank-1 state has pairs that the 1e-12 mask drops
        rho = np.array([random_state(rng, 4, 1 + k % 4) for k in range(40)])
        drho = np.array([random_traceless_hermitian(rng, 4) for _ in range(40)])
        outcomes = stacked_outcomes(rho, drho)
        assert outcomes == [qfi_sld(r, d) for r, d in zip(rho, drho)]
        assert [o.value for o in outcomes] == [reference_sld(r, d) for r, d in zip(rho, drho)]

    def test_non_hermitian_derivative_fails_only_its_state(self):
        rng = np.random.default_rng(43)
        rho = np.array([random_state(rng, 4, 2) for _ in range(5)])
        drho = np.array([random_traceless_hermitian(rng, 4) for _ in range(5)])
        drho[2, 0, 1] += 1e-6
        outcomes = stacked_outcomes(rho, drho)
        with pytest.raises(ValueError) as alone:
            qfi_sld(rho[2], drho[2])
        assert str(alone.value).startswith("state derivative not Hermitian within 1e-8: deviation 1.000e-06")
        assert (type(outcomes[2]), str(outcomes[2])) == (type(alone.value), str(alone.value))
        assert outcomes[:2] + outcomes[3:] == [qfi_sld(r, d) for r, d in zip(rho[[0, 1, 3, 4]], drho[[0, 1, 3, 4]])]


    def test_nan_derivative_fails_only_its_state(self):
        rng = np.random.default_rng(53)
        rho = np.array([random_state(rng, 4, 2) for _ in range(5)])
        drho = np.array([random_traceless_hermitian(rng, 4) for _ in range(5)])
        drho[1, 2, 3] = math.nan
        with np.errstate(invalid="ignore"):
            outcomes = stacked_outcomes(rho, drho)
            with pytest.raises(ValueError) as alone:
                qfi_sld(rho[1], drho[1])
        assert str(alone.value) == "QFI computed as nan, which is not finite"
        assert (type(outcomes[1]), str(outcomes[1])) == (type(alone.value), str(alone.value))
        assert outcomes[:1] + outcomes[2:] == [qfi_sld(r, d) for r, d in zip(rho[[0, 2, 3, 4]], drho[[0, 2, 3, 4]])]

    def test_derivative_checked_alone_only_where_the_screen_fails(self, monkeypatch):
        rng = np.random.default_rng(59)
        rho = np.array([random_state(rng, 4, 2) for _ in range(6)])
        drho = np.array([random_traceless_hermitian(rng, 4) for _ in range(6)])
        drho[1, 0, 1] += 1e-6
        drho[4, 2, 2] = math.nan
        checked = []
        check = qfi_module._check_derivative
        monkeypatch.setattr(qfi_module, "_check_derivative", lambda d: checked.append(d) or check(d))
        with np.errstate(invalid="ignore"):
            _sld_outcomes(rho, drho)
        assert len(checked) == 2
        assert np.array_equal(checked[0], drho[1]) and np.array_equal(checked[1], drho[4], equal_nan=True)

    def test_non_finite_value_fails_only_its_state(self):
        rng = np.random.default_rng(47)
        rho = np.array([random_state(rng, 4, 2) for _ in range(3)])
        drho = np.array([random_traceless_hermitian(rng, 4) for _ in range(3)])
        drho[1] *= 1e200
        with np.errstate(over="ignore"):
            outcomes = stacked_outcomes(rho, drho)
        assert isinstance(outcomes[1], ValueError) and "not finite" in str(outcomes[1])
        assert outcomes[::2] == [qfi_sld(r, d) for r, d in zip(rho[::2], drho[::2])]


def boundary_states() -> list[np.ndarray]:
    """Qubit states whose batched det is 1e-10 exactly, and one step below and
    above it.  The complex det is exp(log|det|) times a phase, and no float's
    exp is 1e-10: the exact value needs the phase of a slightly
    non-Hermitian state, 7.8e-8 on its first entry."""
    exact = np.array([[np.exp(7.8143e-08j), 0.0], [0.0, 1.0000000000000015e-10]])
    below = np.diag([1.0, 1e-10]).astype(complex)
    above = np.diag([1.0, 1.0000000000000015e-10]).astype(complex)
    dets = [np.linalg.det(rho).real for rho in (exact, below, above)]
    assert dets[0] == NEAR_PURE_DET_TOL and dets[1] < NEAR_PURE_DET_TOL < dets[2]
    return [exact, below, above]


def random_qubit_case(rng: np.random.Generator, boundary: list) -> tuple[np.ndarray, np.ndarray]:
    """A (rho, drho) pair of one of the kinds that `qfi_qubit` tells apart:
    full-rank, near-pure (det 1e-20 to 1e-8), pure, det at the 1e-10 route
    boundary, or a random complex matrix (either route, and QFI values
    below -1e-9); a traceless Hermitian derivative, or one that is off
    Hermitian or traceless (by 5e-9, within the 1e-8 screen, or by 1e-6),
    NaN, inf, overflowing or zero."""
    kind = rng.choice(5, p=[0.45, 0.12, 0.05, 0.08, 0.3])
    if kind == 0:
        rho = random_mixed_qubit(rng, max_bloch=0.999)
    elif kind in (1, 2):
        psi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        psi /= np.linalg.norm(psi)
        perp = np.array([-psi[1].conj(), psi[0].conj()])
        e = 0.0 if kind == 2 else 10.0 ** rng.uniform(-20, -8)
        rho = hermitize((1.0 - e) * np.outer(psi, psi.conj()) + e * np.outer(perp, perp.conj()))
    elif kind == 3:
        rho = boundary[rng.integers(3)]
    else:
        rho = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    drho = random_traceless_hermitian(rng, 2) * 10.0 ** rng.uniform(-3, 3)
    flaw = rng.choice(7, p=[0.55, 0.1, 0.1, 0.06, 0.06, 0.08, 0.05])
    if flaw in (1, 2):
        drho[(0, 1) if flaw == 1 else (0, 0)] += rng.choice([5e-9, 1e-6])
    elif flaw in (3, 4):
        drho[tuple(rng.integers(2, size=2))] = math.nan if flaw == 3 else math.inf
    elif flaw == 5:
        drho *= 1e200
    elif flaw == 6:
        drho[:] = 0.0
    return rho, drho


class TestStackedQubit:
    def test_stacks_equal_the_per_point_formula(self):
        # 20,000 seeded stacks of 1 to 4 states, drawn from a pool of 4,000
        # cases: each state gets the value bits and tag, or the error type
        # and message, of the closed form with every check made for it alone.
        rng = np.random.default_rng(61)
        boundary = boundary_states()
        cases = [random_qubit_case(rng, boundary) for _ in range(4_000)]
        rho, drho = np.array([c[0] for c in cases]), np.array([c[1] for c in cases])

        def bits(result):
            return (result.value.hex(), result.method) if isinstance(result, QfiResult) else result

        with np.errstate(all="ignore"):
            alone = [bits(outcome(lambda: qfi_qubit_per_point(r, d))) for r, d in cases]
            assert [bits(outcome(lambda: qfi_qubit(r, d))) for r, d in cases[:500]] == alone[:500]
            for _ in range(20_000):
                stack = rng.integers(len(cases), size=rng.integers(1, 5)).tolist()
                values, errors, near_pure = _qubit_outcomes(rho[stack], drho[stack])
                stacked = [
                    (type(errors[k]), str(errors[k])) if k in errors
                    else (value.hex(), METHOD_SLD if near_pure[k] else METHOD_QUBIT)
                    for k, value in enumerate(values.tolist())
                ]
                assert stacked == [alone[j] for j in stack]
                assert all(math.isnan(values[k]) for k in errors)
        messages = {o[1] for o in alone}  # the tag of each value, the message of each error
        assert {METHOD_QUBIT, METHOD_SLD} <= messages
        for text in ("not Hermitian within", "not traceless within", "which is not finite", "below the -1e-9 tolerance"):
            assert any(text in m for m in messages), text


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestNonFiniteQfi:
    """Each formula route raises, naming the value, where the QFI is not finite."""

    @pytest.mark.parametrize("bad", [math.nan, 1e200])
    def test_pure(self, bad):
        with pytest.raises(ValueError, match="QFI computed as (nan|inf), which is not finite"):
            qfi_pure(PLUS, np.array([bad, 0.0]))

    @pytest.mark.parametrize("bad", [math.nan, 1e200])
    def test_qubit(self, bad):
        drho = np.array([[0.0, bad], [bad, 0.0]], dtype=complex)
        with pytest.raises(ValueError, match="QFI computed as (nan|inf), which is not finite"):
            qfi_qubit(np.diag([0.6, 0.4]).astype(complex), drho)

    @pytest.mark.parametrize("bad", [math.nan, 1e200])
    def test_sld(self, bad):
        drho = np.zeros((4, 4), dtype=complex)
        drho[0, 1] = drho[1, 0] = bad
        with pytest.raises(ValueError, match="QFI computed as (nan|inf), which is not finite"):
            qfi_sld(np.eye(4, dtype=complex) / 4, drho)


class TestDifferentiateState:
    def test_constant_family(self):
        rho = np.full((2, 2), 0.5, dtype=complex)
        drho = differentiate_state(StateFamily(lambda b: rho, 0.3))
        assert np.max(np.abs(drho)) <= 1e-10

    def test_standard_dephasing_coherence_derivative(self):
        # probe |+> under H = b sigma_z with dephasing eta/2:
        # rho_01(t) = e^{-eta t} e^{-2 i b t}/2, so |d rho_01/db| = t e^{-eta t}
        eta, t = 0.5, 1.0
        family = state_family(ScenarioSpec(kind="std-deph", b_z=0.1, eta=eta), t)
        drho = differentiate_state(family)
        assert abs(drho[0, 1]) == pytest.approx(t * math.exp(-eta * t), rel=1e-9)

    def test_matches_analytic_derivative_of_analytic_family(self):
        family = StateFamily(lambda b: analytic_coop_spont_state(b, 0.1, 0.5, 1.0), 0.1)
        drho = differentiate_state(family)
        oracle = analytic_coop_spont_state_deriv(0.1, 0.1, 0.5, 1.0)
        assert np.max(np.abs(drho - oracle)) <= 1e-9

    def test_pipeline_matches_analytic_derivative(self):
        spec = ScenarioSpec(kind="coop-spont", b_z=0.1, b_x=0.1, gamma=0.5)
        for t in (0.5, 1.0, 2.0):
            drho = differentiate_state(state_family(spec, t))
            oracle = analytic_coop_spont_state_deriv(0.1, 0.1, 0.5, t)
            assert np.max(np.abs(drho - oracle)) <= 1e-7

    def test_ground_family_reproduces_closed_form(self):
        # The ground projector |g><g| carries no eigenvector phase, so it is
        # differenced as it comes from `np.linalg.eigh`.
        def projector(b):
            g = ground_vector(b, 0.1)
            return np.outer(g, g.conj())

        drho = differentiate_state(StateFamily(projector, 0.1))
        assert qfi_sld(projector(0.1), drho).value == pytest.approx(25.0, rel=1e-6)

    def test_default_step(self):
        # The default step is h = 1e-5 max(1, |b0|), to the bit, on either
        # side of |b0| = 1.
        for b0 in (0.1, -3.0):
            family = StateFamily(lambda b: analytic_coop_spont_state(b, 0.1, 0.5, 1.0), b0)
            drho = differentiate_state(family)
            assert np.array_equal(drho, differentiate_state(family, h=1e-5 * max(1.0, abs(b0)))), b0


class TestUnitaryLimits:
    def test_heisenberg_baseline_exact(self):
        # qfi(T) = 4 T^2 for the unitary single-spin pipeline
        from coopmetro.scenarios import qfi_at

        spec = ScenarioSpec(kind="unitary-baseline", b_z=0.1, n_spins=1)
        for t in (0.5, 1.0, 2.0, 5.0):
            assert qfi_at(spec, t).value == pytest.approx(4.0 * t * t, rel=1e-8)

    def test_noiseless_pipeline_agrees_with_pure_route(self):
        # gamma -> 0 limit: mixed-state pipeline vs pure-state route, rel 1e-5
        from coopmetro.scenarios import qfi_at

        t = 1.0
        spec = ScenarioSpec(kind="unitary-baseline", b_z=0.1, n_spins=1)
        mixed = qfi_at(spec, t).value
        # psi(b) = e^{-i b sigma_z t} |+>, so d psi / db = -i t sigma_z psi
        psi = np.exp(-1j * 0.1 * t * np.array([1.0, -1.0])) * PLUS
        pure = qfi_pure(psi, -1j * t * SIGMA_Z @ psi).value
        assert mixed == pytest.approx(pure, rel=1e-5)

    def test_non_negative(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            rho = random_mixed_qubit(rng)
            drho = random_traceless_hermitian(rng, 2)
            assert qfi_sld(rho, drho).value >= 0.0
