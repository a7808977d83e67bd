import math

import numpy as np
import pytest

import coopmetro.scenarios as scenarios
from coopmetro.cli import figure_rows
from coopmetro.scenarios import ScenarioSpec


@pytest.fixture(scope="session")
def fig2_rows():
    return figure_rows("fig2")


@pytest.fixture(scope="session")
def fig3_rows():
    return figure_rows("fig3")


@pytest.fixture(scope="session")
def fig4_rows():
    return figure_rows("fig4")


@pytest.fixture(scope="session")
def fig5_rows():
    return figure_rows("fig5")


@pytest.fixture(scope="session")
def figa1_rows():
    return figure_rows("figA1")


def figure_scenarios():
    """All scenarios at their figure parameters, with per-scenario time grids
    kept short enough for the RK4 cross-checks."""
    return [
        (ScenarioSpec(kind="std-spont", b_z=0.1, gamma=0.5), (0.5, 1.0, 2.0, 5.0)),
        (ScenarioSpec(kind="coop-spont", b_z=0.1, b_x=0.1, gamma=0.5), (0.5, 1.0, 2.0, 5.0)),
        (ScenarioSpec(kind="std-deph", b_z=0.1, eta=0.5), (0.5, 1.0, 2.0, 5.0)),
        (ScenarioSpec(kind="coop-deph", b_z=0.1, b_x=0.1, eta=0.5), (0.5, 1.0, 2.0, 5.0)),
        (ScenarioSpec(kind="coop-thermal", b_z=0.3, b_x=0.1, dipole=2.0, t_e=0.0), (0.5, 1.0, 2.0, 5.0)),
        (ScenarioSpec(kind="two-spin-coop", b_z=1.0, b_x=0.1, dipole=10.0), (0.25, 0.5, 1.0)),
        (ScenarioSpec(kind="unitary-baseline", b_z=0.1, n_spins=1), (0.5, 1.0, 2.0, 5.0)),
        (ScenarioSpec(kind="unitary-baseline", b_z=0.3, n_spins=2), (0.5, 1.0, 2.0)),
    ]


def controlled_ground_state(b_z: float, b_x: float) -> tuple[np.ndarray, np.ndarray]:
    """The ground state (-sin(theta/2), cos(theta/2)) of b_z sigma_z + b_x sigma_x,
    theta = atan2(b_x, b_z), and its exact b_z derivative, with
    d theta / d b_z = -b_x / (b_z^2 + b_x^2)."""
    theta = math.atan2(b_x, b_z)
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    d_half_theta = -0.5 * b_x / (b_z**2 + b_x**2)
    return np.array([-s, c], dtype=complex), d_half_theta * np.array([-c, -s], dtype=complex)


def random_hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (m + m.conj().T) / 2.0


def random_mixed_qubit(rng: np.random.Generator, max_bloch: float = 0.9) -> np.ndarray:
    """Mixed qubit state with Bloch radius <= max_bloch (det bounded away from 0)."""
    direction = rng.standard_normal(3)
    direction /= np.linalg.norm(direction)
    r = max_bloch * rng.uniform(0.05, 1.0) * direction
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]], dtype=complex)
    sz = np.array([[1, 0], [0, -1]], dtype=complex)
    return 0.5 * (np.eye(2, dtype=complex) + r[0] * sx + r[1] * sy + r[2] * sz)


def random_traceless_hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    m = random_hermitian(rng, dim)
    return m - np.trace(m) / dim * np.eye(dim)


@pytest.fixture
def nan_first_derivative(monkeypatch):
    """Make the state derivative of the first point of each propagation NaN,
    which the grids' scoring names there."""
    propagated = scenarios._propagated

    def corrupted(*args):
        states, drho, errors = propagated(*args)
        drho = drho.copy()
        drho.reshape(-1, *drho.shape[-2:])[0] = np.nan
        return states, drho, errors

    monkeypatch.setattr(scenarios, "_propagated", corrupted)


@pytest.fixture
def nan_first_qfi(monkeypatch):
    """Make the qubit formula compute a NaN QFI at the first point that it
    scores, from a NaN copy of that point's derivative: the derivative that
    the grids' scoring checks stays finite, so the formula's own check of
    its value names the failure."""
    formula = scenarios._qubit_outcomes
    calls = []

    def corrupted(rho, drho):
        calls.append(None)
        if len(calls) == 1:
            drho = drho.copy()
            drho[0] = np.nan
        return formula(rho, drho)

    monkeypatch.setattr(scenarios, "_qubit_outcomes", corrupted)


def outcome(evaluate):
    """The value of evaluate(), or the type and text of the exception it
    raises or returns."""
    try:
        value = evaluate()
    except Exception as exc:
        value = exc
    return (type(value), str(value)) if isinstance(value, Exception) else value
