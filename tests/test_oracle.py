"""The exact-derivative route against the 40-digit mpmath tables in
tests/data/oracle.csv (QFI values), tests/data/oracle_states.csv (states
long after the steady state) and tests/data/oracle_ground.csv (the two-spin
ground-state QFI of figA1), written by tests/mp_oracle.py, which shares no
code with the library."""

import csv
from pathlib import Path

import numpy as np
import pytest

from coopmetro.scenarios import DegeneracyError, ScenarioSpec, exact_two_spin_ground_qfi, qfi_at
from references import lab_propagated

DATA = Path(__file__).parent / "data"
# The largest QFI error is 5.1e-13, at b_z = 1.225.  At the seed-9928 point,
# where rho has an eigenvalue 2.2e-12 in the SLD sum, the state is within
# 1.1e-16 of the oracle's and the sum's rounding sets the error: 3.4e-13
# scored in the eigenframe, 7.8e-12 rotated back to the lab frame first.
# Propagated in the Hamiltonian's eigenframe, the populations of one spin
# and of two are closed forms, with no exponential's squarings: the
# two-spin rows at t = 1e3 and 1e4 are within 9.1e-16 (the t = 1e4 row was
# 5.7e-9 off when the whole Liouvillian was exponentiated, 4.6e-14 with a
# Van Loan block of the populations), and the coop-thermal rows at t = 1e6,
# 1e12 and 1e300 within 3.3e-15.  The rows at nearly equal decay rates of
# levels 3 and 4, and at k t ~ 1e-8 ... 2e-4, are within 6.9e-15.
RTOL = 1e-10
# The two-spin rows at tiny fields, b_z = 2.6e-7 (the smallest that passes
# the 1e-6 max|E| degeneracy rule) and 1e-6: within 4.9e-8 of the table.
# At a tiny field rho has an eigenvalue ~1e-16 whose pair the SLD sum's
# 1e-12 mask drops, with a share of the QFI that grows with b (4.9e-8 at
# b_z = 1e-6, b_x = 5e-7; 4.8e-5 at b_z = 1e-3, where the eigenvalue is
# 9.1e-14), and eigh's frame is good to eps max|E| / gap.
TINY_FIELD_RTOL = 1e-7
# Measured: 2.2e-16 at t = 1e3 and 1e4 (1.1e-15 and 1.1e-14 with the block).
STATE_ATOL = 1e-12
# The sum over states is within 1.6e-15 of the table; phase-aligned finite
# differences of the ground eigenvector were up to 7.1e-11 off.
GROUND_RTOL = 1e-12


def _rows(name: str) -> list[dict]:
    with open(DATA / name, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _spec(row: dict) -> ScenarioSpec:
    kind = row["kind"]
    reads = ScenarioSpec(kind=kind, b_z=1.0, b_x=0.1).parameters
    return ScenarioSpec(kind=kind, **{name: float(row[name]) for name in reads})


def _row_id(row: dict) -> str:
    """kind-b_z-b_x, and the time for the long-time rows, which share their fields."""
    return "-".join([row["kind"], row["b_z"], row["b_x"]] + ([f"t{row['t']}"] if float(row["t"]) >= 1e3 else []))


def _tiny_field(row: dict) -> bool:
    return row["kind"] == "two-spin-coop" and float(row["b_z"]) < 1e-5


@pytest.mark.parametrize("row", _rows("oracle.csv"), ids=_row_id)
def test_matches_oracle(row):
    rtol = TINY_FIELD_RTOL if _tiny_field(row) else RTOL
    assert qfi_at(_spec(row), float(row["t"])).value == pytest.approx(float(row["qfi"]), rel=rtol, abs=0.0)


@pytest.mark.parametrize("ratio", (0.5, 1.0, 2.0))
def test_tiny_two_spin_fields_raise_or_match_the_oracle(ratio):
    # b_z over [1e-10, 1e-5], and more sparsely down to 1e-300, at b_x =
    # ratio b_z (dipole 1, t 1): below b_z ~ 2.5e-7 the upper levels' gap
    # ~4 b_z is within 1e-6 max|E|, where eigh cannot resolve the frame;
    # with the rule at 1e-9 some points printed 0.0119 against the oracle's
    # 0.0955, and so did every point below b_z ~ 1e-12 with a rule that took
    # both upper levels for decoupled because their residuals were small.
    # Every point raises DegeneracyError or lies within 1e-6 of the QFI's
    # b -> 0 line, the line through the table's rows at b_z = 2.6e-7 and
    # 1e-6 (the QFI is linear in b there to 1.2e-8 out to b_z = 1e-5).
    (low, high) = (
        row for row in _rows("oracle.csv") if _tiny_field(row) and float(row["b_x"]) == ratio * float(row["b_z"])
    )
    (b0, f0), (b1, f1) = ((float(row["b_z"]), float(row["qfi"])) for row in (low, high))
    raised = 0
    grid = np.concatenate((np.geomspace(1e-300, 1e-10, 146, endpoint=False), np.geomspace(1e-10, 1e-5, 501)))
    for b_z in grid:
        spec = ScenarioSpec(kind="two-spin-coop", b_z=float(b_z), b_x=float(ratio * b_z), dipole=1.0)
        try:
            value = qfi_at(spec, 1.0).value
        except DegeneracyError:
            raised += 1
            continue
        line = f0 + (f1 - f0) / (b1 - b0) * (b_z - b0)
        assert value == pytest.approx(line, rel=1e-6, abs=0.0), b_z
    assert 0 < raised < len(grid)


def _state_tables() -> dict:
    """The oracle states, one (d, d) matrix per point of the table."""
    tables: dict = {}
    for row in _rows("oracle_states.csv"):
        key = tuple(row[name] for name in ("kind", "b_z", "b_x", "eta", "dipole", "t_e", "t"))
        tables.setdefault(key, []).append(row)
    return tables


@pytest.mark.parametrize("rows", list(_state_tables().values()), ids=lambda rows: f"t{rows[0]['t']}")
def test_state_matches_oracle(rows):
    spec, t = _spec(rows[0]), float(rows[0]["t"])
    state, _ = lab_propagated(spec, t)
    oracle = np.zeros_like(state)
    for row in rows:
        oracle[int(row["i"]), int(row["j"])] = complex(float(row["re"]), float(row["im"]))
    assert len(rows) == state.size
    assert np.abs(state - oracle).max() <= STATE_ATOL


@pytest.mark.parametrize("row", _rows("oracle_ground.csv"), ids=lambda row: f"b_z{row['b_z']}")
def test_ground_qfi_matches_oracle(row):
    value = exact_two_spin_ground_qfi(float(row["b_z"]), float(row["b_x"]))
    assert value == pytest.approx(float(row["qfi"]), rel=GROUND_RTOL, abs=0.0)


def test_ground_qfi_grid_matches_oracle():
    rows = _rows("oracle_ground.csv")
    values = exact_two_spin_ground_qfi(np.array([float(row["b_z"]) for row in rows]), 0.1)
    assert values.tolist() == pytest.approx([float(row["qfi"]) for row in rows], rel=GROUND_RTOL, abs=0.0)
