"""The exact-derivative route against the 40-digit mpmath table in
tests/data/oracle.csv (written by tests/mp_oracle.py, which shares no code
with the library)."""

import csv
from pathlib import Path

import pytest

from coopmetro.scenarios import ScenarioSpec, qfi_at

TABLE = Path(__file__).parent / "data" / "oracle.csv"
RTOL = 1e-9


def _rows() -> list[dict]:
    with open(TABLE, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


@pytest.mark.parametrize("row", _rows(), ids=lambda r: f"{r['kind']}-{r['b_z']}-{r['b_x']}")
def test_matches_oracle(row):
    kind = row["kind"]
    reads = ScenarioSpec(kind=kind, b_z=1.0, b_x=0.1).parameters
    spec = ScenarioSpec(kind=kind, **{name: float(row[name]) for name in reads})
    assert qfi_at(spec, float(row["t"])).value == pytest.approx(float(row["qfi"]), rel=RTOL, abs=0.0)
