"""Golden figure gate: every figure data set stays within 1e-7 relative of
its reference CSV under tests/data/.

The references were written by `coopmetro figure` with the Kronecker-product
Liouvillian assembly (`kron_liouvillian` in test_lindblad.py).  Random
eigenvector phases alone move fig5 by ~1.5e-8 (rounding noise amplified by
the finite differences), so the gate sits above that floor rather than at
byte equality.
"""

import csv
from pathlib import Path

import numpy as np
import pytest

from coopmetro.cli import FIGURE_IDS

DATA = Path(__file__).parent / "data"
GOLDEN_RTOL = 1e-7
FIXTURES = {"fig2": "fig2_rows", "fig3": "fig3_rows", "fig4": "fig4_rows", "fig5": "fig5_rows", "figA1": "figa1_rows"}


def _read_golden(figure_id: str) -> tuple[list[str], dict[str, np.ndarray]]:
    with open(DATA / f"{figure_id}.csv", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        values = np.array([[float(cell) for cell in row] for row in reader])
    return header, {name: values[:, i] for i, name in enumerate(header)}


@pytest.mark.parametrize("figure_id", FIGURE_IDS)
def test_figure_matches_golden(figure_id, request):
    header, golden = _read_golden(figure_id)
    rows = request.getfixturevalue(FIXTURES[figure_id])
    assert list(rows[0]) == header
    assert len(rows) == len(golden[header[0]])
    for name in header:
        np.testing.assert_allclose(
            [row[name] for row in rows], golden[name], rtol=GOLDEN_RTOL, atol=0.0, err_msg=f"{figure_id}.{name}"
        )
