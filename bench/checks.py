"""Correctness checks of CLI outputs, run outside the timed region.

References:
- closed forms: `analytic_coop_spont_qfi` (coop-spont), `standard_limit_formulas`
  (std-spont, std-deph) and `heisenberg_limit` (unitary-baseline), at every
  output point;
- coop-deph, coop-thermal and two-spin-coop: a seeded sample of points
  recomputed by an independent route, fixed-step RK4 propagation
  (`propagate_rk4`) + `differentiate_state` + `qfi_sld`, with no `expm`;
- region: each endpoint lies within `REGION_DELTA` of a crossing of the
  16 t^2 threshold, and on a seeded sample an independent scan of the
  bracket puts the QFI peak between the endpoints.
"""

import csv
import io
import json
import math
from dataclasses import replace

import numpy as np

from coopmetro.lindblad import propagate_rk4
from coopmetro.qfi import StateFamily, differentiate_state, qfi_sld
from coopmetro.scenarios import (
    ScenarioSpec,
    analytic_coop_spont_qfi,
    build_model,
    heisenberg_limit,
    probe_state,
    qfi_at,
    standard_limit_formulas,
)

CLOSED_FORM_RTOL = 1e-6
RK4_RTOL = 1e-6
ABS_TOL = 1e-9
RK4_KINDS = ("coop-deph", "coop-thermal", "two-spin-coop")
# RK4 step so that |lambda| dt <= 2 for every Liouvillian eigenvalue (the
# real-axis stability limit is 2.785), and dt <= 1/200 for accuracy.
RK4_MAX_STEP_NORM = 2.0
RK4_MAX_DT = 1.0 / 200.0
REGION_DELTA = 5e-4
PEAK_SCAN_POINTS = 61
QFI_METHODS = ("qubit-closed-form", "sld-spectral", "pure")


def _spec(kind: str, params: dict) -> ScenarioSpec:
    keys = ("b_z", "b_x", "gamma", "eta", "dipole", "t_e")
    return ScenarioSpec(kind=kind, **{k: params[k] for k in keys if k in params})


def _close(value: float, reference: float, rtol: float) -> bool:
    return abs(value - reference) <= rtol * abs(reference) + ABS_TOL


def _closed_form(kind: str, params: dict, t: float) -> float | None:
    if kind == "coop-spont":
        return analytic_coop_spont_qfi(params["b_z"], params["b_x"], params["gamma"], t)
    if kind == "std-spont":
        return standard_limit_formulas("spont", params["gamma"], t)
    if kind == "std-deph":
        return standard_limit_formulas("deph", params["eta"], t)
    if kind == "unitary-baseline":
        return heisenberg_limit(1, t)
    return None


def rk4_qfi(spec: ScenarioSpec, t: float) -> float:
    """QFI by fixed-step RK4 propagation, Richardson differences and the SLD formula."""
    probe = probe_state(spec)
    if t == 0.0:
        return 0.0
    model = build_model(spec)
    fastest = float(np.abs(np.linalg.eigvals(model.liouvillian)).max())
    steps = max(math.ceil(t * fastest / RK4_MAX_STEP_NORM), math.ceil(t / RK4_MAX_DT))

    def evaluate(b: float) -> np.ndarray:
        return propagate_rk4(build_model(replace(spec, b_z=b)), probe, t, steps)

    family = StateFamily(evaluate=evaluate, b0=spec.b_z)
    return qfi_sld(evaluate(spec.b_z), differentiate_state(family)).value


def _parse_csv(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def _rows(request, out: str) -> list[dict]:
    return json.loads(out) if request.command == "run" else _parse_csv(out)


def _points(request, rows: list[dict]) -> list[tuple[float, float, str]]:
    """(axis value, qfi, method) of every output row; raises on a failed point."""
    axis = "b_z" if request.command == "sweep" and request.kind == "two-spin-coop" else "t"
    for r in rows:
        if r.get("error"):
            raise ValueError(f"point {axis}={r[axis]} failed: {r['error']}")
    return [(float(r[axis]), float(r["qfi"]), r["method"]) for r in rows]


def check(request, rc: int, out: str) -> str | None:
    """First problem found in one request's output, or None when it is correct."""
    if rc != 0:
        return f"exit code {rc}"
    try:
        if request.command == "region":
            return _check_region(request, out)
        return _check_points(request, out)
    except (ValueError, KeyError, TypeError) as exc:
        return f"malformed output: {type(exc).__name__}: {exc}"


def _check_points(request, out: str) -> str | None:
    params = request.params
    rows = _rows(request, out)
    points = _points(request, rows)
    if request.command == "sweep":
        grid = np.linspace(params["from"], params["to"], params["points"])
        if len(points) != len(grid):
            return f"{len(points)} points, expected {len(grid)}"
        for (value, _, _), expected in zip(points, grid):
            if not _close(value, float(expected), 1e-10):
                return f"grid value {value} != {expected}"
    else:
        if len(rows) != 1:
            return f"{len(rows)} rows, expected 1"
        row = rows[0]
        qfi = float(row["qfi"])
        if row["kind"] != request.kind or float(row["t"]) != params["t"] or int(row["m"]) != params["m"]:
            return f"echoed inputs differ: {row}"
        if qfi > 0 and not _close(float(row["bound"]), 1.0 / math.sqrt(params["m"] * qfi), 1e-12):
            return f"bound {row['bound']} != 1/sqrt(m F)"
    for t_or_b, qfi, method in points:
        if not (math.isfinite(qfi) and qfi >= 0.0):
            return f"QFI {qfi} at {t_or_b}"
        if method not in QFI_METHODS:
            return f"unknown method tag {method!r}"
        if request.kind in RK4_KINDS:
            continue
        reference = _closed_form(request.kind, params, t_or_b)
        if not _close(qfi, reference, CLOSED_FORM_RTOL):
            return f"QFI {qfi!r} at {t_or_b} differs from closed form {reference!r}"
    return None


def sample_point(request, out: str, rng) -> tuple[ScenarioSpec, float, float]:
    """(spec, t, reported QFI) of one seeded point of an RK4-checked request."""
    points = _points(request, _rows(request, out))
    value, qfi, _ = points[rng.randrange(len(points))]
    params = request.params
    if request.kind == "two-spin-coop" and request.command == "sweep":
        return _spec(request.kind, {**params, "b_z": value}), params["t"], qfi
    return _spec(request.kind, params), value, qfi


def check_rk4(spec: ScenarioSpec, t: float, qfi: float) -> str | None:
    reference = rk4_qfi(spec, t)
    if _close(qfi, reference, RK4_RTOL):
        return None
    return f"QFI {qfi!r} of {spec} at t={t} differs from the RK4 route {reference!r}"


def _region(out: str) -> dict:
    rows = _parse_csv(out)
    if len(rows) != 1:
        raise ValueError(f"{len(rows)} rows, expected 1")
    return rows[0]


def _check_region(request, out: str) -> str | None:
    params = request.params
    row = _region(out)
    if row["resolved"] != "true":
        return "region not resolved"
    lower, upper, threshold = float(row["lower"]), float(row["upper"]), float(row["threshold"])
    t = params["t"]
    if not _close(threshold, heisenberg_limit(2, t), 1e-11):
        return f"threshold {threshold} != 16 t^2"
    if not params["from"] < lower < upper < params["to"]:
        return f"endpoints {lower}, {upper} outside the bracket"
    if not _close(float(row["width"]), upper - lower, 1e-9):
        return f"width {row['width']} != upper - lower"
    spec = _spec("two-spin-coop", params)
    for name, edge, inward in (("lower", lower, 1.0), ("upper", upper, -1.0)):
        inside = qfi_at(replace(spec, b_z=edge + inward * REGION_DELTA), t).value
        outside = qfi_at(replace(spec, b_z=edge - inward * REGION_DELTA), t).value
        if not outside < threshold <= inside:
            return f"{name} endpoint {edge}: QFI {outside!r} .. {inside!r} does not cross {threshold}"
        at_edge = qfi_at(replace(spec, b_z=edge), t).value
        if abs(at_edge - threshold) > inside - outside:
            return f"{name} endpoint {edge}: QFI {at_edge!r} is not at the threshold {threshold}"
    return None


def check_region_peak(request, out: str) -> str | None:
    """An independent scan of the bracket must peak inside the reported region."""
    params = request.params
    row = _region(out)
    spec = _spec("two-spin-coop", params)
    xs = np.linspace(params["from"], params["to"], PEAK_SCAN_POINTS)
    values = [qfi_at(replace(spec, b_z=float(x)), params["t"]).value for x in xs]
    peak = float(xs[int(np.argmax(values))])
    if not float(row["lower"]) <= peak <= float(row["upper"]):
        return f"QFI peak at b_z={peak} outside the region [{row['lower']}, {row['upper']}]"
    return None
