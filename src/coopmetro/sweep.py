"""Parameter sweeps, threshold-region detection and QFI maximization.

Every sweep is one `qfi_grid` call: a time sweep walks its grid with the
semigroup property, and a b_z or b_x sweep builds, exponentiates and checks
the stencil models of its points as stacks.  The region prescan, each step
of the lockstep region bisection and the 1-D coarse scan of the maximizer
evaluate a field objective the same way.
"""

import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .qfi import QfiResult
from .scenarios import ScenarioSpec, qfi_at, qfi_grid

__all__ = [
    "SweepGrid",
    "SweepPoint",
    "RegionResult",
    "sweep",
    "find_region",
    "maximize_qfi",
    "scenario_objective",
]

SWEEP_AXES = ("b_z", "b_x", "t")

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class SweepGrid:
    """Inclusive linear grid over one axis."""

    axis: str
    start: float
    stop: float
    points: int

    def __post_init__(self):
        if self.axis not in SWEEP_AXES:
            raise ValueError(f"sweep axis must be one of {SWEEP_AXES}, got {self.axis!r}")
        if not self.start < self.stop:
            raise ValueError(f"grid requires start < stop, got [{self.start}, {self.stop}]")
        if self.points < 2:
            raise ValueError(f"grid needs at least 2 points, got {self.points}")

    def values(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.points)


@dataclass(frozen=True)
class SweepPoint:
    """One grid evaluation; `error` holds the diagnostic for failed points."""

    value: float
    result: QfiResult | None
    error: str | None = None


@dataclass(frozen=True)
class RegionResult:
    """Endpoints of the contiguous region where the objective exceeds the
    threshold; unresolved when no pre-scan point does."""

    lower: float
    upper: float
    threshold: float
    resolved: bool


class _FieldObjective:
    """value |-> QFI of the scenario with the field `axis` set to value at
    probe time t; `_outcomes` evaluates many values in one `qfi_grid` call."""

    def __init__(self, spec: ScenarioSpec, t: float, axis: str):
        self.spec, self.t, self.axis = spec, t, axis

    def __call__(self, value: float) -> float:
        return qfi_at(replace(self.spec, **{self.axis: float(value)}), self.t).value


def scenario_objective(spec: ScenarioSpec, t: float | None, axis: str = "b_z") -> Callable[[float], float]:
    """Scalar objective value |-> QFI for sweeps/optimization over one axis
    (t is unused when the axis is t)."""
    if axis == "t":
        return lambda v: qfi_at(spec, float(v)).value
    if axis not in ("b_z", "b_x"):
        raise ValueError(f"unknown axis {axis!r}")
    return _FieldObjective(spec, t, axis)


def _outcomes(objective: Callable[[float], float], xs):
    """The objective, or the exception that failed it, at each value: one
    grid evaluation for a field objective, else one call per value read."""
    if isinstance(objective, _FieldObjective):
        outcomes = qfi_grid(objective.spec, xs, axis=objective.axis, t=objective.t)
        yield from (o if isinstance(o, Exception) else o.value for o in outcomes)
        return
    for x in xs:
        try:
            yield objective(float(x))
        except Exception as exc:  # handed to the caller, which raises it
            yield exc


def _scan(objective: Callable[[float], float], xs: np.ndarray) -> np.ndarray:
    """The objective at each value; raises the first failure, as calling it value by value would."""
    values = []
    for outcome in _outcomes(objective, xs):
        if isinstance(outcome, Exception):
            raise outcome
        values.append(outcome)
    return np.array(values)


def _point(value: float, outcome) -> SweepPoint:
    if isinstance(outcome, Exception):
        return SweepPoint(value=value, result=None, error=f"{type(outcome).__name__}: {outcome}")
    return SweepPoint(value=value, result=outcome)


def sweep(spec: ScenarioSpec, grid: SweepGrid, t: float | None = None) -> list[SweepPoint]:
    """One QFI evaluation per grid point, ordered by axis value, from one
    `qfi_grid` call.

    Per-point failures (e.g. b_z = 0 inside a cooperative grid, or a
    negative time) are recorded as SweepPoints with a diagnostic instead of
    aborting the sweep; so is a failure of a time grid as a whole, on every
    point.
    """
    if grid.axis != "t" and t is None:
        raise ValueError(f"sweeping over {grid.axis!r} requires the probe time t")
    values = [float(v) for v in grid.values()]
    try:
        outcomes = qfi_grid(spec, values, axis=grid.axis, t=t)
    except Exception as exc:  # recorded, not raised: the grid as a whole failed
        outcomes = [exc] * len(values)
    return [_point(v, o) for v, o in zip(values, outcomes)]


def _check_xtol(xtol: float) -> None:
    if not (math.isfinite(xtol) and xtol >= 0.0):
        raise ValueError(f"xtol must be finite and >= 0, got {xtol}")


def _bisect(objective, edges: list, threshold: float, xtol: float) -> list[float]:
    """Bisect each edge (lo, hi, objective at hi) to its threshold crossing,
    all in lockstep: each step evaluates the midpoints of the open edges
    (wider than xtol, with lo < midpoint < hi) together, one grid evaluation
    for a field objective: the midpoints that each would see bisected alone.
    As if bisected one after another, an edge that fails stops, and its
    exception is raised once every edge before it is done."""

    def open_(lo: float, hi: float) -> bool:
        return hi - lo > xtol and lo < 0.5 * (lo + hi) < hi

    edges = [[lo, hi, f_hi - threshold > 0.0] for lo, hi, f_hi in edges]
    failed: dict = {}  # edge index -> its exception, until the edges before it are done
    while active := [k for k, (lo, hi, _) in enumerate(edges) if open_(lo, hi) and k not in failed]:
        mids = [0.5 * (edges[k][0] + edges[k][1]) for k in active]
        for k, mid, outcome in zip(active, mids, _outcomes(objective, mids)):
            if isinstance(outcome, Exception):
                if not any(open_(lo, hi) for lo, hi, _ in edges[:k]):
                    raise outcome
                failed[k] = outcome
            elif (outcome - threshold > 0.0) == edges[k][2]:
                edges[k][1] = mid
            else:
                edges[k][0] = mid
    if failed:
        raise failed[min(failed)]
    return [0.5 * (lo + hi) for lo, hi, _ in edges]


def find_region(
    objective: Callable[[float], float],
    threshold: float,
    bracket: tuple[float, float],
    prescan: int = 101,
    xtol: float = 1e-4,
) -> RegionResult:
    """Locate the contiguous region around the objective's maximum where it
    meets the threshold.

    A prescan grid over the bracket (one grid evaluation for a field
    objective of `scenario_objective`) finds the block of above-threshold
    points containing the maximum; both edge crossings are then bisected in
    lockstep to |delta| <= xtol (finite, >= 0), or to adjacent floats (see
    `_bisect`).  Returns resolved=False (NaN endpoints) when no prescan
    point reaches the threshold.
    """
    if threshold <= 0:
        raise ValueError(f"threshold must be > 0, got {threshold}")
    _check_xtol(xtol)
    lo, hi = bracket
    if not lo < hi:
        raise ValueError(f"invalid bracket [{lo}, {hi}]")
    xs = np.linspace(lo, hi, prescan)
    vals = _scan(objective, xs)
    above = vals >= threshold
    if not above.any():
        return RegionResult(lower=math.nan, upper=math.nan, threshold=threshold, resolved=False)
    peak = int(np.argmax(vals))
    i = peak
    while i > 0 and above[i - 1]:
        i -= 1
    j = peak
    while j < prescan - 1 and above[j + 1]:
        j += 1
    edges = []  # (lo, hi, objective at hi) of each crossing inside the bracket, the lower first
    if i > 0:
        edges.append((float(xs[i - 1]), float(xs[i]), vals[i]))
    if j < prescan - 1:
        edges.append((float(xs[j]), float(xs[j + 1]), vals[j + 1]))
    crossings = iter(_bisect(objective, edges, threshold, xtol))
    lower = next(crossings) if i > 0 else float(xs[0])
    upper = next(crossings) if j < prescan - 1 else float(xs[-1])
    return RegionResult(lower=lower, upper=upper, threshold=threshold, resolved=True)


def _golden_max(f, lo: float, hi: float, xtol: float) -> tuple[float, float]:
    x1 = hi - _INVPHI * (hi - lo)
    x2 = lo + _INVPHI * (hi - lo)
    f1, f2 = f(x1), f(x2)
    while hi - lo > xtol and lo < x1 < hi and lo < x2 < hi:  # a probe on lo or hi no longer narrows it
        if f1 < f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _INVPHI * (hi - lo)
            f2 = f(x2)
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _INVPHI * (hi - lo)
            f1 = f(x1)
    mid = 0.5 * (lo + hi)
    return mid, f(mid)


def maximize_qfi(
    objective: Callable[..., float],
    bounds: Sequence[tuple[float, float]],
    coarse: int = 33,
    xtol: float = 1e-6,
):
    """Maximize over 1 or 2 bounded parameters: coarse grid scan (one grid
    evaluation for a field objective of `scenario_objective`), then
    golden-section (1D) or Nelder-Mead (2D) refinement.

    Returns (argmax, value); argmax is a float in 1D, a 2-tuple in 2D.  The
    returned value is never below the best coarse-grid value, so boundary
    maxima survive refinement exactly.  Deterministic for a fixed objective.
    xtol must be finite and >= 0; golden section stops there or at adjacent floats.
    """
    _check_xtol(xtol)
    bounds = [(float(a), float(b)) for a, b in bounds]
    for a, b in bounds:
        if not (math.isfinite(a) and math.isfinite(b) and a < b):
            raise ValueError(f"bounds must be finite with lower < upper, got ({a}, {b})")
    if len(bounds) == 1:
        (lo, hi), = bounds
        xs = np.linspace(lo, hi, coarse)
        vals = _scan(objective, xs)
        k = int(np.argmax(vals))
        cell_lo = float(xs[max(k - 1, 0)])
        cell_hi = float(xs[min(k + 1, coarse - 1)])
        x_ref, v_ref = _golden_max(objective, cell_lo, cell_hi, xtol)
        if v_ref >= vals[k]:
            return x_ref, v_ref
        return float(xs[k]), float(vals[k])
    if len(bounds) == 2:
        # Imported here, on first use: scipy.optimize adds ~20 MB of resident
        # memory to every process that imports the package.
        from scipy.optimize import minimize

        (lo0, hi0), (lo1, hi1) = bounds
        xs = np.linspace(lo0, hi0, coarse)
        ys = np.linspace(lo1, hi1, coarse)
        best_val = -math.inf
        best_xy = (xs[0], ys[0])
        for x in xs:
            for y in ys:
                v = objective(float(x), float(y))
                if v > best_val:
                    best_val, best_xy = v, (float(x), float(y))
        res = minimize(
            lambda p: -objective(p[0], p[1]),
            x0=np.array(best_xy),
            method="Nelder-Mead",
            bounds=bounds,
            options={"xatol": xtol, "fatol": 1e-12, "maxiter": 4000},
        )
        if -res.fun >= best_val:
            return (float(res.x[0]), float(res.x[1])), float(-res.fun)
        return best_xy, float(best_val)
    raise ValueError(f"maximize_qfi supports 1 or 2 free parameters, got {len(bounds)}")
