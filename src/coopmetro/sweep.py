"""Parameter sweeps, threshold-region detection and QFI maximization.

Every sweep is one `qfi_grid` call, which propagates its points in closed
form and checks them as stacks: one model over a time grid, or the models
of a b_z or b_x grid.  The region prescan, each step of the lockstep search for the
region's edges and each scan of the zooming maximizer evaluate an
objective of `scenario_objective` the same way, as one record of arrays.
"""

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .qfi import QfiResult
from .scenarios import ScenarioSpec, _grid_outcomes, qfi_grid

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

_SCAN = 33  # points in each scan of `maximize_qfi`


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
    threshold; unresolved when no prescan point does, or when every prescan
    value lies within rounding of the threshold (see `find_region`)."""

    lower: float
    upper: float
    threshold: float
    resolved: bool


class _GridObjective:
    """value |-> QFI of the scenario at probe time value (axis "t"), or with
    the field `axis` set to value at probe time t: the one-point case of
    `qfi_grid`; `_scan` and `_steps` read the record of many values at once."""

    def __init__(self, spec: ScenarioSpec, t: float | None, axis: str):
        self.spec, self.t, self.axis = spec, t, axis

    def __call__(self, value: float) -> float:
        return float(_scan(self, [value])[0])


def scenario_objective(spec: ScenarioSpec, t: float | None, axis: str = "b_z") -> Callable[[float], float]:
    """Scalar objective value |-> QFI for sweeps/optimization over one axis
    (t is unused when the axis is t)."""
    if axis not in SWEEP_AXES:
        raise ValueError(f"unknown axis {axis!r}")
    return _GridObjective(spec, t, axis)


def _outcomes(objective: Callable[[float], float], xs):
    """The objective, or the exception that failed it, at each value, one
    call per value read: the path of an objective that is not a grid's."""
    for x in xs:
        try:
            yield objective(float(x))
        except Exception as exc:  # handed to the caller, which raises it
            yield exc


def _scan(objective: Callable[[float], float], xs) -> np.ndarray:
    """The objective at each value: one grid evaluation for an objective of
    `scenario_objective`, else `_outcomes`; raises the first failure, by
    index, as calling it value by value would."""
    if isinstance(objective, _GridObjective):
        values, errors, _ = _grid_outcomes(objective.spec, xs, objective.axis, objective.t)
        if errors:
            raise errors[min(errors)]
        return values
    values = []
    for outcome in _outcomes(objective, xs):
        if isinstance(outcome, Exception):
            raise outcome
        values.append(outcome)
    return np.asarray(values)


def _steps(objective, steps: list[list[float]]):
    """Each step's values and its first exception (None if none), in turn:
    one grid evaluation of every step's points for an objective of
    `scenario_objective`, else `_outcomes`, read a step at a time."""
    xs = [x for step in steps for x in step]
    if isinstance(objective, _GridObjective):
        values, errors, _ = _grid_outcomes(objective.spec, xs, objective.axis, objective.t)
        for start, end in itertools.pairwise(itertools.accumulate(map(len, steps), initial=0)):
            yield values[start:end].tolist(), errors.get(min(errors.keys() & range(start, end), default=None))
        return
    outcomes = _outcomes(objective, xs)
    for step in steps:
        values = list(itertools.islice(outcomes, len(step)))
        yield values, next((v for v in values if isinstance(v, Exception)), None)


def _diagnostic(error: Exception) -> str:
    """A failed point's diagnostic, as `SweepPoint.error` and the CLI give it."""
    return f"{type(error).__name__}: {error}"


def sweep(spec: ScenarioSpec, grid: SweepGrid, t: float | None = None) -> list[SweepPoint]:
    """One QFI evaluation per grid point, ordered by axis value, from one
    `qfi_grid` call.

    Per-point failures (e.g. b_z = 0 inside a cooperative grid, a negative
    time or a model that cannot be built) are recorded as SweepPoints with
    a diagnostic instead of aborting the sweep.
    """
    if grid.axis != "t" and t is None:
        raise ValueError(f"sweeping over {grid.axis!r} requires the probe time t")
    values = grid.values().tolist()
    points = zip(values, qfi_grid(spec, values, axis=grid.axis, t=t))
    return [SweepPoint(v, None, _diagnostic(o)) if isinstance(o, Exception) else SweepPoint(v, o) for v, o in points]


def _check_xtol(xtol: float) -> None:
    if not (math.isfinite(xtol) and xtol >= 0.0):
        raise ValueError(f"xtol must be finite and >= 0, got {xtol}")


def _lagrange(points, x: float) -> float:
    """The polynomial through the (x, y) points (distinct x), at x, in
    Lagrange form: exactly y at each point's x."""
    return sum(y_k * math.prod((x - x_m) / (x_k - x_m) for x_m, _ in points if x_m != x_k) for x_k, y_k in points)


def _root(points, outside, inside, threshold: float) -> float:
    """Where the polynomial through the points (the (x, y) ends among them)
    crosses the threshold between the ends, by Illinois regula falsi
    (Dowell & Jarratt, BIT 11, 168 (1971)) until its next point is not
    strictly between them, or for 64 points; NaN where the polynomial is
    not finite."""
    (a, f_a), (b, f_b) = outside, inside
    f_a, f_b, kept = f_a - threshold, f_b - threshold, 0
    for _ in range(64):
        c = b - f_b * (b - a) / (f_b - f_a)
        if not min(a, b) < c < max(a, b):
            break
        f_c = _lagrange(points, c) - threshold
        # c replaces the end on its side; the value at an end kept twice running is halved
        if f_c >= 0:
            b, f_b, f_a, kept = c, f_c, f_a * (0.5 if kept == -1 else 1.0), -1
        elif f_c < 0:
            a, f_a, f_b, kept = c, f_c, f_b * (0.5 if kept == 1 else 1.0), 1
        else:
            return math.nan
    return c


def _edge(outside, inside, threshold: float, points=()) -> tuple:
    """An edge (outside, inside, estimate): the (x, y) ends of an interval,
    y below the threshold at the outside end and not at the inside end, and
    an estimate of the crossing between them (see `_root`): that of the
    cubic through the four prescan `points` nearest the interval, if given;
    of the line through the ends (regula falsi) where that is not finite;
    the midpoint where neither lies in the interval."""
    lo, hi = sorted((outside[0], inside[0]))
    for through in filter(None, (points, (outside, inside))):
        estimate = _root(through, outside, inside, threshold)
        if lo <= estimate <= hi:
            return outside, inside, estimate
    return outside, inside, 0.5 * (lo + hi)


def _refine(objective, edges: list, threshold: float, xtol: float) -> list[float]:
    """Narrow each edge (see `_edge`) to its threshold crossing, all in
    lockstep.  Each step evaluates, for every open edge (wider than xtol,
    with its midpoint strictly between its ends), the estimate +- xtol/4 and
    the midpoint, those strictly inside the edge, together: one grid
    evaluation for a grid objective.  The edge keeps the sub-interval where
    the threshold is crossed nearest its inside end, at most half as wide,
    with regula falsi on it as its next estimate: so each edge sees the
    points it would see searched alone, in no more steps than bisection.
    As if searched one after another, an edge that fails stops, and its
    exception is raised once every edge before it is done."""

    def open_(edge) -> bool:
        (a, _), (b, _), _ = edge
        return abs(b - a) > xtol and 0.5 * (a + b) not in (a, b)

    def points(edge) -> list[float]:
        (a, _), (b, _), estimate = edge
        lo, hi = sorted((a, b))
        candidates = (estimate - 0.25 * xtol, estimate + 0.25 * xtol, 0.5 * (a + b))
        return sorted({x for x in candidates if lo < x < hi})

    failed: dict = {}  # edge index -> its exception, until the edges before it are done
    while active := [k for k, edge in enumerate(edges) if open_(edge) and k not in failed]:
        steps = [points(edges[k]) for k in active]
        for k, step, (values, error) in zip(active, steps, _steps(objective, steps)):
            if error is not None:
                if not any(map(open_, edges[:k])):
                    raise error
                failed[k] = error
                continue
            outside, inside, _ = edges[k]
            # walk out from the inside end to the first point outside
            for x, y in sorted(zip(step, map(float, values)), key=lambda p: abs(p[0] - inside[0])):
                if not y >= threshold:
                    outside = (x, y)
                    break
                inside = (x, y)
            edges[k] = _edge(outside, inside, threshold)
    if failed:
        raise failed[min(failed)]
    return [0.5 * (outside[0] + inside[0]) for outside, inside, _ in edges]


def find_region(
    objective: Callable[[float], float],
    threshold: float,
    bracket: tuple[float, float],
    prescan: int = 101,
    xtol: float = 1e-4,
) -> RegionResult:
    """Locate the contiguous region around the objective's maximum where it
    meets the threshold (objective >= threshold).

    A prescan grid over the bracket (one grid evaluation for an
    objective of `scenario_objective`) finds the block of above-threshold
    points containing the maximum.  Each edge crossing starts from the
    crossing of the cubic through the four prescan points nearest its cell,
    one-sided at the bracket's ends (see `_edge`), and both are then
    narrowed in lockstep by guarded interpolation to |delta| <= xtol/2
    (xtol finite, >= 0), or to adjacent floats (see `_refine`).  Returns
    resolved=False (NaN endpoints) when no prescan point reaches the
    threshold, or when all lie within 64 ulps of it: rounding alone
    scatters an objective equal to the threshold (the unitary baseline's
    QFI against the Heisenberg limit) by about 6 ulps.
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
    if not above.any() or np.all(abs(vals - threshold) <= 64 * np.spacing(threshold)):
        return RegionResult(lower=math.nan, upper=math.nan, threshold=threshold, resolved=False)
    peak = int(np.argmax(vals))
    i = peak
    while i > 0 and above[i - 1]:
        i -= 1
    j = peak
    while j < prescan - 1 and above[j + 1]:
        j += 1
    points = [(float(x), float(y)) for x, y in zip(xs, vals)]

    def edge(outside: int, inside: int) -> tuple:
        first = min(max(min(outside, inside) - 1, 0), prescan - 4)  # one-sided at the bracket's ends
        return _edge(points[outside], points[inside], threshold, points[first : first + 4] if prescan >= 4 else ())

    edges = []  # each crossing inside the bracket, the lower first
    if i > 0:
        edges.append(edge(i - 1, i))
    if j < prescan - 1:
        edges.append(edge(j + 1, j))
    crossings = iter(_refine(objective, edges, threshold, xtol))
    lower = next(crossings) if i > 0 else float(xs[0])
    upper = next(crossings) if j < prescan - 1 else float(xs[-1])
    return RegionResult(lower=lower, upper=upper, threshold=threshold, resolved=True)


def maximize_qfi(
    objective: Callable[[float], float],
    bounds: Sequence[tuple[float, float]],
    xtol: float = 1e-6,
) -> tuple[float, float]:
    """Maximize over one bounded parameter, bounds = [(lo, hi)], by zooming
    a scan: evaluate `_SCAN` points spanning the interval (one grid
    evaluation for an objective of `scenario_objective`), narrow it to the
    two cells around the best of them, and repeat until those are at most
    xtol wide (xtol finite, >= 0) or no longer narrow, as at adjacent floats.

    Returns (argmax, value), the best point scanned, replaced only by a
    strictly larger value: the value is never below the best coarse-scan
    value, and a maximum at an end of the bracket comes back exactly.
    Where every value of the first scan lies within 64 ulps of its best
    (`find_region`'s flat rule: rounding alone scatters the unitary
    baseline's constant QFI by about 6 ulps), the data determine no argmax:
    it returns (NaN, best value).  Only the first scan is held to that
    rule, so a zoom down to adjacent floats still returns its argmax.
    """
    _check_xtol(xtol)
    if len(bounds) != 1:
        raise ValueError(f"maximize_qfi takes one bounded parameter, got {len(bounds)}")
    lo, hi = map(float, bounds[0])
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValueError(f"bounds must be finite with lower < upper, got ({lo}, {hi})")
    argmax, value = math.nan, -math.inf
    first = True
    while True:
        xs = np.linspace(lo, hi, _SCAN)
        vals = _scan(objective, xs)
        if np.isnan(vals).any():
            raise ValueError(f"the objective is NaN at {float(xs[np.isnan(vals)][0])!r}")
        k = int(np.argmax(vals))
        if first and vals[k] - vals.min() <= 64 * np.spacing(abs(vals[k])):
            return math.nan, float(vals[k])
        first = False
        if vals[k] > value:
            argmax, value = float(xs[k]), float(vals[k])
        cell = float(xs[max(k - 1, 0)]), float(xs[min(k + 1, _SCAN - 1)])
        if cell[1] - cell[0] <= xtol or cell == (lo, hi):
            return argmax, value
        lo, hi = cell
