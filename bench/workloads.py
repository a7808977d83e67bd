"""Seeded request streams for the four benchmark workloads.

Each request is the argv of one `coopmetro` CLI call plus the parameters it
was drawn from, so the checks can recompute the expected output.  Every
request draws fresh parameters; request classes (scenario kinds) rotate in
a fixed order, so each class's share of a run is exact and a percentile
cannot drift from one class to another between seeds.

Parameter ranges follow the paper's figure parameters: probe times up to 6,
single-spin fields and rates around 0.05-1, and the two-spin scheme near
its critical point b_z = 1 at t ~ 1 with the fig. 5 dipole of 10.
"""

import itertools
import random
from dataclasses import dataclass
from typing import Callable, Iterator

SINGLE_SPIN_KINDS = ("std-spont", "coop-spont", "std-deph", "coop-deph", "coop-thermal", "unitary-baseline")
ALL_KINDS = SINGLE_SPIN_KINDS[:5] + ("two-spin-coop", "unitary-baseline")

# The scenario parameters each kind reads; no other flag is passed.
KIND_PARAMS = {
    "std-spont": ("b_z", "gamma"),
    "coop-spont": ("b_z", "b_x", "gamma"),
    "std-deph": ("b_z", "eta"),
    "coop-deph": ("b_z", "b_x", "eta"),
    "coop-thermal": ("b_z", "b_x", "dipole", "t_e"),
    "unitary-baseline": ("b_z",),
    "two-spin-coop": ("b_z", "b_x", "dipole"),
}

SINGLE_SPIN_RANGES = {
    "b_z": (0.05, 0.5),
    "b_x": (0.05, 0.5),
    "gamma": (0.1, 1.0),
    "eta": (0.1, 1.0),
    "dipole": (1.0, 3.0),
    "t_e": (0.05, 0.3),
}
TWO_SPIN_RANGES = {"b_x": (0.05, 0.12), "dipole": (9.0, 11.0), "t": (0.8, 1.2)}

TIME_SWEEP_POINTS = 50
FIELD_SWEEP_POINTS = 21


@dataclass(frozen=True)
class Request:
    """One CLI call: the request class, its argv and the drawn values."""

    kind: str
    command: str
    argv: tuple
    params: dict


@dataclass(frozen=True)
class Workload:
    """A request generator; why each workload exists is in BENCHMARK.json
    and README.md."""

    name: str
    make: Callable[[random.Random, int], Request]
    # Fixed per workload so a faster program, which completes more requests,
    # is compared on the same percentile.  At the seed commit at least ten
    # samples of a 15 s run lie beyond it, also on a host running at half
    # speed, except for the ~0.5 s searches (about eight there).  Higher
    # percentiles spread by 0.2-0.28 over seeds on a contended host.
    tail_percentile: float
    # Request classes rotate with this period.
    cycle: int = 1


def _draw(rng: random.Random, lo: float, hi: float) -> float:
    # Six decimals keep argv short; float(repr(x)) == x, so the checks see
    # exactly the value the CLI parsed.
    return round(rng.uniform(lo, hi), 6)


def _scenario_flags(kind: str, params: dict) -> list:
    flags = ["--kind", kind]
    for key in KIND_PARAMS[kind]:
        flags += [f"--{key}", repr(params[key])]
    return flags


def _single_spin_params(rng: random.Random, kind: str) -> dict:
    params = {key: _draw(rng, *SINGLE_SPIN_RANGES[key]) for key in KIND_PARAMS[kind]}
    # Half the thermal requests take the fig. 4 bath temperature t_e = 0 (one
    # decay channel), half a temperature comparable to the gap (decay and
    # absorption).
    if "t_e" in params and rng.random() < 0.5:
        params["t_e"] = 0.0
    return params


def _two_spin_params(rng: random.Random) -> dict:
    return {
        "b_z": 1.0,
        "b_x": _draw(rng, *TWO_SPIN_RANGES["b_x"]),
        "dipole": _draw(rng, *TWO_SPIN_RANGES["dipole"]),
        "t": _draw(rng, *TWO_SPIN_RANGES["t"]),
    }


def _time_sweep(rng: random.Random, i: int) -> Request:
    kind = SINGLE_SPIN_KINDS[i % len(SINGLE_SPIN_KINDS)]
    params = _single_spin_params(rng, kind)
    params.update({"from": _draw(rng, 0.05, 0.5), "to": _draw(rng, 3.0, 6.0), "points": TIME_SWEEP_POINTS})
    argv = ["sweep", *_scenario_flags(kind, params), "--axis", "t",
            "--from", repr(params["from"]), "--to", repr(params["to"]), "--points", str(TIME_SWEEP_POINTS)]
    return Request(kind, "sweep", tuple(argv), params)


def _field_sweep(rng: random.Random, i: int) -> Request:
    params = _two_spin_params(rng)
    params.update({"from": _draw(rng, 0.5, 0.8), "to": _draw(rng, 1.2, 1.5), "points": FIELD_SWEEP_POINTS})
    argv = ["sweep", *_scenario_flags("two-spin-coop", params), "--t", repr(params["t"]), "--axis", "b_z",
            "--from", repr(params["from"]), "--to", repr(params["to"]), "--points", str(FIELD_SWEEP_POINTS)]
    return Request("two-spin-coop", "sweep", tuple(argv), params)


def _point_query(rng: random.Random, i: int) -> Request:
    kind = ALL_KINDS[i % len(ALL_KINDS)]
    if kind == "two-spin-coop":
        params = _two_spin_params(rng)
        params["b_z"] = _draw(rng, 0.5, 1.5)
    else:
        params = _single_spin_params(rng, kind)
        params["t"] = _draw(rng, 0.05, 6.0)
    params["m"] = rng.randint(1, 1000)
    argv = ["run", *_scenario_flags(kind, params), "--t", repr(params["t"]),
            "--m", str(params["m"]), "--format", "json"]
    return Request(kind, "run", tuple(argv), params)


def _search(rng: random.Random, i: int) -> Request:
    params = _two_spin_params(rng)
    params.update({"from": _draw(rng, 0.5, 0.7), "to": _draw(rng, 1.3, 1.5)})
    argv = ["region", *_scenario_flags("two-spin-coop", params), "--t", repr(params["t"]),
            "--from", repr(params["from"]), "--to", repr(params["to"])]
    return Request("two-spin-coop", "region", tuple(argv), params)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("time-sweeps", _time_sweep, tail_percentile=90.0, cycle=len(SINGLE_SPIN_KINDS)),
        Workload("field-sweeps", _field_sweep, tail_percentile=90.0),
        Workload("point-queries", _point_query, tail_percentile=90.0, cycle=len(ALL_KINDS)),
        Workload("searches", _search, tail_percentile=60.0),
    )
}


def requests(workload: str, seed: int) -> Iterator[Request]:
    """The workload's infinite request stream; the same seed gives the same stream."""
    make = WORKLOADS[workload].make
    rng = random.Random(f"{workload}:{seed}")
    return (make(rng, i) for i in itertools.count())
