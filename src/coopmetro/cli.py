"""Command-line front end: scenario runs, sweeps, regions, figure data.

Configuration comes from a JSON file (--config) and/or flags; flags override
file values.  Commands: run | sweep | region | maximize | tradeoff | figure.
Figure data sets are deterministic: fixed grids; in CSV, values printed
with 12 significant digits and newline-terminated rows.
"""

import argparse
import json
import math
import sys
from dataclasses import dataclass, field, fields, replace
from typing import get_args

from .scenarios import (
    InvalidScenarioError,
    ScenarioSpec,
    build_model,
    effective_two_spin_ground_qfi,
    exact_two_spin_ground_qfi,
    heisenberg_limit,
    qfi_at,
    spin_count,
    standard_limit_formulas,
    tradeoff_width,
)
from .sweep import SWEEP_AXES, SweepGrid, find_region, maximize_qfi, scenario_objective, sweep

__all__ = ["UsageError", "RunConfig", "parse_config", "report_bound", "main"]

_SCENARIO_KEYS = tuple(f.name for f in fields(ScenarioSpec))

# What a config-file value of each field type must be: its name in messages
# and the JSON value types accepted (bools excluded).
_JSON_TYPES = {float: ("a number", (int, float)), int: ("an integer", int), str: ("a string", str)}


class UsageError(ValueError):
    """Malformed or inconsistent configuration; message names the bad key."""


def _key(name: str) -> str:
    """Config key of a RunConfig field ("from" is a Python keyword)."""
    return "from" if name == "from_" else name


# ---------------------------------------------------------------------------
# figure data
# ---------------------------------------------------------------------------

_T_GRID = SweepGrid("t", 0.05, 5.0, 100)  # step 0.05
_BZ_GRID = SweepGrid("b_z", 0.5, 1.5, 201)  # step 0.005


def _figure_sweep(spec: ScenarioSpec, grid: SweepGrid, t: float | None = None) -> list[float]:
    """QFI values of one figure column; a failed point fails the figure."""
    values = []
    for point in sweep(spec, grid, t=t):
        if point.result is None:
            raise RuntimeError(f"{spec.kind} point {grid.axis}={point.value} failed: {point.error}")
        values.append(point.result.value)
    return values


def _time_figure_rows(coop: ScenarioSpec, std: ScenarioSpec, formula_kind: str, rate: float) -> list[dict]:
    """QFI against time of a cooperative scheme and of the standard scheme at
    the same parameters, numeric and closed form, with the Heisenberg limit."""
    columns = zip(map(float, _T_GRID.values()), _figure_sweep(coop, _T_GRID), _figure_sweep(std, _T_GRID))
    return [
        {
            "t": t,
            "f_coop": f_coop,
            "f_std_numeric": f_std,
            "f_std_formula": standard_limit_formulas(formula_kind, rate, t),
            "f_heisenberg": heisenberg_limit(1, t),
        }
        for t, f_coop, f_std in columns
    ]


def _fig2() -> list[dict]:
    coop = ScenarioSpec(kind="coop-spont", b_z=0.1, b_x=0.1, gamma=0.5)
    return _time_figure_rows(coop, replace(coop, kind="std-spont"), "spont", coop.gamma)


def _fig3() -> list[dict]:
    coop = ScenarioSpec(kind="coop-deph", b_z=0.1, b_x=0.1, eta=0.5)
    return _time_figure_rows(coop, replace(coop, kind="std-deph"), "deph", coop.eta)


def _fig4() -> list[dict]:
    # At b_x = 0 the thermal model reduces to spontaneous emission whose
    # rate is the b_x = 0 channel rate; the spont closed form applies.
    coop = ScenarioSpec(kind="coop-thermal", b_z=0.3, b_x=0.1, dipole=2.0, t_e=0.0)
    std = replace(coop, b_x=0.0)
    return _time_figure_rows(coop, std, "spont", build_model(std).channels[0].rate)


def _fig5() -> list[dict]:
    spec = ScenarioSpec(kind="two-spin-coop", b_z=1.0, b_x=0.1, dipole=10.0)
    t = 1.0
    columns = zip(map(float, _BZ_GRID.values()), _figure_sweep(spec, _BZ_GRID, t=t))
    return [{"b_z": b_z, "f_coop": f, "f_heisenberg": heisenberg_limit(2, t)} for b_z, f in columns]


def _fig_a1() -> list[dict]:
    b_x = 0.1
    return [
        {
            "b_z": b_z,
            "f_ground_exact": exact_two_spin_ground_qfi(b_z, b_x),
            "f_ground_effective": effective_two_spin_ground_qfi(b_z, b_x),
        }
        for b_z in map(float, _BZ_GRID.values())
    ]


_FIGURES = {"fig2": _fig2, "fig3": _fig3, "fig4": _fig4, "fig5": _fig5, "figA1": _fig_a1}
FIGURE_IDS = tuple(_FIGURES)


def figure_rows(figure_id: str) -> list[dict]:
    """Rows of one figure's data set."""
    if figure_id not in _FIGURES:
        raise ValueError(f"unknown figure id '{figure_id}'; expected one of {FIGURE_IDS}")
    return _FIGURES[figure_id]()


@dataclass
class RunConfig:
    """Validated inputs of one CLI invocation.

    Each field declares one CLI key: the config-file key and, except for
    the positional command, the flag `--<key>`, both of the field's type,
    with argparse `choices` and `help` from its metadata.  `from_`/`to` are
    the grid bounds (config key "from" is a Python keyword).
    """

    command: str
    kind: str | None = None
    b_z: float | None = None
    b_x: float | None = None
    gamma: float | None = None
    eta: float | None = None
    dipole: float | None = None
    t_e: float | None = None
    n_spins: int | None = None
    t: float | None = None
    m: int = 1
    axis: str | None = field(default=None, metadata={"choices": SWEEP_AXES})
    from_: float | None = None
    to: float | None = None
    points: int | None = None
    figure: str | None = field(default=None, metadata={"choices": FIGURE_IDS})
    out: str | None = field(default=None, metadata={"help": "output path (default: stdout; required for figure)"})
    format: str = field(default="csv", metadata={"choices": ("csv", "json")})

    def to_dict(self) -> dict:
        values = {_key(f.name): getattr(self, f.name) for f in fields(self)}
        return {key: value for key, value in values.items() if value is not None}


# The field of each config key, the type of each field without its None
# (float, int or str), and the argparse flag and keywords of each option.
_FIELDS = {_key(f.name): f for f in fields(RunConfig)}
_TYPES = {f.name: next((t for t in get_args(f.type) if t is not type(None)), f.type) for f in fields(RunConfig)}
_OPTIONS = [
    (f"--{_key(f.name)}", {"dest": f.name, "type": _TYPES[f.name], **f.metadata})
    for f in fields(RunConfig)
    if f.name != "command"
]


def _coerce(key: str, value) -> tuple[str, object]:
    """(field name, value) of one config-file entry."""
    if key not in _FIELDS:
        raise UsageError(f"unknown config key '{key}'")
    name = _FIELDS[key].name
    noun, accepted = _JSON_TYPES[_TYPES[name]]
    if isinstance(value, bool) or not isinstance(value, accepted):
        raise UsageError(f"config key '{key}' must be {noun}, got {value!r}")
    choices = _FIELDS[key].metadata.get("choices")
    if choices is not None and value not in choices:
        raise UsageError(f"config key '{key}' must be one of {', '.join(choices)}, got {value!r}")
    return name, _TYPES[name](value)


def _load_config_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"malformed JSON in config file {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise UsageError(f"config file {path} must hold a JSON object")
    return dict(_coerce(key, value) for key, value in raw.items())


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coopmetro",
        description="QFI of cooperative control+noise metrology schemes",
    )
    parser.add_argument("command", nargs="?", choices=COMMANDS)
    parser.add_argument("--config", help="JSON config file; flags override its values")
    for flag, keywords in _OPTIONS:
        parser.add_argument(flag, **keywords)
    return parser


def parse_config(argv=None) -> RunConfig:
    """Merge config file and flags into a validated RunConfig."""
    flags = vars(_build_parser().parse_args(argv))
    path = flags.pop("config")
    merged = _load_config_file(path) if path else {}
    merged.update((name, value) for name, value in flags.items() if value is not None)
    if "command" not in merged:
        raise UsageError("missing required key 'command'")
    config = RunConfig(**merged)
    _validate(config, set(merged))
    return config


def _scenario(config: RunConfig) -> ScenarioSpec:
    """The ScenarioSpec of the config; a scenario key or a swept axis that
    its kind does not read is a usage error."""
    given = {k: getattr(config, k) for k in _SCENARIO_KEYS if getattr(config, k) is not None}
    try:
        spec = ScenarioSpec(**given)
    except InvalidScenarioError as exc:
        raise UsageError(str(exc)) from exc
    for what, name in [("key", k) for k in given if k != "kind"] + [("axis", config.axis)]:
        if name in _SCENARIO_KEYS and name not in spec.parameters:
            reads = ", ".join(spec.parameters)
            raise UsageError(f"{what} '{name}' is not read by kind '{spec.kind}' (it reads {reads})")
    return spec


def _validate(config: RunConfig, given: set[str]):
    """Check a config whose keys `given` were set by a flag or the config file."""
    if config.command not in COMMANDS:
        raise UsageError(f"unknown command '{config.command}'")
    if config.m < 1:
        raise UsageError(f"'m' must be >= 1, got {config.m}")
    for name in ("t", "from_", "to"):
        value = getattr(config, name)
        if value is not None and not math.isfinite(value):
            raise UsageError(f"'{_key(name)}' must be finite, got {value}")
    if config.points is not None and config.points < 2:
        raise UsageError(f"'points' must be >= 2, got {config.points}")
    if config.from_ is not None and config.to is not None and config.from_ >= config.to:
        raise UsageError(f"'from' must be < 'to', got [{config.from_}, {config.to}]")
    required, optional, _ = _COMMANDS[config.command]
    if "axis" in required and config.axis != "t":
        required += ("t",)
    for name in required:
        if getattr(config, name) is None:
            raise UsageError(f"missing required key '{_key(name)}' for command '{config.command}'")
    if "kind" in required:
        _scenario(config)
    # The scenario keys of a command that builds a scenario are its kind's to read.
    reads = ("command", *required, *optional, *(_SCENARIO_KEYS if "kind" in required else ()))
    unread = [f.name for f in fields(config) if f.name in given and f.name not in reads]
    if unread:
        listed = ", ".join(map(_key, required + optional))
        raise UsageError(f"key '{_key(unread[0])}' is not read by command '{config.command}' (it reads {listed})")
    if config.command == "tradeoff" and not config.b_x > 0:
        raise UsageError(f"'b_x' must be > 0 for command 'tradeoff', got {config.b_x}")


def report_bound(f_q: float, m: int = 1) -> float:
    """Cramér-Rao bound on the field estimate: 1/sqrt(m * F_Q) for m repetitions."""
    if f_q <= 0:
        raise ValueError(f"estimation bound undefined for QFI {f_q} <= 0")
    if m < 1:
        raise ValueError(f"repetition count must be >= 1, got {m}")
    return 1.0 / math.sqrt(m * f_q)


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


def _render(rows: list[dict], fmt: str) -> str:
    """CSV (columns in the key order of the first row) or JSON text of the rows."""
    if fmt == "csv":
        header = list(rows[0])
        lines = [",".join(header)]
        lines.extend(",".join(_format_cell(row.get(col)) for col in header) for row in rows)
        return "\n".join(lines) + "\n"
    return json.dumps(rows, indent=2) + "\n"


def _emit(text: str, out: str | None):
    if out is None:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise RuntimeError(f"cannot write output file {out}: {exc}") from exc


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _cmd_run(config: RunConfig) -> tuple[list[dict], int]:
    spec = _scenario(config)
    result = qfi_at(spec, config.t)
    bound = report_bound(result.value, config.m) if result.value > 0 else None
    row = {
        "kind": spec.kind,
        "b_z": spec.b_z,
        "t": config.t,
        "qfi": result.value,
        "method": result.method,
        "fd_step": result.fd_step,
        "m": config.m,
        "bound": bound,
    }
    return [row], 0


def _cmd_sweep(config: RunConfig) -> tuple[list[dict], int]:
    spec = _scenario(config)
    grid = SweepGrid(config.axis, config.from_, config.to, config.points)
    points = sweep(spec, grid, t=config.t)
    rows = [
        {
            grid.axis: point.value,
            "qfi": point.result and point.result.value,
            "method": point.result and point.result.method,
            "fd_step": point.result and point.result.fd_step,
            "error": point.error,
        }
        for point in points
    ]
    for point in points:
        if point.error:
            print(f"point {grid.axis}={point.value}: {point.error}", file=sys.stderr)
    return rows, int(any(point.result is None for point in points))


def _cmd_region(config: RunConfig) -> tuple[list[dict], int]:
    spec = _scenario(config)
    threshold = heisenberg_limit(spin_count(spec), config.t)
    region = find_region(
        scenario_objective(spec, config.t, "b_z"),
        threshold,
        (config.from_, config.to),
    )
    bounds = (region.lower, region.upper, region.upper - region.lower) if region.resolved else (None, None, None)
    row = dict(zip(("lower", "upper", "width"), bounds), threshold=region.threshold, resolved=region.resolved)
    return [row], 0


def _cmd_maximize(config: RunConfig) -> tuple[list[dict], int]:
    spec = _scenario(config)
    objective = scenario_objective(spec, config.t, config.axis)
    argmax, value = maximize_qfi(objective, [(config.from_, config.to)])
    return [{config.axis: argmax, "qfi": value}], 0


def _cmd_tradeoff(config: RunConfig) -> tuple[list[dict], int]:
    f_max = 1.0 / (2.0 * config.b_x**2)
    width = tradeoff_width(f_max, config.t)
    return [{"b_x": config.b_x, "t": config.t, "f_max": f_max, "width": width}], 0


def _cmd_figure(config: RunConfig) -> tuple[list[dict], int]:
    return figure_rows(config.figure), 0


# Each command's required keys, its optional keys and its handler; sweep and
# maximize also require 't' unless they sweep it, and do not read it if they
# do.  Any other key is a usage error.  A handler returns its rows and its
# exit code.
_OUTPUT = ("format", "out")
_COMMANDS = {
    "run": (("kind", "t"), ("m", *_OUTPUT), _cmd_run),
    "sweep": (("kind", "axis", "from_", "to", "points"), _OUTPUT, _cmd_sweep),
    "region": (("kind", "from_", "to", "t"), _OUTPUT, _cmd_region),
    "maximize": (("kind", "axis", "from_", "to"), _OUTPUT, _cmd_maximize),
    "tradeoff": (("b_x", "t"), _OUTPUT, _cmd_tradeoff),
    "figure": (("figure", "out"), ("format",), _cmd_figure),
}
COMMANDS = tuple(_COMMANDS)


def main(argv=None) -> int:
    try:
        config = parse_config(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    *_, handler = _COMMANDS[config.command]
    try:
        rows, code = handler(config)
        _emit(_render(rows, config.format), config.out)
        return code
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
