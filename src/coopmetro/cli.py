"""Command-line front end: scenario runs, sweeps, regions, figure data.

Configuration comes from a JSON file (--config) and/or flags; flags override
file values.  Commands: run | sweep | region | maximize | tradeoff | figure.
Figure CSVs are deterministic: fixed grids, values printed with 12
significant digits, newline-terminated rows.
"""

import argparse
import json
import math
import sys
from dataclasses import dataclass, fields

from .scenarios import (
    InvalidScenarioError,
    ScenarioSpec,
    effective_two_spin_ground_qfi,
    exact_two_spin_ground_qfi,
    heisenberg_limit,
    qfi_at,
    spin_count,
    standard_limit_formulas,
    tradeoff_width,
)
from .sweep import SweepGrid, find_region, maximize_qfi, scenario_objective, sweep

__all__ = ["UsageError", "RunConfig", "parse_config", "report_bound", "emit_figure", "main"]

COMMANDS = ("run", "sweep", "region", "maximize", "tradeoff", "figure")
FIGURE_IDS = ("fig2", "fig3", "fig4", "fig5", "figA1")
FORMATS = ("csv", "json")

_FLOAT_KEYS = ("b_z", "b_x", "gamma", "eta", "dipole", "t_e", "t", "from", "to")
_INT_KEYS = ("m", "points", "n_spins")
_STR_KEYS = ("command", "kind", "axis", "figure", "out", "format")
_SCENARIO_KEYS = ("kind", "b_z", "b_x", "gamma", "eta", "dipole", "t_e", "n_spins")


class UsageError(ValueError):
    """Malformed or inconsistent configuration; message names the bad key."""


def _key(name: str) -> str:
    """Config key of a RunConfig field ("from" is a Python keyword)."""
    return "from" if name == "from_" else name


@dataclass
class RunConfig:
    """Validated inputs of one CLI invocation.

    `from_`/`to` are the grid bounds (config key "from" is a Python keyword).
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
    axis: str | None = None
    from_: float | None = None
    to: float | None = None
    points: int | None = None
    figure: str | None = None
    out: str | None = None
    format: str = "csv"

    def to_dict(self) -> dict:
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if value is None:
                continue
            out[_key(f.name)] = value
        return out


def _coerce(key: str, value):
    if key in _FLOAT_KEYS:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise UsageError(f"config key '{key}' must be a number, got {value!r}")
        return float(value)
    if key in _INT_KEYS:
        if isinstance(value, bool) or not isinstance(value, int):
            raise UsageError(f"config key '{key}' must be an integer, got {value!r}")
        return value
    if key in _STR_KEYS:
        if not isinstance(value, str):
            raise UsageError(f"config key '{key}' must be a string, got {value!r}")
        return value
    raise UsageError(f"unknown config key '{key}'")


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
    return {key: _coerce(key, value) for key, value in raw.items()}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coopmetro",
        description="QFI of cooperative control+noise metrology schemes",
    )
    parser.add_argument("command", nargs="?", choices=COMMANDS)
    parser.add_argument("--config", help="JSON config file; flags override its values")
    parser.add_argument("--out", help="output path (default: stdout; required for figure)")
    parser.add_argument("--format", choices=FORMATS)
    parser.add_argument("--kind")
    parser.add_argument("--b_z", type=float)
    parser.add_argument("--b_x", type=float)
    parser.add_argument("--gamma", type=float)
    parser.add_argument("--eta", type=float)
    parser.add_argument("--dipole", type=float)
    parser.add_argument("--t_e", type=float)
    parser.add_argument("--n_spins", type=int)
    parser.add_argument("--t", type=float)
    parser.add_argument("--m", type=int)
    parser.add_argument("--axis", choices=("b_z", "b_x", "t"))
    parser.add_argument("--from", dest="from_", type=float)
    parser.add_argument("--to", type=float)
    parser.add_argument("--points", type=int)
    parser.add_argument("--figure", choices=FIGURE_IDS)
    return parser


def parse_config(argv=None) -> RunConfig:
    """Merge config file and flags into a validated RunConfig."""
    namespace = _build_parser().parse_args(argv)
    merged: dict = {}
    if namespace.config:
        merged.update(_load_config_file(namespace.config))
    for f in fields(RunConfig):
        key = _key(f.name)
        flag_value = getattr(namespace, f.name, None)
        if flag_value is not None:
            merged[key] = flag_value
    if "command" not in merged:
        raise UsageError("missing required key 'command'")
    kwargs = {}
    for f in fields(RunConfig):
        if f.name == "command":
            continue
        key = _key(f.name)
        if key in merged:
            kwargs[f.name] = merged[key]
    config = RunConfig(command=merged["command"], **kwargs)
    _validate(config)
    return config


def _require(config: RunConfig, *names: str):
    for name in names:
        key = _key(name)
        if getattr(config, name) is None:
            raise UsageError(f"missing required key '{key}' for command '{config.command}'")


def _scenario(config: RunConfig) -> ScenarioSpec:
    kwargs = {k: getattr(config, k) for k in _SCENARIO_KEYS if getattr(config, k) is not None}
    try:
        return ScenarioSpec(**kwargs)
    except InvalidScenarioError as exc:
        raise UsageError(str(exc)) from exc


def _validate(config: RunConfig):
    if config.command not in COMMANDS:
        raise UsageError(f"unknown command '{config.command}'")
    if config.format not in FORMATS:
        raise UsageError(f"format must be one of {FORMATS}, got '{config.format}'")
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
    command = config.command
    if command == "run":
        _require(config, "kind", "t")
        _scenario(config)
    elif command == "sweep":
        _require(config, "kind", "axis", "from_", "to", "points")
        if config.axis != "t":
            _require(config, "t")
        _scenario(config)
    elif command == "region":
        _require(config, "kind", "from_", "to", "t")
        _scenario(config)
    elif command == "maximize":
        _require(config, "kind", "axis", "from_", "to")
        if config.axis != "t":
            _require(config, "t")
        _scenario(config)
    elif command == "tradeoff":
        _require(config, "b_x", "t")
        if not config.b_x > 0:
            raise UsageError(f"'b_x' must be > 0 for command 'tradeoff', got {config.b_x}")
    elif command == "figure":
        _require(config, "figure", "out")


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


def _render(header: list[str], rows: list[dict], fmt: str) -> str:
    if fmt == "csv":
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
# figure data
# ---------------------------------------------------------------------------

_T_GRID = SweepGrid("t", 0.05, 5.0, 100)  # step 0.05
_BZ_GRID = SweepGrid("b_z", 0.5, 1.5, 201)  # step 0.005

_FIG2_COOP = ScenarioSpec(kind="coop-spont", b_z=0.1, b_x=0.1, gamma=0.5)
_FIG2_STD = ScenarioSpec(kind="std-spont", b_z=0.1, gamma=0.5)
_FIG3_COOP = ScenarioSpec(kind="coop-deph", b_z=0.1, b_x=0.1, eta=0.5)
_FIG3_STD = ScenarioSpec(kind="std-deph", b_z=0.1, eta=0.5)
_FIG4_COOP = ScenarioSpec(kind="coop-thermal", b_z=0.3, b_x=0.1, dipole=2.0, t_e=0.0)
_FIG4_STD = ScenarioSpec(kind="coop-thermal", b_z=0.3, b_x=0.0, dipole=2.0, t_e=0.0)
_FIG5_SPEC = ScenarioSpec(kind="two-spin-coop", b_z=1.0, b_x=0.1, dipole=10.0)
_FIG5_T = 1.0


def _figure_sweep(spec: ScenarioSpec, grid: SweepGrid, t: float | None = None) -> list[float]:
    """QFI values of one figure column; a failed point fails the figure."""
    values = []
    for point in sweep(spec, grid, t=t):
        if point.result is None:
            raise RuntimeError(f"{spec.kind} point {grid.axis}={point.value} failed: {point.error}")
        values.append(point.result.value)
    return values


def _time_figure_rows(coop: ScenarioSpec, std: ScenarioSpec, formula_kind: str, rate: float) -> list[dict]:
    rows = []
    for t, f_coop, f_std in zip(_T_GRID.values(), _figure_sweep(coop, _T_GRID), _figure_sweep(std, _T_GRID)):
        t = float(t)
        rows.append(
            {
                "t": t,
                "f_coop": f_coop,
                "f_std_numeric": f_std,
                "f_std_formula": standard_limit_formulas(formula_kind, rate, t),
                "f_heisenberg": heisenberg_limit(1, t),
            }
        )
    return rows


def figure_rows(figure_id: str) -> tuple[list[str], list[dict]]:
    """Header and rows of one figure's data set."""
    if figure_id == "fig2":
        header = ["t", "f_coop", "f_std_numeric", "f_std_formula", "f_heisenberg"]
        return header, _time_figure_rows(_FIG2_COOP, _FIG2_STD, "spont", _FIG2_COOP.gamma)
    if figure_id == "fig3":
        header = ["t", "f_coop", "f_std_numeric", "f_std_formula", "f_heisenberg"]
        return header, _time_figure_rows(_FIG3_COOP, _FIG3_STD, "deph", _FIG3_COOP.eta)
    if figure_id == "fig4":
        header = ["t", "f_coop", "f_std_numeric", "f_std_formula", "f_heisenberg"]
        # At b_x = 0 the thermal model reduces to spontaneous emission whose
        # rate is the b_x = 0 channel rate; the spont closed form applies.
        from .scenarios import build_model

        std_rate = build_model(_FIG4_STD).channels[0].rate
        return header, _time_figure_rows(_FIG4_COOP, _FIG4_STD, "spont", std_rate)
    if figure_id == "fig5":
        header = ["b_z", "f_coop", "f_heisenberg"]
        f_coop = _figure_sweep(_FIG5_SPEC, _BZ_GRID, t=_FIG5_T)
        return header, [
            {"b_z": float(b_z), "f_coop": f, "f_heisenberg": heisenberg_limit(2, _FIG5_T)}
            for b_z, f in zip(_BZ_GRID.values(), f_coop)
        ]
    if figure_id == "figA1":
        header = ["b_z", "f_ground_exact", "f_ground_effective"]
        rows = []
        for b_z in _BZ_GRID.values():
            b_z = float(b_z)
            rows.append(
                {
                    "b_z": b_z,
                    "f_ground_exact": exact_two_spin_ground_qfi(b_z, 0.1),
                    "f_ground_effective": effective_two_spin_ground_qfi(b_z, 0.1),
                }
            )
        return header, rows
    raise ValueError(f"unknown figure id '{figure_id}'; expected one of {FIGURE_IDS}")


def emit_figure(figure_id: str, out_path: str):
    """Write one figure's CSV data set to out_path."""
    header, rows = figure_rows(figure_id)
    _emit(_render(header, rows, "csv"), out_path)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _cmd_run(config: RunConfig) -> int:
    spec = _scenario(config)
    result = qfi_at(spec, config.t)
    bound = report_bound(result.value, config.m) if result.value > 0 else None
    header = ["kind", "b_z", "t", "qfi", "method", "fd_step", "m", "bound"]
    rows = [
        {
            "kind": spec.kind,
            "b_z": spec.b_z,
            "t": config.t,
            "qfi": result.value,
            "method": result.method,
            "fd_step": result.fd_step,
            "m": config.m,
            "bound": bound,
        }
    ]
    _emit(_render(header, rows, config.format), config.out)
    return 0


def _cmd_sweep(config: RunConfig) -> int:
    spec = _scenario(config)
    grid = SweepGrid(config.axis, config.from_, config.to, config.points)
    points = sweep(spec, grid, t=config.t)
    header = [grid.axis, "qfi", "method", "fd_step", "error"]
    rows = []
    failures = 0
    for point in points:
        if point.result is None:
            failures += 1
            rows.append({grid.axis: point.value, "qfi": None, "method": None, "fd_step": None, "error": point.error})
        else:
            rows.append(
                {
                    grid.axis: point.value,
                    "qfi": point.result.value,
                    "method": point.result.method,
                    "fd_step": point.result.fd_step,
                    "error": None,
                }
            )
    _emit(_render(header, rows, config.format), config.out)
    if failures:
        for point in points:
            if point.error:
                print(f"point {grid.axis}={point.value}: {point.error}", file=sys.stderr)
        return 1
    return 0


def _cmd_region(config: RunConfig) -> int:
    spec = _scenario(config)
    threshold = heisenberg_limit(spin_count(spec), config.t)
    region = find_region(
        scenario_objective(spec, config.t, "b_z"),
        threshold,
        (config.from_, config.to),
    )
    header = ["lower", "upper", "width", "threshold", "resolved"]
    rows = [
        {
            "lower": None if not region.resolved else region.lower,
            "upper": None if not region.resolved else region.upper,
            "width": None if not region.resolved else region.upper - region.lower,
            "threshold": region.threshold,
            "resolved": region.resolved,
        }
    ]
    _emit(_render(header, rows, config.format), config.out)
    return 0


def _cmd_maximize(config: RunConfig) -> int:
    spec = _scenario(config)
    t = config.t if config.t is not None else 0.0
    objective = scenario_objective(spec, t, config.axis)
    argmax, value = maximize_qfi(objective, [(config.from_, config.to)])
    header = [config.axis, "qfi"]
    rows = [{config.axis: argmax, "qfi": value}]
    _emit(_render(header, rows, config.format), config.out)
    return 0


def _cmd_tradeoff(config: RunConfig) -> int:
    f_max = 1.0 / (2.0 * config.b_x**2)
    width = tradeoff_width(f_max, config.t)
    header = ["b_x", "t", "f_max", "width"]
    rows = [{"b_x": config.b_x, "t": config.t, "f_max": f_max, "width": width}]
    _emit(_render(header, rows, config.format), config.out)
    return 0


def _cmd_figure(config: RunConfig) -> int:
    emit_figure(config.figure, config.out)
    return 0


_COMMANDS = {
    "run": _cmd_run,
    "sweep": _cmd_sweep,
    "region": _cmd_region,
    "maximize": _cmd_maximize,
    "tradeoff": _cmd_tradeoff,
    "figure": _cmd_figure,
}


def main(argv=None) -> int:
    try:
        config = parse_config(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    try:
        return _COMMANDS[config.command](config)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
