"""The CLI keys declared by RunConfig, and the scenario keys each kind reads."""

import json
from dataclasses import fields

import pytest

from coopmetro.cli import RunConfig, main, parse_config
from coopmetro.scenarios import KINDS, ScenarioSpec

# Valid configurations that together set every RunConfig field.
CONFIGS = [
    {"command": "run", "kind": "coop-thermal", "b_z": 0.3, "b_x": 0.1, "dipole": 2.0, "t_e": 0.1,
     "t": 1.0, "m": 5, "format": "json", "out": "run.json"},
    {"command": "sweep", "kind": "coop-spont", "b_z": 0.1, "b_x": 0.1, "gamma": 0.5, "t": 1.0,
     "axis": "b_x", "from": 0.05, "to": 0.5, "points": 3},
    {"command": "run", "kind": "coop-deph", "b_z": 0.1, "b_x": 0.1, "eta": 0.5, "t": 1.0},
    {"command": "run", "kind": "unitary-baseline", "b_z": 0.1, "n_spins": 2, "t": 1.0},
    {"command": "figure", "figure": "fig2", "out": "fig2.csv"},
]

# Per kind, the scenario parameters it reads, at values it accepts.
KIND_FLAGS = {
    "std-spont": {"b_z": 0.1, "gamma": 0.5},
    "coop-spont": {"b_z": 0.1, "b_x": 0.1, "gamma": 0.5},
    "std-deph": {"b_z": 0.1, "eta": 0.5},
    "coop-deph": {"b_z": 0.1, "b_x": 0.1, "eta": 0.5},
    "coop-thermal": {"b_z": 0.3, "b_x": 0.1, "dipole": 2.0, "t_e": 0.1},
    "two-spin-coop": {"b_z": 1.0, "b_x": 0.1, "dipole": 10.0},
    "unitary-baseline": {"b_z": 0.1, "n_spins": 2},
}


def flags(config: dict) -> list[str]:
    argv = [config["command"]]
    for key, value in config.items():
        if key != "command":
            argv += [f"--{key}", str(value)]
    return argv


def config_keys(config: RunConfig) -> dict:
    """The config-file entries of a RunConfig: each set field by its key."""
    values = {("from" if f.name == "from_" else f.name): getattr(config, f.name) for f in fields(config)}
    return {key: value for key, value in values.items() if value is not None}


def test_configs_cover_every_field():
    keys = {"from" if f.name == "from_" else f.name for f in fields(RunConfig)}
    assert set().union(*CONFIGS) == keys


@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: f"{c['command']}-{c.get('kind', c.get('figure'))}")
def test_every_key_as_flag_and_config_key(config, tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    from_flags = parse_config(flags(config))
    assert parse_config(["--config", str(path)]) == from_flags
    parsed = config_keys(from_flags)
    for key, value in config.items():
        assert parsed[key] == value and type(parsed[key]) is type(value)


def test_kind_flags_match_kind_parameters():
    assert set(KIND_FLAGS) == set(KINDS)
    for kind, params in KIND_FLAGS.items():
        assert set(params) == set(ScenarioSpec(kind=kind, **params).parameters)


@pytest.mark.parametrize("kind", KINDS)
def test_run_with_exactly_the_read_keys(kind, capsys):
    assert main(flags({"command": "run", "kind": kind, **KIND_FLAGS[kind], "t": 1.0})) == 0


@pytest.mark.parametrize("kind", KINDS)
def test_unread_key_is_usage_error(kind, capsys):
    unread = next(f.name for f in fields(ScenarioSpec) if f.name not in ("kind", *KIND_FLAGS[kind]))
    value = 2 if unread == "n_spins" else 0.1
    argv = flags({"command": "run", "kind": kind, **KIND_FLAGS[kind], unread: value, "t": 1.0})
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"'{unread}'" in err and f"'{kind}'" in err


def test_unread_config_key_is_usage_error(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"command": "run", "kind": "std-spont", "b_z": 0.1, "gamma": 0.5,
                                "dipole": 1.0, "t": 1.0}))
    assert main(["--config", str(path)]) == 2
    assert "key 'dipole' is not read by kind 'std-spont'" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["sweep", "maximize"])
def test_bx_axis_on_kind_without_bx_is_usage_error(command, capsys):
    argv = [command, "--kind", "std-deph", "--b_z", "0.1", "--eta", "0.5", "--t", "1",
            "--axis", "b_x", "--from", "0", "--to", "1", "--points", "3"]
    assert main(argv) == 2
    assert "axis 'b_x' is not read by kind 'std-deph'" in capsys.readouterr().err


@pytest.mark.parametrize("key", [f.name for f in fields(RunConfig) if "choices" in f.metadata])
def test_config_value_outside_choices_is_usage_error(key, tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**next(c for c in CONFIGS if key in c), key: "foo"}))
    assert main(["--config", str(path)]) == 2
    assert f"config key '{key}' must be one of" in capsys.readouterr().err


@pytest.mark.parametrize("command, argv, key", [
    ("tradeoff", ["--b_x", "0.1", "--t", "1", "--dipole", "5"], "dipole"),
    ("figure", ["--figure", "figA1", "--b_z", "3"], "b_z"),
], ids=["tradeoff", "figure"])
def test_scenario_key_of_command_without_kind_is_usage_error(command, argv, key, tmp_path, capsys):
    out = tmp_path / "out.csv"
    assert main([command, *argv, "--out", str(out)]) == 2
    assert f"key '{key}' is not read by command '{command}'" in capsys.readouterr().err
    assert not out.exists()


# Per command, the flags of a valid call and a key that the command does not
# read (t is not read by a sweep or a maximization over t itself).
UNREAD_COMMAND_KEYS = {
    "run": (["--kind", "std-spont", "--b_z", "0.1", "--gamma", "0.5", "--t", "1"], "from", "0"),
    "sweep": (["--kind", "std-spont", "--b_z", "0.1", "--gamma", "0.5", "--axis", "t",
               "--from", "0", "--to", "1", "--points", "3"], "t", "1"),
    "region": (["--kind", "unitary-baseline", "--b_z", "0.1", "--t", "0.5", "--from", "0.1", "--to", "1"], "m", "3"),
    "maximize": (["--kind", "unitary-baseline", "--b_z", "0.1", "--axis", "t", "--from", "0.1", "--to", "1"], "t", "1"),
    "tradeoff": (["--b_x", "0.1", "--t", "1"], "points", "7"),
    "figure": (["--figure", "fig2"], "axis", "b_z"),
}


@pytest.mark.parametrize("command", UNREAD_COMMAND_KEYS)
def test_key_the_command_does_not_read_is_usage_error(command, tmp_path, capsys):
    argv, key, value = UNREAD_COMMAND_KEYS[command]
    out = tmp_path / "out.csv"
    argv = [command, *argv, "--out", str(out)]
    assert main(argv) == 0
    out.unlink()
    assert main([*argv, f"--{key}", value]) == 2
    assert f"key '{key}' is not read by command '{command}'" in capsys.readouterr().err
    assert not out.exists()
