"""Command-line front end: the scenario table, config parsing and the
acceptance suite.

Each scenario is declared once, in SCENARIOS: its description, its keys
and its runner.  User-facing configuration uses plain Hz for frequencies
(Omega/2pi) and microseconds for times; everything is converted to angular
rad/s and seconds at this boundary, and the runner reads the converted
values by the keys' internal names.  Unknown keys are rejected by name.
A config file's scenario must agree with --scenario when both are given;
--seed and --set override the file's seed and keys.  A config file that
cannot be read, or that does not hold a JSON object, is a ConfigError.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .dynamics import IntegratorConfig, _write_atomic
from .experiments import (
    NoiseParams,
    measure_fidelity_vs_n,
    rotation_cycle_check,
    run_adiabatic_transfer,
    run_fig3d,
    run_fig4b,
    run_ramsey_dressed_qubit,
    run_static_error,
    run_tbb1,
    verify_reversal,
)
from .inference import MeasurementModel
from .spin import SpinliftError
from .waveforms import AdiabaticParams

TWO_PI = 2.0 * np.pi


class ConfigError(SpinliftError, ValueError):
    """Raised for unknown keys, malformed values or unit violations."""


@dataclass(frozen=True)
class KeySpec:
    kind: str           # freq[_pos|_signed] | time[_pos] | nonneg | pos | int[0] | str | intlist
    internal: str
    default: object     # in user units


_FLOAT_KINDS = ("freq", "freq_pos", "freq_signed", "time", "time_pos", "nonneg", "pos")


@dataclass(frozen=True)
class Scenario:
    """One scenario: its line in `spinlift list`, its keys in user units,
    and its runner, called as runner(params, seed, out_dir) with params
    in rad/s and seconds, keyed by the keys' internal names."""

    description: str
    keys: dict[str, KeySpec]
    runner: Callable


_NOISE_KEYS = {
    "rabi_mismatch": KeySpec("nonneg", "rabi_mismatch", 0.0),
    "common_rabi_hz": KeySpec("freq_signed", "common_rabi_error", 0.0),
    "static_detuning_hz": KeySpec("freq", "static_detuning", 0.0),
    "zeeman_sigma_hz": KeySpec("freq", "zeeman_sigma", 0.0),
}

_ADIABATIC_KEYS = {
    "omega0_hz": KeySpec("freq_pos", "omega0", 40e3),
    "delta0_hz": KeySpec("freq_pos", "delta0", 60e3),
    "t_omega_us": KeySpec("time_pos", "t_omega", 200.0),
    "t_delta_us": KeySpec("time_pos", "t_delta", 300.0),
}

_TOL_KEY = {"tolerance": KeySpec("pos", "tolerance", 1e-9)}


def _adiabatic(p: dict, t_hold: float = 0.0) -> AdiabaticParams:
    return AdiabaticParams(p["omega0"], p["delta0"], p["t_omega"], p["t_delta"], t_hold)


def _noise(p: dict) -> NoiseParams:
    return NoiseParams(p["rabi_mismatch"], p["common_rabi_error"],
                       p["static_detuning"], p["zeeman_sigma"])


def _cfg(p: dict) -> IntegratorConfig:
    return IntegratorConfig(tolerance=p["tolerance"])


def _model(p: dict, seed: int) -> MeasurementModel:
    return MeasurementModel(shots=p["shots"], seed=seed)


SCENARIOS: dict[str, Scenario] = {
    "fig2e": Scenario(
        "adiabatic round-trip transfer trajectory, P(F=1) vs time",
        {**_ADIABATIC_KEYS, "t_hold_us": KeySpec("time", "t_hold", 400.0),
         **_NOISE_KEYS, **_TOL_KEY},
        lambda p, seed, out_dir: run_adiabatic_transfer(
            params=_adiabatic(p, p["t_hold"]), noise=_noise(p), cfg=_cfg(p),
            seed=seed, out_dir=out_dir)),
    "fig3c": Scenario(
        "TBB1 composite transfer trajectory with amplitude error",
        {"omega0_hz": _ADIABATIC_KEYS["omega0_hz"],
         "delta_omega_hz": KeySpec("freq_signed", "delta_omega", -10e3), **_TOL_KEY},
        lambda p, seed, out_dir: run_tbb1(
            delta_omega=p["delta_omega"], omega0=p["omega0"], cfg=_cfg(p),
            seed=seed, out_dir=out_dir)),
    "fig3d": Scenario(
        "population vs normalized pulse area, single pulse vs TBB1",
        {"omega0_hz": _ADIABATIC_KEYS["omega0_hz"], **_TOL_KEY},
        lambda p, seed, out_dir: run_fig3d(
            omega0=p["omega0"], cfg=_cfg(p), seed=seed, out_dir=out_dir)),
    "fig4b": Scenario(
        "dark-state fringe + ML fit after a single transfer",
        {**_ADIABATIC_KEYS, "shots": KeySpec("int", "shots", 200), **_NOISE_KEYS, **_TOL_KEY},
        lambda p, seed, out_dir: run_fig4b(
            m=_model(p, seed), params=_adiabatic(p), noise=_noise(p), cfg=_cfg(p),
            seed=seed, out_dir=out_dir)),
    "fig4c": Scenario(
        "fidelity vs operation count and per-op infidelity",
        {**_ADIABATIC_KEYS,
         "method": KeySpec("str", "method", "adiabatic"),
         "ns": KeySpec("intlist", "ns", [8, 16, 32, 64]),
         "shots": KeySpec("int", "shots", 10000),
         **_NOISE_KEYS, **_TOL_KEY},
        lambda p, seed, out_dir: measure_fidelity_vs_n(
            method=p["method"], ns=p["ns"], m=_model(p, seed), noise=_noise(p),
            cfg=_cfg(p), params=_adiabatic(p), seed=seed, out_dir=out_dir)),
    "ramsey": Scenario(
        "dressed-qubit Ramsey coherence test through transfers",
        {"n_transfers": KeySpec("int", "n_transfers", 8),
         "shots": KeySpec("int0", "shots", 0),
         **_NOISE_KEYS, **_TOL_KEY},
        lambda p, seed, out_dir: run_ramsey_dressed_qubit(
            n_transfers=p["n_transfers"],
            m=None if p["shots"] == 0 else _model(p, seed),
            noise=_noise(p), cfg=_cfg(p), seed=seed, out_dir=out_dir)),
    "verify-reversal": Scenario(
        "d-level amplitude-reversal pi rotation, three routes",
        {"d": KeySpec("int", "d", 5), "omega0_hz": _ADIABATIC_KEYS["omega0_hz"], **_TOL_KEY},
        lambda p, seed, out_dir: verify_reversal(
            d=p["d"], omega0=p["omega0"], cfg=_cfg(p), seed=seed, out_dir=out_dir)),
    "rotation-cycle": Scenario(
        "pi/2 y-rotation cycles through the named states",
        {},
        lambda p, seed, out_dir: rotation_cycle_check(seed=seed, out_dir=out_dir)),
    "static-error": Scenario(
        "dark-state infidelity from static field-setting errors",
        {**_ADIABATIC_KEYS,
         "rabi_mismatch": KeySpec("nonneg", "rabi_mismatch", 0.0015),
         "static_detuning_hz": KeySpec("freq", "static_detuning", 3.0),
         **_TOL_KEY},
        lambda p, seed, out_dir: run_static_error(
            p["rabi_mismatch"], p["static_detuning"], cfg=_cfg(p), params=_adiabatic(p),
            seed=seed, out_dir=out_dir)),
}


def _scenario(name: str) -> Scenario:
    if not isinstance(name, str) or name not in SCENARIOS:
        raise ConfigError(f"unknown scenario {name!r}; "
                          f"known: {', '.join(sorted(SCENARIOS))}")
    return SCENARIOS[name]


@dataclass(frozen=True)
class RunConfig:
    """Validated scenario configuration; params are in rad/s and seconds."""

    scenario: str
    params: dict
    user_config: dict
    seed: int = 0
    out_dir: str | None = None


# the largest integer numpy's samplers take (int64)
_INT_MAX = 2**63 - 1


def _integer(value, fail, low: int | None = None) -> int:
    """value as an int in [low, 2**63 - 1]; a boolean or a number with a
    fractional part (or not finite) fails rather than being truncated."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        fail("expected an integer")
    try:
        v = int(value)
    except (TypeError, ValueError):
        fail("expected an integer")
    if low is not None and v < low:
        fail(f"must be >= {low}")
    if v > _INT_MAX:
        fail("must be <= 2**63 - 1")
    return v


def _convert(key: str, spec: KeySpec, value):
    kind = spec.kind
    def fail(msg):
        raise ConfigError(f"invalid value for {key!r}: {msg} (got {value!r})")
    if kind in _FLOAT_KINDS:
        if isinstance(value, bool):
            fail("expected a number")
        try:
            v = float(value)
        except (TypeError, ValueError):
            fail("expected a number")
        if kind.startswith("freq"):
            v *= TWO_PI
        elif kind.startswith("time"):
            v *= 1e-6
        if not np.isfinite(v):
            fail("expected a number that is finite in rad/s and seconds")
        if kind in ("freq", "time", "nonneg") and v < 0:
            fail("must be >= 0")
        if kind in ("freq_pos", "time_pos", "pos") and v <= 0:
            fail("must be > 0")
        return v
    if kind in ("int", "int0"):
        return _integer(value, fail, 1 if kind == "int" else 0)
    if kind == "str":
        return str(value)
    if kind == "intlist":
        if not isinstance(value, (list, tuple)):
            fail("expected a list of integers")
        return [_integer(x, fail) for x in value]
    raise AssertionError(f"unhandled key kind {kind}")


def parse_config(scenario: str, overrides: dict, seed: int = 0,
                 out_dir: str | None = None) -> RunConfig:
    """Validate user-unit overrides against the scenario's keys and convert
    to internal units; unknown keys are rejected by name.  The seed is an
    integer >= 0."""
    spec_table = _scenario(scenario).keys
    unknown = sorted(set(overrides) - set(spec_table))
    if unknown:
        raise ConfigError(f"unknown key(s) for scenario {scenario!r}: "
                          + ", ".join(repr(k) for k in unknown))
    user = {}
    params = {}
    for key, spec in spec_table.items():
        value = overrides.get(key, spec.default)
        params[spec.internal] = _convert(key, spec, value)
        user[key] = value
    def bad_seed(msg):
        raise ConfigError(f"invalid seed: {msg} (got {seed!r})")
    return RunConfig(scenario=scenario, params=params, user_config=user,
                     seed=_integer(seed, bad_seed, 0), out_dir=out_dir)


def run_scenario(scenario: str, params: dict, seed: int = 0, out_dir: str | None = None):
    """Run a scenario's runner on params in internal units; returns its
    ScenarioReport."""
    return _scenario(scenario).runner(params, seed, out_dir)


def run(config: RunConfig):
    """Execute the configured scenario; returns its ScenarioReport."""
    report = run_scenario(config.scenario, config.params, seed=config.seed,
                          out_dir=config.out_dir)
    if config.out_dir is not None:
        eff = {"scenario": config.scenario, "seed": config.seed,
               **config.user_config}
        path = os.path.join(config.out_dir,
                            f"{config.scenario}_{config.seed}_config.json")
        _write_atomic(path, json.dumps(eff, indent=2, sort_keys=True))
    return report


def list_scenarios() -> str:
    width = max(len(name) for name in SCENARIOS)
    lines = [f"{name:<{width}}  {scenario.description}"
             for name, scenario in sorted(SCENARIOS.items())]
    return "\n".join(lines)


def _parse_set_value(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def _read_config(path: str) -> dict:
    """The JSON object of a config file; a file that cannot be read or does
    not hold a JSON object is a ConfigError."""
    try:
        with open(path) as f:
            doc = json.load(f)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc.strerror}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"config file {path!r} is not JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config file must hold a JSON object")
    return doc


def _cmd_run(args) -> int:
    overrides = {}
    scenario = args.scenario
    seed = args.seed
    out_dir = args.out
    if args.config:
        doc = _read_config(args.config)
        if "scenario" in doc:
            # a run names one scenario: the file's must agree with --scenario
            file_scenario = doc.pop("scenario")
            if scenario is not None and file_scenario != scenario:
                raise ConfigError(f"the config file's scenario {file_scenario!r} "
                                  f"disagrees with --scenario {scenario!r}")
            scenario = file_scenario
        if "seed" in doc:
            file_seed = doc.pop("seed")
            seed = file_seed if args.seed is None else args.seed
        overrides.update(doc)
    for item in args.set or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, _, value = item.partition("=")
        overrides[key.strip()] = _parse_set_value(value.strip())
    if scenario is None:
        raise ConfigError("no scenario given (use --scenario or the config file)")
    config = parse_config(scenario, overrides, seed=0 if seed is None else seed,
                          out_dir=out_dir)
    report = run(config)
    print(report.to_json())
    return 0


def _cmd_list(args) -> int:
    print(list_scenarios())
    return 0


def _cmd_acceptance(args) -> int:
    from .acceptance import run_all, format_table
    results = run_all(verbose=True)
    print(format_table(results))
    return 0 if all(r.passed for r in results) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="spinlift",
        description="Multi-level quantum control from two-level primitives "
                    "(SU(2) lift): scenario runner.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario and write report/artifacts")
    p_run.add_argument("--scenario", help="scenario name (see 'list')")
    p_run.add_argument("--config", help="JSON config file")
    p_run.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a config key (repeatable)")
    p_run.add_argument("--seed", default=None, help="integer >= 0 (default 0)")
    p_run.add_argument("--out", help="output directory for report and artifacts")
    p_run.set_defaults(func=_cmd_run)

    p_list = sub.add_parser("list", help="list available scenarios")
    p_list.set_defaults(func=_cmd_list)

    p_acc = sub.add_parser("acceptance", help="run the acceptance suite")
    p_acc.set_defaults(func=_cmd_acceptance)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SpinliftError as exc:
        error_doc = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(error_doc), file=sys.stderr)
        if getattr(args, "out", None):
            _write_atomic(os.path.join(args.out, "error.json"),
                          json.dumps(error_doc, indent=2, sort_keys=True))
        return 2


if __name__ == "__main__":
    sys.exit(main())
