"""Command-line front end: flat YAML scenario configs in, CSV curves out.

Each config is a single flat mapping with a ``scenario`` key naming the
scenario kind plus that scenario's physical parameters.  Dimensioned values
carry a unit suffix ("omega0: 800 kHz", "b1: 4.5 mG/mm"); frequencies are
ordinary frequencies (the stored angular frequency is 2*pi times the
number).  Unknown keys are rejected.

CSV columns: independent variable first (t_us, eta, tau1_us, tau2_us, or
tau_tilde_us), then p_p2, p_p1, p_0, p_m1, p_m2, then envelope or survival
where meaningful.  Floats are written with 9 significant digits.  Output is
deterministic for a given (config, seed, samples).

Exit codes: 0 success, 1 config error (the message names the offending
key), 2 numerical failure.

The p0_* keys give the initial populations of the Zeeman basis states, an
incoherent mixture (|+2> when none is given).  Their sum must be 1 within
1e-6, and they are divided by it, so the mixture is normalized.

The fit-* scenarios read a previously generated CSV (``data`` key), print
the fitted parameters to stdout, and write the fitted model curve as CSV.
"""

from __future__ import annotations

import argparse
import math
import re
import sys
from dataclasses import dataclass, field

import numpy as np
import yaml

from . import ensemble, fit, stirap
from .core import TWO_PI, Populations
from .propagator import (
    FieldConfig,
    HamiltonianKind,
    HamiltonianSpec,
    NumericalError,
    evolve_populations,
    lightshift_from_scale,
)

P_COLUMNS = ("p_p2", "p_p1", "p_0", "p_m1", "p_m2")
_POP_KEYS = ("p0_plus2", "p0_plus1", "p0_zero", "p0_minus1", "p0_minus2")


class ConfigError(Exception):
    """Configuration problem; the message names the offending key."""


_NUMBER = r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?"

_FREQ_UNITS = {"Hz": 1.0, "kHz": 1e3, "MHz": 1e6}
_TIME_UNITS = {"s": 1.0, "ms": 1e-3, "us": 1e-6, "µs": 1e-6}
_FIELD_UNITS = {"G": 1e-4, "mG": 1e-7}
_GRADIENT_UNITS = {"G/mm": 1e-1, "mG/mm": 1e-4, "G/m": 1e-4, "mG/m": 1e-7}
_LENGTH_UNITS = {"m": 1.0, "mm": 1e-3, "um": 1e-6, "µm": 1e-6}
_TEMPERATURE_UNITS = {"K": 1.0, "mK": 1e-3, "uK": 1e-6, "µK": 1e-6}


def _unit_value(key: str, raw, units: dict[str, float], kind: str) -> float:
    if not isinstance(raw, str):
        raise ConfigError(f"{key}: expected a string with a {kind} unit suffix, got {raw!r}")
    match = re.fullmatch(rf"\s*({_NUMBER})\s*(\S+)\s*", raw)
    if not match:
        raise ConfigError(f"{key}: cannot parse {raw!r} as '<number> <unit>'")
    number, unit = match.groups()
    if unit not in units:
        allowed = ", ".join(sorted(units))
        raise ConfigError(f"{key}: unknown {kind} unit {unit!r} (allowed: {allowed})")
    value = float(number) * units[unit]
    if not math.isfinite(value):
        raise ConfigError(f"{key}: {raw!r} is not a finite {kind}")
    return value


def parse_frequency(key: str, raw) -> float:
    """'800 kHz' -> 2*pi*800e3 rad/s."""
    return TWO_PI * _unit_value(key, raw, _FREQ_UNITS, "frequency")


def parse_time(key: str, raw) -> float:
    return _unit_value(key, raw, _TIME_UNITS, "time")


def parse_field(key: str, raw) -> float:
    return _unit_value(key, raw, _FIELD_UNITS, "field")


def parse_gradient(key: str, raw) -> float:
    return _unit_value(key, raw, _GRADIENT_UNITS, "gradient")


def parse_length(key: str, raw) -> float:
    return _unit_value(key, raw, _LENGTH_UNITS, "length")


def parse_temperature(key: str, raw) -> float:
    return _unit_value(key, raw, _TEMPERATURE_UNITS, "temperature")


def parse_count(key: str, raw) -> int:
    if isinstance(raw, bool) or not isinstance(raw, int) or raw < 1:
        raise ConfigError(f"{key}: expected a positive integer, got {raw!r}")
    return raw


def parse_seed(key: str, raw) -> int:
    if isinstance(raw, bool) or not isinstance(raw, int) or raw < 0:
        raise ConfigError(f"{key}: expected a non-negative integer, got {raw!r}")
    return raw


def parse_number(key: str, raw) -> float:
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise ConfigError(f"{key}: expected a number, got {raw!r}")
    if not math.isfinite(raw):
        raise ConfigError(f"{key}: expected a finite number, got {raw!r}")
    return float(raw)


def parse_fraction(key: str, raw) -> float:
    x = parse_number(key, raw)
    if not 0 <= x <= 1:
        raise ConfigError(f"{key}: must lie in [0, 1], got {x}")
    return x


def parse_method(key: str, raw) -> ensemble.AverageMethod:
    if raw == "analytic":
        return ensemble.AverageMethod.ANALYTIC
    if raw == "montecarlo":
        return ensemble.AverageMethod.MONTE_CARLO
    raise ConfigError(f"{key}: must be 'analytic' or 'montecarlo', got {raw!r}")


def parse_path(key: str, raw) -> str:
    if not isinstance(raw, str) or not raw:
        raise ConfigError(f"{key}: expected a file path, got {raw!r}")
    return raw


@dataclass(frozen=True)
class Scenario:
    name: str
    required: dict
    optional: dict  # key -> (parser, default)
    runner: object = field(compare=False)

    def parse(self, raw: dict) -> dict:
        known = set(self.required) | set(self.optional)
        for key in sorted(raw):
            if key != "scenario" and key not in known:
                raise ConfigError(f"{key}: unknown key for scenario '{self.name}'")
        params = {}
        for key, parser in self.required.items():
            if key not in raw:
                raise ConfigError(f"{key}: required key missing for scenario '{self.name}'")
            params[key] = parser(key, raw[key])
        for key, (parser, default) in self.optional.items():
            params[key] = parser(key, raw[key]) if key in raw else default
        return params


@dataclass(frozen=True)
class RunOutput:
    header: list
    rows: np.ndarray
    stdout_lines: tuple = ()


_POP_OPTIONALS = {key: (parse_fraction, None) for key in _POP_KEYS}


def _initial_mixture(params: dict) -> Populations:
    given = [params[k] for k in _POP_KEYS]
    if all(v is None for v in given):
        return Populations([1.0, 0, 0, 0, 0])
    weights = np.array([0.0 if v is None else v for v in given])
    if abs(weights.sum() - 1.0) > 1e-6:
        raise ConfigError(f"p0_plus2: initial populations must sum to 1, got {weights.sum()}")
    return Populations(weights / weights.sum())  # Populations allows a 1e-10 error in the sum


def _run_rabi(params: dict, kind: HamiltonianKind) -> RunOutput:
    omega0 = params["omega0"]
    omega_rf = params.get("omega_rf")
    cfg = FieldConfig(
        omega0=omega0,
        omega_rf=omega_rf if omega_rf is not None else omega0,
        omega_rabi=params["omega_rabi"],
    )
    shifts = None
    if kind is HamiltonianKind.LAB_LIGHT_SHIFT:
        shifts = lightshift_from_scale(params["shift_scale"])
    spec = HamiltonianSpec(kind=kind, field=cfg, light_shifts=shifts)
    times = np.linspace(0.0, params["duration"], params["points"])
    pops = evolve_populations(_initial_mixture(params), spec, times, tol=1e-9)
    rows = np.column_stack([times * 1e6, pops])
    return RunOutput(["t_us", *P_COLUMNS], rows)


def _stirap_params(params: dict, eta: float) -> stirap.StirapParams:
    return stirap.StirapParams(
        omega0_peak=params["omega_peak"],
        tau_pulse=params["tau_pulse"],
        delta_t=params["delta_t"],
        eta=eta,
        detuning=params["detuning"],
        two_photon_detuning=params["two_photon_detuning"],
        gamma_e=params["gamma_e"],
    )


def _run_stirap(params: dict) -> RunOutput:
    p = _stirap_params(params, params["eta"])
    times, chain_pops, survival = stirap.stirap_trace(p, n_points=params["points"])
    zeeman = np.column_stack(
        [chain_pops[:, 0], chain_pops[:, 2], chain_pops[:, 4], np.zeros((times.size, 2))]
    )
    rows = np.column_stack([times * 1e6, zeeman, survival])
    return RunOutput(["t_us", *P_COLUMNS, "survival"], rows)


def _run_fstirap_scan(params: dict) -> RunOutput:
    rows = []
    for eta in np.linspace(params["eta_min"], params["eta_max"], params["points"]):
        final, survival = stirap.simulate_stirap(_stirap_params(params, float(eta)))
        rows.append([eta, *stirap.chain_to_zeeman_populations(final), survival])
    return RunOutput(["eta", *P_COLUMNS, "survival"], np.array(rows))


def _run_ensemble(params: dict, column: str, tau1, tau2=None) -> RunOutput:
    """Ramsey (no tau2) or echo curve of the p0_* mixture and its envelope,
    against the varied delay in us under ``column``."""
    cfg = FieldConfig(b0=params["b0"], b1=params["b1"])
    spec = ensemble.EnsembleSpec(
        sigma_z0=params["sigma_z0"],
        t_axial=params["t_axial"],
        n_samples=params["samples"],
        seed=params["seed"],
    )
    if tau2 is None:
        kind, delay = ensemble.SequenceKind.RAMSEY, tau1
        env = ensemble.ramsey_envelope(cfg, spec, tau1)
    else:
        kind, delay = ensemble.SequenceKind.ECHO, tau2
        env = ensemble.echo_envelope(cfg, spec, tau1, tau2)
    initial = _initial_mixture(params)
    pops = ensemble.ensemble_average_curve(cfg, spec, kind, tau1, tau2, initial, params["method"])
    return RunOutput([column, *P_COLUMNS, "envelope"], np.column_stack([delay * 1e6, pops, env]))


def _run_ramsey(params: dict) -> RunOutput:
    return _run_ensemble(params, "tau1_us", np.linspace(0.0, params["tau_max"], params["points"]))


def _run_echo(params: dict) -> RunOutput:
    tau2 = np.linspace(0.0, params["tau2_max"], params["points"])
    return _run_ensemble(params, "tau2_us", np.full_like(tau2, params["tau1"]), tau2)


def _run_echo_scan(params: dict) -> RunOutput:
    tau = np.linspace(0.0, params["tau_sum_max"] / 2, params["points"])
    return _run_ensemble(params, "tau_tilde_us", tau, tau)


def _load_timeseries(key: str, path: str) -> fit.TimeSeries:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            header = fh.readline().strip()
            delim = "\t" if "\t" in header else ","
            names = header.split(delim)
            data = np.loadtxt(fh, delimiter=delim)
    except OSError as exc:
        raise ConfigError(f"{key}: cannot read data file {path!r} ({exc})") from exc
    except ValueError as exc:
        raise ConfigError(f"{key}: malformed CSV in {path!r} ({exc})") from exc
    if data.ndim == 1:
        data = data[None, :]
    if len(names) < 6 or data.shape[1] < 6:
        raise ConfigError(f"{key}: need a time column plus five population columns in {path!r}")
    return fit.TimeSeries(times=data[:, 0] * 1e-6, populations=data[:, 1:6])


def _fit_stdout(result: fit.FitResult, extra: dict) -> tuple:
    lines = []
    for name, value in extra.items():
        lines.append(f"{name} = {value:.9g}")
    lines.append(f"residual_rms = {result.residual_rms:.9g}")
    lines.append(f"converged = {str(result.converged).lower()}")
    lines.append(f"n_evals = {result.n_evals}")
    if result.diagnostic:
        lines.append(f"diagnostic = {result.diagnostic}")
    return tuple(lines)


def _pop_params(result: fit.FitResult) -> dict:
    return {k: result.params.get(k, float("nan")) for k in fit._POP_KEYS}


def _run_fit_rabi(params: dict) -> RunOutput:
    data = _load_timeseries("data", params["data"])
    guess = {}
    if params["omega_guess"] is not None:
        guess["omega"] = params["omega_guess"]
    result = fit.fit_rabi(data, initial_guess=guess or None)
    if result.converged:
        weights = np.array([result.params[k] for k in fit._POP_KEYS])
        curve = fit.rabi_model_curve(data.times, result.params["omega"], weights)
    else:
        curve = np.zeros((data.n, 5))
    rows = np.column_stack([data.times * 1e6, curve])
    extra = {"omega_khz": result.params.get("omega", float("nan")) / (TWO_PI * 1e3)}
    extra.update(_pop_params(result))
    return RunOutput(["t_us", *P_COLUMNS], rows, _fit_stdout(result, extra))


def _run_fit_ramsey(params: dict) -> RunOutput:
    data = _load_timeseries("data", params["data"])
    known = {
        "b0": params["b0"],
        "sigma_z0": params["sigma_z0"],
        "t_axial": params["t_axial"],
    }
    result = fit.fit_ramsey(data, known)
    extra = {"b1_mg_per_mm": result.params.get("b1", float("nan")) / 1e-4}
    extra.update(_pop_params(result))
    curve = np.zeros((data.n, 5))
    if result.converged:
        cfg = FieldConfig(b0=params["b0"], b1=result.params["b1"])
        spec = ensemble.EnsembleSpec(
            sigma_z0=params["sigma_z0"], t_axial=params["t_axial"], n_samples=1
        )
        initial = Populations([result.params[k] for k in fit._POP_KEYS])
        curve = ensemble.ensemble_average_curve(
            cfg, spec, ensemble.SequenceKind.RAMSEY, data.times, initial=initial
        )
    rows = np.column_stack([data.times * 1e6, curve])
    return RunOutput(["tau1_us", *P_COLUMNS], rows, _fit_stdout(result, extra))


def _run_fit_echo(params: dict) -> RunOutput:
    data = _load_timeseries("data", params["data"])
    known = {k: params[k] for k in ("t_axial", "b1") if params[k] is not None}
    result = fit.fit_echo(data, known)
    extra = {"compound_per_s4": result.params.get("compound", float("nan"))}
    if "b1" in result.params:
        extra["b1_mg_per_mm"] = result.params["b1"] / 1e-4
    if "t_axial" in result.params:
        extra["t_axial_mk"] = result.params["t_axial"] / 1e-3
    extra.update(_pop_params(result))
    curve = np.zeros((data.n, 5))
    if result.converged:
        weights = np.array([result.params[k] for k in fit._POP_KEYS])
        curve = fit.echo_model_curve(data.times, result.params["compound"], weights)
    rows = np.column_stack([data.times * 1e6, curve])
    return RunOutput(["tau_tilde_us", *P_COLUMNS], rows, _fit_stdout(result, extra))


_RABI_KEYS = {
    "omega0": parse_frequency,
    "omega_rabi": parse_frequency,
    "duration": parse_time,
    "points": parse_count,
}
_RABI_OPT = {"omega_rf": (parse_frequency, None), **_POP_OPTIONALS}

_STIRAP_REQ = {
    "omega_peak": parse_frequency,
    "tau_pulse": parse_time,
    "delta_t": parse_time,
    "detuning": parse_frequency,
}
_STIRAP_OPT = {
    "two_photon_detuning": (parse_frequency, 0.0),
    "gamma_e": (parse_frequency, 0.0),
}

_ENSEMBLE_REQ = {
    "b0": parse_field,
    "b1": parse_gradient,
    "sigma_z0": parse_length,
    "t_axial": parse_temperature,
}
_ENSEMBLE_OPT = {
    "points": (parse_count, 200),
    "method": (parse_method, ensemble.AverageMethod.ANALYTIC),
    "samples": (parse_count, 100_000),
    "seed": (parse_seed, 0),
    **_POP_OPTIONALS,
}


def _scenarios() -> dict[str, Scenario]:
    entries = [
        Scenario(
            "rabi",
            _RABI_KEYS,
            _RABI_OPT,
            lambda p: _run_rabi(p, HamiltonianKind.ROT_RWA),
        ),
        Scenario(
            "rabi-lab",
            _RABI_KEYS,
            _RABI_OPT,
            lambda p: _run_rabi(p, HamiltonianKind.LAB_FULL),
        ),
        Scenario(
            "two-level",
            _RABI_KEYS,
            {"shift_scale": (parse_frequency, TWO_PI * 1e6), **_POP_OPTIONALS},
            lambda p: _run_rabi(p, HamiltonianKind.LAB_LIGHT_SHIFT),
        ),
        Scenario(
            "stirap",
            _STIRAP_REQ,
            {"eta": (parse_number, 0.0), "points": (parse_count, 200), **_STIRAP_OPT},
            _run_stirap,
        ),
        Scenario(
            "fstirap-scan",
            {**_STIRAP_REQ, "eta_max": parse_number},
            {"eta_min": (parse_number, 0.0), "points": (parse_count, 25), **_STIRAP_OPT},
            _run_fstirap_scan,
        ),
        Scenario(
            "ramsey",
            {**_ENSEMBLE_REQ, "tau_max": parse_time},
            dict(_ENSEMBLE_OPT),
            _run_ramsey,
        ),
        Scenario(
            "echo",
            {**_ENSEMBLE_REQ, "tau1": parse_time, "tau2_max": parse_time},
            dict(_ENSEMBLE_OPT),
            _run_echo,
        ),
        Scenario(
            "echo-scan",
            {**_ENSEMBLE_REQ, "tau_sum_max": parse_time},
            dict(_ENSEMBLE_OPT),
            _run_echo_scan,
        ),
        Scenario(
            "fit-rabi",
            {"data": parse_path},
            {"omega_guess": (parse_frequency, None)},
            _run_fit_rabi,
        ),
        Scenario(
            "fit-ramsey",
            {
                "data": parse_path,
                "b0": parse_field,
                "sigma_z0": parse_length,
                "t_axial": parse_temperature,
            },
            {},
            _run_fit_ramsey,
        ),
        Scenario(
            "fit-echo",
            {"data": parse_path},
            {
                # sigma_z0 cancels at tau1 = tau2: accepted, never read
                "sigma_z0": (parse_length, None),
                "t_axial": (parse_temperature, None),
                "b1": (parse_gradient, None),
            },
            _run_fit_echo,
        ),
    ]
    return {sc.name: sc for sc in entries}


SCENARIOS = _scenarios()


def load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError(f"config: cannot read {path!r} ({exc})") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"config: invalid YAML in {path!r} ({exc})") from exc
    if not isinstance(raw, dict):
        raise ConfigError("scenario: config must be a flat key-value mapping")
    for key, value in raw.items():
        if isinstance(value, (dict, list)):
            raise ConfigError(f"{key}: nested values are not allowed")
    return raw


def format_table(output: RunOutput, delimiter: str) -> str:
    lines = [delimiter.join(output.header)]
    for row in np.atleast_2d(output.rows):
        lines.append(delimiter.join(f"{v:.9g}" for v in row))
    return "\n".join(lines) + "\n"


def run_scenario(raw: dict, seed_override=None, samples_override=None) -> RunOutput:
    if "scenario" not in raw:
        raise ConfigError("scenario: required key missing")
    name = raw["scenario"]
    if name not in SCENARIOS:
        known = ", ".join(sorted(SCENARIOS))
        raise ConfigError(f"scenario: unknown scenario {name!r} (known: {known})")
    sc = SCENARIOS[name]
    params = sc.parse(raw)
    for key, override, parser in (
        ("seed", seed_override, parse_seed),
        ("samples", samples_override, parse_count),
    ):
        if override is None:
            continue
        if key not in sc.optional:
            raise ConfigError(f"--{key}: scenario '{name}' takes no {key}")
        params[key] = parser(f"--{key}", override)
    return sc.runner(params)


def list_scenarios() -> str:
    lines = []
    for name in sorted(SCENARIOS):
        sc = SCENARIOS[name]
        req = ", ".join(sorted(sc.required)) or "(none)"
        line = f"{name:<13} required: {req}"
        if sc.optional:
            line += f" | optional: {', '.join(sorted(sc.optional))}"
        lines.append(line)
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="spinorlab",
        description="Five-level spin dynamics scenarios: configs in, CSV out.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="run a scenario config and write a CSV")
    run_p.add_argument("config", help="path to a flat YAML scenario config")
    run_p.add_argument("--out", required=True, help="output CSV path")
    run_p.add_argument("--seed", type=int, default=None, help="override the config seed")
    run_p.add_argument("--samples", type=int, default=None, help="override the sample count")
    run_p.add_argument("--format", choices=("csv", "tsv"), default="csv")
    sub.add_parser("list-scenarios", help="print scenario kinds and their keys")
    args = parser.parse_args(argv)

    if args.command == "list-scenarios":
        sys.stdout.write(list_scenarios())
        return 0

    try:
        raw = load_config(args.config)
        output = run_scenario(raw, args.seed, args.samples)
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (NumericalError, RuntimeError, ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    text = format_table(output, "\t" if args.format == "tsv" else ",")
    try:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"config error: --out: cannot write {args.out!r} ({exc})", file=sys.stderr)
        return 1
    for line in output.stdout_lines:
        print(line)
    return 0


def console_main() -> None:
    sys.exit(main())
