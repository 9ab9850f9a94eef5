"""Command-line front end: flat scenario configs in, CSV curves out.

A config is a text file of ``key: value`` lines: a ``scenario`` key naming
the scenario kind plus that scenario's physical parameters.  A key starts
its line with a letter or underscore, runs on in letters, digits and
underscores, and ends at a colon; the value is the rest of the line,
stripped.  Blank lines are skipped, and a ``#`` at the start of a line or
after whitespace starts a comment.  Each key's parser reads its value from
that string, so numbers and integers are unquoted decimals.  A malformed
line, an empty value and a repeated or unknown key are config errors.
Dimensioned values carry a unit suffix ("omega0: 800 kHz", "b1: 4.5
mG/mm"); frequencies are ordinary frequencies (the stored angular
frequency is 2*pi times the number).

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
the fitted parameters to stdout, and write as CSV the curve the fit returns
(``FitResult.curve``, the fitted model at the data's times), or zeros when
the fit did not converge.
"""

from __future__ import annotations

import argparse
import math
import re
import sys
from dataclasses import dataclass

import numpy as np

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


_NUMBER = r"[-+]?(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][-+]?\d+)?"

_UNITS = {
    "frequency": {"Hz": 1.0, "kHz": 1e3, "MHz": 1e6},
    "time": {"s": 1.0, "ms": 1e-3, "us": 1e-6, "µs": 1e-6},
    "field": {"G": 1e-4, "mG": 1e-7},
    "gradient": {"G/mm": 1e-1, "mG/mm": 1e-4, "G/m": 1e-4, "mG/m": 1e-7},
    "length": {"m": 1.0, "mm": 1e-3, "um": 1e-6, "µm": 1e-6},
    "temperature": {"K": 1.0, "mK": 1e-3, "uK": 1e-6, "µK": 1e-6},
}


def _unit_parser(kind: str, scale: float = 1.0):
    """Parser of '<number> <unit>' strings of ``kind``: the SI value, checked
    finite, times ``scale``."""
    units = _UNITS[kind]

    def parse(key: str, raw: str) -> float:
        match = re.fullmatch(rf"({_NUMBER})\s*(\S+)", raw)
        if not match:
            raise ConfigError(f"{key}: cannot parse {raw!r} as '<number> <unit>'")
        number, unit = match.groups()
        if unit not in units:
            allowed = ", ".join(sorted(units))
            raise ConfigError(f"{key}: unknown {kind} unit {unit!r} (allowed: {allowed})")
        value = float(number) * units[unit]
        if not math.isfinite(value):
            raise ConfigError(f"{key}: {raw!r} is not a finite {kind}")
        return scale * value

    return parse


parse_frequency = _unit_parser("frequency", TWO_PI)  # '800 kHz' -> 2*pi*800e3 rad/s
parse_time = _unit_parser("time")
parse_field = _unit_parser("field")
parse_gradient = _unit_parser("gradient")
parse_length = _unit_parser("length")
parse_temperature = _unit_parser("temperature")


# a longer value is past sys.maxsize, so int() never meets Python's digit limit
_INTEGER = rf"[-+]?\d{{1,{len(str(sys.maxsize))}}}"


def _integer_parser(least: int, kind: str):
    """Parser of decimal integers from ``least`` to sys.maxsize: a count
    beyond it is no array size."""

    def parse(key: str, raw: str) -> int:
        if not (re.fullmatch(_INTEGER, raw) and least <= int(raw) <= sys.maxsize):
            raise ConfigError(f"{key}: expected a {kind} decimal integer up to {sys.maxsize}, got {raw!r}")
        return int(raw)

    return parse


parse_count = _integer_parser(1, "positive")
parse_seed = _integer_parser(0, "non-negative")


def parse_number(key: str, raw: str) -> float:
    value = float(raw) if re.fullmatch(_NUMBER, raw) else math.nan
    if not math.isfinite(value):  # float() gives inf for a value beyond the float range
        raise ConfigError(f"{key}: expected a finite decimal number, got {raw!r}")
    return value


def _in_range(parse, lo: float, hi: float = math.inf):
    """``parse``, then a check that the value lies in [lo, hi]."""

    def parse_in_range(key: str, raw: str) -> float:
        value = parse(key, raw)
        if not lo <= value <= hi:
            raise ConfigError(f"{key}: must lie in [{lo:g}, {hi:g}], got {raw!r}")
        return value

    return parse_in_range


parse_fraction = _in_range(parse_number, 0.0, 1.0)
parse_span = _in_range(parse_time, 0.0)  # durations, delays and the ends of delay scans
parse_ratio = _in_range(parse_number, 0.0)


def parse_method(key: str, raw: str) -> ensemble.AverageMethod:
    if raw in ("analytic", "montecarlo"):
        return ensemble.AverageMethod(raw)
    raise ConfigError(f"{key}: must be 'analytic' or 'montecarlo', got {raw!r}")


def parse_path(key: str, raw: str) -> str:
    return raw  # _load_timeseries names the key of a path it cannot read


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
    omega_rf = params.get("omega_rf")
    if omega_rf is None:
        omega_rf = params["omega0"]
    cfg = FieldConfig(omega0=params["omega0"], omega_rf=omega_rf, omega_rabi=params["omega_rabi"])
    shifts = None
    if kind is HamiltonianKind.LAB_LIGHT_SHIFT:
        shifts = lightshift_from_scale(params["shift_scale"])
    spec = HamiltonianSpec(kind=kind, field=cfg, light_shifts=shifts)
    times = np.linspace(0.0, params["duration"], params["points"])
    pops = evolve_populations(_initial_mixture(params), spec, times)
    rows = np.column_stack([times * 1e6, pops])
    return RunOutput(["t_us", *P_COLUMNS], rows)


def _stirap_params(params: dict, eta: float) -> stirap.StirapParams:
    keys = ("tau_pulse", "delta_t", "detuning", "two_photon_detuning", "gamma_e")
    return stirap.StirapParams(
        omega0_peak=params["omega_peak"], eta=eta, **{k: params[k] for k in keys}
    )


def _run_stirap(params: dict) -> RunOutput:
    p = _stirap_params(params, params["eta"])
    times, chain_pops, survival = stirap.stirap_trace(p, n_points=params["points"])
    zeeman = stirap.chain_to_zeeman_populations(chain_pops)
    rows = np.column_stack([times * 1e6, zeeman, survival])
    return RunOutput(["t_us", *P_COLUMNS, "survival"], rows)


def _run_fstirap_scan(params: dict) -> RunOutput:
    etas = np.linspace(params["eta_min"], params["eta_max"], params["points"])
    finals = stirap.simulate_stirap([_stirap_params(params, float(eta)) for eta in etas])
    zeeman = stirap.chain_to_zeeman_populations([np.abs(f.amplitudes) ** 2 for f, _ in finals])
    rows = np.column_stack([etas, zeeman, [survival for _, survival in finals]])
    return RunOutput(["eta", *P_COLUMNS, "survival"], rows)


def _run_ensemble(params: dict, column: str, tau1, tau2=None) -> RunOutput:
    """Ramsey (no tau2) or echo curve of the p0_* mixture and its envelope,
    against the varied delay in us under ``column``."""
    cfg = FieldConfig(b0=params["b0"], b1=params["b1"])
    spec = ensemble.EnsembleSpec(
        params["sigma_z0"], params["t_axial"], n_samples=params["samples"], seed=params["seed"]
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
            rows = fh.readlines()
            if not any(line.partition("#")[0].strip() for line in rows):
                raise ConfigError(f"{key}: no data rows in {path!r}")
            data = np.loadtxt(rows, delimiter=delim, ndmin=2)
    except OSError as exc:
        raise ConfigError(f"{key}: cannot read data file {path!r} ({exc})") from exc
    except ValueError as exc:
        raise ConfigError(f"{key}: malformed CSV in {path!r} ({exc})") from exc
    if len(names) < 6 or data.shape[1] < 6:
        raise ConfigError(f"{key}: need a time column plus five population columns in {path!r}")
    try:
        return fit.TimeSeries(times=data[:, 0] * 1e-6, populations=data[:, 1:6])
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from exc


def _fit_output(column: str, data, result, extra: dict) -> RunOutput:
    """The fit's curve against ``column`` (zeros unless the fit converged)
    and the stdout lines: ``extra``, the five initial populations (NaN when
    the fit reports none), then the fit's status."""
    curve = result.curve if result.converged else np.zeros((data.n, 5))
    lines = [f"{name} = {value:.9g}" for name, value in extra.items()]
    lines += [f"{name} = {result.params.get(name, math.nan):.9g}" for name in fit._POP_KEYS]
    lines.append(f"residual_rms = {result.residual_rms:.9g}")
    lines.append(f"converged = {str(result.converged).lower()}")
    lines.append(f"n_evals = {result.n_evals}")
    if result.diagnostic:
        lines.append(f"diagnostic = {result.diagnostic}")
    rows = np.column_stack([data.times * 1e6, curve])
    return RunOutput([column, *P_COLUMNS], rows, tuple(lines))


def _run_fit_rabi(params: dict) -> RunOutput:
    data = _load_timeseries("data", params["data"])
    result = fit.fit_rabi(data, omega_guess=params["omega_guess"])
    omega = result.params.get("omega", float("nan"))
    return _fit_output("t_us", data, result, {"omega_khz": omega / (TWO_PI * 1e3)})


def _run_fit_ramsey(params: dict) -> RunOutput:
    data = _load_timeseries("data", params["data"])
    result = fit.fit_ramsey(data, b0=params["b0"], sigma_z0=params["sigma_z0"], t_axial=params["t_axial"])
    b1 = result.params.get("b1", float("nan"))
    return _fit_output("tau1_us", data, result, {"b1_mg_per_mm": b1 / 1e-4})


def _run_fit_echo(params: dict) -> RunOutput:
    data = _load_timeseries("data", params["data"])
    result = fit.fit_echo(data, t_axial=params["t_axial"], b1=params["b1"])
    extra = {"compound_per_s4": result.params.get("compound", float("nan"))}
    if "b1" in result.params:
        extra["b1_mg_per_mm"] = result.params["b1"] / 1e-4
    if "t_axial" in result.params:
        extra["t_axial_mk"] = result.params["t_axial"] / 1e-3
    return _fit_output("tau_tilde_us", data, result, extra)


_RABI_REQ = {
    "omega0": parse_frequency,
    "omega_rabi": parse_frequency,
    "duration": parse_span,
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

# scenario -> (required key -> parser, optional key -> (parser, default), runner)
SCENARIOS = {
    "rabi": (_RABI_REQ, _RABI_OPT, lambda p: _run_rabi(p, HamiltonianKind.ROT_RWA)),
    "rabi-lab": (_RABI_REQ, _RABI_OPT, lambda p: _run_rabi(p, HamiltonianKind.LAB_FULL)),
    "two-level": (
        _RABI_REQ,
        {"shift_scale": (parse_frequency, TWO_PI * 1e6), **_POP_OPTIONALS},
        lambda p: _run_rabi(p, HamiltonianKind.LAB_LIGHT_SHIFT),
    ),
    "stirap": (
        _STIRAP_REQ,
        {"eta": (parse_ratio, 0.0), "points": (parse_count, 200), **_STIRAP_OPT},
        _run_stirap,
    ),
    "fstirap-scan": (
        {**_STIRAP_REQ, "eta_max": parse_ratio},
        {"eta_min": (parse_ratio, 0.0), "points": (parse_count, 25), **_STIRAP_OPT},
        _run_fstirap_scan,
    ),
    "ramsey": ({**_ENSEMBLE_REQ, "tau_max": parse_span}, _ENSEMBLE_OPT, _run_ramsey),
    "echo": (
        {**_ENSEMBLE_REQ, "tau1": parse_span, "tau2_max": parse_span},
        _ENSEMBLE_OPT,
        _run_echo,
    ),
    "echo-scan": ({**_ENSEMBLE_REQ, "tau_sum_max": parse_span}, _ENSEMBLE_OPT, _run_echo_scan),
    "fit-rabi": ({"data": parse_path}, {"omega_guess": (parse_frequency, None)}, _run_fit_rabi),
    "fit-ramsey": (
        {
            "data": parse_path,
            "b0": parse_field,
            "sigma_z0": parse_length,
            "t_axial": parse_temperature,
        },
        {},
        _run_fit_ramsey,
    ),
    "fit-echo": (
        {"data": parse_path},
        {
            # sigma_z0 cancels at tau1 = tau2: accepted, never read
            "sigma_z0": (parse_length, None),
            "t_axial": (parse_temperature, None),
            "b1": (parse_gradient, None),
        },
        _run_fit_echo,
    ),
}


def load_config(path: str) -> dict[str, str]:
    """The ``key: value`` lines of the config at ``path``, each value the
    string its key's parser reads."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"config: cannot read {path!r} ({exc})") from exc
    raw = {}
    for number, line in enumerate(lines, 1):
        text = re.sub(r"(?:^|\s)#.*", "", line, count=1).rstrip()
        if not text:
            continue
        match = re.fullmatch(r"([A-Za-z_]\w*):(.*)", text)
        if not match:
            raise ConfigError(f"config: line {number} of {path!r} is not 'key: value': {line!r}")
        key, value = match[1], match[2].strip()
        if not value:
            raise ConfigError(f"{key}: no value given")
        if key in raw:
            raise ConfigError(f"{key}: given twice")
        raw[key] = value
    return raw


def format_table(output: RunOutput, delimiter: str) -> str:
    rows = np.atleast_2d(output.rows)
    # "%.9g" % float prints the same bytes as f"{v:.9g}"; converting a row at
    # a time holds no Python copy of the whole table
    row_format = delimiter.join(["%.9g"] * rows.shape[1])
    lines = [delimiter.join(output.header), *(row_format % tuple(row.tolist()) for row in rows)]
    return "\n".join(lines) + "\n"


def run_scenario(raw: dict, seed_override=None, samples_override=None) -> RunOutput:
    if "scenario" not in raw:
        raise ConfigError("scenario: required key missing")
    name = raw["scenario"]
    if name not in SCENARIOS:
        names = ", ".join(sorted(SCENARIOS))
        raise ConfigError(f"scenario: unknown scenario {name!r} (known: {names})")
    required, optional, runner = SCENARIOS[name]
    for key in sorted(raw):
        if key != "scenario" and key not in required and key not in optional:
            raise ConfigError(f"{key}: unknown key for scenario '{name}'")
    params = {}
    for key, parser in required.items():
        if key not in raw:
            raise ConfigError(f"{key}: required key missing for scenario '{name}'")
        params[key] = parser(key, raw[key])
    for key, (parser, default) in optional.items():
        params[key] = parser(key, raw[key]) if key in raw else default
    for key, override in (("seed", seed_override), ("samples", samples_override)):
        if override is None:
            continue
        if key not in optional:
            raise ConfigError(f"--{key}: scenario '{name}' takes no {key}")
        parser, _ = optional[key]
        params[key] = parser(f"--{key}", override)
    return runner(params)


def list_scenarios() -> str:
    lines = []
    for name, (required, optional, _) in sorted(SCENARIOS.items()):
        line = f"{name:<13} required: {', '.join(sorted(required)) or '(none)'}"
        if optional:
            line += f" | optional: {', '.join(sorted(optional))}"
        lines.append(line)
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="spinorlab",
        description="Five-level spin dynamics scenarios: configs in, CSV out.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="run a scenario config and write a CSV")
    run_p.add_argument("config", help="path to a scenario config of 'key: value' lines")
    run_p.add_argument("--out", required=True, help="output CSV path")
    run_p.add_argument("--seed", help="override the config seed")
    run_p.add_argument("--samples", help="override the sample count")
    run_p.add_argument("--format", choices=("csv", "tsv"), default="csv")
    sub.add_parser("list-scenarios", help="print scenario kinds and their keys")
    args = parser.parse_args(argv)

    if args.command == "list-scenarios":
        sys.stdout.write(list_scenarios())
        return 0

    try:
        raw = load_config(args.config)
        output = run_scenario(raw, args.seed, args.samples)
    except (NumericalError, RuntimeError, ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except (ConfigError, ValueError) as exc:  # after the clause above: LinAlgError is a ValueError
        print(f"config error: {exc}", file=sys.stderr)
        return 1
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
