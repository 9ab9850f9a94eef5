"""Correctness checks of the CLI's outputs against the independent references.

Each check takes an operation, the CSV text it wrote and what it printed,
and returns a list of failure messages (empty when the output is right).
None of them compares against a stored copy of an earlier output.
"""

from __future__ import annotations

import io
import math

import numpy as np

import reference as ref

P_COLUMNS = ["p_p2", "p_p1", "p_0", "p_m1", "p_m2"]

# The program converges RF traces to 1e-9 by step halving and STIRAP chains
# with DOP853 at rtol 1e-10; the references run tighter.  Measured agreement
# is 2e-11 (RF) and 1e-10 (chains); the gates leave room for a stepper that
# meets the program's own tolerances differently.
RF_TOL = 1e-7
CHAIN_TOL = 1e-6
# Analytic ensemble curves are exact; the CSV holds 9 significant digits.
ANALYTIC_TOL = 1e-8
ENVELOPE_RTOL = 1e-8
# f-STIRAP final populations against 3 eta^4 : 6 eta^2 : 2: the
# nonadiabatic deviation of the scan's pulses is at most 0.009 for eta in
# [0, 2.5], and 0.025 at eta = 2 with the pulses of the program's tests.
FSTIRAP_DEVIATION = 0.025
# Family-wise false-alarm probability of one Monte Carlo curve's check.
MC_FAMILY_ALPHA = 1e-7
# Fit parameter recovery: relative error for noiseless traces, and for
# noisy ones of 1,000 samples, scaled as 1 / sqrt(samples).  The noisy gates
# are six or more standard deviations of the errors, as estimated from the
# largest error over 25 seeds.
FIT_CLEAN_RTOL = 1e-6
FIT_NOISY_RTOL_1000 = {
    ("fit-rabi", "omega"): 2e-3,
    ("fit-ramsey", "b1"): 0.03,
    ("fit-echo", "b1"): 0.07,
    ("fit-echo", "compound"): 0.14,
}
FIT_CLEAN_WEIGHT_TOL = 1e-5
FIT_NOISY_WEIGHT_TOL = 0.02
# A fit's residual_rms may exceed the injected noise's rms by this much: the
# 9-digit CSV rounding and the optimizer's tolerance (4e-8 measured on
# noiseless traces).
FIT_RMS_SLACK = 1e-6


def read_csv(text: str) -> tuple[list[str], np.ndarray]:
    header = text.splitlines()[0].split(",")
    return header, np.atleast_2d(np.loadtxt(io.StringIO(text), delimiter=",", skiprows=1))


def read_stdout(text: str) -> dict[str, str]:
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            out[key.strip()] = value.strip()
    return out


def _max_dev(a, b) -> float:
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


def _gate(failures: list, label: str, dev: float, tol: float) -> None:
    if not dev <= tol:  # also catches NaN
        failures.append(f"{label}: deviation {dev:.3g} exceeds {tol:.3g}")


def _header(failures, header, expected) -> bool:
    if header != expected:
        failures.append(f"header {header} != {expected}")
        return False
    return True


def check_rf(op, text: str, stdout: str) -> list[str]:
    t = op.truth
    failures = []
    header, data = read_csv(text)
    if not _header(failures, header, ["t_us", *P_COLUMNS]):
        return failures
    _gate(failures, "time column", _max_dev(data[:, 0], t["times"] * 1e6), 1e-8 * t["times"][-1] * 1e6)
    expected = ref.rf_populations(
        t["kind"], t["omega0"], t["omega0"], t["omega_rabi"], t["times"], t["weights"],
        t["light_shifts"],
    )
    _gate(failures, f"{t['kind']} populations vs reference H(t)", _max_dev(data[:, 1:6], expected), RF_TOL)
    return failures


def _chain(t, eta, times):
    return ref.chain_amplitudes(
        t["omega_peak"], t["tau"], t["delta_t"], eta, t["detuning"], 0.0, t["gamma_e"], times
    )


def _survival_checks(failures, t, survival) -> None:
    if t["gamma_e"] == 0:
        _gate(failures, "survival at gamma_e = 0", _max_dev(survival, 1.0), 1e-8)
    elif not np.all(survival[-1:] < 1 - 1e-4):
        failures.append(f"survival {survival[-1]:.9g} is not below 1 at gamma_e > 0")


def check_stirap(op, text: str, stdout: str) -> list[str]:
    t = op.truth
    failures = []
    header, data = read_csv(text)
    if not _header(failures, header, ["t_us", *P_COLUMNS, "survival"]):
        return failures
    times = data[:, 0] * 1e-6
    t0, t1 = ref.chain_window(t["tau"], t["delta_t"])
    _gate(failures, "time window", _max_dev(times[[0, -1]], [t0, t1]), 1e-12)
    raw = np.abs(_chain(t, t.get("eta", 0.0), times)) ** 2
    norm = raw.sum(axis=1)
    _gate(failures, "chain populations vs reference", _max_dev(data[:, 1:4], raw[:, [0, 2, 4]] / norm[:, None]), CHAIN_TOL)
    _gate(failures, "m = -1, -2 columns", _max_dev(data[:, 4:6], 0.0), 0.0)
    _gate(failures, "survival vs reference", _max_dev(data[:, 6], np.minimum(norm, 1.0)), CHAIN_TOL)
    _survival_checks(failures, t, data[:, 6])
    return failures


def check_fstirap_scan(op, text: str, stdout: str) -> list[str]:
    t = op.truth
    failures = []
    header, data = read_csv(text)
    if not _header(failures, header, ["eta", *P_COLUMNS, "survival"]):
        return failures
    etas = np.linspace(t["eta_min"], t["eta_max"], t["points"])
    _gate(failures, "eta column", _max_dev(data[:, 0], etas), 1e-8 * max(1.0, etas.max()))
    window = np.array(ref.chain_window(t["tau"], t["delta_t"]))
    for eta, row in zip(etas, data):
        final = np.abs(_chain(t, eta, window)[-1]) ** 2
        ground = final[[0, 2, 4]] / final.sum()
        _gate(failures, f"eta {eta:g} final populations vs reference", _max_dev(row[1:4], ground), CHAIN_TOL)
        _gate(failures, f"eta {eta:g} vs 3 eta^4 : 6 eta^2 : 2", _max_dev(row[1:4], ref.fstirap_closed(eta)), FSTIRAP_DEVIATION)
    _survival_checks(failures, t, data[:, 6])
    return failures


def mc_bound(mean: np.ndarray, n: int, comparisons: int) -> np.ndarray:
    """Bernstein bound on |sample mean - mean| for n samples in [0, 1],
    whose variance is at most mean (1 - mean), holding jointly for all
    comparisons with probability 1 - MC_FAMILY_ALPHA (union bound)."""
    log_term = math.log(2 * comparisons / MC_FAMILY_ALPHA)
    var = np.clip(mean * (1 - mean), 0.0, None)
    return np.sqrt(2 * var * log_term / n) + 2 * log_term / (3 * n)


def check_ensemble(op, text: str, stdout: str) -> list[str]:
    t = op.truth
    failures = []
    column = {"ramsey": "tau1_us", "echo": "tau2_us", "echo-scan": "tau_tilde_us"}[op.scenario]
    header, data = read_csv(text)
    if not _header(failures, header, [column, *P_COLUMNS, "envelope"]):
        return failures
    swept = t["tau1"] if op.scenario == "ramsey" else t["tau2"]
    _gate(failures, "delay column", _max_dev(data[:, 0], swept * 1e6), 1e-8 * swept[-1] * 1e6)
    mean, var = ref.phase_moments(
        t["kind"], t["b0"], t["b1"], t["sigma_z0"], t["t_axial"], t["tau1"], t["tau2"]
    )
    envelope = np.exp(-0.5 * var)
    _gate(failures, "envelope vs closed form (relative)", _max_dev(data[:, 6] / envelope, 1.0), ENVELOPE_RTOL)
    expected = ref.gaussian_phase_average(t["kind"], t["weights"], mean, var)
    pops = data[:, 1:6]
    if t["method"] == "analytic":
        _gate(failures, "analytic curve vs Gaussian-phase quadrature", _max_dev(pops, expected), ANALYTIC_TOL)
    else:
        bound = mc_bound(expected, t["samples"], expected.size) + ANALYTIC_TOL
        worst = float(np.max(np.abs(pops - expected) / bound))
        if not worst <= 1.0:
            failures.append(f"Monte Carlo curve off the quadrature by {worst:.3g} x its family-wise bound")
    return failures


def check_fit(op, text: str, stdout: str) -> list[str]:
    t = op.truth
    failures = []
    printed = read_stdout(stdout)
    column, times, data = op.trace
    header, curve = read_csv(text)
    if not _header(failures, header, [column, *P_COLUMNS]):
        return failures
    if printed.get("converged") != "true":
        failures.append(f"converged = {printed.get('converged')}")
        return failures
    if op.scenario == "fit-rabi":
        fitted = {"omega": float(printed["omega_khz"]) * 2 * math.pi * 1e3}
    elif op.scenario == "fit-ramsey":
        fitted = {"b1": float(printed["b1_mg_per_mm"]) * 1e-4}
    else:
        fitted = {
            "compound": float(printed["compound_per_s4"]),
            "b1": float(printed["b1_mg_per_mm"]) * 1e-4,
        }
    noisy = t["noise"] > 0
    for name, value in fitted.items():
        rtol = FIT_CLEAN_RTOL
        if noisy:
            rtol = FIT_NOISY_RTOL_1000[op.scenario, name] * math.sqrt(1000 / times.size)
        _gate(failures, f"{name} relative error", abs(value / t[name] - 1), rtol)
    keys = ("p_plus2_0", "p_plus1_0", "p_zero_0", "p_minus1_0", "p_minus2_0")
    weights = np.array([float(printed[k]) for k in keys])
    _gate(failures, "initial populations", _max_dev(weights, t["weights"]),
          FIT_NOISY_WEIGHT_TOL if noisy else FIT_CLEAN_WEIGHT_TOL)
    rms = float(printed["residual_rms"])
    injected = float(np.sqrt(np.mean((data - t["clean"]) ** 2)))
    # the generating parameters are a point of the model, so the best fit
    # leaves at most the injected noise, and it absorbs no more of it than
    # its few degrees of freedom can (40 covers a chi-square with 6 of them)
    floor = injected * math.sqrt(1 - 40 / data.size)
    if not floor <= rms <= injected + FIT_RMS_SLACK:
        failures.append(f"residual_rms {rms:.6g} does not match the injected noise {injected:.6g}")
    written = float(np.sqrt(np.mean((curve[:, 1:6] - data) ** 2)))
    _gate(failures, "rms of the written curve vs residual_rms", abs(written - rms), 1e-6)
    return failures


CHECKS = {
    "rabi": check_rf,
    "rabi-lab": check_rf,
    "two-level": check_rf,
    "stirap": check_stirap,
    "fstirap-scan": check_fstirap_scan,
    "ramsey": check_ensemble,
    "echo": check_ensemble,
    "echo-scan": check_ensemble,
    "fit-rabi": check_fit,
    "fit-ramsey": check_fit,
    "fit-echo": check_fit,
}


def check(op, text: str, stdout: str) -> list[str]:
    return [f"{op.name}: {msg}" for msg in CHECKS[op.scenario](op, text, stdout)]
