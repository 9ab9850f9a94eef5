"""The benchmark's workloads: the operations of one round, made from a seed
and the round's number.

Every operation is one ``spinorlab run <config> --out <csv>``.  The seed and
the round pick the initial-state mixture weights, the Monte Carlo seeds,
small changes of the STIRAP pulses and the fitted traces' true parameters
and noise, so no round repeats an earlier round's inputs.  They leave alone
what sets the amount of work (time grids, point and sample counts, RF
frequencies, the set of initial states), so that every round and every seed
times the same work.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

import reference as ref

TWO_PI = 2 * math.pi
STATES = (2, 1, 0, -1, -2)
_POP_KEYS = ("p0_plus2", "p0_plus1", "p0_zero", "p0_minus1", "p0_minus2")
NOISE = 0.01  # per-channel standard deviation of the injected trace noise


@dataclass
class Op:
    """One CLI operation.  ``truth`` holds what the checks need: the
    physical inputs in SI units and, for fits, the generating parameters;
    ``trace`` is the (column, times in s, populations) input of a fit."""

    name: str
    scenario: str
    config: dict
    truth: dict
    trace: tuple | None = field(default=None, repr=False)


def _num(x: float) -> float:
    """Round to the 9 significant digits written into the config, so that
    the program and the references read the same value."""
    return float(f"{x:.9g}")


def _weights(rng, states) -> np.ndarray:
    """Dirichlet mixture over the given m states, no weight below 0.1."""
    w = np.zeros(5)
    raw = 0.1 + (1 - 0.1 * len(states)) * rng.dirichlet(np.ones(len(states)))
    for m, x in zip(states, raw):
        w[STATES.index(m)] = _num(x)
    return w


def _pop_config(w: np.ndarray) -> dict:
    return {k: f"{x:.9g}" for k, x in zip(_POP_KEYS, w) if x > 0}


# --- preparation ----------------------------------------------------------------

_RF_OMEGA0 = 800.0  # kHz


def _rf_op(name, scenario, states, duration_us, points, rng, **extra) -> Op:
    """The Rabi frequency is drawn from 95 to 96.9 kHz: across that range
    every RF operation below takes the same propagator steps and step
    halvings, whatever its initial state."""
    w = _weights(rng, states)
    omega_rabi = _num(95.0 * (1 + 0.02 * rng.uniform()))
    config = {
        "scenario": scenario,
        "omega0": f"{_RF_OMEGA0:g} kHz",
        "omega_rabi": f"{omega_rabi:.9g} kHz",
        "duration": f"{duration_us:g} us",
        "points": points,
        **{k: f"{v:g} MHz" for k, v in extra.items()},
        **_pop_config(w),
    }
    kind = {"rabi": "rot-rwa", "rabi-lab": "lab-full", "two-level": "lab-light-shift"}[scenario]
    truth = {
        "kind": kind,
        "omega0": TWO_PI * (_RF_OMEGA0 * 1e3),
        "omega_rabi": TWO_PI * (omega_rabi * 1e3),
        "times": np.linspace(0.0, duration_us * 1e-6, points),
        "weights": w,
        "light_shifts": ref.light_shifts_from_scale(TWO_PI * (extra.get("shift_scale", 0) * 1e6)),
    }
    return Op(name, scenario, config, truth)


def _stirap_op(name, scenario, rng, jitter=True, **fields) -> Op:
    """Pulses near 40 MHz peak, 0.55 us width, 0.7 us delay, 20 MHz
    detuning.  Without jitter the final f-STIRAP populations stay within
    0.009 of the dark-state closed form for eta in [0, 2.5]; small pulse
    changes move that nonadiabatic deviation up to 0.019."""

    def scale(spread):
        return 1 + spread * rng.uniform(-1, 1) if jitter else 1.0

    pulse = {
        "omega_peak": 40.0,  # MHz
        "tau_pulse": _num(0.55 * scale(0.02)),  # us
        "delta_t": _num(0.7 * scale(0.05)),  # us
        "detuning": _num(20.0 * scale(0.05)),  # MHz
    }
    config = {
        "scenario": scenario,
        "omega_peak": f"{pulse['omega_peak']:.9g} MHz",
        "tau_pulse": f"{pulse['tau_pulse']:.9g} us",
        "delta_t": f"{pulse['delta_t']:.9g} us",
        "detuning": f"{pulse['detuning']:.9g} MHz",
    }
    gamma_mhz = fields.pop("gamma_e_mhz", 0.0)
    if gamma_mhz:
        config["gamma_e"] = f"{gamma_mhz:g} MHz"
    config.update(fields)
    truth = {
        "omega_peak": TWO_PI * (pulse["omega_peak"] * 1e6),
        "tau": pulse["tau_pulse"] * 1e-6,
        "delta_t": pulse["delta_t"] * 1e-6,
        "detuning": TWO_PI * (pulse["detuning"] * 1e6),
        "gamma_e": TWO_PI * (gamma_mhz * 1e6),
        **fields,
    }
    return Op(name, scenario, config, truth)


def preparation(seed: int, round_: int) -> list[Op]:
    rng = np.random.default_rng([seed, 1, round_])
    return [
        _rf_op("rabi.one", "rabi", (2,), 40, 300, rng),
        _rf_op("rabi.mix3", "rabi", (1, 0, -2), 40, 300, rng),
        _rf_op("rabi-lab.mix3", "rabi-lab", (2, 1, 0), 6, 60, rng),
        _rf_op("rabi-lab.long", "rabi-lab", (2,), 20, 400, rng),
        _rf_op("two-level.one", "two-level", (2,), 12, 120, rng, shift_scale=1.0),
        _rf_op("two-level.mix2", "two-level", (2, 1), 6, 60, rng, shift_scale=1.0),
        _stirap_op("stirap.lossless", "stirap", rng, points=200),
        _stirap_op("stirap.lossy", "stirap", rng, points=200, eta=0.5, gamma_e_mhz=1.0),
        _stirap_op(
            "fstirap-scan", "fstirap-scan", rng, jitter=False, points=6,
            eta_min=_num(0.1 * rng.uniform()), eta_max=_num(2.5 - 0.1 * rng.uniform()),
        ),
    ]


def preparation_warmup(seed: int, repeat: int) -> Op:
    return _rf_op("warmup", "rabi-lab", (2,), 2, 20, np.random.default_rng([seed, 0, repeat]))


# --- coherence --------------------------------------------------------------------

_ENSEMBLE = {"b0": 179.0, "sigma_z0": 0.73, "t_axial": 0.2}  # mG, mm, mK


def _ensemble_op(name, scenario, states, method, rng, samples=100_000, **timing) -> Op:
    b1 = _num(4.5 * (1 + 0.1 * rng.uniform(-1, 1)))  # mG/mm
    w = _weights(rng, states)
    mc_seed = int(rng.integers(0, 2**31))
    config = {
        "scenario": scenario,
        "b0": f"{_ENSEMBLE['b0']:g} mG",
        "b1": f"{b1:.9g} mG/mm",
        "sigma_z0": f"{_ENSEMBLE['sigma_z0']:g} mm",
        "t_axial": f"{_ENSEMBLE['t_axial']:g} mK",
        **{k: f"{v:g} us" for k, v in timing.items() if k != "points"},
        "points": timing["points"],
        "method": method,
        "samples": samples,
        "seed": mc_seed,
        **_pop_config(w),
    }
    points = timing["points"]
    if scenario == "ramsey":
        tau1 = np.linspace(0.0, timing["tau_max"] * 1e-6, points)
        tau2, kind = None, "ramsey"
    elif scenario == "echo":
        tau2 = np.linspace(0.0, timing["tau2_max"] * 1e-6, points)
        tau1, kind = np.full(points, timing["tau1"] * 1e-6), "echo"
    else:
        tau1 = tau2 = np.linspace(0.0, timing["tau_sum_max"] * 1e-6 / 2, points)
        kind = "echo"
    truth = {
        "kind": kind,
        "method": method,
        "samples": samples,
        "b0": _ENSEMBLE["b0"] * 1e-7,
        "b1": b1 * 1e-4,
        "sigma_z0": _ENSEMBLE["sigma_z0"] * 1e-3,
        "t_axial": _ENSEMBLE["t_axial"] * 1e-3,
        "tau1": tau1,
        "tau2": tau2,
        "weights": w,
    }
    return Op(name, scenario, config, truth)


def coherence(seed: int, round_: int) -> list[Op]:
    rng = np.random.default_rng([seed, 2, round_])
    shapes = [
        ("ramsey.one", "ramsey", (2,), {"tau_max": 40, "points": 20}),
        ("ramsey.mix2", "ramsey", (2, 0), {"tau_max": 40, "points": 20}),
        ("echo.one", "echo", (1,), {"tau1": 50, "tau2_max": 100, "points": 20}),
        ("echo-scan.mix2", "echo-scan", (2, 1), {"tau_sum_max": 300, "points": 10}),
    ]
    mc = [_ensemble_op(f"{n}.montecarlo", sc, st, "montecarlo", rng, **t) for n, sc, st, t in shapes]
    analytic = [
        replace(
            op,
            name=op.name.replace("montecarlo", "analytic"),
            config={**op.config, "method": "analytic"},
            truth={**op.truth, "method": "analytic"},
        )
        for op in mc
    ]
    return mc + analytic


def coherence_warmup(seed: int, repeat: int) -> Op:
    rng = np.random.default_rng([seed, 0, repeat])
    return _ensemble_op(
        "warmup", "ramsey", (2,), "montecarlo", rng, samples=10_000, tau_max=40, points=5
    )


# --- analysis ---------------------------------------------------------------------


def _noisy(rng, pops: np.ndarray, noise: float) -> np.ndarray:
    """Add Gaussian noise with zero mean across each row, so that the rows
    still sum to one (the program rejects rows that sum above one)."""
    if noise == 0:
        return pops
    eps = rng.normal(0.0, noise, pops.shape)
    return pops + eps - eps.mean(axis=1, keepdims=True)


def _fit_op(name, scenario, n, noise, rng) -> Op:
    if scenario == "fit-rabi":
        states = (2, 1, 0)
        omega = TWO_PI * _num(95e3 * (1 + 0.05 * rng.uniform(-1, 1)))
        times = np.linspace(0.0, 40e-6, n)
        w = _weights(rng, states)
        clean = ref.rabi_populations(omega, times, w)
        truth = {"omega": omega}
        config = {"scenario": scenario}
        column = "t_us"
    else:
        states = (2, 0)
        kind = "ramsey" if scenario == "fit-ramsey" else "echo"
        b1 = _num(1e-4 * (4.5 if kind == "ramsey" else 13.5) * (1 + 0.1 * rng.uniform(-1, 1)))
        b0, sigma_z0, t_axial = 179e-7, 0.73e-3, 0.2e-3
        times = np.linspace(0.0, 60e-6, n)
        w = _weights(rng, states)
        # echo traces are taken at tau1 = tau2
        mean, var = ref.phase_moments(kind, b0, b1, sigma_z0, t_axial, times, times)
        clean = ref.gaussian_phase_average(kind, w, mean, var)
        truth = {"b1": b1, "compound": (ref.GAMMA * b1) ** 2 * ref.K_B * t_axial / ref.MASS_NE20}
        config = {"scenario": scenario, "sigma_z0": "0.73 mm", "t_axial": "0.2 mK"}
        if kind == "ramsey":
            config["b0"] = "179 mG"
        column = "tau1_us" if kind == "ramsey" else "tau_tilde_us"
    data = _noisy(rng, clean, noise)
    truth.update({"weights": w, "noise": noise, "clean": clean})
    return Op(name, scenario, config, truth, trace=(column, times, data))


def analysis(seed: int, round_: int) -> list[Op]:
    rng = np.random.default_rng([seed, 3, round_])
    ops = []
    for scenario, sizes in (
        ("fit-rabi", (100, 300, 1000)),
        ("fit-ramsey", (100, 1000, 10000)),
        ("fit-echo", (100, 1000, 10000)),
    ):
        for i, n in enumerate(sizes):
            noise = 0.0 if i == 0 else NOISE
            label = "clean" if noise == 0 else "noisy"
            ops.append(_fit_op(f"{scenario}.{n}.{label}", scenario, n, noise, rng))
    return ops


def analysis_warmup(seed: int, repeat: int) -> Op:
    return _fit_op("warmup", "fit-rabi", 100, 0.0, np.random.default_rng([seed, 0, repeat]))


WORKLOADS = {
    "preparation": (preparation, preparation_warmup),
    "coherence": (coherence, coherence_warmup),
    "analysis": (analysis, analysis_warmup),
}
