import math

import numpy as np
import pytest

from spinorlab import fit
from spinorlab.core import CONSTANTS, ZEEMAN_M, build_spin_system
from spinorlab.ensemble import EnsembleSpec, SequenceKind, ensemble_average_curve
from spinorlab.fit import (
    TimeSeries,
    echo_model_curve,
    fit_echo,
    fit_rabi,
    fit_ramsey,
    rabi_model_curve,
)
from spinorlab.propagator import FieldConfig
from spinorlab.rotations import equilibrium_populations, rotation_population_curve

TWO_PI = 2 * math.pi
MG_PER_MM = 1e-4


def synthetic_rabi(omega: float, weights, n=60, t_max=30e-6, noise=0.0, seed=0):
    times = np.linspace(0.0, t_max, n)
    pops = rabi_model_curve(times, omega, np.asarray(weights))
    if noise:
        rng = np.random.default_rng(seed)
        pops = np.clip(pops + rng.normal(0, noise, pops.shape), 0, 1)
        pops /= pops.sum(axis=1, keepdims=True)
    return TimeSeries(times=times, populations=pops)


def test_timeseries_validation():
    with pytest.raises(ValueError):
        TimeSeries(times=np.array([0.0, 0.0]), populations=np.zeros((2, 5)))
    with pytest.raises(ValueError):
        TimeSeries(times=np.array([0.0, 1.0]), populations=np.full((2, 5), 0.5))
    with pytest.raises(ValueError):
        TimeSeries(times=np.array([0.0, 1.0]), populations=np.zeros((2, 5)), weights=np.array([-1.0, 1.0]))


def test_timeseries_rejects_all_zero_weights():
    with pytest.raises(ValueError):
        TimeSeries(times=np.array([0.0, 1.0]), populations=np.zeros((2, 5)), weights=np.zeros(2))


def test_rabi_guess_outside_resolvable_range_errors():
    data = synthetic_rabi(TWO_PI * 95e3, [1, 0, 0, 0, 0])
    with pytest.raises(ValueError):
        # far above the Nyquist limit of 60 samples over 30 us
        fit_rabi(data, initial_guess={"omega": TWO_PI * 1e9})


def test_rabi_roundtrip_noiseless():
    omega = TWO_PI * 95e3
    data = synthetic_rabi(omega, [0.97, 0.03, 0, 0, 0])
    result = fit_rabi(data)
    assert result.converged
    assert result.params["omega"] == pytest.approx(omega, rel=1e-3)
    assert result.params["p_plus2_0"] == pytest.approx(0.97, abs=0.005)
    assert result.params["p_plus1_0"] == pytest.approx(0.03, abs=0.005)
    assert result.residual_rms < 1e-4


def test_rabi_roundtrip_noisy():
    omega = TWO_PI * 95e3
    data = synthetic_rabi(omega, [0.97, 0.03, 0, 0, 0], noise=0.02, seed=42)
    result = fit_rabi(data)
    assert result.converged
    assert result.params["omega"] == pytest.approx(omega, rel=0.02)


def test_rabi_cosine_basis_matches_closed_forms():
    theta = np.linspace(0.0, 8000.0, 100_001)
    closed = np.stack([rotation_population_curve(m, theta) for m in ZEEMAN_M], axis=-1)
    assert np.max(np.abs(fit._rabi_basis(theta) - closed)) < 1e-12


def test_rabi_cosine_constant_term_of_plus2_is_equilibrium():
    constant = fit._rabi_cosine_coefficients()[0].reshape(5, len(ZEEMAN_M))[:, 0]
    expected = equilibrium_populations(build_spin_system(2)).p
    np.testing.assert_allclose(constant, expected, rtol=0, atol=1e-15)


def test_rabi_fit_at_benchmark_size_builds_basis_once(monkeypatch):
    omega = TWO_PI * 96e3
    weights = [0.5, 0.3, 0.2, 0, 0]
    data = synthetic_rabi(omega, weights, n=1000, t_max=40e-6)
    calls = []

    def counted(m, theta):
        calls.append(m)
        return rotation_population_curve(m, theta)

    monkeypatch.setattr(fit, "rotation_population_curve", counted)
    fit._rabi_cosine_coefficients.cache_clear()
    result = fit_rabi(data)
    # the closed forms are sampled once per basis state, not per evaluation
    assert len(calls) <= 5
    assert result.converged
    assert result.params["omega"] == pytest.approx(omega, rel=1e-8)
    fitted = [result.params[k] for k in ("p_plus2_0", "p_plus1_0", "p_zero_0")]
    np.testing.assert_allclose(fitted, weights[:3], rtol=0, atol=1e-6)


def test_rabi_single_point_errors():
    with pytest.raises(ValueError):
        fit_rabi(TimeSeries(times=np.array([1e-6]), populations=np.array([[1, 0, 0, 0, 0.0]])))


def test_rabi_constant_trace_flags_nonconverged():
    times = np.linspace(0, 1e-5, 20)
    pops = np.tile([1.0, 0, 0, 0, 0], (20, 1))
    result = fit_rabi(TimeSeries(times=times, populations=pops))
    assert not result.converged
    assert "identifiable" in result.diagnostic


def test_rabi_respects_initial_guess_and_weights():
    omega = TWO_PI * 60e3
    data = synthetic_rabi(omega, [0.5, 0.3, 0.2, 0, 0], n=80, t_max=50e-6)
    weighted = TimeSeries(
        times=data.times, populations=data.populations, weights=np.ones(data.n)
    )
    result = fit_rabi(weighted, initial_guess={"omega": TWO_PI * 55e3})
    assert result.params["omega"] == pytest.approx(omega, rel=1e-3)
    assert result.params["p_zero_0"] == pytest.approx(0.2, abs=0.005)


def synthetic_ramsey(b1_mg_mm: float, n=301, t_max=60e-6):
    # dense enough that the fourth carrier harmonic (~1.5 MHz) is resolved
    field = FieldConfig(b0=179e-7, b1=b1_mg_mm * MG_PER_MM)
    spec = EnsembleSpec(sigma_z0=0.73e-3, t_axial=0.2e-3, n_samples=1)
    times = np.linspace(0.0, t_max, n)
    pops = ensemble_average_curve(field, spec, SequenceKind.RAMSEY, times)
    return TimeSeries(times=times, populations=pops)


RAMSEY_KNOWN = {"b0": 179e-7, "sigma_z0": 0.73e-3, "t_axial": 0.2e-3}


def test_ramsey_roundtrip():
    data = synthetic_ramsey(4.5)
    result = fit_ramsey(data, RAMSEY_KNOWN)
    assert result.converged
    assert result.params["b1"] == pytest.approx(4.5 * MG_PER_MM, rel=0.02)
    assert result.params["p_plus2_0"] == pytest.approx(1.0, abs=0.005)
    # recovered 1/e decay time of the envelope
    gb1 = CONSTANTS.gamma * result.params["b1"]
    sigma = RAMSEY_KNOWN["sigma_z0"]
    sigv2 = CONSTANTS.k_b * RAMSEY_KNOWN["t_axial"] / CONSTANTS.mass_ne20
    t = np.linspace(1e-6, 1e-4, 20000)
    env = np.exp(-0.5 * (gb1 * sigma * t) ** 2 - 0.125 * gb1**2 * sigv2 * t**4)
    t_e = t[np.argmin(np.abs(env - math.exp(-1)))]
    assert t_e == pytest.approx(32.5e-6, abs=1e-6)


def test_ramsey_null_gradient():
    data = synthetic_ramsey(0.0)
    result = fit_ramsey(data, RAMSEY_KNOWN)
    assert result.params["b1"] < 0.05 * MG_PER_MM


def test_ramsey_null_gradient_reports_grid_floor():
    result = fit_ramsey(synthetic_ramsey(0.0), RAMSEY_KNOWN)
    assert "lower grid bound" in result.diagnostic
    assert fit_ramsey(synthetic_ramsey(4.5), RAMSEY_KNOWN).diagnostic is None


def test_ramsey_rejects_negative_delay():
    # the model curve of a fit is an ensemble average, which takes no negative delay
    data = synthetic_ramsey(4.5)
    shifted = TimeSeries(times=data.times - data.times[1], populations=data.populations)
    with pytest.raises(ValueError, match="^tau1 must be >= 0"):
        fit_ramsey(shifted, RAMSEY_KNOWN)


def synthetic_echo(b1_mg_mm: float, t_axial: float, n=60, t_max=220e-6):
    field = FieldConfig(b0=0.0, b1=b1_mg_mm * MG_PER_MM)
    spec = EnsembleSpec(sigma_z0=0.73e-3, t_axial=t_axial, n_samples=1)
    times = np.linspace(1e-6, t_max, n)
    pops = ensemble_average_curve(field, spec, SequenceKind.ECHO, times, times)
    return TimeSeries(times=times, populations=pops)


def test_echo_roundtrip_with_known_temperature():
    data = synthetic_echo(13.5, 0.2e-3)
    result = fit_echo(data, {"sigma_z0": 0.73e-3, "t_axial": 0.2e-3})
    assert result.converged
    assert result.params["b1"] == pytest.approx(13.5 * MG_PER_MM, rel=0.05)
    truth = (CONSTANTS.gamma * 13.5 * MG_PER_MM) ** 2 * CONSTANTS.k_b * 0.2e-3 / CONSTANTS.mass_ne20
    assert result.params["compound"] == pytest.approx(truth, rel=0.01)
    # envelope implied by the fit at tau_tilde = 95 us
    env = math.exp(-0.5 * result.params["compound"] * (95e-6) ** 4)
    assert env == pytest.approx(0.90, abs=0.01)


def test_echo_roundtrip_with_known_gradient():
    data = synthetic_echo(13.5, 0.2e-3)
    result = fit_echo(data, {"sigma_z0": 0.73e-3, "b1": 13.5 * MG_PER_MM})
    assert result.converged
    assert result.params["t_axial"] == pytest.approx(0.2e-3, rel=0.05)


def test_echo_model_curve_matches_ensemble_average():
    data = synthetic_echo(13.5, 0.2e-3)
    compound = (CONSTANTS.gamma * 13.5 * MG_PER_MM) ** 2 * CONSTANTS.k_b * 0.2e-3 / CONSTANTS.mass_ne20
    curve = echo_model_curve(data.times, compound, np.array([1.0, 0, 0, 0, 0]))
    np.testing.assert_allclose(curve, data.populations, atol=1e-12)


def test_echo_requires_one_anchor():
    data = synthetic_echo(13.5, 0.2e-3, n=10)
    with pytest.raises(ValueError):
        fit_echo(data, {"sigma_z0": 0.73e-3})


def test_echo_cold_limit_not_identifiable():
    # T -> 0: no decay, constant trace
    times = np.linspace(1e-6, 2e-4, 30)
    pops = np.tile([1.0, 0, 0, 0, 0], (30, 1))
    result = fit_echo(
        TimeSeries(times=times, populations=pops), {"sigma_z0": 0.73e-3, "t_axial": 1e-9}
    )
    assert not result.converged
    assert "identifiable" in result.diagnostic


def _add_noise(data: TimeSeries, sigma: float, rng) -> TimeSeries:
    noisy = np.clip(data.populations + rng.normal(0, sigma, (data.n, 5)), 0, 1)
    noisy /= noisy.sum(axis=1, keepdims=True)
    return TimeSeries(times=data.times, populations=noisy)


def test_noisy_recovery_ramsey_and_echo():
    rng = np.random.default_rng(7)
    result = fit_ramsey(_add_noise(synthetic_ramsey(4.5), 0.02, rng), RAMSEY_KNOWN)
    assert result.params["b1"] == pytest.approx(4.5 * MG_PER_MM, rel=0.05)

    noisy = _add_noise(synthetic_echo(13.5, 0.2e-3), 0.02, rng)
    result = fit_echo(noisy, {"sigma_z0": 0.73e-3, "t_axial": 0.2e-3})
    assert result.params["b1"] == pytest.approx(13.5 * MG_PER_MM, rel=0.05)


def test_fits_are_deterministic():
    data = synthetic_rabi(TWO_PI * 80e3, [0.9, 0.1, 0, 0, 0])
    a = fit_rabi(data)
    b = fit_rabi(data)
    assert a.params == b.params
