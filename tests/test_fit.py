import math
from functools import partial

import numpy as np
import pytest

from spinorlab import cli, fit
from spinorlab.core import GAMMA, K_B, MASS_NE20, ZEEMAN_M, Populations, build_spin_system
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


@pytest.mark.parametrize("field", ["times", "populations"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_timeseries_rejects_non_finite_input(field, bad):
    arrays = {"times": np.array([0.0, 1e-6, 2e-6]), "populations": np.full((3, 5), 0.2)}
    arrays[field][1] = bad
    with pytest.raises(ValueError, match=f"^{field} must be finite"):
        TimeSeries(**arrays)


def test_rabi_guess_outside_resolvable_range_errors():
    data = synthetic_rabi(TWO_PI * 95e3, [1, 0, 0, 0, 0])
    with pytest.raises(ValueError):
        # far above the Nyquist limit of 60 samples over 30 us
        fit_rabi(data, omega_guess=TWO_PI * 1e9)


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
    assert np.max(np.abs(fit._harmonic_basis(None, theta, 0) - closed)) < 1e-12


def test_rabi_cosine_constant_term_of_plus2_is_equilibrium():
    constant = fit._basis_coefficients(None)[0].reshape(5, len(ZEEMAN_M))[:, 0]
    expected = equilibrium_populations(build_spin_system(2)).p
    np.testing.assert_allclose(constant, expected, rtol=0, atol=1e-15)


def test_rabi_fit_at_benchmark_size_builds_basis_once():
    omega = TWO_PI * 96e3
    weights = [0.5, 0.3, 0.2, 0, 0]
    data = synthetic_rabi(omega, weights, n=1000, t_max=40e-6)
    fit._basis_coefficients.cache_clear()
    result = fit_rabi(data)
    # the rotation harmonics are built once for the fit, not per evaluation
    assert fit._basis_coefficients.cache_info().misses == 1
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
    result = fit_rabi(data, omega_guess=TWO_PI * 55e3)
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
    result = fit_ramsey(data, **RAMSEY_KNOWN)
    assert result.converged
    assert result.params["b1"] == pytest.approx(4.5 * MG_PER_MM, rel=0.02)
    assert result.params["p_plus2_0"] == pytest.approx(1.0, abs=0.005)
    # recovered 1/e decay time of the envelope
    gb1 = GAMMA * result.params["b1"]
    sigma = RAMSEY_KNOWN["sigma_z0"]
    sigv2 = K_B * RAMSEY_KNOWN["t_axial"] / MASS_NE20
    t = np.linspace(1e-6, 1e-4, 20000)
    env = np.exp(-0.5 * (gb1 * sigma * t) ** 2 - 0.125 * gb1**2 * sigv2 * t**4)
    t_e = t[np.argmin(np.abs(env - math.exp(-1)))]
    assert t_e == pytest.approx(32.5e-6, abs=1e-6)


def test_ramsey_null_gradient():
    data = synthetic_ramsey(0.0)
    result = fit_ramsey(data, **RAMSEY_KNOWN)
    assert result.params["b1"] < 0.05 * MG_PER_MM


def test_ramsey_null_gradient_reports_grid_floor():
    result = fit_ramsey(synthetic_ramsey(0.0), **RAMSEY_KNOWN)
    assert "lower grid bound" in result.diagnostic
    assert fit_ramsey(synthetic_ramsey(4.5), **RAMSEY_KNOWN).diagnostic is None


def test_ramsey_rejects_negative_delay():
    # the model curve of a fit is an ensemble average, which takes no negative delay
    data = synthetic_ramsey(4.5)
    shifted = TimeSeries(times=data.times - data.times[1], populations=data.populations)
    with pytest.raises(ValueError, match="^data: delays must be >= 0"):
        fit_ramsey(shifted, **RAMSEY_KNOWN)


def synthetic_echo(b1_mg_mm: float, t_axial: float, n=60, t_max=220e-6):
    field = FieldConfig(b0=0.0, b1=b1_mg_mm * MG_PER_MM)
    spec = EnsembleSpec(sigma_z0=0.73e-3, t_axial=t_axial, n_samples=1)
    times = np.linspace(1e-6, t_max, n)
    pops = ensemble_average_curve(field, spec, SequenceKind.ECHO, times, times)
    return TimeSeries(times=times, populations=pops)


def test_echo_roundtrip_with_known_temperature():
    data = synthetic_echo(13.5, 0.2e-3)
    result = fit_echo(data, t_axial=0.2e-3)
    assert result.converged
    assert result.params["b1"] == pytest.approx(13.5 * MG_PER_MM, rel=0.05)
    truth = (GAMMA * 13.5 * MG_PER_MM) ** 2 * K_B * 0.2e-3 / MASS_NE20
    assert result.params["compound"] == pytest.approx(truth, rel=0.01)
    # envelope implied by the fit at tau_tilde = 95 us
    env = math.exp(-0.5 * result.params["compound"] * (95e-6) ** 4)
    assert env == pytest.approx(0.90, abs=0.01)


def test_echo_roundtrip_with_known_gradient():
    data = synthetic_echo(13.5, 0.2e-3)
    result = fit_echo(data, b1=13.5 * MG_PER_MM)
    assert result.converged
    assert result.params["t_axial"] == pytest.approx(0.2e-3, rel=0.05)


def test_echo_model_curve_matches_ensemble_average():
    data = synthetic_echo(13.5, 0.2e-3)
    compound = (GAMMA * 13.5 * MG_PER_MM) ** 2 * K_B * 0.2e-3 / MASS_NE20
    curve = echo_model_curve(data.times, compound, np.array([1.0, 0, 0, 0, 0]))
    np.testing.assert_allclose(curve, data.populations, atol=1e-12)


def test_echo_requires_one_anchor():
    data = synthetic_echo(13.5, 0.2e-3, n=10)
    with pytest.raises(ValueError):
        fit_echo(data)
    # both anchors would report a b1 and a t_axial that disagree with them
    with pytest.raises(ValueError, match="exactly one of t_axial or b1"):
        fit_echo(data, t_axial=0.2e-3, b1=1 * MG_PER_MM)


@pytest.mark.parametrize("bad", [0.0, -0.2e-3, math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("key", ["t_axial", "b1"])
def test_echo_rejects_an_anchor_that_is_not_positive_and_finite(monkeypatch, key, bad):
    # the anchor divides the fitted compound, and t_axial sits under a square
    # root, so a bad one is rejected before the fit, naming its key
    def no_fit(*args, **kwargs):
        raise AssertionError("fit_echo fitted before checking its anchor")

    monkeypatch.setattr(fit, "_damped_fit", no_fit)
    with pytest.raises(ValueError, match=f"^{key}: must be positive and finite"):
        fit_echo(synthetic_echo(13.5, 0.2e-3, n=10), **{key: bad})


@pytest.mark.parametrize(
    "fitter, kwargs, misspelt",
    [
        (fit_echo, {"b1": 13.5 * MG_PER_MM, "t_axail": 0.2e-3}, "t_axail"),
        (fit_ramsey, {**RAMSEY_KNOWN, "sigma_z": 0.73e-3}, "sigma_z"),
    ],
    ids=["echo", "ramsey"],
)
def test_a_misspelt_parameter_is_a_type_error(fitter, kwargs, misspelt):
    """The fitters take keyword parameters, so a misspelt one fails the call
    and is named, instead of being ignored."""
    with pytest.raises(TypeError, match=f"unexpected keyword argument '{misspelt}'"):
        fitter(synthetic_echo(13.5, 0.2e-3, n=10), **kwargs)


def test_echo_rejects_negative_delay():
    # the tau^4 model folds a negative delay onto a positive one
    data = synthetic_echo(13.5, 0.2e-3)
    shifted = TimeSeries(times=data.times - 100e-6, populations=data.populations)
    with pytest.raises(ValueError, match="^data: delays must be >= 0"):
        fit_echo(shifted, t_axial=0.2e-3)


def test_echo_cold_limit_not_identifiable():
    # T -> 0: no decay, constant trace
    times = np.linspace(1e-6, 2e-4, 30)
    pops = np.tile([1.0, 0, 0, 0, 0], (30, 1))
    result = fit_echo(TimeSeries(times=times, populations=pops), t_axial=1e-9)
    assert not result.converged
    assert "identifiable" in result.diagnostic


_FITTERS = {
    "rabi": fit_rabi,
    "ramsey": lambda data: fit_ramsey(data, **RAMSEY_KNOWN),
    "echo": lambda data: fit_echo(data, t_axial=0.2e-3),
}


@pytest.mark.parametrize("name", sorted(_FITTERS))
def test_fit_rejects_populations_without_five_columns(name):
    times = np.linspace(1e-6, 2e-4, 290)
    pops = np.random.default_rng(3).dirichlet(np.ones(3), size=290)
    with pytest.raises(ValueError, match="^populations: need 5 columns, got 3$"):
        _FITTERS[name](TimeSeries(times=times, populations=pops))


@pytest.mark.parametrize("name", ["ramsey", "echo"])
def test_damped_fit_of_a_constant_trace_is_not_identifiable(name):
    times = np.linspace(1e-6, 2e-4, 30)
    pops = np.tile([0.6, 0, 0.4, 0, 0], (30, 1))
    result = _FITTERS[name](TimeSeries(times=times, populations=pops))
    assert not result.converged
    assert result.n_evals == 0
    assert "identifiable" in result.diagnostic


def test_rabi_negative_guess_names_omega_guess():
    data = synthetic_rabi(TWO_PI * 95e3, [1, 0, 0, 0, 0])
    with pytest.raises(ValueError, match="^omega_guess: must be positive"):
        fit_rabi(data, omega_guess=-TWO_PI * 95e3)


def _add_noise(data: TimeSeries, sigma: float, rng) -> TimeSeries:
    noisy = np.clip(data.populations + rng.normal(0, sigma, (data.n, 5)), 0, 1)
    noisy /= noisy.sum(axis=1, keepdims=True)
    return TimeSeries(times=data.times, populations=noisy)


def test_noisy_recovery_ramsey_and_echo():
    rng = np.random.default_rng(7)
    result = fit_ramsey(_add_noise(synthetic_ramsey(4.5), 0.02, rng), **RAMSEY_KNOWN)
    assert result.params["b1"] == pytest.approx(4.5 * MG_PER_MM, rel=0.05)

    noisy = _add_noise(synthetic_echo(13.5, 0.2e-3), 0.02, rng)
    result = fit_echo(noisy, t_axial=0.2e-3)
    assert result.params["b1"] == pytest.approx(13.5 * MG_PER_MM, rel=0.05)


_TRACES = {
    "rabi": lambda: synthetic_rabi(TWO_PI * 95e3, [0.5, 0.3, 0.2, 0, 0], n=100, t_max=40e-6),
    "ramsey": lambda: synthetic_ramsey(4.5),
    "echo": lambda: synthetic_echo(13.5, 0.2e-3),
}


def _model_at_fit(name: str, data: TimeSeries, params: dict) -> np.ndarray:
    """The model curve at the fitted values, built as a caller would build it."""
    weights = np.array([params[k] for k in fit._POP_KEYS])
    if name == "rabi":
        return rabi_model_curve(data.times, params["omega"], weights)
    if name == "echo":
        return echo_model_curve(data.times, params["compound"], weights)
    field = FieldConfig(b0=RAMSEY_KNOWN["b0"], b1=params["b1"])
    spec = EnsembleSpec(sigma_z0=RAMSEY_KNOWN["sigma_z0"], t_axial=RAMSEY_KNOWN["t_axial"], n_samples=1)
    return ensemble_average_curve(field, spec, SequenceKind.RAMSEY, data.times, initial=Populations(weights))


@pytest.mark.parametrize("noise", [0.0, 0.02], ids=["noiseless", "noisy"])
@pytest.mark.parametrize("name", sorted(_FITTERS))
def test_fit_curve_is_the_model_at_the_fitted_values(name, noise):
    data = _TRACES[name]()
    if noise:
        data = _add_noise(data, noise, np.random.default_rng(29))
    result = _FITTERS[name](data)
    assert result.converged
    expected = _model_at_fit(name, data, result.params)
    assert result.curve.shape == (data.n, 5)
    assert result.curve.tobytes() == expected.tobytes()  # bit for bit


@pytest.mark.parametrize("name", sorted(_FITTERS))
def test_fit_of_a_constant_trace_has_no_curve(name):
    times = np.linspace(1e-6, 2e-4, 30)
    result = _FITTERS[name](TimeSeries(times=times, populations=np.tile([0.6, 0, 0.4, 0, 0], (30, 1))))
    assert result.params == {}
    assert result.curve is None


def test_fits_are_deterministic():
    data = synthetic_rabi(TWO_PI * 80e3, [0.9, 0.1, 0, 0, 0])
    a = fit_rabi(data)
    b = fit_rabi(data)
    assert a.params == b.params


@pytest.mark.parametrize("kind", [None, SequenceKind.RAMSEY, SequenceKind.ECHO])
def test_basis_coefficients_are_real(kind):
    # the profile keeps cosine features only, so the sine parts must be round-off
    assert np.max(np.abs(fit._basis_coefficients(kind).imag)) <= 1e-15


def _explicit_profile(kind, carrier, var, data: TimeSeries):
    """Weights and rms from the (n, channel, state) basis fed to the same
    simplex solve: the reference the sufficient statistics must match."""
    a = fit._harmonic_basis(kind, carrier, var).reshape(-1, len(ZEEMAN_M))
    y = data.populations.ravel()
    w = fit._simplex_solve((a.T @ a)[None] / y.size, (a.T @ y)[None] / y.size)[0][0]
    return w, math.sqrt(np.mean((a @ w - y) ** 2))


def test_profile_statistics_match_explicit_basis():
    rng = np.random.default_rng(3)
    rabi = synthetic_rabi(TWO_PI * 95e3, [0.5, 0.3, 0.2, 0, 0], n=300, t_max=40e-6, noise=0.02)
    ramsey = _add_noise(synthetic_ramsey(4.5), 0.02, rng)
    echo = _add_noise(synthetic_echo(13.5, 0.2e-3), 0.02, rng)
    field = FieldConfig(b0=RAMSEY_KNOWN["b0"], b1=1.0)
    spec = EnsembleSpec(sigma_z0=RAMSEY_KNOWN["sigma_z0"], t_axial=RAMSEY_KNOWN["t_axial"], n_samples=1)
    carrier, var_unit = fit._carrier_and_variance(
        field, spec, SequenceKind.RAMSEY, ramsey.times, np.zeros_like(ramsey.times)
    )
    ramsey_harmonics, echo_harmonics = fit._harmonics(carrier), fit._harmonics(0 * echo.times)
    k2 = np.arange(len(ZEEMAN_M))[:, None] ** 2
    cases = [
        (
            rabi,
            None,
            lambda x: (0.5 * x * rabi.times, 0.0),
            lambda x: fit._harmonics(0.5 * x[:, None] * rabi.times),
            lambda x, f: fit._rabi_slopes(rabi.times, x),
            TWO_PI * np.array([10e3, 94e3, 95e3, 3e6]),
        ),
        (
            ramsey,
            SequenceKind.RAMSEY,
            lambda x: (carrier, x**2 * var_unit),
            lambda x: fit._damped(ramsey_harmonics, x[:, None] ** 2 * var_unit),
            lambda x, f: -k2 * x**2 * var_unit * f,
            np.array([1e-6, 4.5e-4, 2e-3]),
        ),
        (
            echo,
            SequenceKind.ECHO,
            lambda x: (0.0, x * echo.times**4),
            lambda x: fit._damped(echo_harmonics, x[:, None] * echo.times**4),
            lambda x, f: -0.5 * k2 * x * echo.times**4 * f,
            np.array([1e13, 2.7e15, 1e17]),
        ),
    ]
    for data, kind, phase, features, slopes, trials in cases:

        def curve(x, w):
            return fit._harmonic_basis(kind, *phase(x)) @ w

        profile = fit._Profile(data, kind, features, slopes)
        weights, _ = fit._simplex_solve(*profile.statistics(trials))
        for x, w in zip(trials, weights):
            w_ref, rms_ref = _explicit_profile(kind, *phase(x), data)
            np.testing.assert_allclose(w, w_ref, rtol=0, atol=1e-12)
            w_fit, rms, slope = profile.fit(x)
            np.testing.assert_allclose(w_fit, w_ref, rtol=0, atol=1e-12)
            assert rms == pytest.approx(rms_ref, rel=0, abs=1e-12)
            assert slope == pytest.approx(_slope_at(curve, x, w_fit, data, h=1e-5), rel=1e-9, abs=1e-12)


def _kkt_violation(gram, b, w) -> float:
    """Largest violation of the simplex KKT conditions at w: w >= 0, sum 1,
    and 2 (G w - b) equal to some lambda where w > 0, at least it elsewhere."""
    grad = 2 * (gram @ w - b)
    support = w > 0
    lam = grad[support].mean()
    return max(
        -w.min(),
        abs(w.sum() - 1),
        np.max(np.abs(grad[support] - lam)),
        np.max(lam - grad[~support], initial=0.0),
    )


def test_simplex_solve_meets_the_kkt_conditions():
    rng = np.random.default_rng(11)
    optima = {
        "vertex": np.array([0, 0, 1.0, 0, 0]),
        "edge": np.array([0.3, 0, 0, 0.7, 0]),
        "interior": np.array([0.1, 0.2, 0.3, 0.25, 0.15]),
    }
    grams, bs, expected = [], [], []
    for rank in (5, 2):  # full rank and rank-deficient
        for w_opt in optima.values():
            x = rng.normal(size=(rank, 5))
            gram = x.T @ x
            # a multiplier lambda on the constraint and nu > 0 off the support
            # make w_opt a KKT point: 2 (G w - b) = lambda + nu
            nu = np.where(w_opt > 0, 0.0, rng.uniform(0.1, 1.0, 5))
            grams.append(gram)
            bs.append(gram @ w_opt - 0.5 * (rng.normal() + nu))
            expected.append(w_opt)
    # G = 0: every system with two or more states is singular and drops out
    grams.append(np.zeros((5, 5)))
    bs.append(np.array([0.1, 0.4, 0.2, 0.3, 0.0]))
    expected.append(np.array([0, 1.0, 0, 0, 0]))
    grams, bs = np.array(grams), np.array(bs)
    weights, objective = fit._simplex_solve(grams, bs)
    for gram, b, w, obj, w_opt in zip(grams, bs, weights, objective, expected):
        assert _kkt_violation(gram, b, w) <= 1e-10
        assert obj == pytest.approx(w @ gram @ w - 2 * b @ w, abs=1e-12)
        # the optimum is unique unless G is rank-deficient; its value is not
        assert obj == pytest.approx(w_opt @ gram @ w_opt - 2 * b @ w_opt, abs=1e-10)


@pytest.mark.parametrize(
    "freq, weights",
    [(95e3, [0.5, 0.3, 0.2, 0, 0]), (95e3, [0.2, 0.5, 0.3, 0, 0]), (100e3, [0.6, 0.1, 0.3, 0, 0])],
)
def test_noiseless_rabi_fit_reports_absent_states_as_exact_zeros(freq, weights):
    # the supports with an absent state tie with the true one within round-off
    data = synthetic_rabi(TWO_PI * freq, weights, n=100, t_max=40e-6)
    result = fit_rabi(data)
    assert result.converged
    assert result.params["p_minus1_0"] == 0.0
    assert result.params["p_minus2_0"] == 0.0
    assert result.residual_rms < 1e-9


def test_refinement_converges_only_within_its_iteration_cap(monkeypatch):
    def slope(u):  # of cosh(u - 0.0123)
        return math.sinh(u - 0.0123)

    u, converged = fit._refine(slope, -0.2, 0.3)
    assert converged
    assert u == pytest.approx(0.0123, abs=fit._XATOL)
    monkeypatch.setattr(fit, "_REFINE_MAX_ITER", 3)
    assert fit._refine(slope, -0.2, 0.3)[1] is False


def test_refinement_of_a_slope_of_one_sign_closes_at_the_bracket_end():
    u, converged = fit._refine(lambda u: 1.0, -0.2, 0.3)
    assert converged
    assert u == pytest.approx(-0.2, abs=fit._XATOL)
    assert fit._refine(lambda u: -1.0, 0.0, 0.3) == (pytest.approx(0.3, abs=fit._XATOL), True)


def _slope_at(model, x: float, weights, data: TimeSeries, h=1e-3) -> float:
    """Slope in u = ln x of the mean squared residual of ``model(x, weights)``
    with the weights held fixed, by a fourth-order central difference of the
    model; at the profile's optimal weights it is the profile's slope."""
    m = {j: model(x * math.exp(j * h), weights) for j in (-2, -1, 1, 2)}
    dm = (8 * (m[1] - m[-1]) - (m[2] - m[-2])) / (12 * h)
    return 2 * np.mean((model(x, weights) - data.populations) * dm)


def _optimal_weights(model, x: float, data: TimeSeries) -> np.ndarray:
    """The simplex weights at x, from the model's curves of the five basis states."""
    a = np.stack([model(x, e) for e in np.eye(len(ZEEMAN_M))], axis=-1).reshape(-1, len(ZEEMAN_M))
    y = data.populations.ravel()
    return fit._simplex_solve((a.T @ a)[None] / y.size, (a.T @ y)[None] / y.size)[0][0]


def _ramsey_model(data: TimeSeries):
    spec = EnsembleSpec(sigma_z0=RAMSEY_KNOWN["sigma_z0"], t_axial=RAMSEY_KNOWN["t_axial"], n_samples=1)

    def model(b1, weights):
        field = FieldConfig(b0=RAMSEY_KNOWN["b0"], b1=b1)
        return ensemble_average_curve(field, spec, SequenceKind.RAMSEY, data.times, initial=Populations(weights))

    return model


@pytest.mark.parametrize("name", ["ramsey", "echo"])
def test_noisy_fit_lands_on_the_profile_stationary_point(name):
    rng = np.random.default_rng(1)
    if name == "ramsey":
        data = _add_noise(synthetic_ramsey(4.5, n=10_000), 0.01, rng)
        result, key, model = fit_ramsey(data, **RAMSEY_KNOWN), "b1", _ramsey_model(data)
    else:
        data = _add_noise(synthetic_echo(13.5, 0.2e-3, n=10_000), 0.01, rng)
        result, key = fit_echo(data, t_axial=0.2e-3), "compound"
        model = partial(echo_model_curve, data.times)
    assert result.converged
    x = result.params[key]
    weights = np.array([result.params[k] for k in fit._POP_KEYS])
    # the profile's curvature in u, from its slopes at the optimal weights either side
    d = 1e-4
    ends = [x * math.exp(j * d) for j in (1, -1)]
    slopes = [_slope_at(model, e, _optimal_weights(model, e, data), data) for e in ends]
    curvature = (slopes[0] - slopes[1]) / (2 * d)
    assert curvature > 0
    # closer than comparing rms values can resolve near a noisy minimum
    assert abs(_slope_at(model, x, weights, data)) / curvature <= 1e-10


def test_refinement_never_ends_above_the_best_grid_point(monkeypatch):
    seen, varpro, refine = {}, fit._varpro_fit, fit._refine

    def capture(profile, grid, *rest):
        seen.update(profile=profile, grid=grid)
        return varpro(profile, grid, *rest)

    def record(slope, lo, hi):
        def logged(u):
            seen.setdefault("slopes", []).append(slope(u))
            return seen["slopes"][-1]

        return refine(logged, lo, hi)

    monkeypatch.setattr(fit, "_varpro_fit", capture)
    monkeypatch.setattr(fit, "_refine", record)
    # no gradient: the profile rises from the grid floor, so its slope keeps one sign
    result = fit_ramsey(synthetic_ramsey(0.0), **RAMSEY_KNOWN)
    assert result.converged
    assert seen["slopes"] and all(s > 0 for s in seen["slopes"])
    best = seen["profile"].fit(seen["grid"][0])[1]
    assert result.residual_rms <= best


def _grid_statistics(monkeypatch, fitter, *args, **kwargs):
    """Exact G and b of the grid that ``fitter(*args, **kwargs)`` searches."""
    seen = []
    varpro = fit._varpro_fit
    monkeypatch.setattr(
        fit,
        "_varpro_fit",
        lambda profile, grid, *rest: seen.append(profile.statistics(grid)) or varpro(profile, grid, *rest),
    )
    fitter(*args, **kwargs)
    return seen[0]


def _exhaustive_argmin(gram, b, rows=256) -> int:
    objective = [fit._simplex_solve(gram[i : i + rows], b[i : i + rows])[1] for i in range(0, len(b), rows)]
    return int(np.argmin(np.concatenate(objective)))


def _screen_cases(monkeypatch):
    rng = np.random.default_rng(17)
    for freq, weights in [(95e3, [0.5, 0.3, 0.2, 0, 0]), (100e3, [0.6, 0.1, 0.3, 0, 0])]:
        # absent states: their supports tie with the true one within round-off
        data = synthetic_rabi(TWO_PI * freq, weights, n=100, t_max=40e-6)
        yield _grid_statistics(monkeypatch, fit_rabi, data)
    for n in (100, 300, 1000):
        data = synthetic_rabi(TWO_PI * 95e3, [0.5, 0.3, 0.2, 0, 0], n=n, t_max=40e-6, noise=0.01, seed=n)
        gram, b = _grid_statistics(monkeypatch, fit_rabi, data)
        yield gram, b
    # the low-Omega end of the last grid, rotation angles Omega t_max / 2 up to
    # 0.1 rad: the features are nearly constant, so F^T F is nearly rank 1
    yield gram[:17], b[:17]
    ramsey = _add_noise(synthetic_ramsey(4.5), 0.02, rng)
    yield _grid_statistics(monkeypatch, fit_ramsey, ramsey, **RAMSEY_KNOWN)
    echo = _add_noise(synthetic_echo(13.5, 0.2e-3), 0.02, rng)
    yield _grid_statistics(monkeypatch, fit_echo, echo, t_axial=0.2e-3)
    for rank in (1, 2, 3):  # random rank-deficient G: screening needs the bound's slack here
        x = rng.normal(size=(64, rank, 5))
        yield np.einsum("gri,grj->gij", x, x), rng.normal(size=(64, 5))
    # G close to rank 1, and G = 0, where every system of two or more states is singular
    v = rng.normal(size=5)
    near = np.outer(v, v) + np.array([1e-15 * x.T @ x for x in rng.normal(size=(16, 5, 5))])
    yield near, rng.normal(size=(16, 5))
    yield np.zeros((16, 5, 5)), rng.normal(size=(16, 5))


def test_screened_argmin_is_the_exhaustive_argmin(monkeypatch):
    for gram, b in _screen_cases(monkeypatch):
        assert fit._screened_argmin(gram, b, fit._sum_to_one_bound(gram, b)) == _exhaustive_argmin(gram, b)


@pytest.mark.parametrize("rank", [5, 4, 3, 2, 1])
def test_sum_to_one_bound_is_below_the_simplex_objective(rank):
    rng = np.random.default_rng(rank)
    x = rng.normal(size=(500, rank, 5))
    gram, b = np.einsum("gri,grj->gij", x, x), rng.normal(size=(500, 5))
    bound, exact = fit._sum_to_one_bound(gram, b), fit._simplex_solve(gram, b)[1]
    # the bound carries its own round-off slack
    assert np.all(bound <= exact)
    if rank == 5:
        # where the unconstrained minimum lies on the simplex, the two agree
        w = fit._kkt_solve(gram, b, slice(-1, None))[0][:, 0]
        inside = np.all(w >= 0, axis=1)
        assert inside.any()
        np.testing.assert_allclose(bound[inside], exact[inside], rtol=1e-11, atol=1e-12)


def test_sum_to_one_bound_of_a_singular_system_is_unbounded():
    gram = np.zeros((3, 5, 5))
    gram[1] = np.diag([1.0, 0, 0, 0, 0])  # four identical KKT rows
    gram[2, :2, :2] = 1.0  # w = (1, -1, 0, 0, 0) is in the kernel and the plane 1^T w = 0
    bound = fit._sum_to_one_bound(gram, np.ones((3, 5)))
    assert np.all(bound == -np.inf)


def _grid_solve_rows(monkeypatch, data: TimeSeries):
    """``fit_rabi(data)`` and the number of rows that reach
    ``fit._simplex_solve`` outside the refinement."""
    rows, refining = [], []
    simplex, refine = fit._simplex_solve, fit._Profile.fit

    def counted(gram, b):
        if not refining:
            rows.append(b.shape[0])
        return simplex(gram, b)

    def refinement_step(self, x):
        refining.append(x)
        try:
            return refine(self, x)
        finally:
            refining.pop()

    monkeypatch.setattr(fit, "_simplex_solve", counted)
    monkeypatch.setattr(fit._Profile, "fit", refinement_step)
    result = fit_rabi(data)
    monkeypatch.undo()
    return result, sum(rows)


def test_noisy_rabi_fit_solves_few_grid_points_exactly(monkeypatch):
    data = synthetic_rabi(TWO_PI * 95e3, [0.5, 0.3, 0.2, 0, 0], n=1000, t_max=40e-6, noise=0.01, seed=5)
    result, rows = _grid_solve_rows(monkeypatch, data)
    assert rows <= 8  # of 2,077 grid points
    assert result.n_evals == 2083  # every grid point's statistics, 5 refinement steps and the final fit


def _lattice_screen(monkeypatch, data: TimeSeries, **kwargs) -> dict:
    """What ``fit_rabi(data)`` searches: the grid, the lattice's uniform
    grid with its estimated G and b and their margins as
    ``fit._rabi_lattice`` returns them, the exact statistics, and the pick."""
    seen = {}
    lattice, varpro, screened = fit._rabi_lattice, fit._varpro_fit, fit._screened_argmin

    def estimate(profile, data, omega, step):
        gram, b, margin = lattice(profile, data, omega, step)
        seen.update(uniform=omega.copy(), gram=gram.copy(), b=b.copy(), margin=margin.copy())
        return gram, b, margin

    def capture(profile, grid, *rest):
        seen.update(grid=grid, exact=profile.statistics(grid))
        return varpro(profile, grid, *rest)

    def pick(*args):
        seen["pick"] = screened(*args)
        return seen["pick"]

    monkeypatch.setattr(fit, "_rabi_lattice", estimate)
    monkeypatch.setattr(fit, "_varpro_fit", capture)
    monkeypatch.setattr(fit, "_screened_argmin", pick)
    fit_rabi(data, **kwargs)
    monkeypatch.undo()
    return seen


def _benchmark_text_trace(tmp_path, n=1000) -> TimeSeries:
    """A noisy three-state trace whose times (us) and populations pass
    through 9 significant digits of text, as the benchmark writes its fit
    inputs, read back by the CLI's loader."""
    clean = synthetic_rabi(TWO_PI * 96.3e3, [0.45, 0.35, 0.2, 0, 0], n=n, t_max=40e-6)
    rng = np.random.default_rng(23)
    noise = rng.normal(0, 0.01, clean.populations.shape)
    pops = clean.populations + noise - noise.mean(axis=1, keepdims=True)
    lines = ["t_us,p_p2,p_p1,p_0,p_m1,p_m2"]
    lines += [",".join(f"{v:.9g}" for v in (t, *row)) for t, row in zip(clean.times * 1e6, pops)]
    path = tmp_path / "trace.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return cli._load_timeseries("data", str(path))


def _lattice_cases(monkeypatch, tmp_path):
    for freq, weights in [(95e3, [0.5, 0.3, 0.2, 0, 0]), (100e3, [0.6, 0.1, 0.3, 0, 0])]:
        data = synthetic_rabi(TWO_PI * freq, weights, n=100, t_max=40e-6)
        yield "noiseless", _lattice_screen(monkeypatch, data)
    for n in (100, 300, 1000):
        data = synthetic_rabi(TWO_PI * 95e3, [0.5, 0.3, 0.2, 0, 0], n=n, t_max=40e-6, noise=0.01, seed=n)
        yield f"noisy {n}", _lattice_screen(monkeypatch, data)
    yield "text", _lattice_screen(monkeypatch, _benchmark_text_trace(tmp_path))
    data = synthetic_rabi(TWO_PI * 95e3, [0.5, 0.3, 0.2, 0, 0], n=100, t_max=40e-6, noise=0.01, seed=7)
    late = TimeSeries(times=data.times + 1e-3, populations=data.populations)
    yield "t0 = 1 ms", _lattice_screen(monkeypatch, late)
    data = synthetic_rabi(TWO_PI * 95e3, [0.5, 0.3, 0.2, 0, 0], n=300, t_max=40e-6, noise=0.01, seed=9)
    dt = data.times[1] - data.times[0]
    jitter = np.random.default_rng(9).uniform(-1e-3, 1e-3, data.n) * dt
    yield "jittered", _lattice_screen(monkeypatch, TimeSeries(data.times + jitter, data.populations))
    data = synthetic_rabi(TWO_PI * 95e3, [0.5, 0.3, 0.2, 0, 0], n=1000, t_max=40e-6, noise=0.01, seed=11)
    yield "guess", _lattice_screen(monkeypatch, data, omega_guess=TWO_PI * 80e3)


def test_lattice_screen_picks_the_exhaustive_argmin(monkeypatch, tmp_path):
    for label, seen in _lattice_cases(monkeypatch, tmp_path):
        assert np.count_nonzero(seen["margin"]) > seen["grid"].size / 2, label
        assert seen["pick"] == _exhaustive_argmin(*seen["exact"]), label


def _random_time_trace(n: int) -> TimeSeries:
    """A noisy three-state Rabi trace at sorted random times, far from any lattice."""
    rng = np.random.default_rng(n)
    t = np.sort(rng.uniform(0, 40e-6, n))
    clean = fit.rabi_model_curve(t, TWO_PI * 95e3, np.array([0.5, 0.3, 0.2, 0, 0]))
    noise = rng.normal(0, 0.01, clean.shape)
    return TimeSeries(t, clean + noise - noise.mean(axis=1, keepdims=True))


@pytest.mark.parametrize("n", [300, 1000])
def test_random_time_rabi_fit_solves_few_grid_points_exactly(monkeypatch, n):
    data = _random_time_trace(n)
    seen = _lattice_screen(monkeypatch, data)
    assert seen["pick"] == _exhaustive_argmin(*seen["exact"])
    # the margins cover the objective's whole range here, so every estimate is made exact first
    assert _grid_solve_rows(monkeypatch, data)[1] <= 4


def test_lattice_margin_bounds_the_objective_error(monkeypatch, tmp_path):
    w = np.random.default_rng(29).dirichlet(np.ones(len(ZEEMAN_M)), size=100)
    for label, seen in _lattice_cases(monkeypatch, tmp_path):
        on_lattice = np.isin(seen["grid"], seen["uniform"])
        gram, b = seen["gram"], seen["b"]
        exact_gram, exact_b = (a[on_lattice] for a in seen["exact"])

        def objective(g, v):
            return np.einsum("wi,gij,wj->gw", w, g, w) - 2 * np.einsum("gi,wi->gw", v, w)

        error = np.abs(objective(gram, b) - objective(exact_gram, exact_b)).max(axis=1)
        assert np.all(error <= seen["margin"]), label


@pytest.mark.parametrize("t0", [0.0, 3e-6])
def test_lattice_sums_match_direct_sums_on_uniform_times(t0):
    n, size, step = 1000, 2000, math.pi / (4 * 40e-6)
    dt, lo = 40e-6 / (n - 1), 500.0
    t = t0 + np.arange(n) * dt
    omega = lo + np.arange(size) * step
    rng = np.random.default_rng(31)
    v = np.vstack([np.ones(n), rng.uniform(0, 1, (5, n))])
    for q in range(1, 9):
        sums, roundoff = fit._chirp_cos_sums(v, t0, dt, lo, step, size, q)
        direct = np.cos(0.5 * q * omega[:, None] * t) @ v.T
        mass = np.abs(v).sum(axis=1)
        assert np.all(np.abs(sums - direct) <= 1e-12 * mass), q
        assert np.all(roundoff <= 1e-9 * mass), q


def test_large_rabi_fit_builds_few_direct_features(monkeypatch):
    data = synthetic_rabi(TWO_PI * 95e3, [0.5, 0.3, 0.2, 0, 0], n=10_000, t_max=40e-6, noise=0.01, seed=13)
    rows, grid_size = [], []
    statistics, varpro = fit._Profile.statistics, fit._varpro_fit

    def counted(self, x):
        rows.append(np.size(x))
        return statistics(self, x)

    def sized(profile, grid, *rest):
        grid_size.append(grid.size)
        return varpro(profile, grid, *rest)

    monkeypatch.setattr(fit._Profile, "statistics", counted)
    monkeypatch.setattr(fit, "_varpro_fit", sized)
    result = fit_rabi(data)
    t_ref, dt = data.times[-1], data.times[-1] / (data.n - 1)
    log_points = fit._log_grid(2 * fit._RABI_ANGLE_FLOOR / t_ref, math.pi / (2 * dt)).size
    refinement = result.n_evals - grid_size[0]
    assert grid_size[0] > 19_000
    # the uniform grid's points come from the lattice sums, except the few screened in
    assert sum(rows) <= log_points + 8 + refinement
    assert result.converged
    assert result.params["omega"] == pytest.approx(TWO_PI * 95e3, rel=1e-4)
