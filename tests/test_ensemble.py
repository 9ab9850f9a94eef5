import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinorlab import ensemble
from spinorlab.core import (
    CONSTANTS,
    ZEEMAN_M,
    Populations,
    StateVector,
    build_spin_system,
    zeeman_state,
)
from spinorlab.ensemble import (
    AverageMethod,
    EnsembleSpec,
    SequenceKind,
    SequenceTiming,
    echo_envelope,
    ensemble_average,
    ensemble_average_curve,
    phase_echo,
    phase_ramsey,
    ramsey_damped_cosine,
    ramsey_envelope,
    single_atom_sequence,
)
from spinorlab.propagator import FieldConfig
from spinorlab.rotations import RotationAxis, equilibrium_populations, rotation_operator

TWO_PI = 2 * math.pi
MG_PER_MM = 1e-4  # T/m
PLUS2 = zeeman_state(2, 2)

RAMSEY_FIELD = FieldConfig(b0=179e-7, b1=4.5 * MG_PER_MM)  # 179 mG, 4.5 mG/mm
ECHO_FIELD = FieldConfig(b0=179e-7, b1=13.5 * MG_PER_MM)
THERMAL = EnsembleSpec(sigma_z0=0.73e-3, t_axial=0.2e-3)

small = st.floats(-1e-3, 1e-3, allow_nan=False)
taus = st.floats(0, 3e-4, allow_nan=False)


def test_phase_without_gradient_is_carrier_only():
    field = FieldConfig(b0=0.5e-4, b1=0.0)
    phi = phase_ramsey(field, z0=1e-3, vz=2.0, tau1=20e-6)
    assert float(phi) == pytest.approx(CONSTANTS.gamma * 0.5e-4 * 20e-6, rel=1e-12)


def test_phase_gradient_value():
    # gamma*B1*z0*tau1 for B1 = 4.5 mG/mm, z0 = 0.73 mm, tau1 = 32.5 us
    field = FieldConfig(b0=0.0, b1=4.5 * MG_PER_MM)
    phi = float(phase_ramsey(field, z0=0.73e-3, vz=0.0, tau1=32.5e-6))
    oracle = CONSTANTS.gamma * (4.5 * MG_PER_MM) * 0.73e-3 * 32.5e-6
    assert phi == pytest.approx(oracle, rel=1e-12)
    assert phi == pytest.approx(1.4083, abs=2e-4)
    # and within 1% of the value implied by the rounded 2*pi x 9.5 kHz/mm
    assert phi == pytest.approx(TWO_PI * 9.5e3 * 0.73 * 32.5e-6, rel=0.01)


@given(small, st.floats(-2, 2, allow_nan=False), taus)
@settings(max_examples=50, deadline=None)
def test_phase_velocity_term_is_quadratic(z0, vz, tau):
    field = RAMSEY_FIELD
    doubled = float(phase_ramsey(field, z0, vz, 2 * tau))
    single = float(phase_ramsey(field, z0, vz, tau))
    expected = CONSTANTS.gamma * field.b1 * vz * tau**2
    base = max(abs(doubled), abs(single), 1.0)
    assert doubled - 2 * single == pytest.approx(expected, rel=1e-9, abs=1e-9 * base)


def test_echo_phase_special_cases():
    field = ECHO_FIELD
    assert float(phase_echo(field, z0=1e-3, vz=0.0, tau1=40e-6, tau2=40e-6)) == pytest.approx(0.0, abs=1e-15)
    # tau1 = tau2 = tau: phi = -gamma*B1*vz*tau^2
    phi = float(phase_echo(field, z0=5e-4, vz=0.3, tau1=50e-6, tau2=50e-6))
    assert phi == pytest.approx(-CONSTANTS.gamma * field.b1 * 0.3 * (50e-6) ** 2, rel=1e-12)
    field0 = FieldConfig(b0=0.3e-4, b1=0.0)
    phi = float(phase_echo(field0, z0=1.0, vz=1.0, tau1=10e-6, tau2=25e-6))
    assert phi == pytest.approx(-CONSTANTS.gamma * 0.3e-4 * 15e-6, rel=1e-12)


def test_ramsey_sequence_phase_landmarks():
    # odd multiples of pi restore the initial state, even ones invert it
    assert single_atom_sequence(PLUS2, SequenceKind.RAMSEY, math.pi)[0] == pytest.approx(1.0, abs=1e-12)
    assert single_atom_sequence(PLUS2, SequenceKind.RAMSEY, 3 * math.pi)[0] == pytest.approx(1.0, abs=1e-12)
    assert single_atom_sequence(PLUS2, SequenceKind.RAMSEY, 0.0)[4] == pytest.approx(1.0, abs=1e-12)
    assert single_atom_sequence(PLUS2, SequenceKind.RAMSEY, 2 * math.pi)[4] == pytest.approx(1.0, abs=1e-12)


def test_echo_sequence_at_zero_phase():
    # net 2*pi rotation about x on an integer spin: the state returns
    sys = build_spin_system(2)
    seq = (
        rotation_operator(sys, RotationAxis.X, 3 * math.pi / 2)
        @ rotation_operator(sys, RotationAxis.Z, 0.0)
        @ rotation_operator(sys, RotationAxis.X, math.pi / 2)
    )
    oracle = np.abs(seq @ PLUS2.amplitudes) ** 2
    got = single_atom_sequence(PLUS2, SequenceKind.ECHO, 0.0).p
    assert np.allclose(got, oracle, atol=1e-12)
    assert got[0] == pytest.approx(1.0, abs=1e-12)


def test_echo_composition_equals_explicit_pulse_train():
    # Dx(pi/2) Dz(b) Dx(pi) Dz(a) Dx(pi/2) == Dx(3pi/2) Dz(a - b) Dx(pi/2)
    sys = build_spin_system(2)
    a, b = 0.83, -1.91
    full = (
        rotation_operator(sys, RotationAxis.X, math.pi / 2)
        @ rotation_operator(sys, RotationAxis.Z, b)
        @ rotation_operator(sys, RotationAxis.X, math.pi)
        @ rotation_operator(sys, RotationAxis.Z, a)
        @ rotation_operator(sys, RotationAxis.X, math.pi / 2)
    )
    oracle = np.abs(full @ PLUS2.amplitudes) ** 2
    got = single_atom_sequence(PLUS2, SequenceKind.ECHO, a - b).p
    assert np.allclose(got, oracle, atol=1e-12)


def test_ramsey_envelope_reference_points():
    field = FieldConfig(b0=0.0, b1=4.5 * MG_PER_MM)
    env = ramsey_envelope(field, THERMAL, 32.5e-6)
    assert env == pytest.approx(math.exp(-1), rel=0.03)
    assert ramsey_envelope(field, THERMAL, 0.0) == 1.0
    no_gradient = FieldConfig(b0=0.5e-4, b1=0.0)
    assert ramsey_envelope(no_gradient, THERMAL, 5e-3) == 1.0
    damped = ramsey_damped_cosine(RAMSEY_FIELD, THERMAL, 12e-6)
    expected = math.cos(CONSTANTS.gamma * RAMSEY_FIELD.b0 * 12e-6) * ramsey_envelope(
        RAMSEY_FIELD, THERMAL, 12e-6
    )
    assert damped == pytest.approx(expected, rel=1e-12)


def test_ramsey_envelope_strictly_decreasing():
    field = FieldConfig(b0=0.0, b1=4.5 * MG_PER_MM)
    t = np.linspace(1e-6, 2e-4, 300)
    env = ramsey_envelope(field, THERMAL, t)
    assert np.all(np.diff(env) < 0)


def test_echo_envelope_reference_points():
    field = FieldConfig(b0=0.0, b1=13.5 * MG_PER_MM)
    assert echo_envelope(field, THERMAL, 95e-6, 95e-6) == pytest.approx(0.90, abs=0.01)
    assert echo_envelope(field, THERMAL, 150e-6, 150e-6) == pytest.approx(0.50, abs=0.02)
    assert echo_envelope(field, THERMAL, 0.0, 0.0) == 1.0


def test_echo_envelope_reduces_to_quartic_law():
    field = ECHO_FIELD
    for tau in (20e-6, 80e-6, 140e-6):
        direct = echo_envelope(field, THERMAL, tau, tau)
        var_rate = (CONSTANTS.gamma * field.b1) ** 2 * CONSTANTS.k_b * THERMAL.t_axial / THERMAL.mass
        assert direct == pytest.approx(math.exp(-0.5 * var_rate * tau**4), rel=1e-12)


def test_echo_rephases_static_dephasing_completely():
    # T -> 0 limit: any position spread is refocused at tau1 = tau2
    cold = EnsembleSpec(sigma_z0=2e-3, t_axial=1e-12, n_samples=3000, seed=4)
    field = FieldConfig(b0=0.2e-4, b1=20 * MG_PER_MM)
    timing = SequenceTiming(SequenceKind.ECHO, 80e-6, 80e-6)
    for method in AverageMethod:
        p = ensemble_average(field, cold, timing, PLUS2, method)
        assert p[0] == pytest.approx(1.0, abs=1e-6), method


def test_sequence_timing_validation(monkeypatch):
    with pytest.raises(ValueError):
        SequenceTiming(SequenceKind.RAMSEY, -1e-6)
    for kind in SequenceKind:
        with pytest.raises(ValueError, match="^tau1 must be finite"):
            SequenceTiming(kind, math.nan)
        with pytest.raises(ValueError, match="^tau2 must be finite"):
            SequenceTiming(kind, 1e-6, math.inf)
    with pytest.raises(ValueError, match="^tau2"):
        ensemble_average_curve(ECHO_FIELD, THERMAL, SequenceKind.ECHO, 25e-6)
    with pytest.raises(ValueError):
        EnsembleSpec(sigma_z0=0.0, t_axial=1e-3)
    for name in ("sigma_z0", "t_axial", "mass"):
        for bad in (math.inf, math.nan):
            with pytest.raises(ValueError, match=f"^{name} must be positive and finite"):
                EnsembleSpec(**{"sigma_z0": 1e-3, "t_axial": 1e-3, name: bad})
    with pytest.raises(ValueError):
        EnsembleSpec(sigma_z0=1e-3, t_axial=1e-3, n_samples=0)

    # both methods reject a bad delay of a curve before averaging any timing
    def no_sampling(*args):
        raise AssertionError("Monte Carlo sampling before the delay check")

    monkeypatch.setattr(ensemble, "_population_sums", no_sampling)
    bad_delays = (
        (SequenceKind.RAMSEY, [5e-6, math.nan], None, "^tau1 must be finite"),
        (SequenceKind.ECHO, 5e-6, [5e-6, math.inf], "^tau2 must be finite"),
        (SequenceKind.RAMSEY, [5e-6, -1e-5], None, "^tau1 must be >= 0"),
    )
    for method in AverageMethod:
        for kind, tau1, tau2, message in bad_delays:
            with pytest.raises(ValueError, match=message):
                ensemble_average_curve(RAMSEY_FIELD, THERMAL, kind, tau1, tau2, PLUS2, method)


def test_phase_matches_written_out_phases():
    # phase_ramsey's and phase_echo's docstring forms, term by term
    rng = np.random.default_rng(21)
    z0, vz = rng.normal(0, 1e-3, 50), rng.normal(0, 0.5, 50)
    tau1, tau2 = rng.uniform(0, 3e-4, (2, 50))
    g, b0, gb1 = CONSTANTS.gamma, ECHO_FIELD.b0, ECHO_FIELD.gamma_b1
    ramsey = g * b0 * tau1 + gb1 * (z0 * tau1 + vz * tau1**2 / 2)
    dtau = tau2 - tau1
    echo = -g * b0 * dtau - gb1 * z0 * dtau + gb1 * vz * (dtau**2 - 2 * tau2**2) / 2
    for kind, oracle in ((SequenceKind.RAMSEY, ramsey), (SequenceKind.ECHO, echo)):
        got = ensemble._phase(ECHO_FIELD, kind, z0, vz, tau1, tau2)
        np.testing.assert_allclose(got, oracle, rtol=1e-13, atol=0)


def test_envelopes_match_two_factor_closed_forms():
    gb1, sz, sv = RAMSEY_FIELD.gamma_b1, THERMAL.sigma_z0, THERMAL.sigma_vz
    tau = np.linspace(0, 60e-6, 61)
    ramsey = np.exp(-0.5 * (gb1 * sz * tau) ** 2) * np.exp(-0.125 * gb1**2 * sv**2 * tau**4)
    got = ramsey_envelope(RAMSEY_FIELD, THERMAL, tau)
    np.testing.assert_allclose(got, ramsey, rtol=1e-14, atol=0)
    gb1 = ECHO_FIELD.gamma_b1
    tau1, tau2 = np.linspace(0, 150e-6, 61), np.linspace(0, 160e-6, 61)
    dtau = tau2 - tau1
    echo = np.exp(-0.5 * (gb1 * sz * dtau) ** 2) * np.exp(
        -0.125 * gb1**2 * sv**2 * (dtau**2 - 2 * tau2**2) ** 2
    )
    got = echo_envelope(ECHO_FIELD, THERMAL, tau1, tau2)
    np.testing.assert_allclose(got, echo, rtol=1e-14, atol=0)


@pytest.mark.parametrize(
    "field,kind",
    [
        (RAMSEY_FIELD, SequenceKind.RAMSEY),
        (ECHO_FIELD, SequenceKind.RAMSEY),
        (RAMSEY_FIELD, SequenceKind.ECHO),
        (ECHO_FIELD, SequenceKind.ECHO),
    ],
)
def test_monte_carlo_matches_analytic(field, kind):
    spec = EnsembleSpec(sigma_z0=0.73e-3, t_axial=0.2e-3, n_samples=40_000, seed=11)
    times = np.array([5e-6, 10e-6, 20e-6, 35e-6, 60e-6])
    for tau in times:
        timing = (
            SequenceTiming(kind, tau)
            if kind is SequenceKind.RAMSEY
            else SequenceTiming(kind, tau, 1.5 * tau)
        )
        analytic = ensemble_average(field, spec, timing, PLUS2, AverageMethod.ANALYTIC).p
        mc = ensemble_average(field, spec, timing, PLUS2, AverageMethod.MONTE_CARLO).p
        se = _standard_error(field, spec, timing)
        assert np.all(np.abs(mc - analytic) <= 3 * se + 1e-12), (kind, tau)


def _standard_error(field, spec, timing) -> np.ndarray:
    # empirical per-channel standard error from an independent draw
    rng = np.random.default_rng(999)
    z0 = rng.normal(0, spec.sigma_z0, 4000)
    vz = rng.normal(0, spec.sigma_vz, 4000)
    if timing.kind is SequenceKind.RAMSEY:
        phis = np.array(
            [float(phase_ramsey(field, a, b, timing.tau1)) for a, b in zip(z0, vz)]
        )
    else:
        phis = np.array(
            [
                float(phase_echo(field, a, b, timing.tau1, timing.tau2))
                for a, b in zip(z0, vz)
            ]
        )
    samples = np.array([single_atom_sequence(PLUS2, timing.kind, phi).p for phi in phis])
    return samples.std(axis=0) / math.sqrt(spec.n_samples)


def test_monte_carlo_is_deterministic():
    spec = EnsembleSpec(sigma_z0=0.73e-3, t_axial=0.2e-3, n_samples=50_000, seed=3)
    timing = SequenceTiming(SequenceKind.RAMSEY, 25e-6)
    first = ensemble_average(RAMSEY_FIELD, spec, timing, PLUS2, AverageMethod.MONTE_CARLO).p
    second = ensemble_average(RAMSEY_FIELD, spec, timing, PLUS2, AverageMethod.MONTE_CARLO).p
    assert np.array_equal(first, second)


def test_monte_carlo_small_sample_warns():
    spec = EnsembleSpec(sigma_z0=0.73e-3, t_axial=0.2e-3, n_samples=50, seed=1)
    with pytest.warns(UserWarning, match="high-variance"):
        ensemble_average(
            RAMSEY_FIELD, spec, SequenceTiming(SequenceKind.RAMSEY, 5e-6), PLUS2,
            AverageMethod.MONTE_CARLO,
        )


def test_long_time_ramsey_reaches_equilibrium():
    p = ensemble_average(
        RAMSEY_FIELD, THERMAL, SequenceTiming(SequenceKind.RAMSEY, 400e-6), PLUS2
    )
    expected = equilibrium_populations(build_spin_system(2)).p
    assert np.max(np.abs(p.p - expected)) < 1e-6


def test_zero_delay_ramsey_is_a_pi_pulse():
    p = ensemble_average(
        RAMSEY_FIELD, THERMAL, SequenceTiming(SequenceKind.RAMSEY, 0.0), PLUS2
    )
    assert p[4] == pytest.approx(1.0, abs=1e-12)


def test_ramsey_signal_contains_four_harmonics_only():
    # without damping the analytic signal is a trig polynomial in
    # gamma*B0*tau1 with coherence orders 1..4
    f0 = 50e3
    field = FieldConfig(b0=TWO_PI * f0 / CONSTANTS.gamma, b1=0.0)
    n = 64
    tau = np.arange(n) / (n * f0)
    curve = ensemble_average_curve(
        field, THERMAL, SequenceKind.RAMSEY, tau, initial=PLUS2
    )
    spectrum = np.abs(np.fft.rfft(curve[:, 0] - curve[:, 0].mean())) / n
    present = np.where(spectrum > 1e-12)[0]
    assert set(present) <= {1, 2, 3, 4}
    assert {1, 2, 3, 4} <= set(present)


def test_curve_shapes_and_mixture():
    tau = np.linspace(0, 50e-6, 11)
    curve = ensemble_average_curve(RAMSEY_FIELD, THERMAL, SequenceKind.RAMSEY, tau)
    assert curve.shape == (11, 5)
    assert np.allclose(curve.sum(axis=1), 1.0, atol=1e-10)
    echo_curve = ensemble_average_curve(
        ECHO_FIELD, THERMAL, SequenceKind.ECHO, 25e-6, tau
    )
    assert echo_curve.shape == (11, 5)


@pytest.mark.parametrize("kind", list(SequenceKind))
def test_phase_harmonics_match_fft_of_the_sequence(kind):
    rng = np.random.default_rng(5)
    n = 16
    phis = 2 * math.pi * np.arange(n) / n
    dx_first, dx_last, _ = ensemble._dx_pair(4, kind)
    for _ in range(20):
        state = StateVector.normalized(rng.normal(size=5) + 1j * rng.normal(size=5))
        curve = np.array([single_atom_sequence(state, kind, phi).p for phi in phis])
        expected = np.fft.fft(curve, axis=0)[:5] / n
        got = ensemble._phase_harmonics(dx_first, dx_last, state.amplitudes[:, None])[:, :, 0]
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-14)


def per_state_sum(weights, curve_of):
    return sum(w * curve_of(zeeman_state(2, m)) for w, m in zip(weights, ZEEMAN_M) if w)


@pytest.mark.parametrize("kind", list(SequenceKind))
def test_analytic_mixture_equals_per_state_sum(kind):
    weights = np.array([0.6, 0.0, 0.25, 0.0, 0.15])
    tau = np.linspace(0, 80e-6, 9)
    tau2 = tau if kind is SequenceKind.ECHO else None

    def curve(initial):
        return ensemble_average_curve(ECHO_FIELD, THERMAL, kind, tau, tau2, initial)

    mixed = curve(Populations(weights))
    np.testing.assert_allclose(mixed, per_state_sum(weights, curve), rtol=0, atol=1e-14)
    timing = SequenceTiming(kind, 30e-6, 40e-6)

    def single(initial):
        return ensemble_average(ECHO_FIELD, THERMAL, timing, initial).p

    np.testing.assert_allclose(
        single(Populations(weights)), per_state_sum(weights, single), rtol=0, atol=1e-14
    )


def test_monte_carlo_mixture_draws_each_batch_once(monkeypatch):
    n_samples = 2 * ensemble._MC_BATCH + 100  # three batches
    spec = EnsembleSpec(sigma_z0=0.73e-3, t_axial=0.2e-3, n_samples=n_samples, seed=3)
    tau = np.linspace(0, 60e-6, 4)
    weights = np.array([0.7, 0.0, 0.0, 0.3, 0.0])

    def curve(initial):
        return ensemble_average_curve(
            RAMSEY_FIELD, spec, SequenceKind.RAMSEY, tau, None, initial, AverageMethod.MONTE_CARLO
        )

    per_state = per_state_sum(weights, curve)
    calls = []
    phase = ensemble._phase

    def counting(*args):
        calls.append(args[1])
        return phase(*args)

    monkeypatch.setattr(ensemble, "_phase", counting)
    mixed = curve(Populations(weights))
    assert len(calls) == 3 * tau.size  # each batch drawn once per timing for both states
    np.testing.assert_allclose(mixed, per_state, rtol=0, atol=1e-15)


def test_monte_carlo_curve_draws_each_batch_once(monkeypatch):
    spec = EnsembleSpec(sigma_z0=0.73e-3, t_axial=0.2e-3, n_samples=2 * ensemble._MC_BATCH + 100)
    generators = []
    default_rng = np.random.default_rng

    def counting(*args):
        generators.append(args)
        return default_rng(*args)

    monkeypatch.setattr(np.random, "default_rng", counting)
    ensemble_average_curve(
        RAMSEY_FIELD, spec, SequenceKind.RAMSEY, np.linspace(0, 60e-6, 4),
        method=AverageMethod.MONTE_CARLO,
    )
    assert len(generators) == 3  # one per batch, not one per batch and timing


@pytest.mark.parametrize("kind", list(SequenceKind))
def test_monte_carlo_curve_equals_per_timing_averages(kind):
    spec = EnsembleSpec(sigma_z0=0.73e-3, t_axial=0.2e-3, n_samples=ensemble._MC_BATCH + 50, seed=7)
    initial = Populations([0.6, 0.0, 0.25, 0.0, 0.15])
    tau1 = np.array([0.0, 20e-6, 45e-6])
    tau2 = 1.5 * tau1 if kind is SequenceKind.ECHO else np.zeros(3)
    curve = ensemble_average_curve(
        ECHO_FIELD, spec, kind, tau1, tau2, initial, AverageMethod.MONTE_CARLO
    )
    for row, a, b in zip(curve, tau1, tau2):
        single = ensemble_average(
            ECHO_FIELD, spec, SequenceTiming(kind, a, b), initial, AverageMethod.MONTE_CARLO
        )
        assert np.array_equal(row, single.p)
