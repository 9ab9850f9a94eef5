import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import single_atom_sequence
from spinorlab import ensemble
from spinorlab.core import (
    GAMMA,
    K_B,
    MASS_NE20,
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
    echo_envelope,
    ensemble_average,
    ensemble_average_curve,
    ramsey_envelope,
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


def ramsey_phase(field, z0, vz, tau1):
    return ensemble._phase(field, SequenceKind.RAMSEY, z0, vz, tau1, 0.0)


def echo_phase(field, z0, vz, tau1, tau2):
    return ensemble._phase(field, SequenceKind.ECHO, z0, vz, tau1, tau2)


def test_phase_without_gradient_is_carrier_only():
    field = FieldConfig(b0=0.5e-4, b1=0.0)
    phi = ramsey_phase(field, z0=1e-3, vz=2.0, tau1=20e-6)
    assert phi == pytest.approx(GAMMA * 0.5e-4 * 20e-6, rel=1e-12)


def test_phase_gradient_value():
    # gamma*B1*z0*tau1 for B1 = 4.5 mG/mm, z0 = 0.73 mm, tau1 = 32.5 us
    field = FieldConfig(b0=0.0, b1=4.5 * MG_PER_MM)
    phi = ramsey_phase(field, z0=0.73e-3, vz=0.0, tau1=32.5e-6)
    oracle = GAMMA * (4.5 * MG_PER_MM) * 0.73e-3 * 32.5e-6
    assert phi == pytest.approx(oracle, rel=1e-12)
    assert phi == pytest.approx(1.4083, abs=2e-4)
    # and within 1% of the value implied by the rounded 2*pi x 9.5 kHz/mm
    assert phi == pytest.approx(TWO_PI * 9.5e3 * 0.73 * 32.5e-6, rel=0.01)


@given(small, st.floats(-2, 2, allow_nan=False), taus)
@settings(max_examples=50, deadline=None)
def test_phase_velocity_term_is_quadratic(z0, vz, tau):
    field = RAMSEY_FIELD
    doubled = ramsey_phase(field, z0, vz, 2 * tau)
    single = ramsey_phase(field, z0, vz, tau)
    expected = GAMMA * field.b1 * vz * tau**2
    base = max(abs(doubled), abs(single), 1.0)
    assert doubled - 2 * single == pytest.approx(expected, rel=1e-9, abs=1e-9 * base)


def test_echo_phase_special_cases():
    field = ECHO_FIELD
    assert echo_phase(field, z0=1e-3, vz=0.0, tau1=40e-6, tau2=40e-6) == pytest.approx(0.0, abs=1e-15)
    # tau1 = tau2 = tau: phi = -gamma*B1*vz*tau^2
    phi = echo_phase(field, z0=5e-4, vz=0.3, tau1=50e-6, tau2=50e-6)
    assert phi == pytest.approx(-GAMMA * field.b1 * 0.3 * (50e-6) ** 2, rel=1e-12)
    field0 = FieldConfig(b0=0.3e-4, b1=0.0)
    phi = echo_phase(field0, z0=1.0, vz=1.0, tau1=10e-6, tau2=25e-6)
    assert phi == pytest.approx(-GAMMA * 0.3e-4 * 15e-6, rel=1e-12)


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
    got = single_atom_sequence(PLUS2, SequenceKind.ECHO, 0.0)
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
    got = single_atom_sequence(PLUS2, SequenceKind.ECHO, a - b)
    assert np.allclose(got, oracle, atol=1e-12)


def test_ramsey_envelope_reference_points():
    field = FieldConfig(b0=0.0, b1=4.5 * MG_PER_MM)
    env = ramsey_envelope(field, THERMAL, 32.5e-6)
    assert env == pytest.approx(math.exp(-1), rel=0.03)
    assert ramsey_envelope(field, THERMAL, 0.0) == 1.0
    no_gradient = FieldConfig(b0=0.5e-4, b1=0.0)
    assert ramsey_envelope(no_gradient, THERMAL, 5e-3) == 1.0


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
        var_rate = (GAMMA * field.b1) ** 2 * K_B * THERMAL.t_axial / MASS_NE20
        assert direct == pytest.approx(math.exp(-0.5 * var_rate * tau**4), rel=1e-12)


def test_echo_rephases_static_dephasing_completely():
    # T -> 0 limit: any position spread is refocused at tau1 = tau2
    cold = EnsembleSpec(sigma_z0=2e-3, t_axial=1e-12, n_samples=3000, seed=4)
    field = FieldConfig(b0=0.2e-4, b1=20 * MG_PER_MM)
    for method in AverageMethod:
        p = ensemble_average(field, cold, SequenceKind.ECHO, 80e-6, 80e-6, PLUS2, method)
        assert p[0] == pytest.approx(1.0, abs=1e-6), method


def test_sequence_timing_validation(monkeypatch):
    with pytest.raises(ValueError, match="^tau1 must be >= 0"):
        ensemble_average(RAMSEY_FIELD, THERMAL, SequenceKind.RAMSEY, -1e-6)
    for kind in SequenceKind:
        with pytest.raises(ValueError, match="^tau1 must be finite"):
            ensemble_average(RAMSEY_FIELD, THERMAL, kind, math.nan)
        # tau2 is checked for Ramsey too, which reads none
        with pytest.raises(ValueError, match="^tau2 must be finite"):
            ensemble_average(RAMSEY_FIELD, THERMAL, kind, 1e-6, math.inf)
    with pytest.raises(ValueError, match="^tau2"):
        ensemble_average_curve(ECHO_FIELD, THERMAL, SequenceKind.ECHO, 25e-6)
    with pytest.raises(ValueError):
        EnsembleSpec(sigma_z0=0.0, t_axial=1e-3)
    for name in ("sigma_z0", "t_axial"):
        for bad in (math.inf, math.nan):
            with pytest.raises(ValueError, match=f"^{name} must be positive and finite"):
                EnsembleSpec(**{"sigma_z0": 1e-3, "t_axial": 1e-3, name: bad})
    with pytest.raises(ValueError):
        EnsembleSpec(sigma_z0=1e-3, t_axial=1e-3, n_samples=0)

    # both methods reject a bad delay of a curve before averaging any timing
    def no_sampling(*args):
        raise AssertionError("Monte Carlo sampling before the delay check")

    monkeypatch.setattr(ensemble, "_phase", no_sampling)
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
    # the Ramsey and echo forms of _phase's docstring, term by term
    rng = np.random.default_rng(21)
    z0, vz = rng.normal(0, 1e-3, 50), rng.normal(0, 0.5, 50)
    tau1, tau2 = rng.uniform(0, 3e-4, (2, 50))
    g, b0, gb1 = GAMMA, ECHO_FIELD.b0, ECHO_FIELD.gamma_b1
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
        tau2 = 0.0 if kind is SequenceKind.RAMSEY else 1.5 * tau
        analytic = ensemble_average(field, spec, kind, tau, tau2, PLUS2, AverageMethod.ANALYTIC).p
        mc = ensemble_average(field, spec, kind, tau, tau2, PLUS2, AverageMethod.MONTE_CARLO).p
        se = _standard_error(field, spec, kind, tau, tau2)
        assert np.all(np.abs(mc - analytic) <= 3 * se + 1e-12), (kind, tau)


def _standard_error(field, spec, kind, tau1, tau2) -> np.ndarray:
    # empirical per-channel standard error from an independent draw, by the
    # explicit product Dx_last Dz(phi) Dx_first over all probes at once
    rng = np.random.default_rng(999)
    z0 = rng.normal(0, spec.sigma_z0, 4000)
    vz = rng.normal(0, spec.sigma_vz, 4000)
    phis = ensemble._phase(field, kind, z0, vz, tau1, tau2)
    dx_first, dx_last = ensemble._dx_pair(4, kind)
    m = build_spin_system(2).m_values
    amps = (np.exp(-1j * np.multiply.outer(phis, m)) * (dx_first @ PLUS2.amplitudes)) @ dx_last.T
    samples = np.abs(amps) ** 2
    samples /= samples.sum(axis=1, keepdims=True)
    return samples.std(axis=0) / math.sqrt(spec.n_samples)


def test_monte_carlo_is_deterministic():
    spec = EnsembleSpec(sigma_z0=0.73e-3, t_axial=0.2e-3, n_samples=50_000, seed=3)
    timing = (SequenceKind.RAMSEY, 25e-6, 0.0, PLUS2, AverageMethod.MONTE_CARLO)
    first = ensemble_average(RAMSEY_FIELD, spec, *timing).p
    second = ensemble_average(RAMSEY_FIELD, spec, *timing).p
    assert np.array_equal(first, second)


def test_monte_carlo_small_sample_warns():
    spec = EnsembleSpec(sigma_z0=0.73e-3, t_axial=0.2e-3, n_samples=50, seed=1)
    with pytest.warns(UserWarning, match="high-variance"):
        ensemble_average(RAMSEY_FIELD, spec, SequenceKind.RAMSEY, 5e-6, method=AverageMethod.MONTE_CARLO)


def test_long_time_ramsey_reaches_equilibrium():
    p = ensemble_average(RAMSEY_FIELD, THERMAL, SequenceKind.RAMSEY, 400e-6, initial=PLUS2)
    expected = equilibrium_populations(build_spin_system(2)).p
    assert np.max(np.abs(p.p - expected)) < 1e-6


def test_zero_delay_ramsey_is_a_pi_pulse():
    p = ensemble_average(RAMSEY_FIELD, THERMAL, SequenceKind.RAMSEY, 0.0, initial=PLUS2)
    assert p[4] == pytest.approx(1.0, abs=1e-12)


def test_ramsey_signal_contains_four_harmonics_only():
    # without damping the analytic signal is a trig polynomial in
    # gamma*B0*tau1 with coherence orders 1..4
    f0 = 50e3
    field = FieldConfig(b0=TWO_PI * f0 / GAMMA, b1=0.0)
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
    dx_first, dx_last = ensemble._dx_pair(4, kind)
    for _ in range(20):
        state = StateVector.normalized(rng.normal(size=5) + 1j * rng.normal(size=5))
        curve = single_atom_sequence(state, kind, phis)
        expected = np.fft.fft(curve, axis=0)[:5] / n
        got = ensemble._phase_harmonics(dx_first, dx_last, state.amplitudes[:, None])[:, :, 0]
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-14)


def test_harmonic_sum_matches_per_harmonic_loop():
    rng = np.random.default_rng(11)
    coeffs = rng.normal(size=(5, 7)) + 1j * rng.normal(size=(5, 7))
    a = rng.uniform(-30, 30, 50)

    def loop(var):
        out = np.broadcast_to(coeffs[0].real, (a.size, 7)).copy()
        for k in range(1, 5):
            damp = np.exp(-0.5 * k * k * np.broadcast_to(var, a.shape))
            out += 2 * damp[:, None] * (coeffs[k] * np.exp(1j * k * a)[:, None]).real
        return out

    for var in (rng.uniform(0, 3, a.size), 0.0):
        got = ensemble._harmonic_sum(a, var, coeffs)
        np.testing.assert_allclose(got, loop(var), rtol=0, atol=1e-14)


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
    def single(initial):
        return ensemble_average(ECHO_FIELD, THERMAL, kind, 30e-6, 40e-6, initial).p

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
    # each batch drawn once for both states, and anchored once per 32 timings
    # of the affine grid; a draw per state would anchor it twice
    assert len(calls) == 3 * math.ceil(tau.size / ensemble._MC_ANCHOR)
    np.testing.assert_allclose(mixed, per_state, rtol=0, atol=1e-15)


@pytest.mark.parametrize("kind", list(SequenceKind))
def test_monte_carlo_equals_explicit_sequence_over_its_draws(kind, monkeypatch):
    # the harmonic series at the mean e^{i k phi} against Dx_last Dz(phi)
    # Dx_first averaged over the phases of the very (z0, vz) that the Monte
    # Carlo path drew
    spec = EnsembleSpec(sigma_z0=0.73e-3, t_axial=0.2e-3, n_samples=2 * ensemble._MC_BATCH + 100)
    weights = np.array([0.7, 0.0, 0.0, 0.3, 0.0])
    tau1 = np.linspace(0, 60e-6, 4)
    tau2 = 1.5 * tau1 if kind is SequenceKind.ECHO else np.zeros_like(tau1)
    draws = []
    phase = ensemble._phase

    def recording(field, kind, z0, vz, a, b):
        draws.append((z0, vz))
        return phase(field, kind, z0, vz, a, b)

    monkeypatch.setattr(ensemble, "_phase", recording)
    curve = ensemble_average_curve(
        ECHO_FIELD, spec, kind, tau1, tau2, Populations(weights), AverageMethod.MONTE_CARLO
    )
    assert len(draws) == 3  # one anchor per batch: the grid is affine
    z0, vz = (np.concatenate(d) for d in zip(*draws))
    assert z0.size == spec.n_samples
    for row, a, b in zip(curve, tau1, tau2):
        phis = phase(ECHO_FIELD, kind, z0, vz, a, b)
        expected = per_state_sum(
            weights, lambda state: single_atom_sequence(state, kind, phis).mean(axis=0)
        )
        np.testing.assert_allclose(row, expected, rtol=0, atol=1e-13)


def _harmonic_means(monkeypatch, field, spec, kind, tau1, tau2) -> np.ndarray:
    """The Monte Carlo means <z^k>, k = 1..4, per timing, read out through
    coefficients that give channel k Re(2 <z^k>) and channel 4 + k
    Re(-2i <z^k>) = 2 Im <z^k>."""
    readout = np.zeros((5, 9, 1), dtype=complex)
    readout[0, 0] = 1
    for k in range(1, 5):
        readout[k, k], readout[k, 4 + k] = 1, -1j
    monkeypatch.setattr(ensemble, "_phase_harmonics", lambda first, last, columns: readout)
    curve = ensemble_average_curve(
        field, spec, kind, tau1, tau2, PLUS2, AverageMethod.MONTE_CARLO
    )
    assert np.all(curve[:, 0] == 1.0)
    return (curve[:, 1:5] + 1j * curve[:, 5:]) / 2


@pytest.mark.parametrize("kind", list(SequenceKind))
def test_monte_carlo_power_sums_match_explicit_exponentials(kind, monkeypatch):
    # a 40 MHz carrier takes |phi| to 1.0e4 rad at a 40 us delay; three
    # batches, the last one partial; a grid that is not affine in its index,
    # so every timing takes its own exponential
    field = FieldConfig(omega0=TWO_PI * 40e6, b1=13.5 * MG_PER_MM)
    spec = EnsembleSpec(sigma_z0=0.73e-3, t_axial=0.2e-3, n_samples=2 * ensemble._MC_BATCH + 100)
    tau1 = np.array([0.0, 15e-6, 40e-6])
    tau2 = 2 * tau1 if kind is SequenceKind.ECHO else None
    drawn = []
    phase = ensemble._phase

    def recording(*args):
        drawn.append(phase(*args))
        return drawn[-1]

    monkeypatch.setattr(ensemble, "_phase", recording)
    means = _harmonic_means(monkeypatch, field, spec, kind, tau1, tau2)
    # Round-off, in units of u = 2^-53.  z = e^{i phi} is within 1 ulp <= 2u
    # per component, and a complex product adds at most sqrt(5) u (Brent,
    # Percival & Zimmermann, Math. Comp. 76, 1469 (2007)), so z^4 after three
    # multiplies is within 4 * 2u + 3 sqrt(5) u of e^{4 i phi}.  numpy sums a
    # batch pairwise, in blocks of at most 128 doubles with eight running
    # partial sums: a value passes through at most 16 + 3 additions in its
    # block and 8 more across a 16,384-sample batch.  Three batch sums and the
    # division by n_samples add 4 roundings.  The reference forms k phi
    # exactly in long double (k <= 4 needs 55 mantissa bits; x86-64 has 64)
    # and is good to about 1e-18.
    u = 2.0**-53
    bound = (4 * 2 + 3 * math.sqrt(5)) * u + (16 + 3 + 8 + 4) * u
    assert np.finfo(np.longdouble).nmant >= 54
    k = np.arange(1, 5)
    for t, row in enumerate(means):
        phis = np.concatenate(drawn[t :: tau1.size])  # batch-major: one call per batch and timing
        assert phis.size == spec.n_samples
        reference = np.exp(1j * np.multiply.outer(phis.astype(np.longdouble), k)).mean(axis=0)
        np.testing.assert_array_less(np.abs(row.real - reference.real.astype(float)), bound)
        np.testing.assert_array_less(np.abs(row.imag - reference.imag.astype(float)), bound)
    assert len(drawn) == 3 * tau1.size
    assert np.abs(drawn[tau1.size - 1]).max() > 1e4


@pytest.mark.parametrize("kind", list(SequenceKind))
def test_monte_carlo_recursion_power_sums_match_long_double_phases(kind, monkeypatch):
    # the affine twin of the test above: 40 timings of a linspace, so each
    # batch takes exponentials at its anchors, timings 0 and 32, and steps
    # the others by z_{j+1} = z_j r_j, r_{j+1} = r_j w
    field = FieldConfig(omega0=TWO_PI * 40e6, b1=13.5 * MG_PER_MM)
    spec = EnsembleSpec(sigma_z0=0.73e-3, t_axial=0.2e-3, n_samples=2 * ensemble._MC_BATCH + 100)
    tau1 = np.linspace(0.0, 40e-6, 40)
    tau2 = 2 * tau1 if kind is SequenceKind.ECHO else np.zeros_like(tau1)
    anchors = []
    phase = ensemble._phase

    def recording(field, kind, z0, vz, a, b):
        anchors.append((z0, vz, phase(field, kind, z0, vz, a, b)))
        return anchors[-1][2]

    monkeypatch.setattr(ensemble, "_phase", recording)
    means = _harmonic_means(monkeypatch, field, spec, kind, tau1, tau2)
    n, interval = tau1.size, ensemble._MC_ANCHOR
    assert len(anchors) == 3 * 2  # batch-major: timings 0 and 32 of each batch

    # The reference phase is the anchor's, plus the long-double change of
    # the phase of the same (z0, vz) from the anchor's timing to t_j.
    ld = np.longdouble

    def coefficients(t1, t2):
        return np.array(ensemble._phase_terms(field, kind, ld(t1), ld(t2)))

    def phase_of(c, z0, vz):
        return c[0] + c[1] * z0 + c[2] * vz

    h1, h2 = ((t[-1] - t[0]) / (n - 1) for t in (tau1, tau2))
    exact = [coefficients(a, b) for a, b in zip(tau1, tau2)]
    ideal = [coefficients(tau1[0] + j * ld(h1), tau2[0] + j * ld(h2)) for j in range(n)]
    reference = np.zeros((n, 4), dtype=np.clongdouble)
    dev = phi_max = 0.0
    for i, (z0, vz, anchor_phase) in enumerate(anchors):
        z0, vz, j0 = z0.astype(ld), vz.astype(ld), i % 2 * interval
        for j in range(j0, min(j0 + interval, n)):
            phi = anchor_phase + phase_of(exact[j] - exact[j0], z0, vz)
            z = np.exp(1j * phi)
            reference[j] += np.cumprod(np.broadcast_to(z, (4, z.size)), axis=0).sum(axis=1)
            dev = max(dev, float(np.abs(phase_of(exact[j] - ideal[j], z0, vz)).max()))
            phi_max = max(phi_max, float(np.abs(phi).max()))
    reference /= spec.n_samples
    z_max, v_max = (max(np.abs(a[c]).max() for a in anchors) for c in (0, 1))
    delta1, delta2 = (
        float(abs(d[0]) + abs(d[1]) * z_max + abs(d[2]) * v_max)
        for d in (ideal[1] - ideal[0], ideal[2] - 2 * ideal[1] + ideal[0])
    )
    # Round-off per sample, in units of u = 2^-53.  An exponential is within
    # 3u and a complex product adds at most sqrt(5) u, as above.  D1 and D2
    # are long-double differences of (a, g_z, g_v) along t_0 + j h, rounded
    # to double and combined with (z0, vz) in two products and two sums, so
    # each is within 4u Delta_i, Delta_i = |d_a| + |d_z z0| + |d_v vz|.  So
    # r_j, j products by w past r_0, is within 3u + 4u Delta_1
    # + j (3u + sqrt(5) u + 4u Delta_2) of e^{i (D1 + j D2)}, and z, at most
    # 31 products r_j (j <= n - 2) past its anchor, is within
    #   E = 3u + 31 (3u + sqrt(5) u + 4u Delta_1)
    #       + 31 (n - 2) (3u + sqrt(5) u + 4u Delta_2) + 2 dev + 2^-60 max|phi|
    # of the reference: the steps follow the phase at t_0 + j h, at most dev
    # from the phase at t_j, and the long-double phase and powers carry a few
    # roundings of 2^-64 |phi|.  z^4 is then within 4E + 3 sqrt(5) u, and the
    # sums add (16 + 3 + 8 + 4) u as above.  The carrier's step dominates:
    # the bound is about 2e-11, and the means are off by about 1e-13.
    u = 2.0**-53
    chain = 3 * u + math.sqrt(5) * u
    error = (
        3 * u
        + (interval - 1) * (chain + 4 * u * delta1)
        + (interval - 1) * (n - 2) * (chain + 4 * u * delta2)
        + 2 * dev
        + 2.0**-60 * phi_max
    )
    bound = 4 * error + 3 * math.sqrt(5) * u + (16 + 3 + 8 + 4) * u
    assert np.finfo(np.longdouble).nmant >= 63
    np.testing.assert_array_less(np.abs(means.real - reference.real.astype(float)), bound)
    np.testing.assert_array_less(np.abs(means.imag - reference.imag.astype(float)), bound)
    assert phi_max > 1e4


def test_monte_carlo_recursion_stays_near_exact_phases_over_a_long_grid():
    # 1,000 timings, so 32 anchors, while r_j = r_0 w^j runs the whole grid.
    # The echo's fixed tau1 puts the carrier 118 to 826 rad off zero, so the
    # steps are differences of coefficients that share their leading digits.
    # 1e-13 is the tolerance the ensemble docstring states between the
    # recursion and the exact path; this grid gives 1.3e-14, and 2.2e-13
    # without re-anchoring or 3.8e-13 with the differences taken in double.
    spec = EnsembleSpec(sigma_z0=0.73e-3, t_axial=0.2e-3, n_samples=4096, seed=3)
    initial = Populations([0.6, 0.0, 0.25, 0.0, 0.15])
    tau1, tau2 = np.full(1000, 50e-6), np.linspace(0.0, 400e-6, 1000)
    method = AverageMethod.MONTE_CARLO
    curve = ensemble_average_curve(
        RAMSEY_FIELD, spec, SequenceKind.ECHO, tau1, tau2, initial, method
    )
    exact = [
        ensemble_average(RAMSEY_FIELD, spec, SequenceKind.ECHO, a, b, initial, method).p
        for a, b in zip(tau1, tau2)
    ]
    np.testing.assert_allclose(curve, exact, rtol=0, atol=1e-13)


def _perturbed_linspace() -> np.ndarray:
    tau = np.linspace(0.0, 60e-6, 40)
    tau[17] *= 1 + 1e-9
    return tau


@pytest.mark.parametrize("kind", list(SequenceKind))
@pytest.mark.parametrize(
    "tau, anchors",
    [
        (np.array([20e-6]), 1),
        (np.array([0.0, 20e-6]), 2),
        (np.full(5, 20e-6), 1),
        (_perturbed_linspace(), 40),
    ],
    ids=["one-timing", "two-timings", "constant", "perturbed-linspace"],
)
def test_monte_carlo_grid_edges_equal_per_timing_averages(kind, tau, anchors, monkeypatch):
    # fewer than 3 timings, or one timing off the line by far more than
    # 4 eps max|t|, anchor every timing; a constant grid steps by r = w = 1
    spec = EnsembleSpec(sigma_z0=0.73e-3, t_axial=0.2e-3, n_samples=ensemble._MC_BATCH + 50, seed=7)
    initial = Populations([0.6, 0.0, 0.25, 0.0, 0.15])
    tau2 = 1.5 * tau if kind is SequenceKind.ECHO else np.zeros_like(tau)
    calls = []
    phase = ensemble._phase

    def counting(*args):
        calls.append(args)
        return phase(*args)

    monkeypatch.setattr(ensemble, "_phase", counting)
    curve = ensemble_average_curve(
        ECHO_FIELD, spec, kind, tau, tau2, initial, AverageMethod.MONTE_CARLO
    )
    assert len(calls) == 2 * anchors  # two batches
    monkeypatch.setattr(ensemble, "_phase", phase)
    for row, a, b in zip(curve, tau, tau2):
        single = ensemble_average(ECHO_FIELD, spec, kind, a, b, initial, AverageMethod.MONTE_CARLO)
        assert np.array_equal(row, single.p)


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
        single = ensemble_average(ECHO_FIELD, spec, kind, a, b, initial, AverageMethod.MONTE_CARLO)
        assert np.array_equal(row, single.p)


@pytest.mark.parametrize("method", list(AverageMethod))
@pytest.mark.parametrize("kind", list(SequenceKind))
def test_resonance_given_as_omega0_sets_the_carrier(kind, method):
    # the carrier is FieldConfig.resonance, so omega0 = gamma b0 stands for b0
    b1 = 4.5 * MG_PER_MM
    fields = (FieldConfig(b0=179e-7, b1=b1), FieldConfig(omega0=GAMMA * 179e-7, b1=b1))
    spec = EnsembleSpec(sigma_z0=0.73e-3, t_axial=0.2e-3, n_samples=5000, seed=3)
    tau1 = np.linspace(0.0, 60e-6, 7)
    tau2 = 1.5 * tau1 if kind is SequenceKind.ECHO else None
    initial = Populations([0.8, 0.0, 0.2, 0.0, 0.0])
    by_b0, by_omega0 = (
        ensemble_average_curve(f, spec, kind, tau1, tau2, initial, method) for f in fields
    )
    assert np.array_equal(by_b0, by_omega0)
