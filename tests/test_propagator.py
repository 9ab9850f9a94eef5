import math
import re
import tracemalloc

import numpy as np
import pytest

from scipy.integrate._ivp import dop853_coefficients

from oracles import ladder_cg_table, rf_populations
from spinorlab import propagator
from spinorlab.core import (
    ZEEMAN_M,
    Populations,
    build_spin_system,
    populations,
    zeeman_state,
)
from spinorlab.propagator import (
    FieldConfig,
    HamiltonianKind,
    HamiltonianSpec,
    NumericalError,
    evolve_populations,
    evolve_state,
    lab_frame_state,
    lightshift_from_scale,
    rotating_frame_state,
)
from spinorlab.rotations import rotation_population_curve, two_level_population
from spinorlab.stirap import StirapParams, simulate_stirap, stirap_trace

TWO_PI = 2 * math.pi
SYS2 = build_spin_system(2)


def resonant(f_res_khz: float, f_rabi_khz: float) -> FieldConfig:
    return FieldConfig(
        omega0=TWO_PI * f_res_khz * 1e3,
        omega_rf=TWO_PI * f_res_khz * 1e3,
        omega_rabi=TWO_PI * f_rabi_khz * 1e3,
    )


def test_field_config_validation():
    with pytest.raises(ValueError):
        FieldConfig(b0=-1e-4)
    for name in ("b0", "b1", "omega_rf", "omega_rabi", "omega0"):
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError, match=f"^{name} must be finite"):
                FieldConfig(**{name: bad})
    cfg = FieldConfig(b0=0.38e-4)
    assert cfg.resonance / (TWO_PI * 1e3) == pytest.approx(798, abs=5)  # ~800 kHz
    # b0 and omega0 are independent inputs; both may be supplied as-is
    cfg = FieldConfig(b0=0.38e-4, omega0=TWO_PI * 800e3)
    assert cfg.resonance == TWO_PI * 800e3


@pytest.mark.parametrize("kind", list(HamiltonianKind))
def test_mixture_runs_once_and_equals_weighted_per_state_runs(kind, monkeypatch):
    shifts = None
    if kind is HamiltonianKind.LAB_LIGHT_SHIFT:
        shifts = lightshift_from_scale(TWO_PI * 1e6)
    spec = HamiltonianSpec(kind, resonant(400, 95), light_shifts=shifts)
    times = np.linspace(0.0, 3e-6, 13)
    weights = np.array([0.5, 0.3, 0.0, 0.2, 0.0])
    per_state = sum(
        w * evolve_populations(zeeman_state(2, m), spec, times)
        for w, m in zip(weights, ZEEMAN_M)
        if w
    )
    blocks = []
    evolve = propagator._evolve

    def counting(spec, psi0, *args):
        blocks.append(psi0.shape)
        return evolve(spec, psi0, *args)

    monkeypatch.setattr(propagator, "_evolve", counting)
    mixed = evolve_populations(Populations(weights), spec, times)
    assert blocks == [(5, 3)]  # one run for the three basis states of nonzero weight
    assert np.max(np.abs(mixed - per_state)) < 1e-9


def test_spec_validation():
    cfg = resonant(800, 95)
    with pytest.raises(ValueError):
        HamiltonianSpec(HamiltonianKind.LAB_FULL, cfg, light_shifts=np.zeros(5))
    with pytest.raises(ValueError):
        HamiltonianSpec(HamiltonianKind.LAB_LIGHT_SHIFT, cfg)


def test_jz_eigenstate_is_stationary_without_drive():
    cfg = FieldConfig(omega0=TWO_PI * 800e3, omega_rf=TWO_PI * 800e3, omega_rabi=0.0)
    spec = HamiltonianSpec(HamiltonianKind.LAB_FULL, cfg)
    out = evolve_state(zeeman_state(2, 2), spec, 0.0, 30e-6)
    assert np.allclose(populations(out).p, [1, 0, 0, 0, 0], atol=1e-9)


def test_resonant_rwa_pi_pulse_inverts():
    omega = TWO_PI * 95e3
    spec = HamiltonianSpec(HamiltonianKind.ROT_RWA, resonant(800, 95))
    # theta = Omega t / 2 = pi at t = 2 pi / Omega (~10.5 us)
    out = evolve_state(zeeman_state(2, 2), spec, 0.0, TWO_PI / omega)
    assert np.max(np.abs(populations(out).p - [0, 0, 0, 0, 1])) < 1e-6


def test_lab_full_matches_rotating_frame_integration():
    cfg = resonant(242, 160)
    lab = HamiltonianSpec(HamiltonianKind.LAB_FULL, cfg)
    rot = HamiltonianSpec(HamiltonianKind.ROT_FULL, cfg)
    state = zeeman_state(2, 2)
    t1 = 18e-6
    psi_lab = evolve_state(state, lab, 0.0, t1)
    psi_rot = evolve_state(state, rot, 0.0, t1)
    back = lab_frame_state(psi_rot, cfg.omega_rf, t1)
    assert np.max(np.abs(psi_lab.amplitudes - back.amplitudes)) < 1e-6


def test_frame_transform_roundtrip_preserves_populations():
    state = zeeman_state(2, 1)
    rotated = rotating_frame_state(state, TWO_PI * 500e3, 3.7e-6)
    assert np.allclose(np.abs(rotated.amplitudes) ** 2, np.abs(state.amplitudes) ** 2)
    back = lab_frame_state(rotated, TWO_PI * 500e3, 3.7e-6)
    assert np.max(np.abs(back.amplitudes - state.amplitudes)) < 1e-12


def test_dop853_tableau_is_hairers():
    ref = dop853_coefficients
    assert np.array_equal(propagator._A, np.vstack((ref.A[:12, :12], ref.B)))
    assert np.array_equal(propagator._C, ref.C[:13])
    # the error weights on the 13th evaluation, f at the step's end, are zero
    assert ref.E5[12] == ref.E3[12] == 0
    assert np.array_equal(propagator._E, [ref.E5[:12], ref.E3[:12]])
    # order conditions: row sums give the nodes, the weights integrate c^k exactly
    b, c = propagator._A[12], propagator._C[:12]
    assert np.allclose(propagator._A.sum(axis=1), propagator._C, rtol=0, atol=1e-13)
    for k in range(8):
        assert b @ c**k == pytest.approx(1 / (k + 1), abs=1e-14), k
    assert np.allclose(propagator._E.sum(axis=1), 0, rtol=0, atol=1e-14)


@pytest.mark.parametrize("solve", ["rf", "stirap"])
def test_step_budget_overrun_names_the_budget_and_t(solve, monkeypatch):
    # the 242 kHz drive takes 51 steps over its window and a STIRAP chain
    # 863, so a budget of 16 steps stops both part way
    monkeypatch.setattr(propagator, "_STEP_BUDGET", 16)
    with pytest.raises(NumericalError) as info:
        if solve == "rf":
            spec = HamiltonianSpec(HamiltonianKind.LAB_FULL, resonant(242, 160))
            evolve_state(zeeman_state(2, 2), spec, 0.0, 10e-6)
        else:
            simulate_stirap(StirapParams(TWO_PI * 40e6, 0.55e-6, 0.7e-6, detuning=TWO_PI * 20e6))
    message = re.fullmatch(r"step budget of 16 steps exhausted at t = (\S+) s", str(info.value))
    assert message, str(info.value)
    start = 0.0 if solve == "rf" else -4 * 0.55e-6
    assert start < float(message.group(1)) < start + 10e-6


def test_step_below_what_t_resolves_names_the_step_and_t():
    # the frequency jumps from 1 to 1e12 rad/s at t = 0.5 s: no step across
    # the jump passes the error test, and the rejected steps shrink below
    # ten ulps of t, which the accepted steps leave just below 0.5
    def generators(times, h):
        omega = np.where(np.atleast_1d(times) < 0.5, 1.0, 1e12)
        return (-1j * h * omega)[:, None, None, None]

    with pytest.raises(NumericalError) as info:
        propagator._dop853(generators, np.ones((1, 1, 1), complex), 0.0, [1.0])
    message = re.fullmatch(r"integration failed: step below (\S+) s at t = (\S+) s", str(info.value))
    assert message, str(info.value)
    assert float(message.group(1)) == pytest.approx(10 * math.ulp(0.49), rel=1e-2)
    assert float(message.group(2)) == pytest.approx(0.5, abs=1e-9)


@pytest.mark.parametrize("solve", ["rf", "stirap"])
def test_stops_past_the_budget_still_solve(solve, monkeypatch):
    # 4,096 sample times against a budget of 1,024 steps: a sample inside a
    # step is a short step from that step's start and costs no step of its own
    def run():
        if solve == "rf":
            spec = HamiltonianSpec(HamiltonianKind.LAB_FULL, resonant(242, 160))
            return evolve_populations(zeeman_state(2, 2), spec, np.linspace(0.0, 10e-6, 4096))
        params = StirapParams(TWO_PI * 40e6, 0.55e-6, 0.7e-6, detuning=TWO_PI * 20e6)
        return stirap_trace(params, 4096)[1]

    unbounded = run()
    monkeypatch.setattr(propagator, "_STEP_BUDGET", 1024)
    assert np.array_equal(run(), unbounded)


@pytest.mark.parametrize("f_res_khz, f_rabi_khz", [(400, 95), (242, 160), (208, 95)])
def test_four_hundred_periods_keep_unit_norm(f_res_khz, f_rabi_khz):
    # U(T)^400 multiplies U(T)'s own drift from unitarity by up to 400, so the
    # window is stepped again at a tighter rtol; its first three periods
    # still match the oracle
    cfg = resonant(f_res_khz, f_rabi_khz)
    spec = HamiltonianSpec(HamiltonianKind.LAB_FULL, cfg)
    period = TWO_PI / cfg.omega_rf
    times = np.linspace(0.0, 400 * period, 1601)
    got = evolve_populations(Populations([0.7, 0, 0.3, 0, 0]), spec, times)
    assert np.max(np.abs(got.sum(axis=1) - 1)) < 1e-10
    early = times[:13]
    columns = np.eye(5)[:, [0, 2]]
    oracle = rf_populations("lab-full", cfg.resonance, cfg.omega_rf, cfg.omega_rabi, None, columns, early)
    assert np.max(np.abs(got[:13] - oracle @ [0.7, 0.3])) < 1e-10


def test_slow_drive_keeps_the_cone_angle_about_the_field():
    # 1 kHz RF on an 800 kHz resonance over two drive periods: the one
    # window takes 17,061 steps, a quarter of _STEP_BUDGET.  The field axis turns
    # adiabatically (turn rate over Larmor frequency ~1.5e-4), so |+2>
    # keeps its cone angle atan(Omega / w0) about the field.  Where the
    # drive passes zero the field is along z, and the populations are those
    # of a rotation by that angle.
    cfg = FieldConfig(omega0=TWO_PI * 800e3, omega_rf=TWO_PI * 1e3, omega_rabi=TWO_PI * 95e3)
    spec = HamiltonianSpec(HamiltonianKind.LAB_FULL, cfg)
    times = np.linspace(0.0, 2e-3, 41)
    pops = evolve_populations(Populations([1.0, 0, 0, 0, 0]), spec, times)
    quarter_periods = pops[[5, 15, 25, 35]]  # t = 0.25, 0.75, 1.25, 1.75 ms
    cone = rotation_population_curve(2, math.atan(95 / 800))
    assert np.max(np.abs(quarter_periods - cone)) < 1e-4


# frame of the oracle and the period of H in units of pi / w
ORACLE_FRAMES = {
    HamiltonianKind.LAB_FULL: ("lab-full", 2),
    HamiltonianKind.ROT_FULL: ("rot-full", 1),
    HamiltonianKind.LAB_LIGHT_SHIFT: ("lab-light-shift", 2),
}


@pytest.mark.parametrize("t0", [0.0, 1.37e-6])
@pytest.mark.parametrize("kind", list(ORACLE_FRAMES))
def test_one_period_rule_matches_runge_kutta_oracle(kind, t0):
    shifts = None
    if kind is HamiltonianKind.LAB_LIGHT_SHIFT:
        shifts = lightshift_from_scale(TWO_PI * 0.5e6)
    cfg = FieldConfig(omega0=TWO_PI * 208e3, omega_rf=TWO_PI * 200e3, omega_rabi=TWO_PI * 95e3)
    spec = HamiltonianSpec(kind, cfg, light_shifts=shifts)
    frame, turns = ORACLE_FRAMES[kind]
    period = turns * math.pi / cfg.omega_rf
    multiples = t0 + period * np.arange(1, 4)
    times = np.sort(
        np.concatenate(
            [
                np.linspace(t0, t0 + 3.4 * period, 23),  # a non-integer number of periods
                multiples,
                np.nextafter(multiples, 0),
                np.nextafter(multiples, np.inf),
                [t0, t0 + 1.5 * period, t0 + 1.5 * period],  # repeated times
            ]
        )
    )
    weights = np.array([0.5, 0.3, 0.0, 0.2, 0.0])
    columns = np.eye(5)[:, weights > 0]
    oracle = rf_populations(frame, cfg.resonance, cfg.omega_rf, cfg.omega_rabi, shifts, columns, times)
    expected = oracle @ weights[weights > 0]
    got = evolve_populations(Populations(weights), spec, times)
    assert np.max(np.abs(got - expected)) < 1e-8
    short = times < t0 + 0.6 * period  # a trace shorter than a period is its own window
    got = evolve_populations(Populations(weights), spec, times[short])
    assert np.max(np.abs(got - expected[short])) < 1e-8


def test_long_lab_trace_matches_runge_kutta_oracle():
    # the benchmark's long lab-frame shape: 16 drive periods, 400 distinct
    # sample phases, each a short step from the window's step it falls in
    cfg = FieldConfig(omega0=TWO_PI * 800e3, omega_rf=TWO_PI * 800e3, omega_rabi=TWO_PI * 95.5e3)
    spec = HamiltonianSpec(HamiltonianKind.LAB_FULL, cfg)
    times = np.linspace(0.0, 20e-6, 400)
    oracle = rf_populations(
        "lab-full", cfg.resonance, cfg.omega_rf, cfg.omega_rabi, None, np.eye(5)[:, :1], times
    )
    got = evolve_populations(zeeman_state(2, 2), spec, times)
    assert np.max(np.abs(got - oracle[:, :, 0])) < 1e-10


@pytest.mark.parametrize(
    "kind, cfg, rate",
    [
        # H = (Omega/2) Jx turns by theta = Omega t / 2
        (HamiltonianKind.ROT_RWA, resonant(800, 95), 0.5),
        # without a drive frequency the lab frame is static: H = Omega Jx
        (HamiltonianKind.LAB_FULL, FieldConfig(omega0=0.0, omega_rabi=TWO_PI * 95e3), 1.0),
    ],
)
def test_static_frames_match_closed_form_rotation(kind, cfg, rate):
    t0 = 2.5e-6
    times = t0 + np.sort(np.random.default_rng(5).uniform(0.0, 40e-6, 50))
    times[0] = t0
    weights = np.array([0.1, 0.4, 0.2, 0.0, 0.3])
    got = evolve_populations(Populations(weights), HamiltonianSpec(kind, cfg), times)
    theta = rate * cfg.omega_rabi * (times - t0)
    closed = sum(w * rotation_population_curve(m, theta) for w, m in zip(weights, ZEEMAN_M))
    assert np.max(np.abs(got - closed)) < 1e-12


def test_light_shift_trace_keeps_temporaries_bounded():
    # the two-level shape keeps U only at its 120 sample phases and the
    # window's end; a stored (steps, 5, 5) history would grow with the steps
    spec = HamiltonianSpec(
        HamiltonianKind.LAB_LIGHT_SHIFT,
        resonant(800, 95),
        light_shifts=lightshift_from_scale(TWO_PI * 1e6),
    )
    times = np.linspace(0.0, 12e-6, 120)
    tracemalloc.start()
    try:
        evolve_populations(zeeman_state(2, 2), spec, times)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2e6


def test_zero_hamiltonian_is_static():
    cfg = FieldConfig()
    spec = HamiltonianSpec(HamiltonianKind.LAB_FULL, cfg)
    out = evolve_state(zeeman_state(2, 1), spec, 0.0, 1e-6)
    assert np.allclose(out.amplitudes, zeeman_state(2, 1).amplitudes)


def test_nonfinite_inputs_rejected():
    with pytest.raises(ValueError):
        FieldConfig(omega_rf=float("inf"))
    with pytest.raises(ValueError):
        HamiltonianSpec(
            HamiltonianKind.LAB_LIGHT_SHIFT,
            resonant(800, 90),
            light_shifts=np.array([0, 0, np.nan, 0, 0]),
        )


@pytest.mark.parametrize("ratio", [8.0, 12.0])
def test_rwa_deviation_bounded_by_frequency_ratio(ratio):
    f0 = 800e3
    cfg = FieldConfig(
        omega0=TWO_PI * f0, omega_rf=TWO_PI * f0, omega_rabi=TWO_PI * f0 / ratio
    )
    lab = HamiltonianSpec(HamiltonianKind.LAB_FULL, cfg)
    rwa = HamiltonianSpec(HamiltonianKind.ROT_RWA, cfg)
    times = np.linspace(0.0, 2 * TWO_PI / cfg.omega_rabi, 301)  # one population period
    state = zeeman_state(2, 2)
    p_lab = evolve_populations(state, lab, times)
    p_rwa = evolve_populations(state, rwa, times)
    assert np.max(np.abs(p_lab - p_rwa)) < 1 / ratio


def test_mean_spin_quarter_turn_convention():
    # resonant RWA: <J> precesses about +x, taking +z toward -y
    cfg = resonant(800, 100)
    spec = HamiltonianSpec(HamiltonianKind.ROT_RWA, cfg)
    t_quarter = (math.pi / 2) / (0.5 * cfg.omega_rabi)
    psi = evolve_state(zeeman_state(2, 2), spec, 0.0, t_quarter).amplitudes
    mean_spin = [np.vdot(psi, op @ psi).real for op in (SYS2.jx, SYS2.jy, SYS2.jz)]
    assert np.allclose(mean_spin, [0, -2, 0], rtol=0, atol=1e-8)


@pytest.mark.parametrize("rabi", [float("inf"), float("nan")])
def test_rejects_nonfinite_field(rabi):
    # a non-finite field value is rejected where it is given ...
    with pytest.raises(ValueError, match="^omega_rabi must be finite"):
        FieldConfig(omega0=TWO_PI * 242e3, omega_rf=TWO_PI * 242e3, omega_rabi=rabi)
    # ... and a Hamiltonian that overflows from finite values when it is built
    cfg = FieldConfig(omega0=1e308, omega_rf=-1e308, omega_rabi=1.0)
    spec = HamiltonianSpec(HamiltonianKind.ROT_FULL, cfg)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericalError, match="non-finite"):
            evolve_populations(zeeman_state(2, 2), spec, [0.0, 1e-6])


def test_lightshift_selection_rules_and_ratios():
    shifts = lightshift_from_scale(TWO_PI * 1e6)
    assert shifts[0] == 0.0 and shifts[1] == 0.0  # m=+2, +1 untouched
    assert np.all(shifts[2:] < 0)  # red detuned
    # ratios against the ladder-construction CG oracle
    table = ladder_cg_table(2, 1)
    oracle = np.array([table.get((m, 1, 1, m + 1), 0.0) ** 2 for m in (0, -1, -2)])
    got = shifts[2:]
    assert np.allclose(got / got[0], oracle / oracle[0], atol=1e-12)


def test_lightshift_from_scale_weights():
    scale = TWO_PI * 1e6
    shifts = lightshift_from_scale(scale)
    assert np.allclose(shifts / scale, [0, 0, -1, -3, -6], atol=1e-12)


def test_two_level_reduction_with_light_shifts():
    omega = TWO_PI * 90e3
    cfg = FieldConfig(omega0=TWO_PI * 800e3, omega_rf=TWO_PI * 800e3, omega_rabi=omega)
    spec = HamiltonianSpec(
        HamiltonianKind.LAB_LIGHT_SHIFT,
        cfg,
        light_shifts=lightshift_from_scale(TWO_PI * 1e6),
    )
    times = np.linspace(0.0, 20e-6, 401)
    traces = evolve_populations(zeeman_state(2, 2), spec, times)
    leakage = traces[:, 2:].sum(axis=1)
    assert leakage.max() < 0.05
    closed = np.array([two_level_population(t, omega, 1.0, 0.0)[0] for t in times])
    rms = np.sqrt(np.mean((traces[:, 0] - closed) ** 2))
    assert rms < 0.02
