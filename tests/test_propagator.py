import math
import re

import numpy as np
import pytest

from oracles import ladder_cg_table
from spinorlab import propagator
from spinorlab.core import ZEEMAN_M, Populations, build_spin_system, populations, zeeman_state
from spinorlab.propagator import (
    ClassicalSpin,
    FieldConfig,
    HamiltonianKind,
    HamiltonianSpec,
    NumericalError,
    evolve_classical,
    evolve_populations,
    evolve_state,
    lab_frame_state,
    lightshift_from_scale,
    lightshift_vector,
    rotating_frame_state,
)
from spinorlab.rotations import two_level_population

TWO_PI = 2 * math.pi
SYS2 = build_spin_system(2)


def resonant(f_res_khz: float, f_rabi_khz: float) -> FieldConfig:
    return FieldConfig(
        omega0=TWO_PI * f_res_khz * 1e3,
        omega_rf=TWO_PI * f_res_khz * 1e3,
        omega_rabi=TWO_PI * f_rabi_khz * 1e3,
    )


def test_field_config_validation():
    gamma = FieldConfig().constants.gamma
    with pytest.raises(ValueError):
        FieldConfig(b0=-1e-4)
    for name in ("b0", "b1", "omega_rf", "omega_rabi", "b_rf", "omega0"):
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError, match=f"^{name} must be finite"):
                FieldConfig(**{name: bad})
    with pytest.raises(ValueError):
        FieldConfig(omega_rabi=1.0, b_rf=1.0)  # wildly inconsistent pair
    cfg = FieldConfig(b_rf=2e-7)
    assert cfg.rabi == pytest.approx(gamma * 2e-7)
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
    tol = 1e-9
    per_state = sum(
        w * evolve_populations(zeeman_state(2, m), spec, times, tol)
        for w, m in zip(weights, ZEEMAN_M)
        if w
    )
    blocks = []
    evolve = propagator._evolve

    def counting(spec, ops, psi0, *args):
        blocks.append(psi0.shape)
        return evolve(spec, ops, psi0, *args)

    monkeypatch.setattr(propagator, "_evolve", counting)
    mixed = evolve_populations(Populations(weights), spec, times, tol)
    assert blocks == [(5, 3)]  # one run for the three basis states of nonzero weight
    assert np.max(np.abs(mixed - per_state)) < tol


def test_spec_validation():
    cfg = resonant(800, 95)
    with pytest.raises(ValueError):
        HamiltonianSpec(HamiltonianKind.LAB_FULL, cfg, light_shifts=np.zeros(5))
    with pytest.raises(ValueError):
        HamiltonianSpec(HamiltonianKind.LAB_LIGHT_SHIFT, cfg)


def test_jz_eigenstate_is_stationary_without_drive():
    cfg = FieldConfig(omega0=TWO_PI * 800e3, omega_rf=TWO_PI * 800e3, omega_rabi=0.0)
    spec = HamiltonianSpec(HamiltonianKind.LAB_FULL, cfg)
    out = evolve_state(zeeman_state(2, 2), spec, 0.0, 30e-6, tol=1e-9)
    assert np.allclose(populations(out).p, [1, 0, 0, 0, 0], atol=1e-9)


def test_resonant_rwa_pi_pulse_inverts():
    omega = TWO_PI * 95e3
    spec = HamiltonianSpec(HamiltonianKind.ROT_RWA, resonant(800, 95))
    # theta = Omega t / 2 = pi at t = 2 pi / Omega (~10.5 us)
    out = evolve_state(zeeman_state(2, 2), spec, 0.0, TWO_PI / omega, tol=1e-10)
    assert np.max(np.abs(populations(out).p - [0, 0, 0, 0, 1])) < 1e-6


def test_lab_full_matches_rotating_frame_integration():
    cfg = resonant(242, 160)
    lab = HamiltonianSpec(HamiltonianKind.LAB_FULL, cfg)
    rot = HamiltonianSpec(HamiltonianKind.ROT_FULL, cfg)
    state = zeeman_state(2, 2)
    t1 = 18e-6
    psi_lab = evolve_state(state, lab, 0.0, t1, tol=1e-9)
    psi_rot = evolve_state(state, rot, 0.0, t1, tol=1e-9)
    back = lab_frame_state(psi_rot, cfg.omega_rf, t1)
    assert np.max(np.abs(psi_lab.amplitudes - back.amplitudes)) < 1e-6


def test_frame_transform_roundtrip_preserves_populations():
    state = zeeman_state(2, 1)
    rotated = rotating_frame_state(state, TWO_PI * 500e3, 3.7e-6)
    assert np.allclose(np.abs(rotated.amplitudes) ** 2, np.abs(state.amplitudes) ** 2)
    back = lab_frame_state(rotated, TWO_PI * 500e3, 3.7e-6)
    assert np.max(np.abs(back.amplitudes - state.amplitudes)) < 1e-12


def test_step_halving_convergence():
    spec = HamiltonianSpec(HamiltonianKind.LAB_FULL, resonant(242, 160))
    state = zeeman_state(2, 2)
    loose = evolve_state(state, spec, 0.0, 10e-6, tol=1e-6)
    tight = evolve_state(state, spec, 0.0, 10e-6, tol=1e-10)
    assert np.max(np.abs(populations(loose).p - populations(tight).p)) < 1e-6
    assert abs(loose.norm() - 1) < 1e-9


def test_unreachable_tol_names_last_step_and_change():
    # the fastest ROT_RWA scale is Omega, so the base step is
    # 0.01 * 2 pi / Omega and the 14th halving ends at base / 2**14; a spin
    # 1/2 over one base step keeps the 2**15 - 1 steps under a second
    spec = HamiltonianSpec(HamiltonianKind.ROT_RWA, resonant(242, 160))
    base = 0.01 / 160e3
    with pytest.raises(NumericalError) as info:
        evolve_state(zeeman_state(0.5, 0.5), spec, 0.0, base, tol=1e-30)
    message = str(info.value)
    assert f"step {base / 2**14:.3g} s" in message
    change = re.search(r"last change (\S+) against tol 1e-30", message)
    assert change and float(change.group(1)) >= 1e-30


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
    times = np.linspace(0.0, 2 * TWO_PI / cfg.rabi, 301)  # one population period
    state = zeeman_state(2, 2)
    p_lab = evolve_populations(state, lab, times, tol=1e-7)
    p_rwa = evolve_populations(state, rwa, times, tol=1e-9)
    assert np.max(np.abs(p_lab - p_rwa)) < 1 / ratio


def test_classical_static_in_rotating_frame_without_drive():
    cfg = FieldConfig(omega0=TWO_PI * 300e3, omega_rf=TWO_PI * 300e3, omega_rabi=0.0)
    spec = HamiltonianSpec(HamiltonianKind.ROT_RWA, cfg)
    spun = evolve_classical(ClassicalSpin(0.3, -0.4, 1.9), spec, 0.0, 20e-6, tol=1e-10)
    assert np.allclose(spun.vector, [0.3, -0.4, 1.9], atol=1e-9)


def test_classical_quarter_turn_convention():
    # resonant RWA: J precesses about +x, taking +z toward -y
    cfg = resonant(800, 100)
    spec = HamiltonianSpec(HamiltonianKind.ROT_RWA, cfg)
    t_quarter = (math.pi / 2) / (0.5 * cfg.rabi)
    spun = evolve_classical(ClassicalSpin(0, 0, 2), spec, 0.0, t_quarter, tol=1e-10)
    assert np.allclose(spun.vector, [0, -2, 0], atol=1e-8)
    assert spun.magnitude() == pytest.approx(2.0, abs=1e-12)


@pytest.mark.parametrize(
    "kind", [HamiltonianKind.LAB_FULL, HamiltonianKind.ROT_FULL, HamiltonianKind.ROT_RWA]
)
def test_quantum_classical_correspondence(kind):
    cfg = resonant(242, 160)
    spec = HamiltonianSpec(kind, cfg)
    state = zeeman_state(2, 2)
    for t1 in (2e-6, 5e-6, 9e-6):
        psi = evolve_state(state, spec, 0.0, t1, tol=1e-10)
        j_quantum = np.array(
            [
                np.vdot(psi.amplitudes, op @ psi.amplitudes).real
                for op in (SYS2.jx, SYS2.jy, SYS2.jz)
            ]
        )
        spun = evolve_classical(ClassicalSpin(0, 0, 2), spec, 0.0, t1, tol=1e-10)
        assert np.max(np.abs(j_quantum - spun.vector)) < 1e-6


def test_cartesian_generators_turn_schrodinger_into_torque():
    lx, ly, lz = propagator._CARTESIAN
    for a, b, c in ((lx, ly, lz), (ly, lz, lx), (lz, lx, ly)):
        assert np.allclose(a @ b - b @ a, 1j * c, atol=1e-15)
    assert np.allclose(lx @ lx + ly @ ly + lz @ lz, 2 * np.eye(3), atol=1e-15)
    rng = np.random.default_rng(3)
    for _ in range(20):
        b, j = rng.normal(size=3), rng.normal(size=3)
        generator = b[0] * lx + b[1] * ly + b[2] * lz
        assert np.allclose(-1j * generator @ j, np.cross(b, j), rtol=0, atol=1e-14)


@pytest.mark.parametrize("rabi", [float("inf"), float("nan")])
def test_classical_rejects_nonfinite_field(rabi):
    # a non-finite field value is rejected where it is given ...
    with pytest.raises(ValueError, match="^omega_rabi must be finite"):
        FieldConfig(omega0=TWO_PI * 242e3, omega_rf=TWO_PI * 242e3, omega_rabi=rabi)
    # ... and a Hamiltonian that overflows from finite values when it is built
    cfg = FieldConfig(omega0=1e308, omega_rf=-1e308, omega_rabi=1.0)
    spec = HamiltonianSpec(HamiltonianKind.ROT_FULL, cfg)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericalError, match="non-finite"):
            evolve_classical(ClassicalSpin(0, 0, 2), spec, 0.0, 1e-6)


def test_classical_rejects_nonlinear_hamiltonians():
    spec = HamiltonianSpec(
        HamiltonianKind.LAB_LIGHT_SHIFT,
        resonant(800, 90),
        light_shifts=lightshift_from_scale(TWO_PI * 1e6),
    )
    with pytest.raises(ValueError):
        evolve_classical(ClassicalSpin(0, 0, 2), spec, 0.0, 1e-6)


def test_lightshift_selection_rules_and_ratios():
    shifts = lightshift_vector(TWO_PI * 5e6, -TWO_PI * 130e6)
    assert shifts[0] == 0.0 and shifts[1] == 0.0  # m=+2, +1 untouched
    flipped = lightshift_vector(TWO_PI * 5e6, TWO_PI * 130e6)
    assert np.allclose(flipped, -shifts)
    # ratios against the ladder-construction CG oracle
    table = ladder_cg_table(2, 1)
    oracle = np.array([table.get((m, 1, 1, m + 1), 0.0) ** 2 for m in (0, -1, -2)])
    got = shifts[2:]
    assert np.allclose(got / got[0], oracle / oracle[0], atol=1e-12)


def test_lightshift_rejects_zero_detuning():
    with pytest.raises(ValueError):
        lightshift_vector(TWO_PI * 1e6, 0.0)


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
    traces = evolve_populations(zeeman_state(2, 2), spec, times, tol=1e-7)
    leakage = traces[:, 2:].sum(axis=1)
    assert leakage.max() < 0.05
    closed = np.array([two_level_population(t, omega, 1.0, 0.0)[0] for t in times])
    rms = np.sqrt(np.mean((traces[:, 0] - closed) ** 2))
    assert rms < 0.02
