import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import uniform_phase_average
from spinorlab.core import StateVector, build_spin_system, populations, zeeman_state
from spinorlab.rotations import (
    RotationAxis,
    equilibrium_populations,
    rotation_operator,
    rotation_population_curve,
    two_level_population,
)

SYS2 = build_spin_system(2)
KHZ = 2 * math.pi * 1e3

angles = st.floats(-4 * math.pi, 4 * math.pi, allow_nan=False)


def test_zero_angle_is_identity():
    for axis in RotationAxis:
        assert np.allclose(rotation_operator(SYS2, axis, 0.0), np.eye(5), atol=1e-14)


def test_pi_rotation_inverts_stretched_state():
    d = rotation_operator(SYS2, RotationAxis.X, math.pi)
    p = populations(StateVector(d @ zeeman_state(2, 2).amplitudes)).p
    assert np.allclose(p, [0, 0, 0, 0, 1], atol=1e-12)


def test_half_pi_rotation_of_stretched_state():
    d = rotation_operator(SYS2, RotationAxis.X, math.pi / 2)
    p = populations(StateVector(d @ zeeman_state(2, 2).amplitudes)).p
    assert np.allclose(p, [1 / 16, 1 / 4, 3 / 8, 1 / 4, 1 / 16], atol=1e-12)


@given(angles)
@settings(max_examples=60, deadline=None)
def test_rotation_is_unitary(theta):
    d = rotation_operator(SYS2, RotationAxis.X, theta)
    assert np.max(np.abs(d @ d.conj().T - np.eye(5))) < 1e-12


@given(angles, angles)
@settings(max_examples=60, deadline=None)
def test_rotations_compose(a, b):
    da = rotation_operator(SYS2, RotationAxis.X, a)
    db = rotation_operator(SYS2, RotationAxis.X, b)
    dab = rotation_operator(SYS2, RotationAxis.X, a + b)
    assert np.max(np.abs(da @ db - dab)) < 1e-10


def test_periodicity_integer_and_half_integer_spin():
    theta = 0.37
    d2 = rotation_operator(SYS2, RotationAxis.X, theta)
    d2_shift = rotation_operator(SYS2, RotationAxis.X, theta + 2 * math.pi)
    assert np.max(np.abs(d2 - d2_shift)) < 1e-10

    sys32 = build_spin_system(1.5)
    d = rotation_operator(sys32, RotationAxis.X, theta)
    d_2pi = rotation_operator(sys32, RotationAxis.X, theta + 2 * math.pi)
    d_4pi = rotation_operator(sys32, RotationAxis.X, theta + 4 * math.pi)
    assert np.max(np.abs(d + d_2pi)) < 1e-10  # spinor sign flip
    assert np.max(np.abs(d - d_4pi)) < 1e-10


@pytest.mark.parametrize("initial_m", [2, 1, 0, -1, -2])
def test_closed_forms_match_matrix_rotation(initial_m):
    thetas = np.linspace(0, 4 * math.pi, 401)
    closed = rotation_population_curve(initial_m, thetas)
    ops = rotation_operator(SYS2, RotationAxis.X, thetas)
    amps = ops @ zeeman_state(2, initial_m).amplitudes
    exact = np.abs(amps) ** 2
    assert np.max(np.abs(closed - exact)) < 1e-10
    assert np.max(np.abs(closed.sum(axis=1) - 1)) < 1e-12


@pytest.mark.parametrize("axis", list(RotationAxis))
def test_array_of_angles_is_the_stack_of_scalar_calls(axis):
    thetas = np.linspace(-4 * math.pi, 4 * math.pi, 36).reshape(4, 9)
    stack = rotation_operator(SYS2, axis, thetas)
    assert stack.shape == (4, 9, 5, 5)
    singles = [[rotation_operator(SYS2, axis, t) for t in row] for row in thetas]
    assert np.array_equal(stack, np.array(singles))


def test_z_rotation_is_exactly_diagonal_and_takes_an_angle():
    d = rotation_operator(SYS2, RotationAxis.Z, 0.7)
    assert np.array_equal(d, np.diag(np.diag(d)))
    assert np.array_equal(np.diag(d), np.exp(-1j * 0.7 * SYS2.m_values))


def test_closed_form_spot_values():
    assert rotation_population_curve(2, math.pi / 2)[2] == pytest.approx(3 / 8, abs=1e-14)
    # (1 + 3 cos(pi))^2 / 16 = 1/4
    assert rotation_population_curve(0, math.pi / 2)[2] == pytest.approx(1 / 4, abs=1e-14)
    assert np.allclose(rotation_population_curve(1, 0.0), [0, 1, 0, 0, 0], atol=1e-14)


@given(angles)
@settings(max_examples=40, deadline=None)
def test_reflection_symmetry(theta):
    for m0 in (1, 2):
        direct = rotation_population_curve(m0, theta)
        mirrored = rotation_population_curve(-m0, theta)[::-1]
        assert np.max(np.abs(direct - mirrored)) < 1e-12


def test_rejects_unknown_initial_level():
    with pytest.raises(ValueError):
        rotation_population_curve(3, 0.1)


def test_two_level_oscillation():
    omega = 90 * KHZ
    p2, p1 = two_level_population(0.0, omega, 0.97, 0.03)
    assert p2 == pytest.approx(0.97)
    # half period, maximum transfer: t = pi / Omega ~ 5.56 us
    p2, p1 = two_level_population(math.pi / omega, omega, 0.97, 0.03)
    assert p2 == pytest.approx(0.03, abs=1e-12)
    assert p1 == pytest.approx(0.97, abs=1e-12)
    p2, _ = two_level_population(2 * math.pi / omega, omega, 1.0, 0.0)
    assert p2 == pytest.approx(1.0, abs=1e-12)


def test_two_level_rejects_bad_populations():
    with pytest.raises(ValueError):
        two_level_population(0.0, KHZ, -0.1, 0.5)
    with pytest.raises(ValueError):
        two_level_population(0.0, KHZ, 0.8, 0.3)


def test_equilibrium_populations_spin2():
    p = equilibrium_populations(SYS2).p
    assert np.allclose(p, [35 / 128, 5 / 32, 9 / 64, 5 / 32, 35 / 128], atol=1e-15)
    assert p.sum() == pytest.approx(1.0, abs=1e-12)


def test_equilibrium_populations_spin_half():
    p = equilibrium_populations(build_spin_system(0.5)).p
    assert np.allclose(p, [0.5, 0.5], atol=1e-12)


@pytest.mark.parametrize("j", [0.5, 1.0, 1.5, 2.0])
def test_equilibrium_matches_phase_grid_average(j):
    sys = build_spin_system(j)
    dx = rotation_operator(sys, RotationAxis.X, math.pi / 2)
    e_top = np.zeros(sys.dim, complex)
    e_top[0] = 1.0
    expected = uniform_phase_average(dx, sys.m_values, e_top)
    assert np.allclose(equilibrium_populations(sys).p, expected, atol=1e-12)
