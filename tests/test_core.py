import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinorlab.core import (
    CONSTANTS,
    PhysicalConstants,
    Populations,
    StateVector,
    build_spin_system,
    mixture_columns,
    populations,
    zeeman_state,
)
from spinorlab.stirap import chain_to_zeeman_populations, dark_state

SPINS = [0.5, 1.0, 1.5, 2.0, 2.5]


def test_spin_half_is_pauli_over_two():
    sys = build_spin_system(0.5)
    assert np.allclose(sys.jx, np.array([[0, 0.5], [0.5, 0]]))
    assert np.allclose(sys.jy, np.array([[0, -0.5j], [0.5j, 0]]))
    assert np.allclose(sys.jz, np.diag([0.5, -0.5]))


def test_spin_two_jz_is_descending_diagonal():
    sys = build_spin_system(2)
    assert np.allclose(np.diag(sys.jz), [2, 1, 0, -1, -2])
    assert sys.dim == 5


def test_spin_two_casimir():
    sys = build_spin_system(2)
    total = sys.jx @ sys.jx + sys.jy @ sys.jy + sys.jz @ sys.jz
    assert np.allclose(total, 2 * 3 * np.eye(5), atol=1e-12)


@pytest.mark.parametrize("j", SPINS)
def test_commutators_and_casimir(j):
    sys = build_spin_system(j)
    i = 1j
    assert np.max(np.abs(sys.jx @ sys.jy - sys.jy @ sys.jx - i * sys.jz)) < 1e-12
    assert np.max(np.abs(sys.jy @ sys.jz - sys.jz @ sys.jy - i * sys.jx)) < 1e-12
    assert np.max(np.abs(sys.jz @ sys.jx - sys.jx @ sys.jz - i * sys.jy)) < 1e-12
    casimir = sys.jx @ sys.jx + sys.jy @ sys.jy + sys.jz @ sys.jz
    assert np.max(np.abs(casimir - j * (j + 1) * np.eye(sys.dim))) < 1e-12
    for op in (sys.jx, sys.jy, sys.jz):
        assert np.max(np.abs(op - op.conj().T)) < 1e-12


@pytest.mark.parametrize("j", [0, -1, 0.3, 2.25])
def test_invalid_spin_rejected(j):
    with pytest.raises(ValueError):
        build_spin_system(j)


def test_populations_of_stretched_state():
    assert np.allclose(populations(zeeman_state(2, 2)).p, [1, 0, 0, 0, 0])


def test_populations_of_even_superposition():
    state = StateVector.normalized([1, 0, 0, 0, 1])
    assert np.allclose(populations(state).p, [0.5, 0, 0, 0, 0.5])


def test_populations_of_fractional_stirap_dark_state():
    # eta = 1 target superposition: weights 3 : 6 : 2 over (+2, +1, 0)
    mapped = chain_to_zeeman_populations(dark_state(1.0))
    assert np.allclose(mapped, [3 / 11, 6 / 11, 2 / 11, 0, 0], atol=1e-12)


def test_populations_rejects_unnormalized():
    bad = StateVector(np.array([1.0, 0.01, 0, 0, 0], complex))
    with pytest.raises(ValueError):
        populations(bad)


amplitude_lists = st.lists(
    st.tuples(
        st.floats(-1, 1, allow_nan=False, allow_infinity=False),
        st.floats(-1, 1, allow_nan=False, allow_infinity=False),
    ),
    min_size=5,
    max_size=5,
).filter(lambda pairs: sum(abs(complex(a, b)) for a, b in pairs) > 1e-3)


@given(amplitude_lists)
@settings(max_examples=50, deadline=None)
def test_populations_of_normalize_is_idempotent(pairs):
    state = StateVector.normalized([complex(a, b) for a, b in pairs])
    p1 = populations(state).p
    p2 = populations(StateVector.normalized(state.amplitudes)).p
    assert np.allclose(p1, p2, atol=1e-12)
    assert abs(p1.sum() - 1) < 1e-10


def test_gyromagnetic_ratio_value():
    # g_j = 3/2 puts gamma at 2*pi x 2.0994 MHz/G
    mhz_per_gauss = CONSTANTS.gamma * 1e-4 / (2 * math.pi * 1e6)
    assert mhz_per_gauss == pytest.approx(2.0994, abs=2e-4)


def test_constants_must_be_positive():
    with pytest.raises(ValueError):
        PhysicalConstants(g_j=0)


def test_populations_clamp_and_sum():
    with pytest.raises(ValueError):
        Populations(np.array([0.6, 0.6, 0, 0, 0]))
    p = Populations(np.array([1.0 + 5e-11, -5e-13, 0, 0, 0]))
    assert p[1] == 0.0


def test_zeeman_state_validates_projection():
    with pytest.raises(ValueError):
        zeeman_state(2, 2.5)
    with pytest.raises(ValueError):
        zeeman_state(2, 3)


def test_spin_matrices_are_immutable():
    sys = build_spin_system(2)
    with pytest.raises(ValueError):
        sys.jx[0, 0] = 99.0
    state = zeeman_state(2, 2)
    with pytest.raises(ValueError):
        state.amplitudes[0] = 0.0


def test_mixture_columns():
    state = StateVector.normalized([1, 1j, 0, 0, 1])
    columns, weights = mixture_columns(state)
    assert columns.shape == (5, 1)
    np.testing.assert_array_equal(columns[:, 0], state.amplitudes)
    np.testing.assert_array_equal(weights, [1.0])
    columns, weights = mixture_columns(Populations([0.5, 0, 0.25, 0, 0.25]))
    np.testing.assert_array_equal(columns, np.eye(5)[:, [0, 2, 4]])
    np.testing.assert_array_equal(weights, [0.5, 0.25, 0.25])
