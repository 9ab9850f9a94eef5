"""Exact spin rotations and the closed-form population formulas for spin 2.

The closed forms here are the oracles for the numerical propagator: a
resonant drive in the rotating-wave picture is exactly a rotation about the
transverse axis by theta = Omega*t/2, so every Rabi curve of the five-level
system can be checked against ``rotation_populations``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .core import Populations, SpinSystem, StateVector, build_spin_system


class RotationAxis(Enum):
    X = "x"
    Y = "y"
    Z = "z"


@dataclass(frozen=True)
class Angle:
    radians: float

    def __post_init__(self):
        if not math.isfinite(self.radians):
            raise ValueError("angle must be finite")

    def __float__(self) -> float:
        return float(self.radians)


@lru_cache(maxsize=None)
def _transverse_eig(two_j: int, axis: RotationAxis):
    sys = build_spin_system(two_j / 2)
    op = {RotationAxis.X: sys.jx, RotationAxis.Y: sys.jy}[axis]
    w, v = np.linalg.eigh(op)
    return w, v


def rotation_operator(sys: SpinSystem, axis: RotationAxis, angle) -> np.ndarray:
    """Unitary exp(-i * angle * J_axis) in the m = +J ... -J basis."""
    theta = float(angle)
    if axis is RotationAxis.Z:
        return np.diag(np.exp(-1j * theta * sys.m_values))
    w, v = _transverse_eig(round(2 * sys.j), axis)
    return (v * np.exp(-1j * theta * w)) @ v.conj().T


def rotation_operators(sys: SpinSystem, axis: RotationAxis, angles: np.ndarray) -> np.ndarray:
    """Stack of rotation operators, shape (len(angles), dim, dim)."""
    thetas = np.asarray(angles, dtype=float)
    if axis is RotationAxis.Z:
        phases = np.exp(-1j * np.multiply.outer(thetas, sys.m_values))
        out = np.zeros(thetas.shape + (sys.dim, sys.dim), complex)
        idx = np.arange(sys.dim)
        out[..., idx, idx] = phases
        return out
    w, v = _transverse_eig(round(2 * sys.j), axis)
    phases = np.exp(-1j * np.multiply.outer(thetas, w))
    return np.einsum("ik,...k,jk->...ij", v, phases, v.conj())


def _columns_from_plus2(theta):
    c = np.cos(np.asarray(theta) / 2)
    s = np.sin(np.asarray(theta) / 2)
    sin_t = np.sin(np.asarray(theta))
    return np.stack(
        [
            c**8,
            4 * c**6 * s**2,
            0.375 * sin_t**4,
            4 * c**2 * s**6,
            s**8,
        ],
        axis=-1,
    )


def _columns_from_plus1(theta):
    th = np.asarray(theta)
    c = np.cos(th / 2)
    s = np.sin(th / 2)
    cos_t = np.cos(th)
    sin_t = np.sin(th)
    return np.stack(
        [
            4 * c**6 * s**2,
            c**4 * (2 * cos_t - 1) ** 2,
            1.5 * cos_t**2 * sin_t**2,
            s**4 * (2 * cos_t + 1) ** 2,
            4 * c**2 * s**6,
        ],
        axis=-1,
    )


def _columns_from_zero(theta):
    th = np.asarray(theta)
    cos_t = np.cos(th)
    sin_t = np.sin(th)
    p0 = (1 + 3 * np.cos(2 * th)) ** 2 / 16
    side = 1.5 * cos_t**2 * sin_t**2
    return np.stack([0.375 * sin_t**4, side, p0, side, 0.375 * sin_t**4], axis=-1)


def rotation_population_curve(initial_m: int, theta) -> np.ndarray:
    """Closed-form populations after rotating |2, initial_m> about x by theta.

    ``theta`` may be a scalar or an array; the result has a trailing axis of
    length 5 ordered m = +2 ... -2.  Closed forms exist for initial_m in
    {+2, +1, 0}; the m = -1 and m = -2 rows follow from the reflection
    symmetry p_m(-m0, theta) = p_{-m}(m0, theta) and are provided for
    convenience.
    """
    if initial_m == 2:
        return _columns_from_plus2(theta)
    if initial_m == 1:
        return _columns_from_plus1(theta)
    if initial_m == 0:
        return _columns_from_zero(theta)
    if initial_m == -1:
        return _columns_from_plus1(theta)[..., ::-1]
    if initial_m == -2:
        return _columns_from_plus2(theta)[..., ::-1]
    raise ValueError(f"initial_m must be one of +2, +1, 0, -1, -2; got {initial_m}")


def rotation_populations(initial_m: int, theta) -> Populations:
    """Scalar-angle version of :func:`rotation_population_curve`."""
    return Populations(rotation_population_curve(initial_m, float(theta)))


def two_level_population(t: float, omega: float, p2_0: float, p1_0: float):
    """Resonant two-level oscillation between the m=+2 and m=+1 states.

    p_{+2}(t) = p2_0 cos^2(Omega t / 2) + p1_0 sin^2(Omega t / 2); the
    partner population is the remainder of the two-level budget (population
    leaked to other states is the caller's business).
    """
    if p2_0 < 0 or p1_0 < 0:
        raise ValueError("initial populations must be non-negative")
    if p2_0 + p1_0 > 1 + 1e-12:
        raise ValueError("initial two-level populations exceed 1")
    half = 0.5 * omega * t
    p2 = p2_0 * math.cos(half) ** 2 + p1_0 * math.sin(half) ** 2
    return p2, (p2_0 + p1_0) - p2


_EQUILIBRIUM_J2 = (
    Fraction(35, 128),
    Fraction(5, 32),
    Fraction(9, 64),
    Fraction(5, 32),
    Fraction(35, 128),
)


def equilibrium_populations(sys: SpinSystem) -> Populations:
    """Populations after a pi/2 pulse, a uniformly random z phase, and a
    second pi/2 pulse, starting from the stretched state |+J>.

    This is the long-time limit of a dephased Ramsey sequence.  Averaging
    |<m| Dx(pi/2) Dz(phi) Dx(pi/2) |+J>|^2 over phi kills all cross terms,
    leaving sum_k |Dx[m,k]|^2 |(Dx e_J)[k]|^2, which is evaluated exactly.
    For j=2 the result is (35/128, 5/32, 9/64, 5/32, 35/128).
    """
    if round(2 * sys.j) == 4:
        return Populations(np.array([float(x) for x in _EQUILIBRIUM_J2]))
    dx = rotation_operator(sys, RotationAxis.X, math.pi / 2)
    after_first = np.abs(dx[:, 0]) ** 2
    return Populations((np.abs(dx) ** 2) @ after_first)


def apply_rotation(state: StateVector, operator: np.ndarray) -> StateVector:
    return StateVector(operator @ state.amplitudes)
