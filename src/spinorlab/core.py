"""Spin systems, states, populations, constants and Clebsch-Gordan coefficients.

Every quantity is a plain float in SI units (rad/s, tesla, meter, second,
kelvin, kilogram); the CLI converts its unit-suffixed config values to SI
when it parses them.

The Zeeman basis is ordered m = +J ... -J throughout the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np

TWO_PI = 2.0 * math.pi
ZEEMAN_M = (2, 1, 0, -1, -2)  # spin-2 projections in basis order

# CODATA 2018 constants, and the atomic parameters of metastable Ne-20 3P2
_MU_B = 9.2740100783e-24  # J/T
_HBAR = 1.054571817e-34  # J s
_G_J = 1.5  # Lande factor of a pure-LS 3P2 term
K_B = 1.380649e-23  # J/K
MASS_NE20 = 19.9924401762 * 1.66053906660e-27  # kg: the mass in u times the atomic mass unit
# gyromagnetic ratio g_J mu_B / hbar in rad/(s T): 2*pi x 2.0994 MHz/G at g_J = 3/2
GAMMA = _G_J * _MU_B / _HBAR


def _doubled(x: float, name: str) -> int:
    """2x as an int; rejects x that is neither integer nor half-integer."""
    two_x = round(2 * x)
    if abs(2 * x - two_x) > 1e-9:
        raise ValueError(f"{name} must be integer or half-integer, got {x}")
    return int(two_x)


def _as_two_j(j: float) -> int:
    two_j = _doubled(j, "j")
    if two_j < 1:
        raise ValueError(f"j must be a positive half-integer >= 1/2, got {j}")
    return two_j


@lru_cache(maxsize=None)
def _cg_doubled(dj1: int, dm1: int, dj2: int, dm2: int, dj: int, dm: int) -> float:
    """Racah's sum, every argument doubled, exact rationals inside the root.

    The factorial arguments are halves of a, b, c, p1, q1, p2, q2, p, q; all
    are non-negative and even exactly when every selection rule but
    m1 + m2 = m holds (j - m integer, |m| <= j, triangle, j1 + j2 + j integer).
    """
    a, b, c = dj1 + dj2 - dj, dj1 - dj2 + dj, dj2 - dj1 + dj
    p1, q1, p2, q2, p, q = dj1 - dm1, dj1 + dm1, dj2 - dm2, dj2 + dm2, dj - dm, dj + dm
    args = (a, b, c, p1, q1, p2, q2, p, q)
    if dm1 + dm2 != dm or any(x < 0 or x % 2 for x in args):
        return 0.0
    a, b, c, p1, q1, p2, q2, p, q = (x // 2 for x in args)
    f = math.factorial
    pref = Fraction((dj + 1) * f(a) * f(b) * f(c), f(a + b + c + 1))
    pref *= f(p) * f(q) * f(p1) * f(q1) * f(p2) * f(q2)
    total = sum(
        Fraction((-1) ** k, f(k) * f(a - k) * f(p1 - k) * f(q2 - k) * f(b - p1 + k) * f(c - q2 + k))
        for k in range(max(0, p1 - b, q2 - c), min(a, p1, q2) + 1)
    )
    return math.copysign(math.sqrt(float(pref * total * total)), total)


def clebsch_gordan(j1: float, m1: float, j2: float, m2: float, j: float, m: float) -> float:
    """Condon-Shortley Clebsch-Gordan coefficient <j1 m1; j2 m2 | j m>.

    Violated selection rules (projection, triangle) give 0 rather than an
    error.
    """
    names = ("j1", "m1", "j2", "m2", "j", "m")
    doubled = [_doubled(x, name) for x, name in zip((j1, m1, j2, m2, j, m), names)]
    if j1 < 0 or j2 < 0 or j < 0:
        raise ValueError("angular momenta must be non-negative")
    return _cg_doubled(*doubled)


@dataclass(frozen=True)
class SpinSystem:
    """Angular momentum operators for total spin j.

    jx, jy, jz are (2j+1) x (2j+1) matrices in units of hbar, in the basis
    m = +j ... -j.  jz is diagonal with entries +j ... -j.
    """

    j: float
    dim: int
    jx: np.ndarray = field(repr=False)
    jy: np.ndarray = field(repr=False)
    jz: np.ndarray = field(repr=False)

    @property
    def m_values(self) -> np.ndarray:
        return self.j - np.arange(self.dim)


@lru_cache(maxsize=None)
def _build_spin_system_cached(two_j: int) -> SpinSystem:
    j = two_j / 2
    dim = two_j + 1
    m = j - np.arange(dim)
    jz = np.diag(m).astype(complex)
    # raising operator in descending-m basis: couples column i+1 to row i
    up = np.sqrt(j * (j + 1) - m[1:] * (m[1:] + 1))
    jp = np.zeros((dim, dim), complex)
    jp[np.arange(dim - 1), np.arange(1, dim)] = up
    jx = (jp + jp.conj().T) / 2
    jy = (jp - jp.conj().T) / 2j
    for a in (jx, jy, jz):
        a.flags.writeable = False
    return SpinSystem(j=j, dim=dim, jx=jx, jy=jy, jz=jz)


def build_spin_system(j: float) -> SpinSystem:
    """Construct the spin-j operator set; rejects non-half-integer or j < 1/2."""
    return _build_spin_system_cached(_as_two_j(j))


@dataclass(frozen=True)
class StateVector:
    """Complex amplitudes over a fixed basis (m = +J ... -J for spin states)."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.ndim != 1 or amps.size < 2:
            raise ValueError("state vector must be a 1-d array of length >= 2")
        if not np.all(np.isfinite(amps.view(float))):
            raise ValueError("state vector amplitudes must be finite")
        amps = amps.copy()
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    @classmethod
    def normalized(cls, amplitudes) -> "StateVector":
        amps = np.asarray(amplitudes, dtype=complex)
        n = np.linalg.norm(amps)
        if n == 0:
            raise ValueError("cannot normalize the zero vector")
        return cls(amps / n)


def zeeman_state(j: float, m: float) -> StateVector:
    """Basis state |j, m> in the descending-m ordering."""
    sys = build_spin_system(j)
    idx = round(j - m)
    if abs((j - m) - idx) > 1e-9 or not 0 <= idx < sys.dim:
        raise ValueError(f"m={m} is not a valid projection for j={j}")
    amps = np.zeros(sys.dim, complex)
    amps[int(idx)] = 1.0
    return StateVector(amps)


@dataclass(frozen=True)
class Populations:
    """Relative populations: non-negative, summing to one."""

    p: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.p, dtype=float)
        if np.any(p < -1e-12):
            raise ValueError("populations must be non-negative")
        p = np.clip(p, 0.0, None)
        if abs(p.sum() - 1.0) > 1e-10:
            raise ValueError(f"populations must sum to 1, got {p.sum()!r}")
        p = p.copy()
        p.flags.writeable = False
        object.__setattr__(self, "p", p)

    def __getitem__(self, i) -> float:
        return float(self.p[i])


def mixture_columns(initial: StateVector | Populations) -> tuple[np.ndarray, np.ndarray]:
    """Amplitude columns (dim, n) and weights (n,) of an initial state: one
    column of weight 1 for a StateVector; for Populations, an incoherent
    mixture, the basis states of nonzero weight in basis order."""
    if isinstance(initial, StateVector):
        return initial.amplitudes[:, None], np.ones(1)
    used = np.flatnonzero(initial.p)
    return np.eye(initial.p.size, dtype=complex)[:, used], initial.p[used]


def populations(state: StateVector) -> Populations:
    """|c_m|^2 for a normalized state; rejects norms off by more than 1e-6."""
    n2 = float(np.sum(np.abs(state.amplitudes) ** 2))
    if abs(n2 - 1.0) > 1e-6:
        raise ValueError(f"state is not normalized (|psi|^2 = {n2!r})")
    return Populations(np.abs(state.amplitudes) ** 2 / n2)
