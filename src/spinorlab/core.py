"""Spin systems, state vectors, and unit-carrying scalar types.

Everything downstream works in SI units internally (rad/s, tesla, meter,
second, kelvin, kilogram).  Frequencies are built with kilohertz and
megahertz (ordinary frequencies in, rad/s out), which keep stray factors of
2*pi out of the physics code; the CLI converts its unit-suffixed config
values to SI when it parses them.

The Zeeman basis is ordered m = +J ... -J throughout the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

TWO_PI = 2.0 * math.pi
ZEEMAN_M = (2, 1, 0, -1, -2)  # spin-2 projections in basis order

_ATOMIC_MASS_KG = 1.66053906660e-27
_NE20_MASS_U = 19.9924401762


@dataclass(frozen=True)
class AngularFrequency:
    """Angular frequency in rad/s.

    The named constructors take ordinary frequencies, so
    ``AngularFrequency.kilohertz(800)`` is the quantity usually quoted as
    2*pi x 800 kHz.
    """

    rad_per_s: float

    def __post_init__(self):
        if not math.isfinite(self.rad_per_s):
            raise ValueError("angular frequency must be finite")

    @classmethod
    def hertz(cls, f: float) -> "AngularFrequency":
        return cls(TWO_PI * f)

    @classmethod
    def kilohertz(cls, f: float) -> "AngularFrequency":
        return cls(TWO_PI * (f * 1e3))

    @classmethod
    def megahertz(cls, f: float) -> "AngularFrequency":
        return cls(TWO_PI * (f * 1e6))

    @property
    def hz(self) -> float:
        return self.rad_per_s / TWO_PI

    def __float__(self) -> float:
        return float(self.rad_per_s)


def kilohertz(f: float) -> AngularFrequency:
    return AngularFrequency.kilohertz(f)


def megahertz(f: float) -> AngularFrequency:
    return AngularFrequency.megahertz(f)


def rad_per_s(value) -> float:
    """Coerce an AngularFrequency or a plain rad/s float to float."""
    return float(value)


@dataclass(frozen=True)
class PhysicalConstants:
    """Physical constants (CODATA 2018) plus the atomic parameters used here.

    g_j defaults to 3/2, the Lande factor of a pure-LS 3P2 term; with it the
    gyromagnetic ratio comes out at 2*pi x 2.0994 MHz/G.
    """

    mu_b: float = 9.2740100783e-24  # J/T
    hbar: float = 1.054571817e-34  # J s
    k_b: float = 1.380649e-23  # J/K
    mass_ne20: float = _NE20_MASS_U * _ATOMIC_MASS_KG  # kg
    g_j: float = 1.5

    def __post_init__(self):
        for name in ("mu_b", "hbar", "k_b", "mass_ne20", "g_j"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be strictly positive")

    @property
    def gamma(self) -> float:
        """Gyromagnetic ratio g_j * mu_B / hbar in rad/(s T)."""
        return self.g_j * self.mu_b / self.hbar


CONSTANTS = PhysicalConstants()


def _as_two_j(j: float) -> int:
    two_j = round(2 * j)
    if abs(2 * j - two_j) > 1e-9 or two_j < 1:
        raise ValueError(f"j must be a positive half-integer >= 1/2, got {j}")
    return int(two_j)


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

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

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
