"""Ramsey and spin-echo sequences on single spins and thermal ensembles.

Pulses are ideal (instantaneous) rotations; only the free-evolution phase
phi carries the field information.  With the z-rotation convention
Dz(phi) = exp(-i phi Jz) (sign documented here once; population-level
results do not depend on it) the two sequences are

    Ramsey:  Dx(pi/2)  Dz(phi)  Dx(pi/2),   phi = phase_ramsey(...)
    Echo:    Dx(3pi/2) Dz(phi)  Dx(pi/2),   phi = phase_echo(...)

where the echo form already absorbs the refocusing pi pulse: a pi rotation
about x conjugates Dz(a) into Dz(-a), which flips the sign of the phase
accumulated before it.

Ensemble averaging.  For an atom starting at z0 with velocity vz in the
field B0 + B1 z, the Ramsey phase is gamma*B0*tau1 + gamma*B1*(z0 tau1 +
vz tau1^2 / 2).  Over a Gaussian position spread and a thermal (Gaussian)
velocity marginal the phase is A + Z with Z zero-mean Gaussian, so
<e^{i k phi}> = e^{i k A} e^{-k^2 var(Z)/2}.  A spin-2 sequence population
is a trigonometric polynomial in phi of order <= 4 (four coherence orders),
so the exact ensemble average needs the harmonics k = 0..4 only; each
harmonic k damps with exponent k^2 times the k=1 Gaussian/quartic
exponents.  The Monte Carlo path samples (z0, vz) directly and must agree
with the analytic path within statistics; it is the cross-check for the
harmonic generalization.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .core import CONSTANTS, Populations, StateVector, build_spin_system
from .propagator import FieldConfig
from .rotations import Angle, RotationAxis, rotation_operator

_N_HARMONICS = 4
_MC_BATCH = 16384
_HARMONICS_CACHE_SIZE = 64


class SequenceKind(Enum):
    RAMSEY = "ramsey"
    ECHO = "echo"


@dataclass(frozen=True)
class SequenceTiming:
    kind: SequenceKind
    tau1: float
    tau2: float = 0.0

    def __post_init__(self):
        if self.tau1 < 0 or self.tau2 < 0:
            raise ValueError("tau1 and tau2 must be >= 0")


@dataclass(frozen=True)
class EnsembleSpec:
    """Thermal ensemble: Gaussian position spread and 1-d thermal velocities.

    The velocity marginal along z is Gaussian with variance k_B T_z / m.
    """

    sigma_z0: float  # m
    t_axial: float  # K
    mass: float = CONSTANTS.mass_ne20  # kg
    n_samples: int = 100_000
    seed: int = 0

    def __post_init__(self):
        if not self.sigma_z0 > 0:
            raise ValueError("sigma_z0 must be positive")
        if not self.t_axial > 0:
            raise ValueError("t_axial must be positive")
        if not self.mass > 0:
            raise ValueError("mass must be positive")
        if self.n_samples < 1:
            raise ValueError("n_samples must be >= 1")

    @property
    def sigma_vz(self) -> float:
        return math.sqrt(CONSTANTS.k_b * self.t_axial / self.mass)


def phase_ramsey(field: FieldConfig, z0: float, vz: float, tau1: float) -> Angle:
    """Free-evolution phase gamma*B0*tau1 + gamma*B1*(z0 tau1 + vz tau1^2/2)."""
    g = field.constants.gamma
    return Angle(g * field.b0 * tau1 + field.gamma_b1 * (z0 * tau1 + 0.5 * vz * tau1**2))


def phase_echo(field: FieldConfig, z0: float, vz: float, tau1: float, tau2: float) -> Angle:
    """Net echo phase: the pre-pi interval counts with opposite sign,

    phi = -gamma*B0 (tau2-tau1) - gamma*B1 z0 (tau2-tau1)
          + gamma*B1 vz [(tau2-tau1)^2 - 2 tau2^2] / 2.

    Static atoms (vz=0) rephase exactly at tau1 = tau2; moving atoms keep
    phi = -gamma*B1*vz*tau_tilde^2 there.
    """
    g = field.constants.gamma
    dtau = tau2 - tau1
    return Angle(
        -g * field.b0 * dtau
        - field.gamma_b1 * z0 * dtau
        + 0.5 * field.gamma_b1 * vz * (dtau**2 - 2 * tau2**2)
    )


def _sequence_angles(kind: SequenceKind) -> tuple[float, float]:
    if kind is SequenceKind.RAMSEY:
        return (math.pi / 2, math.pi / 2)
    return (math.pi / 2, 3 * math.pi / 2)


@lru_cache(maxsize=None)
def _dx_pair(two_j: int, kind: SequenceKind):
    sys = build_spin_system(two_j / 2)
    first, last = _sequence_angles(kind)
    return (
        rotation_operator(sys, RotationAxis.X, first),
        rotation_operator(sys, RotationAxis.X, last),
        sys.m_values.copy(),
    )


def single_atom_sequence(initial: StateVector, kind: SequenceKind, phi) -> Populations:
    """Populations after the ideal pulse sequence with net z phase phi."""
    dx_first, dx_last, m = _dx_pair(initial.dim - 1, kind)
    v = dx_first @ initial.amplitudes
    amp = dx_last @ (np.exp(-1j * float(phi) * m) * v)
    return Populations(np.abs(amp) ** 2 / np.sum(np.abs(amp) ** 2))


def _population_batch(initial: StateVector, kind: SequenceKind, phis: np.ndarray) -> np.ndarray:
    """Populations for a batch of phases, shape (len(phis), dim)."""
    dx_first, dx_last, m = _dx_pair(initial.dim - 1, kind)
    v = dx_first @ initial.amplitudes
    phases = np.exp(-1j * np.multiply.outer(phis, m))  # (n, dim)
    amp = phases * v[None, :] @ dx_last.T
    return np.abs(amp) ** 2


def _phase_harmonics(initial: StateVector, kind: SequenceKind) -> np.ndarray:
    """Fourier coefficients f_k, k = 0..4, of p_m(phi); shape (5, dim).

    p_m(phi) = f_0[m] + sum_k 2 Re(f_k[m] e^{i k phi}).  Sixteen uniform
    samples are exact for a trigonometric polynomial of order four.  The
    result is read-only: it is shared through a cache that holds the
    _HARMONICS_CACHE_SIZE most recently used (kind, amplitudes) pairs.
    """
    return _cached_phase_harmonics(kind, initial.amplitudes.tobytes())


@lru_cache(maxsize=_HARMONICS_CACHE_SIZE)
def _cached_phase_harmonics(kind: SequenceKind, amplitudes: bytes) -> np.ndarray:
    n = 16
    phis = 2 * math.pi * np.arange(n) / n
    initial = StateVector(np.frombuffer(amplitudes, dtype=complex))
    p = _population_batch(initial, kind, phis)  # (16, dim)
    coeffs = np.fft.fft(p, axis=0)[: _N_HARMONICS + 1] / n
    coeffs.flags.writeable = False
    return coeffs


def ramsey_envelope(field: FieldConfig, spec: EnsembleSpec, tau1) -> np.ndarray | float:
    """Two-factor dephasing envelope of <cos phi> (carrier excluded):

    exp[-(gamma B1 sigma_z0 tau1)^2 / 2] * exp[-(gamma B1)^2 (kT/m) tau1^4 / 8]
    """
    t = np.asarray(tau1, dtype=float)
    gb1 = field.gamma_b1
    gauss = np.exp(-0.5 * (gb1 * spec.sigma_z0 * t) ** 2)
    quartic = np.exp(-0.125 * gb1**2 * spec.sigma_vz**2 * t**4)
    out = gauss * quartic
    return out if out.ndim else float(out)


def ramsey_damped_cosine(field: FieldConfig, spec: EnsembleSpec, tau1) -> np.ndarray | float:
    """<cos phi(tau1)>: the carrier cos(gamma B0 tau1) times the envelope."""
    t = np.asarray(tau1, dtype=float)
    carrier = np.cos(field.constants.gamma * field.b0 * t)
    out = carrier * ramsey_envelope(field, spec, t)
    return out if out.ndim else float(out)


def echo_envelope(field: FieldConfig, spec: EnsembleSpec, tau1, tau2) -> np.ndarray | float:
    """Echo dephasing envelope; at tau1 = tau2 = tau it reduces exactly to
    exp[-(gamma B1)^2 (k_B T_z / m) tau^4 / 2] (the tau^4 law)."""
    t1 = np.asarray(tau1, dtype=float)
    t2 = np.asarray(tau2, dtype=float)
    gb1 = field.gamma_b1
    dtau = t2 - t1
    gauss = np.exp(-0.5 * (gb1 * spec.sigma_z0 * dtau) ** 2)
    quartic = np.exp(-0.125 * gb1**2 * spec.sigma_vz**2 * (dtau**2 - 2 * t2**2) ** 2)
    out = gauss * quartic
    return out if out.ndim else float(out)


class AverageMethod(Enum):
    ANALYTIC = "analytic"
    MONTE_CARLO = "montecarlo"


def _carrier_and_variance(field: FieldConfig, spec: EnsembleSpec, kind: SequenceKind, tau1, tau2):
    """Deterministic phase A and Gaussian variance of phi (vectorized)."""
    g = field.constants.gamma
    gb1 = field.gamma_b1
    t1 = np.asarray(tau1, dtype=float)
    if kind is SequenceKind.RAMSEY:
        a = g * field.b0 * t1
        var = gb1**2 * (spec.sigma_z0**2 * t1**2 + 0.25 * spec.sigma_vz**2 * t1**4)
    else:
        t2 = np.asarray(tau2, dtype=float)
        dtau = t2 - t1
        a = -g * field.b0 * dtau
        var = gb1**2 * (
            spec.sigma_z0**2 * dtau**2
            + 0.25 * spec.sigma_vz**2 * (dtau**2 - 2 * t2**2) ** 2
        )
    return a, var


def _harmonic_sum(a, var, coeffs: np.ndarray) -> np.ndarray:
    """sum_k <e^{i k phi}> f_k for a Gaussian phase with mean a and variance
    var (arrays over timings); coeffs is (harmonic, column)."""
    a = np.atleast_1d(a)
    var = np.atleast_1d(var)
    out = np.broadcast_to(coeffs[0].real, (a.size, coeffs.shape[1])).copy()
    for k in range(1, _N_HARMONICS + 1):
        damp = np.exp(-0.5 * k * k * var)
        out += 2 * damp[:, None] * (coeffs[k][None, :] * np.exp(1j * k * a)[:, None]).real
    return out


def _analytic_curve(
    field: FieldConfig,
    spec: EnsembleSpec,
    kind: SequenceKind,
    tau1,
    tau2,
    initial: StateVector,
) -> np.ndarray:
    """Analytic ensemble average over arrays of timings, shape (n, dim)."""
    a, var = _carrier_and_variance(field, spec, kind, tau1, tau2)
    return _harmonic_sum(a, var, _phase_harmonics(initial, kind))


def _mc_average(
    field: FieldConfig, spec: EnsembleSpec, timing: SequenceTiming, initial: StateVector
) -> np.ndarray:
    """Monte Carlo ensemble average.

    Samples are partitioned into fixed-size batches; batch i draws from the
    i-th child of SeedSequence(seed) and the batch sums are added in batch
    order, so the result is bit-identical for a given (seed, n_samples).
    """
    if spec.n_samples < 100:
        warnings.warn(
            f"n_samples={spec.n_samples} gives a high-variance Monte Carlo average",
            UserWarning,
            stacklevel=3,
        )
    n_batches = math.ceil(spec.n_samples / _MC_BATCH)
    children = np.random.SeedSequence(spec.seed).spawn(n_batches)
    total = np.zeros(initial.dim)
    for i, child in enumerate(children):
        size = min(_MC_BATCH, spec.n_samples - i * _MC_BATCH)
        rng = np.random.default_rng(child)
        z0 = rng.normal(0.0, spec.sigma_z0, size)
        vz = rng.normal(0.0, spec.sigma_vz, size)
        if timing.kind is SequenceKind.RAMSEY:
            phi = float(field.constants.gamma * field.b0) * timing.tau1 + field.gamma_b1 * (
                z0 * timing.tau1 + 0.5 * vz * timing.tau1**2
            )
        else:
            dtau = timing.tau2 - timing.tau1
            phi = (
                -float(field.constants.gamma * field.b0) * dtau
                - field.gamma_b1 * z0 * dtau
                + 0.5 * field.gamma_b1 * vz * (dtau**2 - 2 * timing.tau2**2)
            )
        total += _population_batch(initial, timing.kind, phi).sum(axis=0)
    return total / spec.n_samples


def ensemble_average(
    field: FieldConfig,
    spec: EnsembleSpec,
    timing: SequenceTiming,
    initial: StateVector,
    method: AverageMethod = AverageMethod.ANALYTIC,
) -> Populations:
    """Ensemble-averaged populations after the sequence at one timing."""
    if method is AverageMethod.ANALYTIC:
        return Populations(
            _analytic_curve(field, spec, timing.kind, timing.tau1, timing.tau2, initial)[0]
        )
    return Populations(_mc_average(field, spec, timing, initial))


def ensemble_average_curve(
    field: FieldConfig,
    spec: EnsembleSpec,
    kind: SequenceKind,
    tau1,
    tau2=None,
    initial: StateVector | None = None,
    method: AverageMethod = AverageMethod.ANALYTIC,
) -> np.ndarray:
    """Averaged populations over arrays of timings, shape (n, dim).

    For Ramsey pass tau1 only; for echo pass matching tau1/tau2 arrays (or a
    scalar tau1 with an array tau2).
    """
    from .core import zeeman_state

    if initial is None:
        initial = zeeman_state(2, 2)
    t1 = np.atleast_1d(np.asarray(tau1, dtype=float))
    if kind is SequenceKind.ECHO:
        t2 = np.atleast_1d(np.asarray(tau2, dtype=float))
        t1, t2 = np.broadcast_arrays(t1, t2)
    else:
        t2 = np.zeros_like(t1)
    if method is AverageMethod.ANALYTIC:
        return _analytic_curve(field, spec, kind, t1, t2, initial)
    rows = [
        _mc_average(field, spec, SequenceTiming(kind, a, b), initial)
        for a, b in zip(t1, t2)
    ]
    return np.array(rows)
