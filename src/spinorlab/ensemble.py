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
field B0 + B1 z, the phase of either sequence is linear in (z0, vz):

    phi = a + g_z z0 + g_v vz,

and ``_phase_terms`` is the one place the coefficients (a, g_z, g_v) are
written; the single-atom phases, the analytic mean and variance, and the
envelopes all read them.  Over a Gaussian position spread and a thermal
(Gaussian) velocity marginal the phase is a + Z with Z zero-mean Gaussian of
variance (g_z sigma_z0)^2 + (g_v sigma_vz)^2, so <e^{i k phi}> =
e^{i k a} e^{-k^2 var(Z)/2}.  A spin-j sequence population
is a trigonometric polynomial in phi of order 2j (four coherence orders for
spin 2), so the exact ensemble average needs the harmonics k = 0..2j only;
each harmonic k damps with exponent k^2 times the k=1 exponent.  One
closed form gives the harmonics of the amplitude
L e^{-i phi m} u, with L = Dx_last and u = Dx_first c: basis states a and
a-k differ by k in m, so p_m(phi) = f_0[m] + sum_k 2 Re(f_k[m] e^{i k phi})
with f_k[m] = sum_a L[m,a] conj(L[m,a-k]) u_a conj(u_{a-k}).  The Monte
Carlo path samples (z0, vz) directly and must agree with the analytic path
within statistics; it is the cross-check for the harmonic generalization.
It draws each batch of samples once per curve and evaluates it at every
timing and for every column.  Both paths are linear in an initial
Populations, an incoherent mixture of the Zeeman basis states, so one set of
harmonics, or of Monte Carlo draws, serves all the basis states of a
mixture.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .core import (
    CONSTANTS,
    Populations,
    StateVector,
    build_spin_system,
    mixture_columns,
    zeeman_state,
)
from .propagator import FieldConfig
from .rotations import Angle, RotationAxis, rotation_operator

_MC_BATCH = 16384


class SequenceKind(Enum):
    RAMSEY = "ramsey"
    ECHO = "echo"


@dataclass(frozen=True)
class SequenceTiming:
    kind: SequenceKind
    tau1: float
    tau2: float = 0.0

    def __post_init__(self):
        _check_delays(self.tau1, self.tau2)


def _check_delays(tau1, tau2) -> None:
    """Delays (scalars or arrays) must be finite and >= 0."""
    for name, t in (("tau1", tau1), ("tau2", tau2)):
        if not np.all(np.isfinite(t)):
            raise ValueError(f"{name} must be finite")
        if np.any(np.less(t, 0)):
            raise ValueError(f"{name} must be >= 0")


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
        for name in ("sigma_z0", "t_axial", "mass"):
            value = getattr(self, name)
            if not (value > 0 and math.isfinite(value)):
                raise ValueError(f"{name} must be positive and finite")
        if self.n_samples < 1:
            raise ValueError("n_samples must be >= 1")

    @property
    def sigma_vz(self) -> float:
        return math.sqrt(CONSTANTS.k_b * self.t_axial / self.mass)


def _phase_terms(field: FieldConfig, kind: SequenceKind, tau1, tau2):
    """Coefficients (a, g_z, g_v) of the free-evolution phase
    phi = a + g_z z0 + g_v vz; tau1 and tau2 may be arrays."""
    g = field.constants.gamma
    gb1 = field.gamma_b1
    if kind is SequenceKind.RAMSEY:
        return g * field.b0 * tau1, gb1 * tau1, 0.5 * gb1 * tau1**2
    dtau = tau2 - tau1
    return -g * field.b0 * dtau, -gb1 * dtau, 0.5 * gb1 * (dtau**2 - 2 * tau2**2)


def _phase(field: FieldConfig, kind: SequenceKind, z0, vz, tau1: float, tau2: float):
    """Free-evolution phase of :func:`phase_ramsey` or :func:`phase_echo`;
    z0 and vz may be arrays."""
    a, g_z, g_v = _phase_terms(field, kind, tau1, tau2)
    return a + g_z * z0 + g_v * vz


def phase_ramsey(field: FieldConfig, z0: float, vz: float, tau1: float) -> Angle:
    """Free-evolution phase gamma*B0*tau1 + gamma*B1*(z0 tau1 + vz tau1^2/2)."""
    return Angle(_phase(field, SequenceKind.RAMSEY, z0, vz, tau1, 0.0))


def phase_echo(field: FieldConfig, z0: float, vz: float, tau1: float, tau2: float) -> Angle:
    """Net echo phase: the pre-pi interval counts with opposite sign,

    phi = -gamma*B0 (tau2-tau1) - gamma*B1 z0 (tau2-tau1)
          + gamma*B1 vz [(tau2-tau1)^2 - 2 tau2^2] / 2.

    Static atoms (vz=0) rephase exactly at tau1 = tau2; moving atoms keep
    phi = -gamma*B1*vz*tau_tilde^2 there.
    """
    return Angle(_phase(field, SequenceKind.ECHO, z0, vz, tau1, tau2))


@lru_cache(maxsize=None)
def _dx_pair(two_j: int, kind: SequenceKind):
    sys = build_spin_system(two_j / 2)
    last = math.pi / 2 if kind is SequenceKind.RAMSEY else 3 * math.pi / 2
    return (
        rotation_operator(sys, RotationAxis.X, math.pi / 2),
        rotation_operator(sys, RotationAxis.X, last),
        sys.m_values.copy(),
    )


def single_atom_sequence(initial: StateVector, kind: SequenceKind, phi) -> Populations:
    """Populations after the ideal pulse sequence with net z phase phi."""
    p = _population_sums(initial.amplitudes[:, None], kind, np.array([float(phi)]))[:, 0]
    return Populations(p / p.sum())


def _population_sums(columns: np.ndarray, kind: SequenceKind, phis: np.ndarray) -> np.ndarray:
    """Populations summed over a batch of phases for each amplitude column,
    shape (dim, column).  The phase factors are built once for all columns;
    the columns are evaluated one at a time, so memory stays one batch."""
    dx_first, dx_last, m = _dx_pair(columns.shape[0] - 1, kind)
    phases = np.exp(-1j * np.multiply.outer(phis, m))  # (n, dim)
    sums = np.empty(columns.shape)
    for c in range(columns.shape[1]):
        amp = phases * (dx_first @ columns[:, c])[None, :] @ dx_last.T
        sums[:, c] = (np.abs(amp) ** 2).sum(axis=0)
    return sums


def _phase_harmonics(first: np.ndarray, last: np.ndarray, columns: np.ndarray) -> np.ndarray:
    """Harmonics f_k, k = 0..dim-1, of the populations of
    last @ (e^{-i phi m} first @ c) for each column c, shape (harmonic, dim,
    column); the closed form is in the module docstring."""
    x = last[:, :, None] * (first @ columns)[None, :, :]  # (m, a, column)
    n = x.shape[1]
    return np.stack([np.einsum("mac,mac->mc", x[:, k:], x[:, : n - k].conj()) for k in range(n)])


def _carrier_and_variance(field: FieldConfig, spec: EnsembleSpec, kind: SequenceKind, tau1, tau2):
    """Deterministic phase a and Gaussian variance of phi (vectorized)."""
    a, g_z, g_v = _phase_terms(
        field, kind, np.asarray(tau1, dtype=float), np.asarray(tau2, dtype=float)
    )
    return a, (g_z * spec.sigma_z0) ** 2 + (g_v * spec.sigma_vz) ** 2


def _scalar_or_array(x: np.ndarray) -> np.ndarray | float:
    return x if x.ndim else float(x)


def ramsey_envelope(field: FieldConfig, spec: EnsembleSpec, tau1) -> np.ndarray | float:
    """Dephasing envelope exp(-var phi / 2) of <cos phi> (carrier excluded):
    a Gaussian in tau1 from the position spread times a tau1^4 factor from
    the velocity spread."""
    _, var = _carrier_and_variance(field, spec, SequenceKind.RAMSEY, tau1, 0.0)
    return _scalar_or_array(np.exp(-0.5 * var))


def ramsey_damped_cosine(field: FieldConfig, spec: EnsembleSpec, tau1) -> np.ndarray | float:
    """<cos phi(tau1)>: the carrier cos(gamma B0 tau1) times the envelope."""
    a, var = _carrier_and_variance(field, spec, SequenceKind.RAMSEY, tau1, 0.0)
    return _scalar_or_array(np.cos(a) * np.exp(-0.5 * var))


def echo_envelope(field: FieldConfig, spec: EnsembleSpec, tau1, tau2) -> np.ndarray | float:
    """Echo dephasing envelope exp(-var phi / 2); at tau1 = tau2 = tau it
    reduces exactly to exp[-(gamma B1)^2 (k_B T_z / m) tau^4 / 2] (the tau^4
    law)."""
    _, var = _carrier_and_variance(field, spec, SequenceKind.ECHO, tau1, tau2)
    return _scalar_or_array(np.exp(-0.5 * var))


class AverageMethod(Enum):
    ANALYTIC = "analytic"
    MONTE_CARLO = "montecarlo"


def _harmonic_sum(a, var, coeffs: np.ndarray) -> np.ndarray:
    """sum_k <e^{i k phi}> f_k for a Gaussian phase with mean a and variance
    var (arrays over timings); coeffs is (harmonic, column)."""
    a = np.atleast_1d(a)
    var = np.atleast_1d(var)
    out = np.broadcast_to(coeffs[0].real, (a.size, coeffs.shape[1])).copy()
    for k in range(1, coeffs.shape[0]):
        damp = np.exp(-0.5 * k * k * var)
        out += 2 * damp[:, None] * (coeffs[k][None, :] * np.exp(1j * k * a)[:, None]).real
    return out


def ensemble_average(
    field: FieldConfig,
    spec: EnsembleSpec,
    timing: SequenceTiming,
    initial: StateVector | Populations,
    method: AverageMethod = AverageMethod.ANALYTIC,
) -> Populations:
    """Ensemble-averaged populations after the sequence at one timing.

    ``initial`` is a pure state, or Populations: an incoherent mixture of the
    Zeeman basis states, averaged in one run for all its basis states.
    """
    curve = ensemble_average_curve(
        field, spec, timing.kind, timing.tau1, timing.tau2, initial, method
    )
    return Populations(curve[0])


def ensemble_average_curve(
    field: FieldConfig,
    spec: EnsembleSpec,
    kind: SequenceKind,
    tau1,
    tau2=None,
    initial: StateVector | Populations | None = None,
    method: AverageMethod = AverageMethod.ANALYTIC,
) -> np.ndarray:
    """Averaged populations over arrays of timings, shape (n, dim).

    For Ramsey pass tau1 only; for echo pass matching tau1/tau2 arrays (or a
    scalar tau1 with an array tau2).  ``initial`` defaults to |+2>; a
    Populations is an incoherent mixture of the Zeeman basis states, run
    once for all its basis states (one set of harmonics, or one set of
    Monte Carlo draws for the whole curve).  Delays must be finite and
    >= 0 for both methods.
    """
    if initial is None:
        initial = zeeman_state(2, 2)
    t1 = np.atleast_1d(np.asarray(tau1, dtype=float))
    if kind is SequenceKind.ECHO:
        if tau2 is None:
            raise ValueError("tau2: the echo sequence needs tau2")
        t2 = np.atleast_1d(np.asarray(tau2, dtype=float))
        t1, t2 = np.broadcast_arrays(t1, t2)
    else:
        t2 = np.zeros_like(t1)
    _check_delays(t1, t2)
    columns, weights = mixture_columns(initial)
    if method is AverageMethod.ANALYTIC:
        dx_first, dx_last, _ = _dx_pair(columns.shape[0] - 1, kind)
        a, var = _carrier_and_variance(field, spec, kind, t1, t2)
        return _harmonic_sum(a, var, _phase_harmonics(dx_first, dx_last, columns) @ weights)
    # Monte Carlo: batch i draws from the i-th child of SeedSequence(seed) and
    # each timing adds its batch sums in batch order, so the result is
    # bit-identical for a given (seed, n_samples) and timing
    if spec.n_samples < 100:
        warnings.warn(
            f"n_samples={spec.n_samples} gives a high-variance Monte Carlo average",
            UserWarning,
            stacklevel=2,
        )
    n_batches = math.ceil(spec.n_samples / _MC_BATCH)
    total = np.zeros((t1.size, *columns.shape))
    for i, child in enumerate(np.random.SeedSequence(spec.seed).spawn(n_batches)):
        size = min(_MC_BATCH, spec.n_samples - i * _MC_BATCH)
        rng = np.random.default_rng(child)
        z0 = rng.normal(0.0, spec.sigma_z0, size)
        vz = rng.normal(0.0, spec.sigma_vz, size)
        for row, a, b in zip(total, t1, t2):
            row += _population_sums(columns, kind, _phase(field, kind, z0, vz, a, b))
    return total / spec.n_samples @ weights
