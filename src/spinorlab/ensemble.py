"""Ramsey and spin-echo sequences on single spins and thermal ensembles.

Pulses are ideal (instantaneous) rotations; only the free-evolution phase
phi carries the field information.  With the z-rotation convention
Dz(phi) = exp(-i phi Jz) (sign documented here once; population-level
results do not depend on it) the two sequences are

    Ramsey:  Dx(pi/2)  Dz(phi)  Dx(pi/2)
    Echo:    Dx(3pi/2) Dz(phi)  Dx(pi/2)

with phi formed in one place, ``_phase``.  The echo form already absorbs
the refocusing pi pulse: a pi rotation about x conjugates Dz(a) into
Dz(-a), which flips the sign of the phase accumulated before it.

Ensemble averaging.  For an atom starting at z0 with velocity vz in the
field B0 + B1 z, the phase of either sequence is linear in (z0, vz):

    phi = a + g_z z0 + g_v vz,

and ``_phase_terms`` is the one place the coefficients (a, g_z, g_v) are
written; ``_phase``, the analytic mean and variance, and the envelopes all
read them; a carries ``FieldConfig.resonance`` (gamma B0, or omega0 when
given).  Over a Gaussian position spread and a thermal
(Gaussian) velocity marginal the phase is a + Z with Z zero-mean Gaussian of
variance (g_z sigma_z0)^2 + (g_v sigma_vz)^2, so <e^{i k phi}> =
e^{i k a} e^{-k^2 var(Z)/2}.  A spin-j sequence population
is a trigonometric polynomial in phi of order 2j (four coherence orders for
spin 2), so the exact ensemble average needs the harmonics k = 0..2j only;
each harmonic k damps with exponent k^2 times the k=1 exponent.  One
closed form gives the harmonics of the amplitude
L e^{-i phi m} u, with L = Dx_last and u = Dx_first c: basis states a and
a-k differ by k in m, so p_m(phi) = f_0[m] + sum_k 2 Re(f_k[m] e^{i k phi})
with f_k[m] = sum_a L[m,a] conj(L[m,a-k]) u_a conj(u_{a-k}).  The
analytic sum over harmonics is one (timing, harmonic) x (harmonic, column)
matrix product of the damped carriers e^{i k a - k^2 var / 2} with the f_k
(``_harmonic_sum``); the fits evaluate every model curve through it.  The
Monte Carlo path samples (z0, vz), draws each batch once per curve, and
sums e^{i k phi} over the draws at every timing: the series is linear in
e^{i k phi}, so their mean applied to the same f_k is the sample mean of
the populations, within statistics of the analytic path.  At each timing
a sample's z = e^{i phi} gives e^{i k phi} as the running powers z^2, z^3,
z^4 by multiplication; each power is within a few ulp of e^{i k phi}
however large phi is, where exp(i k phi) would first round k phi.  The
tests cross-check the harmonics against the explicit product of rotation
matrices in the oracle ``single_atom_sequence`` (tests/oracles.py).  Both
paths are linear in an initial Populations, an incoherent mixture of the
Zeeman basis states, so one set of f_k serves a whole mixture.

Monte Carlo phases by recursion.  On a timing grid affine in its index
(every CLI grid is a linspace) each sample's phase is quadratic in the
index j, phi_j = phi_0 + j D1 + j (j - 1) / 2 D2, so a batch steps
z_{j+1} = z_j r_j and r_{j+1} = r_j e^{i D2} in place: three complex
exponentials per sample (z_0, r_0 = e^{i D1} and e^{i D2}), not one per
timing.  Every ``_MC_ANCHOR`` = 32 timings z is re-anchored exactly
through ``_phase``, which bounds the drift of the products.  The grid is
affine when tau1 and tau2 each lie within 4 eps max|t| of t_0 + j h,
h = (t_last - t_0) / (n - 1) (``_grid_steps``).  D1 and D2 are the first
and second differences of ``_phase_terms`` at t_0 + j h, j = 0, 1, 2,
taken in long double so that they keep the digits that t_0 + h and t_0
share (where long double is double they lose them, and the 1,000-timing
echo of the tests drifts by 3.8e-13 instead of 1.3e-14).  A grid that is
not affine, or has fewer than 3 timings, is anchored at every timing, and
each of its rows equals its timing averaged alone bit for bit.  On an
affine grid a row differs from that exact path by round-off only, within
1e-13 absolute on the populations (6e-15 on the benchmark's 20-timing
curves, 1.3e-14 over 1,000 timings).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .core import (
    K_B,
    MASS_NE20,
    Populations,
    StateVector,
    build_spin_system,
    mixture_columns,
    zeeman_state,
)
from .propagator import FieldConfig
from .rotations import RotationAxis, rotation_operator

_MC_BATCH = 16384
_MC_ANCHOR = 32


class SequenceKind(Enum):
    RAMSEY = "ramsey"
    ECHO = "echo"


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

    The velocity marginal along z is Gaussian with variance k_B T_z / m_Ne20.
    """

    sigma_z0: float  # m
    t_axial: float  # K
    n_samples: int = 100_000
    seed: int = 0

    def __post_init__(self):
        for name in ("sigma_z0", "t_axial"):
            value = getattr(self, name)
            if not (value > 0 and math.isfinite(value)):
                raise ValueError(f"{name} must be positive and finite")
        if self.n_samples < 1:
            raise ValueError("n_samples must be >= 1")

    @property
    def sigma_vz(self) -> float:
        return math.sqrt(K_B * self.t_axial / MASS_NE20)


def _phase_terms(field: FieldConfig, kind: SequenceKind, tau1, tau2):
    """Coefficients (a, g_z, g_v) of the free-evolution phase
    phi = a + g_z z0 + g_v vz; tau1 and tau2 may be arrays."""
    w0 = field.resonance
    gb1 = field.gamma_b1
    if kind is SequenceKind.RAMSEY:
        return w0 * tau1, gb1 * tau1, 0.5 * gb1 * tau1**2
    dtau = tau2 - tau1
    return -w0 * dtau, -gb1 * dtau, 0.5 * gb1 * (dtau**2 - 2 * tau2**2)


def _phase(field: FieldConfig, kind: SequenceKind, z0, vz, tau1: float, tau2: float):
    """Free-evolution phase of one atom; z0 and vz may be arrays.

    Ramsey:  gamma B0 tau1 + gamma B1 (z0 tau1 + vz tau1^2 / 2).
    Echo, where the pre-pi interval counts with opposite sign:
             -gamma B0 (tau2 - tau1) - gamma B1 z0 (tau2 - tau1)
             + gamma B1 vz [(tau2 - tau1)^2 - 2 tau2^2] / 2,
    so static atoms (vz = 0) rephase exactly at tau1 = tau2 and moving atoms
    keep -gamma B1 vz tau^2 there.
    """
    a, g_z, g_v = _phase_terms(field, kind, tau1, tau2)
    return a + g_z * z0 + g_v * vz


def _grid_steps(t1: np.ndarray, t2: np.ndarray) -> tuple[float, float] | None:
    """Steps (h1, h2) of a timing grid of at least 3 timings on which tau1
    and tau2 each lie within 4 eps max|t| of t_0 + j h, else None."""
    n = t1.size
    if n < 3:
        return None
    j = np.arange(n)
    steps = tuple((t[-1] - t[0]) / (n - 1) for t in (t1, t2))
    for t, h in zip((t1, t2), steps):
        if np.abs(t - (t[0] + j * h)).max() > 4 * np.finfo(float).eps * np.abs(t).max():
            return None
    return steps


def _expi(phase: np.ndarray, out: np.ndarray) -> np.ndarray:
    """e^{i phase} written into out, with no temporary array."""
    return np.exp(np.multiply(1j, phase, out=out), out=out)


@lru_cache(maxsize=None)
def _dx_pair(two_j: int, kind: SequenceKind):
    sys = build_spin_system(two_j / 2)
    last = math.pi / 2 if kind is SequenceKind.RAMSEY else 3 * math.pi / 2
    return (
        rotation_operator(sys, RotationAxis.X, math.pi / 2),
        rotation_operator(sys, RotationAxis.X, last),
    )


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
    """f_0 + sum_k 2 Re(<e^{i k phi}> f_k) for a Gaussian phase with mean a
    and variance var (scalars or arrays over timings); coeffs is
    (harmonic, column), the result (timing, column)."""
    k = np.arange(coeffs.shape[0])
    terms = np.exp(
        1j * np.multiply.outer(np.atleast_1d(a), k)
        - 0.5 * np.multiply.outer(np.atleast_1d(var), k * k)
    )
    terms[:, 1:] *= 2
    return (terms @ coeffs).real


def ensemble_average(
    field: FieldConfig,
    spec: EnsembleSpec,
    kind: SequenceKind,
    tau1: float,
    tau2: float = 0.0,
    initial: StateVector | Populations | None = None,
    method: AverageMethod = AverageMethod.ANALYTIC,
) -> Populations:
    """Ensemble-averaged populations after the sequence at one timing: row 0
    of ``ensemble_average_curve``.

    The delays tau1 and tau2 (s; the echo reads tau2, Ramsey ignores it) must
    be finite and >= 0.  ``initial`` defaults to |+2>; a Populations is an
    incoherent mixture of the Zeeman basis states, averaged in one run for
    all its basis states.
    """
    _check_delays(tau1, tau2)
    return Populations(ensemble_average_curve(field, spec, kind, tau1, tau2, initial, method)[0])


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
    dx_first, dx_last = _dx_pair(columns.shape[0] - 1, kind)
    coeffs = _phase_harmonics(dx_first, dx_last, columns) @ weights
    if method is AverageMethod.ANALYTIC:
        a, var = _carrier_and_variance(field, spec, kind, t1, t2)
        return _harmonic_sum(a, var, coeffs)
    # Monte Carlo: batch i draws from the i-th child of SeedSequence(seed) and
    # each timing adds its batch sums of z^k, z = e^{i phi}, in batch order, so
    # the result is bit-identical for a given (seed, n_samples) and timing grid
    if spec.n_samples < 100:
        warnings.warn(
            f"n_samples={spec.n_samples} gives a high-variance Monte Carlo average",
            UserWarning,
            stacklevel=2,
        )
    anchor, steps = 1, _grid_steps(t1, t2)
    if steps is not None:
        # first and second differences of (a, g_z, g_v) along the grid, in
        # long double, which keeps the digits that t_0 + h and t_0 share
        s = np.arange(3, dtype=np.longdouble)
        c = np.array(_phase_terms(field, kind, t1[0] + s * steps[0], t2[0] + s * steps[1]))
        d1, d2 = np.diff(c)[:, 0].astype(float), np.diff(c, 2)[:, 0].astype(float)
        anchor = _MC_ANCHOR
    n_batches = math.ceil(spec.n_samples / _MC_BATCH)
    terms = np.zeros((t1.size, coeffs.shape[0]), dtype=complex)
    # a batch's z, its powers, r and w, reused by every batch
    buffers = np.empty((4, min(_MC_BATCH, spec.n_samples)), dtype=complex)
    for i, child in enumerate(np.random.SeedSequence(spec.seed).spawn(n_batches)):
        size = min(_MC_BATCH, spec.n_samples - i * _MC_BATCH)
        rng = np.random.default_rng(child)
        z0 = rng.normal(0.0, spec.sigma_z0, size)
        vz = rng.normal(0.0, spec.sigma_vz, size)
        z, scratch, r, w = buffers[:, :size]
        if steps is not None:
            _expi(d1[0] + d1[1] * z0 + d1[2] * vz, r)
            _expi(d2[0] + d2[1] * z0 + d2[2] * vz, w)
        for j, (row, a, b) in enumerate(zip(terms, t1, t2)):
            if j % anchor == 0:
                _expi(_phase(field, kind, z0, vz, a, b), z)
            row[:2] += size, z.sum()
            power = z
            for k in range(2, row.size):
                power = np.multiply(power, z, out=scratch)
                row[k] += power.sum()
            if steps is not None:
                z *= r  # z_{j+1} = z_j r_j
                r *= w  # r_{j+1} = r_j e^{i D2}
    terms[:, 1:] *= 2
    # einsum, not @, so that on a non-affine grid each row equals its timing
    # averaged alone
    return np.einsum("tk,kc->tc", terms / spec.n_samples, coeffs).real
