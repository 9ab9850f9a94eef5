"""Variable-projection least-squares fits of measured population traces.

Three fitters mirror the experimental analysis chain:

  fit_rabi    Rabi frequency and initial populations from a five-level
              resonant Rabi trace (closed-form rotation model with an
              incoherent mixture of initial basis states).
  fit_ramsey  gradient B1 (and initial populations) from a Ramsey trace,
              with B0, sigma_z0, T_z known.
  fit_echo    the compound dephasing parameter c = (gamma B1)^2 k_B T_z / m
              from an echo trace at tau1 = tau2.  Only c is identifiable
              from that trace; B1 or T_z is reported when the other is
              supplied.

Every model is an incoherent mixture of the five Zeeman basis states, so it
is linear in the five initial-population weights once its one nonlinear
parameter (Omega, B1 or c) is fixed.  The fits therefore use variable
projection (Golub & Pereyra, SIAM J. Numer. Anal. 10, 413 (1973)): for each
trial value the weights are solved exactly on the probability simplex by
non-negative least squares with a sum-to-one row, which leaves a residual
that depends on the nonlinear parameter alone.  That parameter is located on
a logarithmic grid and refined by a bounded scalar minimization between the
grid neighbours of the best grid point; ``converged`` is the refinement's
success flag.

The Rabi basis is one matrix product.  A resonant drive rotates the spin
by theta = Omega t / 2, and each basis curve p_m(m0, theta) = |d^2_{m m0}
(theta)|^2 is a polynomial of degree eight in cos(theta/2) and sin(theta/2)
that is even in theta, that is, an even trigonometric polynomial of order
four.  So it equals sum_{k=0..4} C_k cos(k theta) exactly, and the 25
curves are cos(outer(theta, k)) @ C with a fixed (5, 25) matrix C of dyadic
rationals (35/128, 7/16, ...).  A rotation about x is Dz(theta) between the
eigenbases of Jx, Dx(theta) = V Dz(theta) V^dagger with the eigenvalues
ordered +2 ... -2, so C comes once from the phase-harmonic formula of
``ensemble`` with first = V^dagger and last = V, and is cached;
``rabi_model_curve`` still evaluates the closed forms.  Per trial Omega the
basis costs n x 5 cosines and one (n, 5) by (5, 25) product, about 20 times
less than the closed forms' powers at n = 1000, and no longer the larger
part of a profile evaluation.  The two agree within 1e-12 for theta up to
8000 rad.

Grid bounds are set by a dimensionless scale of the sampled trace:

  rabi    rotation angle Omega t_max / 2 from 1e-2 rad (t_max the largest
          |t|) up to the Nyquist limit of the mean sample spacing dt.  The
          population curves hold harmonics of the rotation angle up to the
          fourth, at angular frequency 2 Omega, so Omega <= pi / (2 dt).
          The residual oscillates in Omega with a period set by t_max, so
          the 16-per-decade log grid is merged with a uniform grid of step
          pi / (4 t_max): one step moves the 2 Omega harmonic by pi/2 at
          t_max.  That is about 2n grid points for n uniform samples, each
          an O(n) profile evaluation, so a Rabi fit costs O(n^2); the
          cosine basis cuts the constant (about 6 times for the whole fit
          at n = 1000), not the scaling.
  ramsey  phase spread sqrt(var phi) at the last delay from 1e-3 to 1e2
          rad, 16 points per decade.  The floor reaches the B1 -> 0 limit.
  echo    phase spread sqrt(c) tau_last^2 from 1e-3 to 1e2 rad, 16 points
          per decade.

``fit_rabi`` takes an ``initial_guess`` for "omega", which narrows its
grid to [guess / 2, 2 guess] within these bounds.
Residuals weight all m channels equally unless per-sample weights are given.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.optimize import minimize_scalar, nnls

from .core import CONSTANTS, ZEEMAN_M, build_spin_system
from .ensemble import (
    EnsembleSpec,
    SequenceKind,
    _carrier_and_variance,
    _check_delays,
    _dx_pair,
    _harmonic_sum,
    _phase_harmonics,
)
from .propagator import FieldConfig
from .rotations import rotation_population_curve

_POP_KEYS = ("p_plus2_0", "p_plus1_0", "p_zero_0", "p_minus1_0", "p_minus2_0")
_GRID_PER_DECADE = 16
_GUESS_SPAN = 2.0
_PHASE_SPREAD_BOUNDS = (1e-3, 1e2)
_RABI_ANGLE_FLOOR = 1e-2


@dataclass(frozen=True)
class TimeSeries:
    """Sampled populations: times (s), populations (n, dim), optional weights."""

    times: np.ndarray
    populations: np.ndarray
    weights: np.ndarray | None = None

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        p = np.asarray(self.populations, dtype=float)
        if t.ndim != 1 or p.ndim != 2 or p.shape[0] != t.size:
            raise ValueError("times must be (n,) and populations (n, dim)")
        if t.size >= 2 and np.any(np.diff(t) <= 0):
            raise ValueError("times must be strictly increasing")
        if np.any(p.sum(axis=1) > 1 + 1e-6):
            raise ValueError("population rows must sum to at most 1")
        w = self.weights
        if w is not None:
            w = np.asarray(w, dtype=float)
            if w.shape != (t.size,) or np.any(w < 0) or not np.any(w > 0):
                raise ValueError(
                    "weights must be non-negative, not all zero, with one entry per sample"
                )
            w = w.copy()
            w.flags.writeable = False
        for a in (t, p):
            a.flags.writeable = False
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "populations", p)
        object.__setattr__(self, "weights", w)

    @property
    def n(self) -> int:
        return self.times.size


@dataclass(frozen=True)
class FitResult:
    params: dict
    residual_rms: float
    converged: bool
    n_evals: int
    diagnostic: str | None = None

    def __post_init__(self):
        if self.residual_rms < 0:
            raise ValueError("residual_rms must be >= 0")


class _Profile:
    """Weighted RMS residual at the best simplex weights for a fixed value
    of the nonlinear parameter.

    ``basis(x)`` returns the curves of the five basis initial states,
    shape (n, channel, initial state).
    """

    def __init__(self, data: TimeSeries, basis):
        self.basis = basis
        self.n_evals = 0
        if data.weights is None:
            row_w = np.ones(data.n)
        else:
            row_w = data.weights / np.mean(data.weights)
        self._row_scale = np.repeat(np.sqrt(row_w), data.populations.shape[1])
        self._target = data.populations.ravel() * self._row_scale

    def solve(self, x: float) -> tuple[np.ndarray, float]:
        self.n_evals += 1
        a = self.basis(x).reshape(self._target.size, -1) * self._row_scale[:, None]
        # sum-to-one row, weighted far above the data rows
        lam = 1e3 * max(1.0, float(np.linalg.norm(a)))
        w, _ = nnls(
            np.vstack([a, np.full((1, a.shape[1]), lam)]),
            np.append(self._target, lam),
        )
        w /= w.sum()
        resid = a @ w - self._target
        return w, float(np.sqrt(np.mean(resid**2)))


def _log_grid(lo: float, hi: float, per_decade: float = _GRID_PER_DECADE) -> np.ndarray:
    return np.geomspace(lo, hi, max(3, math.ceil(per_decade * math.log10(hi / lo)) + 1))


def _varpro_fit(data: TimeSeries, basis, grid: np.ndarray, name: str) -> FitResult:
    """Grid search over the increasing positive values ``grid``, then a
    bounded refinement in u = ln(x / x_best) between the best point's
    neighbours.  Centring u on the best grid point keeps the bounded
    method's sqrt(eps)*|u| stopping term below ``xatol``.

    params hold the fitted value under ``name`` and the five weights.
    """
    profile = _Profile(data, basis)
    i = int(np.argmin([profile.solve(x)[1] for x in grid]))
    x_best = float(grid[i])
    lo, hi = grid[max(i - 1, 0)], grid[min(i + 1, grid.size - 1)]
    res = minimize_scalar(
        lambda u: profile.solve(x_best * math.exp(u))[1],
        bounds=(math.log(lo / x_best), math.log(hi / x_best)),
        method="bounded",
        options={"xatol": 1e-10},
    )
    x = x_best * math.exp(float(res.x))
    weights, rms = profile.solve(x)
    diagnostic = None
    if i in (0, grid.size - 1):
        side = "lower" if i == 0 else "upper"
        diagnostic = f"{name} at the {side} grid bound: not resolved beyond it"
    return FitResult(
        params={name: x, **dict(zip(_POP_KEYS, weights))},
        residual_rms=rms,
        converged=bool(res.success),
        n_evals=profile.n_evals,
        diagnostic=diagnostic,
    )


def _grid_bounds(lo: float, hi: float, guess) -> tuple[float, float]:
    """Narrow [lo, hi] to [guess / 2, 2 guess] when a guess is given."""
    if guess is None:
        return lo, hi
    g = float(guess)
    if not g > 0:
        raise ValueError("the initial guess must be positive")
    narrow_lo, narrow_hi = max(lo, g / _GUESS_SPAN), min(hi, g * _GUESS_SPAN)
    if narrow_lo >= narrow_hi:
        raise ValueError(
            f"initial guess {g:.6g} is outside the resolvable range [{lo:.6g}, {hi:.6g}]"
        )
    return narrow_lo, narrow_hi


def _check_degenerate(data: TimeSeries) -> FitResult | None:
    variation = float(np.max(np.ptp(data.populations, axis=0)))
    if variation < 1e-9:
        return FitResult(
            params={},
            residual_rms=0.0,
            converged=False,
            n_evals=0,
            diagnostic="constant trace: parameters are not identifiable",
        )
    return None


def _require_enough_points(data: TimeSeries) -> None:
    if data.n < 2:
        raise ValueError(f"need at least 2 samples to fit, got {data.n}")


def rabi_model_curve(times: np.ndarray, omega: float, weights: np.ndarray) -> np.ndarray:
    """Incoherent mixture of the closed-form rotation curves."""
    theta = 0.5 * omega * np.asarray(times, dtype=float)
    terms = (w * rotation_population_curve(m, theta) for w, m in zip(weights, ZEEMAN_M) if w)
    return sum(terms, np.zeros(theta.shape + (len(ZEEMAN_M),)))


def fit_rabi(data: TimeSeries, initial_guess: dict | None = None) -> FitResult:
    """Fit (Omega, initial populations) to a five-level resonant Rabi trace."""
    _require_enough_points(data)
    degenerate = _check_degenerate(data)
    if degenerate is not None:
        return degenerate
    t_ref = float(np.max(np.abs(data.times)))
    dt = float(data.times[-1] - data.times[0]) / (data.n - 1)
    lo, hi = _grid_bounds(
        2 * _RABI_ANGLE_FLOOR / t_ref, math.pi / (2 * dt), (initial_guess or {}).get("omega")
    )
    # the uniform part moves the 2 Omega harmonic by pi/2 at t_ref per step
    grid = np.union1d(_log_grid(lo, hi), np.arange(lo, hi, math.pi / (4 * t_ref)))

    return _varpro_fit(data, lambda omega: _rabi_basis(0.5 * omega * data.times), grid, "omega")


def _rabi_basis(theta: np.ndarray) -> np.ndarray:
    """Rotation curves of the five basis initial states at the angles theta,
    shape (n, channel, initial state), as one cosine-harmonic product."""
    coeffs = _rabi_cosine_coefficients()
    curves = np.cos(np.multiply.outer(theta, np.arange(coeffs.shape[0]))) @ coeffs
    return curves.reshape(theta.size, 5, len(ZEEMAN_M))


@lru_cache(maxsize=1)
def _rabi_cosine_coefficients() -> np.ndarray:
    """Cosine coefficients C_k, k = 0..4, of the closed-form rotation curves
    of the five basis initial states, shape (harmonic, channel * initial
    state): p(theta) = sum_k C_k cos(k theta).

    Dx(theta) = V Dz(theta) V^dagger with V the eigenvectors of Jx, ordered
    by eigenvalue +2 ... -2, so the curves are the phase harmonics of
    first = V^dagger and last = V; they are even in theta, so C_k = f_0 at
    k = 0 and 2 Re f_k above.
    """
    _, v = np.linalg.eigh(build_spin_system(2).jx)
    v = v[:, ::-1]  # eigenvalues +2 ... -2, the order of m in Dz
    f = _phase_harmonics(v.conj().T, v, np.eye(len(ZEEMAN_M))).real
    f[1:] *= 2
    f = f.reshape(f.shape[0], -1)
    f.flags.writeable = False  # shared by every caller through the cache
    return f


@lru_cache(maxsize=None)
def _basis_coefficients(kind: SequenceKind) -> np.ndarray:
    """Phase-harmonic coefficients of the five Zeeman basis initial states,
    shape (harmonic, channel * initial state)."""
    dx_first, dx_last, _ = _dx_pair(len(ZEEMAN_M) - 1, kind)
    coeffs = _phase_harmonics(dx_first, dx_last, np.eye(len(ZEEMAN_M)))
    coeffs = coeffs.reshape(coeffs.shape[0], -1)
    coeffs.flags.writeable = False  # shared by every caller through the cache
    return coeffs


def _harmonic_basis(kind: SequenceKind, carrier, var) -> np.ndarray:
    """Ensemble curves of the basis states, shape (n, channel, initial state)."""
    out = _harmonic_sum(carrier, var, _basis_coefficients(kind))
    return out.reshape(out.shape[0], 5, len(ZEEMAN_M))


def _echo_basis(times: np.ndarray, compound: float) -> np.ndarray:
    # at tau1 = tau2 the carrier cancels and the phase variance is c tau^4
    return _harmonic_basis(SequenceKind.ECHO, np.zeros_like(times), compound * times**4)


def echo_model_curve(times, compound: float, weights: np.ndarray) -> np.ndarray:
    """Echo populations at tau1 = tau2 = times for the compound parameter c."""
    return _echo_basis(np.asarray(times, dtype=float), compound) @ weights


def fit_ramsey(data: TimeSeries, known: dict) -> FitResult:
    """Fit the gradient B1 and initial populations to a Ramsey trace.

    ``known`` must provide b0 (T), sigma_z0 (m), and t_axial (K); mass (kg)
    is optional and defaults to neon-20.  times are tau1.  The model is the
    analytic ensemble average, so B1 enters only through its square and the
    reported value is non-negative.  Delays must be finite and >= 0.
    """
    _require_enough_points(data)
    _check_delays(data.times, 0.0)
    degenerate = _check_degenerate(data)
    if degenerate is not None:
        return degenerate
    spec = EnsembleSpec(
        sigma_z0=float(known["sigma_z0"]),
        t_axial=float(known["t_axial"]),
        mass=float(known.get("mass", CONSTANTS.mass_ne20)),
        n_samples=1,
    )
    # the carrier does not depend on B1 and the variance scales as B1^2
    carrier, var_unit = _carrier_and_variance(
        FieldConfig(b0=float(known["b0"]), b1=1.0),
        spec,
        SequenceKind.RAMSEY,
        data.times,
        np.zeros_like(data.times),
    )
    spread_unit = math.sqrt(float(var_unit[-1]))
    if not spread_unit > 0:
        raise ValueError("the last delay must be positive to resolve B1")
    lo, hi = (s / spread_unit for s in _PHASE_SPREAD_BOUNDS)
    return _varpro_fit(
        data,
        lambda b1: _harmonic_basis(SequenceKind.RAMSEY, carrier, b1**2 * var_unit),
        _log_grid(lo, hi),
        "b1",
    )


def fit_echo(data: TimeSeries, known: dict) -> FitResult:
    """Fit the compound parameter c = (gamma B1)^2 k_B T_z / m to an echo
    trace taken at tau1 = tau2 (times are tau_tilde).

    The tau^4 envelope fixes only c; params always report "compound" (units
    s^-4) and additionally b1 when known supplies t_axial, or t_axial when
    known supplies b1.  B0 and sigma_z0 drop out at tau1 = tau2 but are
    accepted in ``known`` for interface symmetry.
    """
    _require_enough_points(data)
    degenerate = _check_degenerate(data)
    if degenerate is not None:
        return degenerate
    mass = float(known.get("mass", CONSTANTS.mass_ne20))
    have_t = "t_axial" in known
    have_b1 = "b1" in known
    if not have_t and not have_b1:
        raise ValueError("known must supply t_axial or b1 to resolve the compound parameter")

    t = data.times
    t_last = float(t[-1])
    if not t_last > 0:
        raise ValueError("the last delay must be positive to resolve the compound parameter")
    # phase spread sqrt(c) tau^2 at the last delay
    lo, hi = (s**2 / t_last**4 for s in _PHASE_SPREAD_BOUNDS)
    result = _varpro_fit(
        data,
        lambda c: _echo_basis(t, c),
        # c scales as the phase spread squared
        _log_grid(lo, hi, _GRID_PER_DECADE / 2),
        "compound",
    )
    compound = result.params["compound"]
    if have_t:
        t_axial = float(known["t_axial"])
        b1 = math.sqrt(compound * mass / (CONSTANTS.k_b * t_axial)) / CONSTANTS.gamma
        result.params["b1"] = b1
    if have_b1:
        b1 = float(known["b1"])
        result.params["t_axial"] = compound * mass / (CONSTANTS.k_b * (CONSTANTS.gamma * b1) ** 2)
    return result
