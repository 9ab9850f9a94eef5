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

Every basis is one harmonic series.  Each of the 25 basis curves is a
trigonometric polynomial of order four in one phase: theta = Omega t / 2
for the resonant rotation Dx(theta) = V Dz(theta) V^dagger (V the Jx
eigenvectors), and phi for Ramsey and echo.  Its cached harmonics
(``_basis_coefficients``) are summed with the Gaussian-damped carriers by
``ensemble._harmonic_sum`` as one matrix product: Rabi at (theta, var 0),
Ramsey at (carrier, B1^2 var_1), echo at (0, c tau^4).  The Rabi series
agrees with the closed forms of ``rabi_model_curve`` within 1e-12 for theta
up to 8000 rad.

Grid bounds are set by a dimensionless scale of the sampled trace:

  rabi    rotation angle Omega t_max / 2 from 1e-2 rad (t_max the largest
          |t|) up to the Nyquist limit of the mean sample spacing dt.  The
          population curves hold harmonics of the rotation angle up to the
          fourth, at angular frequency 2 Omega, so Omega <= pi / (2 dt).
          The residual oscillates in Omega with a period set by t_max, so
          the 16-per-decade log grid is merged with a uniform grid of step
          pi / (4 t_max): one step moves the 2 Omega harmonic by pi/2 at
          t_max.  That is about 2n grid points for n uniform samples, each
          an O(n) profile evaluation, so a Rabi fit costs O(n^2).
  ramsey  phase spread sqrt(var phi) at the last delay from 1e-3 to 1e2
          rad, 16 points per decade.  The floor reaches the B1 -> 0 limit.
  echo    phase spread sqrt(c) tau_last^2 from 1e-3 to 1e2 rad, 16 points
          per decade.

``fit_rabi`` takes an ``omega_guess``, which narrows its grid to
[guess / 2, 2 guess] within these bounds.
Residuals weight every sample and every m channel equally.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import CONSTANTS, TWO_PI, ZEEMAN_M
from .ensemble import (
    EnsembleSpec,
    SequenceKind,
    _carrier_and_variance,
    _dx_pair,
    _harmonic_sum,
    _phase_harmonics,
)
from .propagator import FieldConfig
from .rotations import RotationAxis, _axis_eig, rotation_population_curve

_POP_KEYS = ("p_plus2_0", "p_plus1_0", "p_zero_0", "p_minus1_0", "p_minus2_0")
_GRID_PER_DECADE = 16
_GUESS_SPAN = 2.0
_PHASE_SPREAD_BOUNDS = (1e-3, 1e2)
_RABI_ANGLE_FLOOR = 1e-2


@dataclass(frozen=True)
class TimeSeries:
    """Sampled populations: times (s), populations (n, dim)."""

    times: np.ndarray
    populations: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        p = np.asarray(self.populations, dtype=float)
        if t.ndim != 1 or p.ndim != 2 or p.shape[0] != t.size:
            raise ValueError("times must be (n,) and populations (n, dim)")
        for name, a in (("times", t), ("populations", p)):
            if not np.all(np.isfinite(a)):
                raise ValueError(f"{name} must be finite")
        if t.size >= 2 and np.any(np.diff(t) <= 0):
            raise ValueError("times must be strictly increasing")
        if np.any(p.sum(axis=1) > 1 + 1e-6):
            raise ValueError("population rows must sum to at most 1")
        for a in (t, p):
            a.flags.writeable = False
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "populations", p)

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
    """RMS residual at the best simplex weights for a fixed value of the
    nonlinear parameter.

    ``basis(x)`` returns the curves of the five basis initial states,
    shape (n, channel, initial state).
    """

    def __init__(self, data: TimeSeries, basis, nnls):
        self._nnls = nnls
        self.basis = basis
        self.n_evals = 0
        self._target = data.populations.ravel()

    def solve(self, x: float) -> tuple[np.ndarray, float]:
        self.n_evals += 1
        # nnls and a @ w round differently on the strided real part: copy
        a = np.ascontiguousarray(self.basis(x).reshape(self._target.size, -1))
        # sum-to-one row, weighted far above the data rows
        lam = 1e3 * max(1.0, float(np.linalg.norm(a)))
        w, _ = self._nnls(
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
    from scipy.optimize import minimize_scalar, nnls  # per fit: not at import, nor per evaluation

    profile = _Profile(data, basis, nnls)
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
    """Narrow [lo, hi] (rad/s) to [guess / 2, 2 guess] when an omega_guess
    is given; errors name it and give rad/s with the Hz equivalents."""
    if guess is None:
        return lo, hi
    g = float(guess)
    if not g > 0:
        raise ValueError(f"omega_guess: must be positive, got {g:.6g} rad/s")
    narrow_lo, narrow_hi = max(lo, g / _GUESS_SPAN), min(hi, g * _GUESS_SPAN)
    if narrow_lo >= narrow_hi:
        raise ValueError(
            f"omega_guess: {g:.6g} rad/s ({g / TWO_PI:.6g} Hz) is outside the resolvable"
            f" range [{lo:.6g}, {hi:.6g}] rad/s ([{lo / TWO_PI:.6g}, {hi / TWO_PI:.6g}] Hz)"
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
        raise ValueError(f"data: need at least 2 samples to fit, got {data.n}")


def _require_delays(data: TimeSeries) -> None:
    """At least two samples, at delays >= 0: the Ramsey and echo models' domain."""
    _require_enough_points(data)
    if data.times[0] < 0:
        raise ValueError(f"data: delays must be >= 0, got {data.times[0]:.6g} s")


def rabi_model_curve(times: np.ndarray, omega: float, weights: np.ndarray) -> np.ndarray:
    """Incoherent mixture of the closed-form rotation curves."""
    theta = 0.5 * omega * np.asarray(times, dtype=float)
    terms = (w * rotation_population_curve(m, theta) for w, m in zip(weights, ZEEMAN_M) if w)
    return sum(terms, np.zeros(theta.shape + (len(ZEEMAN_M),)))


def fit_rabi(data: TimeSeries, omega_guess: float | None = None) -> FitResult:
    """Fit (Omega, initial populations) to a five-level resonant Rabi trace."""
    _require_enough_points(data)
    degenerate = _check_degenerate(data)
    if degenerate is not None:
        return degenerate
    t_ref = float(np.max(np.abs(data.times)))
    dt = float(data.times[-1] - data.times[0]) / (data.n - 1)
    lo, hi = _grid_bounds(2 * _RABI_ANGLE_FLOOR / t_ref, math.pi / (2 * dt), omega_guess)
    # the uniform part moves the 2 Omega harmonic by pi/2 at t_ref per step
    grid = np.union1d(_log_grid(lo, hi), np.arange(lo, hi, math.pi / (4 * t_ref)))

    return _varpro_fit(
        data, lambda omega: _harmonic_basis(None, 0.5 * omega * data.times, 0.0), grid, "omega"
    )


@lru_cache(maxsize=None)
def _basis_coefficients(kind: SequenceKind | None) -> np.ndarray:
    """Phase-harmonic coefficients of the five Zeeman basis initial states,
    shape (harmonic, channel * initial state), for the Ramsey or echo
    sequence, or for the resonant rotation Dx(theta) when kind is None.

    Dx(theta) = V Dz(theta) V^dagger with V the eigenvectors of Jx, ordered
    by eigenvalue +2 ... -2 (the order of m in Dz), so the rotation curves
    are the phase harmonics of first = V^dagger and last = V in theta.
    """
    if kind is None:
        last = _axis_eig(len(ZEEMAN_M) - 1, RotationAxis.X)[1][:, ::-1]
        first = last.conj().T
    else:
        first, last, _ = _dx_pair(len(ZEEMAN_M) - 1, kind)
    coeffs = _phase_harmonics(first, last, np.eye(len(ZEEMAN_M)))
    coeffs = coeffs.reshape(coeffs.shape[0], -1)
    coeffs.flags.writeable = False  # shared by every caller through the cache
    return coeffs


def _harmonic_basis(kind: SequenceKind | None, carrier, var) -> np.ndarray:
    """Curves of the basis states for a Gaussian phase of mean ``carrier``
    and variance ``var``, shape (n, channel, initial state)."""
    out = _harmonic_sum(carrier, var, _basis_coefficients(kind))
    return out.reshape(out.shape[0], 5, len(ZEEMAN_M))


def echo_model_curve(times, compound: float, weights: np.ndarray) -> np.ndarray:
    """Echo populations at tau1 = tau2 = times for the compound parameter c:
    the carrier cancels there and the phase variance is c tau^4."""
    times = np.asarray(times, dtype=float)
    return _harmonic_basis(SequenceKind.ECHO, 0.0, compound * times**4) @ weights


def fit_ramsey(data: TimeSeries, known: dict) -> FitResult:
    """Fit the gradient B1 and initial populations to a Ramsey trace.

    ``known`` must provide b0 (T), sigma_z0 (m), and t_axial (K) of a
    neon-20 ensemble.  times are tau1.  The model is the analytic ensemble
    average, so B1 enters only through its square and the reported value is
    non-negative.  Delays must be >= 0.
    """
    _require_delays(data)
    degenerate = _check_degenerate(data)
    if degenerate is not None:
        return degenerate
    spec = EnsembleSpec(
        sigma_z0=float(known["sigma_z0"]),
        t_axial=float(known["t_axial"]),
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
        raise ValueError("data: the last delay must be positive to resolve B1")
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
    known supplies b1; ``known`` must supply exactly one of the two, and m
    is the neon-20 mass.  Every other key is ignored: B0 and sigma_z0 drop
    out at tau1 = tau2.  Delays must be >= 0.
    """
    if ("t_axial" in known) == ("b1" in known):
        given = "both" if "b1" in known else "neither"
        raise ValueError(f"t_axial, b1: exactly one of t_axial or b1 must be given, got {given}")
    _require_delays(data)
    degenerate = _check_degenerate(data)
    if degenerate is not None:
        return degenerate

    t = data.times
    t_last = float(t[-1])  # > 0: at least two increasing delays, none negative
    # phase spread sqrt(c) tau^2 at the last delay
    lo, hi = (s**2 / t_last**4 for s in _PHASE_SPREAD_BOUNDS)
    result = _varpro_fit(
        data,
        lambda c: _harmonic_basis(SequenceKind.ECHO, 0.0, c * t**4),
        # c scales as the phase spread squared
        _log_grid(lo, hi, _GRID_PER_DECADE / 2),
        "compound",
    )
    compound = result.params["compound"]
    if "t_axial" in known:
        k_t = CONSTANTS.k_b * float(known["t_axial"])
        result.params["b1"] = math.sqrt(compound * CONSTANTS.mass_ne20 / k_t) / CONSTANTS.gamma
    else:
        gamma_b1 = CONSTANTS.gamma * float(known["b1"])
        result.params["t_axial"] = compound * CONSTANTS.mass_ne20 / (CONSTANTS.k_b * gamma_b1**2)
    return result
