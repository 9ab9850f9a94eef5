"""Variable-projection least-squares fits of measured population traces.

Three fitters mirror the experimental analysis chain:

  fit_rabi    Rabi frequency and initial populations from a five-level
              resonant Rabi trace (closed-form rotation model with an
              incoherent mixture of initial basis states).
  fit_ramsey  gradient B1 (and initial populations) from a Ramsey trace,
              with B0, sigma_z0 and T_z given.
  fit_echo    the compound dephasing parameter c = (gamma B1)^2 k_B T_z / m
              from an echo trace at tau1 = tau2.  Only c is identifiable
              from that trace; B1 or T_z is reported when the other is
              supplied.

Every model is an incoherent mixture of the five Zeeman basis states, so it
is linear in the five initial-population weights once its one nonlinear
parameter (Omega, B1 or c) is fixed.  The fits therefore use variable
projection (Golub & Pereyra, SIAM J. Numer. Anal. 10, 413 (1973); O'Leary &
Rust, Comput. Optim. Appl. 54, 579 (2013)): for each trial value the
weights minimise the squared residual exactly on the probability simplex,
which leaves a residual that depends on the nonlinear parameter alone.

Every basis is one harmonic series.  Each of the 25 basis curves is a
trigonometric polynomial of order four in one Gaussian phase: theta =
Omega t / 2 for the resonant rotation Dx(theta) = V Dz(theta) V^dagger (V
the Jx eigenvectors), with variance 0; the carrier with variance B1^2 var_1
for Ramsey; 0 with variance c tau^4 for echo.  Its harmonics f_k
(``_basis_coefficients``) are real up to round-off, so the curve of state i
in channel m is sum_k F_k(t) f_k[m, i] with the real features F_k =
2' cos(k a) e^{-k^2 var / 2} (2' is 2 for k >= 1, 1 for k = 0).  The Rabi
series agrees with the closed forms of ``rabi_model_curve`` within 1e-12
for theta up to 8000 rad.  A profile builds per trial value only what
depends on it: the Rabi carrier harmonics 2' cos(k a) (``_harmonics``), or
the damping of the Ramsey and echo carrier harmonics, which are built once
per fit (``_damped``).

A fit reads the trace through sufficient statistics only: the Gram matrix G
and the vector b of the (5n, 5) basis follow from the 5 x 5 sums F^T F and
F^T Y over the samples, contracted with the f_k, and a batch of trial
values is one batched product (``_Profile``).  min w^T G w - 2 b^T w on the
simplex is solved exactly over its 31 supports (``_simplex_solve``).  The
normal equations resolve the mean squared residual only to about 1e-16 of
the mean squared data, so the refinement below and the reported
``residual_rms`` use the explicit residual at the solved weights.

A grid's exact solves are screened (``_screened_argmin``): the minimum under
1^T w = 1 alone, less a round-off slack, bounds the simplex objective from
below (``_sum_to_one_bound``), and points are solved one at a time by
increasing bound until the next bound exceeds the best objective.  The pick
is the exhaustive ``np.argmin``, ties to the lowest index.

The Rabi grid's uniform part (about 2n points) takes its G and b from
lattice sums (``_rabi_lattice``), not from features.  The features are
undamped, so by 2 cos a 2 cos b = 2 cos(a + b) + 2 cos(a - b) the sums F^T F
and F^T Y need only S_q = sum_j v_j cos(q Omega t_j / 2) for q = 0..8 over
the columns v = 1, y_0 .. y_4 (F^T Y only q <= 4).  On the lattice
Omega_g = lo + g step, t_j = t_0 + j dt, the exponent's g j term makes S_q
for all g one Bluestein chirp-z transform by numpy.fft
(``_chirp_cos_sums``), O((n + G) log(n + G)) per harmonic where features
cost O(n G); the log part of the grid keeps the direct statistics.
Measured times sit off the lattice (9 significant digits of microseconds
put them up to 5e-14 s off), so each transformed point carries a margin:
q Omega / 2 sum_j |v_j| |t_j - t_lattice|, the same for the grid values'
distance from their lattice, and the round-off of both the transform and
the direct features, passed through the contractions in absolute value.
It bounds the difference of the objective from the exact one on the
simplex, so an estimate's bound less its margin bounds its exact
objective.  ``fit_rabi`` makes the point of the lowest such bound exact and
solves it; every estimate whose widened bound is at or below that objective
is then made exact too.  No estimate left can be the argmin, so the screen
sees only exact points within reach, its pick is the exhaustive argmin of
the exact objectives, and the refinement, the fitted values and ``n_evals``
(which counts each grid point once) are unchanged.  On times far from a
lattice the margins cover the whole objective range, and every point is
made exact.  The Ramsey and echo grids (81 points each) have no lattice
sums: their features are damped.

The nonlinear parameter is located on a grid and refined on the profile's
slope in u = ln(x / x_best) between the grid neighbours of the best grid
point (``_refine``): secant steps on the last two slopes, whose signs shrink
the bracket, and bisection where a step would leave it.  By the envelope
theorem the slope of the mean squared residual is 2 mean(r dF/du w) at the
solved weights w, since the simplex does not depend on u.  The features'
slopes are closed forms: -2' k a sin(k a) for the Rabi carrier, and
-(p / 2) k^2 var F_k for the damped ones, whose variance scales as x^p (p =
2 for Ramsey, 1 for echo).  Values are never compared: near a noisy minimum
the rms is flat to the last bit over some 1e-8 in u, where the slope still
resolves the stationary point.  ``converged`` means the bracket or the step
fell below 1e-10 in u, a relative 1e-10 in x, within 200 evaluations.  Fits
import no SciPy.

Grid bounds are set by a dimensionless scale of the sampled trace:

  rabi    rotation angle Omega t_max / 2 from 1e-2 rad (t_max the largest
          |t|) up to the Nyquist limit of the mean sample spacing dt.  The
          population curves hold harmonics of the rotation angle up to the
          fourth, at angular frequency 2 Omega, so Omega <= pi / (2 dt).
          The residual oscillates in Omega with a period set by t_max, so
          the 16-per-decade log grid is merged with a uniform grid of step
          pi / (4 t_max): one step moves the 2 Omega harmonic by pi/2 at
          t_max.
  ramsey  phase spread sqrt(var phi) at the last delay from 1e-3 to 1e2
          rad, 16 points per decade.  The floor reaches the B1 -> 0 limit.
  echo    phase spread sqrt(c) tau_last^2 from 1e-3 to 1e2 rad, 16 points
          per decade.

``fit_rabi`` takes an ``omega_guess``, which narrows its grid to
[guess / 2, 2 guess] within these bounds.
Residuals weight every sample and every m channel equally.

Each fit returns its model at the trace's times, at the fitted value and
weights, built by the model's closed form: ``rabi_model_curve``, the
analytic ``ensemble.ensemble_average_curve`` for Ramsey, and
``echo_model_curve``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from functools import lru_cache, partial

import numpy as np

from . import ensemble
from .core import GAMMA, K_B, MASS_NE20, TWO_PI, ZEEMAN_M, Populations
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
_CHUNK_ROWS = 8192  # trial values x samples per feature block
_TIE_ULPS = 64  # slack in units of eps * _objective_scale; 4 sufficed on noiseless traces
_ROUND_ULPS = 16  # round-off of a lattice sum or a direct one, in eps per phase and per term
_XATOL = 1e-10
_REFINE_MAX_ITER = 200


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
    """Outcome of a fit.

    params: the fitted nonlinear value (omega in rad/s, b1 in T/m, or
        compound in s^-4, plus b1 or t_axial derived from it for echo) and
        the five initial-population weights under ``_POP_KEYS``; empty when
        the trace is constant and nothing is identifiable.
    residual_rms: rms over samples and channels of the explicit residual at
        the fitted value and weights (0 when params is empty).
    converged: whether the refinement's bracket or step fell below
        ``_XATOL`` within ``_REFINE_MAX_ITER`` evaluations.
    n_evals: grid points plus refinement steps evaluated.
    diagnostic: why a value is unresolved or unidentifiable, else None.
    curve: the fitted model at the trace's times, shape (n, 5), at the
        fitted value and weights; None when params is empty.
    """

    params: dict
    residual_rms: float
    converged: bool
    n_evals: int
    diagnostic: str | None = None
    curve: np.ndarray | None = field(default=None, compare=False)  # follows from params; == skips it

    def __post_init__(self):
        if self.residual_rms < 0:
            raise ValueError("residual_rms must be >= 0")


class _Profile:
    """Sufficient statistics of a model's fit for batches of trial values of
    its nonlinear parameter, and the best simplex weights at one value.

    ``features(x)`` maps trial values x, shape (g,), to the damped carriers
    2' cos(k a) e^{-k^2 var / 2}, shape (g, harmonic, n), which contract
    with the real harmonics of ``_basis_coefficients(kind)`` to the basis
    curves; ``slopes(x, f)`` maps one value x and its features f (harmonic,
    n) to their derivatives in u = ln x.  ``n_evals`` counts the grid points
    and refinement steps of a fit (``_varpro_fit``).
    """

    def __init__(self, data: TimeSeries, kind: SequenceKind | None, features, slopes):
        self._features, self._slopes = features, slopes
        dim = len(ZEEMAN_M)
        # (harmonic, channel, initial state); the imaginary parts are round-off
        self._coeffs = _basis_coefficients(kind).real.reshape(dim, dim, dim)
        # sum over channels of B[k, c, i] B[l, c, j], rows (k, l), columns (i, j)
        self._pairs = np.einsum("kci,lcj->klij", self._coeffs, self._coeffs).reshape(
            dim * dim, dim * dim
        )
        self._target = data.populations
        self._chunk = max(1, _CHUNK_ROWS // data.n)
        self.n_evals = 0

    def statistics(self, x) -> tuple[np.ndarray, np.ndarray]:
        """G (g, state, state) and b (g, state) at the trial values x (g,); w^T
        G w - 2 b^T w plus the mean squared data is the mean squared residual."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        dim = len(ZEEMAN_M)
        gram, b = np.empty((x.size, dim, dim)), np.empty((x.size, dim))
        for start in range(0, x.size, self._chunk):
            part = slice(start, start + self._chunk)
            gram[part], b[part] = self._sums(self._features(x[part]))
        return gram, b

    def _sums(self, f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """G and b from a feature block f (g, harmonic, n)."""
        dim = len(ZEEMAN_M)
        ff = np.einsum("gkt,glt->gkl", f, f).reshape(-1, dim * dim)
        fy = (f.reshape(-1, f.shape[-1]) @ self._target).reshape(-1, dim * dim)
        return self._contract(ff, fy)

    def _contract(self, ff: np.ndarray, fy: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """G and b from the sums F^T F (g, (k, l)) and F^T Y (g, (k, channel))."""
        dim, scale = len(ZEEMAN_M), self._target.size
        gram = (ff @ self._pairs).reshape(-1, dim, dim) / scale
        return gram, fy @ self._coeffs.reshape(dim * dim, dim) / scale

    def fit(self, x: float) -> tuple[np.ndarray, float, float]:
        """Weights w at x, the rms of the explicit residual r, which keeps a
        clean fit's rms far below the normal equations' round-off, and the
        slope of the mean squared residual in u = ln x.  The slope is 2
        mean(r dF/du w) by the envelope theorem: the simplex does not depend
        on u, so the weights' own change adds nothing at their optimum."""
        self.n_evals += 1
        f = self._features(np.array([x]))
        w = _simplex_solve(*self._sums(f))[0][0]
        mix = self._coeffs @ w
        resid = f[0].T @ mix - self._target
        slope = 2 * np.mean(resid * (self._slopes(x, f[0]).T @ mix))
        return w, float(np.sqrt(np.mean(resid**2))), float(slope)


def _harmonics(a) -> np.ndarray:
    """Carrier harmonics 2' cos(k a), k = 0..4 (2' is 2 for k >= 1 and 1 for
    k = 0), for a of shape (..., n); shape (..., harmonic, n).  One cos:
    2 cos(k a) by the Chebyshev recurrence."""
    two_cos = 2 * np.cos(a)
    out = np.empty(two_cos.shape[:-1] + (len(ZEEMAN_M),) + two_cos.shape[-1:])
    out[..., 0, :] = 1.0
    prev, cur = 2.0, two_cos  # 2 cos((k - 1) a) and 2 cos(k a)
    out[..., 1, :] = cur
    for k in range(2, len(ZEEMAN_M)):
        prev, cur = cur, two_cos * cur - prev
        out[..., k, :] = cur
    return out


def _rabi_slopes(times: np.ndarray, omega: float) -> np.ndarray:
    """Derivatives of the Rabi features 2' cos(k a), a = omega t / 2, in u =
    ln omega: -2' k a sin(k a), shape (harmonic, n)."""
    a = 0.5 * omega * times
    return -_TWO_PRIME[:, None] * _ORDERS * a * np.sin(_ORDERS * a)


def _damped(harmonics: np.ndarray, var: np.ndarray) -> np.ndarray:
    """Carrier harmonics (harmonic, n) damped by e^{-k^2 var / 2} for var (g,
    n); shape (g, harmonic, n).  One exp: the damping factors are products
    of the odd powers of e^{-var / 2}."""
    d = np.exp(-0.5 * var)
    d2 = d * d
    out = np.empty(d.shape[:1] + harmonics.shape)
    out[:, 0] = harmonics[0]
    np.multiply(harmonics[1], d, out=out[:, 1])
    odd, damp = d.copy(), d  # d^(2k - 1) and d^(k^2), updated in place
    for k in range(2, len(ZEEMAN_M)):
        odd *= d2
        damp *= odd
        np.multiply(harmonics[k], damp, out=out[:, k])
    return out


def _product_map() -> np.ndarray:
    """M (harmonic pair (k, l), q) with sum_j 2' cos(k a_j) 2' cos(l a_j) =
    sum_q M[(k, l), q] sum_j cos(q a_j), q = 0..8, from 2 cos a 2 cos b =
    2 cos(a + b) + 2 cos(a - b)."""
    dim = len(ZEEMAN_M)
    out = np.zeros((dim, dim, 2 * dim - 1))
    for k, l in itertools.product(range(dim), repeat=2):
        out[k, l, k + l] += 0.5 * _TWO_PRIME[k] * _TWO_PRIME[l]
        out[k, l, abs(k - l)] += 0.5 * _TWO_PRIME[k] * _TWO_PRIME[l]
    return out.reshape(dim * dim, -1)


_TWO_PRIME = np.array([1.0, 2.0, 2.0, 2.0, 2.0])  # 2' of harmonics k = 0..4
_ORDERS = np.arange(len(ZEEMAN_M))[:, None]  # k = 0..4, a column against the samples
_PRODUCTS = _product_map()


def _chirp_cos_sums(v: np.ndarray, t0: float, dt: float, lo: float, step: float, size: int, q: int):
    """sum_j v[c, j] cos(q (lo + g step) (t0 + j dt) / 2) for g < size, shape
    (size, column), by one Bluestein chirp-z transform (Rabiner, Schafer &
    Rader, Bell Syst. Tech. J. 48, 1249 (1969)) with g j = (g^2 + j^2 - (g -
    j)^2) / 2, and a bound (column,) on its round-off.

    Each phase is formed with a relative error of a few eps, so a term's
    error is a few eps times the largest phase; the power-of-two FFTs add
    O(eps log2 L) of the spectra's norms (Higham, Accuracy and Stability of
    Numerical Algorithms (2002), sec. 24.1)."""
    n = v.shape[1]
    half = 0.5 * q
    phi = half * step * dt
    j, g = np.arange(n), np.arange(size)
    pre = half * lo * dt * j + 0.5 * phi * j**2
    post = half * t0 * (lo + g * step) + 0.5 * phi * g**2
    chirp = -0.5 * phi * np.arange(max(n, size)) ** 2
    span = n + size - 1
    length = 1 << (span - 1).bit_length()
    kernel = np.zeros(length, dtype=complex)  # exp(-i phi m^2 / 2) for m = 1 - n .. size - 1
    kernel[:size] = np.exp(1j * chirp[:size])
    kernel[length - n + 1 :] = np.exp(1j * chirp[n - 1 : 0 : -1])
    spectrum = np.fft.fft(v * np.exp(1j * pre), length)
    spectrum *= np.fft.fft(kernel)
    sums = (np.fft.ifft(spectrum, out=spectrum)[:, :size] * np.exp(1j * post)).real.T
    reach = np.abs(pre).max() + np.abs(post).max() + np.abs(chirp).max()
    l1, l2 = np.abs(v).sum(axis=1), np.sqrt((v * v).sum(axis=1))
    fft = math.log2(length) * (span * l2 + math.sqrt(span) * l1)
    return sums, _ROUND_ULPS * np.finfo(float).eps * (reach * l1 + fft)


def _rabi_lattice(profile: _Profile, data: TimeSeries, omega: np.ndarray, step: float):
    """Estimates of the Rabi G (g, 5, 5) and b (g, 5) at the uniform grid
    omega = omega[0] + g step (up to round-off) from lattice sums, and
    margins (g,) that bound |w^T G w - 2 b^T w| of their difference from
    the exact statistics for w on the simplex.

    The sums run on the lattice t0 + j dt, omega[0] + g step.  A sum of
    v_j cos(q Omega t_j / 2) moves by at most q Omega / 2 |v_j| |t_j -
    t_lattice| and q |t_j| / 2 |v_j| |Omega - Omega_lattice| per sample; the
    round-off of the transform and of the direct features (a few eps times
    the largest phase, and n eps for the sums) adds to it, so each bound is
    affine in (Omega, |Omega - Omega_lattice|, 1).  The bounds pass through
    ``_PRODUCTS``, ``_pairs`` and ``_coeffs`` in absolute value, with the
    round-off of the 25-term contractions.  G is raised by e I, with e (the
    largest row sum of the bound on G) at least the spectral norm of its
    error, so that the estimate stays above the exact, positive
    semidefinite G and ``_sum_to_one_bound`` stays a lower bound; the
    margin is 2 (e + max_i bound on b_i).
    """
    t, y = data.times, data.populations
    n, size, dim = t.size, omega.size, len(ZEEMAN_M)
    eps = np.finfo(float).eps
    t0, dt = float(t[0]), float(t[-1] - t[0]) / (n - 1)
    j = np.arange(n)
    dev_t = np.abs(t - (t0 + j * dt)) + 2 * eps * (abs(t0) + j * dt)
    lattice_omega = omega[0] + np.arange(size) * step
    dev_omega = np.abs(omega - lattice_omega) + 2 * eps * lattice_omega
    v = np.vstack([np.ones(n), y.T])  # columns 1, y_0 .. y_4
    mass = np.abs(v)
    # F^T F from the sums of cos(q a) over column 1 (q = 0..8), F^T Y from the others (q <= 4)
    ff, fy = np.tile(v[0].sum() * _PRODUCTS[:, 0], (size, 1)), np.empty((size, dim, dim))
    fy[:, 0] = v[1:].sum(axis=1)
    # the coefficients (q, 3, column) of each sum's err on (Omega, its lattice distance, 1)
    err = np.zeros((2 * dim - 1, 3, v.shape[0]))
    drift = np.column_stack([dev_t, np.abs(t) + dev_t])
    for q in range(1, 2 * dim - 1):
        c = v.shape[0] if q < dim else 1
        sums, err[q, 2, :c] = _chirp_cos_sums(v[:c], t0, dt, omega[0], step, size, q)
        err[q, :2, :c] = 0.5 * q * (mass[:c] @ drift).T
        ff += sums[:, :1] * _PRODUCTS[:, q]
        if q < dim:
            fy[:, q] = _TWO_PRIME[q] * sums[:, 1:]
    gram, b = profile._contract(ff, fy.reshape(size, dim * dim))
    # the direct features' round-off: a few eps times the largest phase per term, n eps per sum
    phase = 0.5 * np.arange(2 * dim - 1) * omega[-1] * np.abs(t).max()
    err[:, 2] += _ROUND_ULPS * eps * (phase + 2 * n)[:, None] * mass.sum(axis=1)
    err_ff = err[:, :, 0].T @ _PRODUCTS.T
    err_fy = (_TWO_PRIME[:, None, None] * err[:dim, :, 1:]).transpose(1, 0, 2).reshape(3, -1)
    # both paths round the contractions, whose terms are at most 2' 2' n and 2' sum |y|
    err_ff[2] += 2 * dim**2 * eps * n * np.outer(_TWO_PRIME, _TWO_PRIME).ravel()
    err_fy[2] += 2 * dim**2 * eps * np.outer(_TWO_PRIME, mass[1:].sum(axis=1)).ravel()
    basis = np.column_stack([omega, dev_omega, np.ones(size)]) / y.size
    err_gram = basis @ (err_ff @ np.abs(profile._pairs))
    err_b = basis @ (err_fy @ np.abs(profile._coeffs.reshape(dim * dim, dim)))
    lift = err_gram.reshape(-1, dim, dim).sum(axis=2).max(axis=1)
    gram[:, range(dim), range(dim)] += lift[:, None]
    return gram, b, 2 * (lift + err_b.max(axis=1))


def _kkt_parts() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The 31 supports (support, state), fewest states first; the part of
    their KKT matrices that holds w = 0 off the support and the sum-to-one
    border, (support, 6, 6); and the mask 2 s s^T of their G block."""
    dim = len(ZEEMAN_M)
    s = np.array(
        sorted(
            (s for s in itertools.product((0.0, 1.0), repeat=dim) if any(s)),
            key=lambda s: (sum(s), s[::-1]),
        )
    )
    base = np.zeros((s.shape[0], dim + 1, dim + 1))
    base[:, range(dim), range(dim)] = 1 - s
    base[:, :dim, dim] = -s
    base[:, dim, :dim] = s
    return s, base, 2 * s[:, :, None] * s[:, None, :]


_SUPPORTS, _KKT_BASE, _KKT_GRAM = _kkt_parts()


def _kkt_solve(gram: np.ndarray, b: np.ndarray, supports: slice) -> tuple[np.ndarray, np.ndarray]:
    """w (g, support, state) solving 2 G_SS w_S - lambda 1 = 2 b_S, 1^T w_S
    = 1 (w = 0 off S) for S in ``_SUPPORTS[supports]``, NaN where singular,
    and the objectives w^T G w - 2 b^T w (g, support)."""
    g, dim = b.shape
    kkt = np.tile(_KKT_BASE[supports], (g, 1, 1, 1))
    kkt[..., :dim, :dim] += _KKT_GRAM[supports] * gram[:, None]
    rhs = np.ones((g, kkt.shape[1], dim + 1, 1))
    rhs[..., :dim, 0] = 2 * b[:, None] * _SUPPORTS[supports]
    try:
        w = np.linalg.solve(kkt, rhs)[..., :dim, 0]
    except np.linalg.LinAlgError:  # raised if any system is singular
        singular = np.linalg.slogdet(kkt)[0] == 0
        kkt[singular] = np.eye(dim + 1)
        w = np.linalg.solve(kkt, rhs)[..., :dim, 0]
        w[singular] = np.nan
    return w, np.einsum("gsi,gij,gsj->gs", w, gram, w) - 2 * np.einsum("gsi,gi->gs", w, b)


def _objective_scale(gram: np.ndarray, b: np.ndarray) -> np.ndarray:
    """max G_ii + 2 max |b_i|, which bounds |w^T G w - 2 b^T w| on the simplex."""
    return np.abs(np.diagonal(gram, axis1=1, axis2=2)).max(axis=1) + 2 * np.abs(b).max(axis=1)


def _simplex_solve(gram: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact minimum of w^T G w - 2 b^T w over the probability simplex for a
    batch of PSD G (g, 5, 5) and b (g, 5); returns w (g, 5) and the
    objective (g,).

    The KKT systems of all 31 supports are solved in one batch.  The
    problem is convex, so the feasible solution of lowest objective is the
    minimum; a singular system drops out.  Among the solutions within
    round-off of the lowest, the one with the fewest states is kept, so that
    a state which a perfect fit does not need reads exactly 0.
    """
    w, objective = _kkt_solve(gram, b, slice(None))
    objective[~np.all(w >= 0, axis=-1)] = np.inf  # NaN fails too
    slack = _TIE_ULPS * np.finfo(float).eps * _objective_scale(gram, b)
    pick = np.argmax(objective <= (objective.min(axis=1) + slack)[:, None], axis=1)
    return w[np.arange(len(b)), pick], objective[np.arange(len(b)), pick]


def _sum_to_one_bound(gram: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Lower bound (g,) on ``_simplex_solve``'s objective: the minimum under
    1^T w = 1 alone (the full support's system) less ``_TIE_ULPS`` eps
    ``_objective_scale`` (1 + |w|_1)^2, the round-off of a backward-stable
    solve, which grows where the system is nearly singular; -inf if singular."""
    w, objective = (a[:, 0] for a in _kkt_solve(gram, b, slice(-1, None)))
    reach = 1 + np.abs(w).sum(axis=1)
    bound = objective - _TIE_ULPS * np.finfo(float).eps * _objective_scale(gram, b) * reach**2
    bound[~np.isfinite(bound)] = -np.inf
    return bound


def _screened_argmin(gram: np.ndarray, b: np.ndarray, bound: np.ndarray) -> int:
    """``np.argmin`` of the ``_simplex_solve`` objectives of G and b, given a
    lower bound (g,) on each: points are solved one at a time by increasing
    bound until the next bound exceeds the best objective."""
    objective = np.full(bound.size, np.inf)
    for i in np.argsort(bound):
        if bound[i] > objective.min():
            break
        objective[i] = _simplex_solve(gram[i : i + 1], b[i : i + 1])[1][0]
    return int(np.argmin(objective))


def _log_grid(lo: float, hi: float, per_decade: float = _GRID_PER_DECADE) -> np.ndarray:
    return np.geomspace(lo, hi, max(3, math.ceil(per_decade * math.log10(hi / lo)) + 1))


def _refine(slope, lo: float, hi: float) -> tuple[float, bool]:
    """Stationary point of a profile in u on [lo, hi], from u = 0, given its
    slope: a secant step on the last two slopes, bisection where the step
    would leave the bracket, which each slope's sign shrinks.  Returns the
    point where the bracket or the step fell below ``_XATOL`` and whether
    that happened within ``_REFINE_MAX_ITER`` evaluations.  Values are never
    compared: at a noisy profile's flat bottom they cannot tell points apart."""
    u, u_last, s_last = 0.0, math.nan, math.nan  # a NaN step fails the bracket test
    for _ in range(_REFINE_MAX_ITER):
        s = slope(u)
        lo, hi = (lo, u) if s > 0 else (u, hi)
        step = -s * (u - u_last) / (s - s_last) if s != s_last else math.nan
        if not lo < u + step < hi:
            step = 0.5 * (lo + hi) - u
        if hi - lo < _XATOL or abs(step) < _XATOL:
            return u + step, True
        u, u_last, s_last = u + step, u, s
    return u, False


def _varpro_fit(profile: _Profile, grid: np.ndarray, name: str, gram, b, bound, model) -> FitResult:
    """Grid search over the increasing positive values ``grid``, whose G, b
    and lower bounds (``_screened_argmin``) are given, then ``_refine`` on
    the profile's slope in u = ln(x / x_best) between the best point's
    neighbours, where ``_XATOL`` on u is a relative tolerance on x.

    params hold the fitted value under ``name`` and the five weights; the
    curve is ``model(x, weights)`` at the fitted ones.
    """
    profile.n_evals += grid.size
    i = _screened_argmin(gram, b, bound)
    x_best = float(grid[i])
    lo, hi = grid[max(i - 1, 0)], grid[min(i + 1, grid.size - 1)]
    u, converged = _refine(
        lambda u: profile.fit(x_best * math.exp(u))[2],
        math.log(lo / x_best),
        math.log(hi / x_best),
    )
    x = x_best * math.exp(u)
    weights, rms, _ = profile.fit(x)
    diagnostic = None
    if i in (0, grid.size - 1):
        side = "lower" if i == 0 else "upper"
        diagnostic = f"{name} at the {side} grid bound: not resolved beyond it"
    return FitResult(
        params={name: x, **dict(zip(_POP_KEYS, weights.tolist()))},
        residual_rms=rms,
        converged=converged,
        n_evals=profile.n_evals,
        diagnostic=diagnostic,
        curve=model(x, weights),
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


def _constant_trace(data: TimeSeries, delays: bool) -> FitResult | None:
    """Check the trace: one population column per Zeeman state, at least two
    samples, and, where ``delays`` (the Ramsey and echo models' domain), no
    negative delay.  Returns the result of a constant trace, whose
    parameters are not identifiable, or None for any other trace."""
    if data.populations.shape[1] != len(ZEEMAN_M):
        raise ValueError(f"populations: need {len(ZEEMAN_M)} columns, got {data.populations.shape[1]}")
    if data.n < 2:
        raise ValueError(f"data: need at least 2 samples to fit, got {data.n}")
    if delays and data.times[0] < 0:
        raise ValueError(f"data: delays must be >= 0, got {data.times[0]:.6g} s")
    if float(np.max(np.ptp(data.populations, axis=0))) >= 1e-9:
        return None
    diagnostic = "constant trace: parameters are not identifiable"
    return FitResult(params={}, residual_rms=0.0, converged=False, n_evals=0, diagnostic=diagnostic)


def rabi_model_curve(times: np.ndarray, omega: float, weights: np.ndarray) -> np.ndarray:
    """Incoherent mixture of the closed-form rotation curves."""
    theta = 0.5 * omega * np.asarray(times, dtype=float)
    terms = (w * rotation_population_curve(m, theta) for w, m in zip(weights, ZEEMAN_M) if w)
    return sum(terms, np.zeros(theta.shape + (len(ZEEMAN_M),)))


def fit_rabi(data: TimeSeries, omega_guess: float | None = None) -> FitResult:
    """Fit (Omega, initial populations) to a five-level resonant Rabi trace."""
    if (constant := _constant_trace(data, delays=False)) is not None:
        return constant
    t_ref = float(np.max(np.abs(data.times)))
    dt = float(data.times[-1] - data.times[0]) / (data.n - 1)
    lo, hi = _grid_bounds(2 * _RABI_ANGLE_FLOOR / t_ref, math.pi / (2 * dt), omega_guess)
    # the uniform part moves the 2 Omega harmonic by pi/2 at t_ref per step
    step = math.pi / (4 * t_ref)
    uniform = np.arange(lo, hi, step)
    grid = np.union1d(_log_grid(lo, hi), uniform)
    profile = _Profile(
        data,
        None,
        lambda omega: _harmonics(0.5 * omega[:, None] * data.times),
        lambda omega, f: _rabi_slopes(data.times, omega),
    )
    on_lattice = np.isin(grid, uniform)
    dim = len(ZEEMAN_M)
    gram, b, margin = np.empty((grid.size, dim, dim)), np.empty((grid.size, dim)), np.zeros(grid.size)
    gram[~on_lattice], b[~on_lattice] = profile.statistics(grid[~on_lattice])
    gram[on_lattice], b[on_lattice], margin[on_lattice] = _rabi_lattice(profile, data, uniform, step)
    # an estimate's exact objective is at least its bound less its margin
    bound = _sum_to_one_bound(gram, b) - margin
    # the lowest bound is made exact and solved; an estimate whose bound lies
    # above that objective cannot be the argmin, and every other is made exact
    first = [int(np.argmin(bound))]
    gram[first], b[first] = profile.statistics(grid[first])
    margin[first] = 0.0
    reach = np.flatnonzero((margin > 0) & (bound <= _simplex_solve(gram[first], b[first])[1][0]))
    gram[reach], b[reach] = profile.statistics(grid[reach])
    exact = np.append(reach, first)
    bound[exact] = _sum_to_one_bound(gram[exact], b[exact])
    return _varpro_fit(profile, grid, "omega", gram, b, bound, partial(rabi_model_curve, data.times))


def _damped_fit(
    data: TimeSeries, kind: SequenceKind, carrier, variance, power: int, grid, name: str, model
) -> FitResult:
    """``_varpro_fit`` of a Ramsey or echo trace over ``grid``, whose features
    are the harmonics of ``carrier`` damped by the phase variance
    ``variance(x)`` (g, n) at trial values x (g,), which scales as x^power,
    with the curve ``model(x, weights)``.  A feature's slope in u = ln x is
    -(power / 2) k^2 var times the feature."""
    harmonics = _harmonics(carrier)
    profile = _Profile(
        data,
        kind,
        lambda x: _damped(harmonics, variance(x)),
        lambda x, f: -0.5 * power * _ORDERS**2 * variance(np.array([x])) * f,
    )
    gram, b = profile.statistics(grid)
    return _varpro_fit(profile, grid, name, gram, b, _sum_to_one_bound(gram, b), model)


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
        first, last = _dx_pair(len(ZEEMAN_M) - 1, kind)
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


def fit_ramsey(data: TimeSeries, *, b0: float, sigma_z0: float, t_axial: float) -> FitResult:
    """Fit the gradient B1 and initial populations to a Ramsey trace.

    b0 (T), sigma_z0 (m) and t_axial (K) are those of the neon-20 ensemble;
    times are tau1.  The model is the analytic ensemble average, so B1
    enters only through its square and the reported value is non-negative.
    Delays must be >= 0.
    """
    if (constant := _constant_trace(data, delays=True)) is not None:
        return constant
    spec = EnsembleSpec(sigma_z0=float(sigma_z0), t_axial=float(t_axial), n_samples=1)
    cfg = FieldConfig(b0=float(b0), b1=1.0)
    # the carrier does not depend on B1 and the variance scales as B1^2
    zero = np.zeros_like(data.times)
    carrier, var_unit = _carrier_and_variance(cfg, spec, SequenceKind.RAMSEY, data.times, zero)
    spread_unit = math.sqrt(float(var_unit[-1]))
    if not spread_unit > 0:
        raise ValueError("data: the last delay must be positive to resolve B1")
    grid = _log_grid(*(s / spread_unit for s in _PHASE_SPREAD_BOUNDS))

    def model(b1: float, weights: np.ndarray) -> np.ndarray:
        return ensemble.ensemble_average_curve(
            replace(cfg, b1=b1), spec, SequenceKind.RAMSEY, data.times, initial=Populations(weights)
        )

    return _damped_fit(
        data, SequenceKind.RAMSEY, carrier, lambda b1: b1[:, None] ** 2 * var_unit, 2, grid, "b1", model
    )


def fit_echo(data: TimeSeries, *, t_axial: float | None = None, b1: float | None = None) -> FitResult:
    """Fit the compound parameter c = (gamma B1)^2 k_B T_z / m to an echo
    trace taken at tau1 = tau2 (times are tau_tilde).

    The tau^4 envelope fixes only c; params always report "compound" (units
    s^-4) and, from c, b1 (T/m) when t_axial (K) is given, or t_axial when
    b1 is given.  Exactly one of the two must be given, positive and finite,
    and m is the neon-20 mass.  B0 and sigma_z0 drop out at tau1 = tau2, so
    the fit takes neither.  Delays must be >= 0.
    """
    if (t_axial is None) == (b1 is None):
        given = "neither" if b1 is None else "both"
        raise ValueError(f"t_axial, b1: exactly one of t_axial or b1 must be given, got {given}")
    for name, anchor in (("t_axial", t_axial), ("b1", b1)):
        if anchor is not None and not (anchor > 0 and math.isfinite(anchor)):
            raise ValueError(f"{name}: must be positive and finite, got {anchor!r}")
    if (constant := _constant_trace(data, delays=True)) is not None:
        return constant

    t = data.times
    t_last = float(t[-1])  # > 0: at least two increasing delays, none negative
    # phase spread sqrt(c) tau^2 at the last delay, so c scales as its square
    grid = _log_grid(*(s**2 / t_last**4 for s in _PHASE_SPREAD_BOUNDS), _GRID_PER_DECADE / 2)
    t4, zero = t**4, np.zeros_like(t)  # the carrier cancels
    model = partial(echo_model_curve, t)
    result = _damped_fit(data, SequenceKind.ECHO, zero, lambda c: c[:, None] * t4, 1, grid, "compound", model)
    compound = result.params["compound"]
    if t_axial is not None:
        result.params["b1"] = math.sqrt(compound * MASS_NE20 / (K_B * float(t_axial))) / GAMMA
    else:
        result.params["t_axial"] = compound * MASS_NE20 / (K_B * (GAMMA * float(b1)) ** 2)
    return result
