"""Independent reference physics for the benchmark's correctness checks.

Nothing here imports spinorlab.  Every quantity is rebuilt from the
formulas the program states in its docstrings, with code of its own:

  RF traces       H(t) of the ``propagator`` module docstring, integrated
                  with DOP853 at rtol 1e-11 for all initial states at once.
  STIRAP chains   the chain Hamiltonian of the ``stirap`` module docstring,
                  with Clebsch-Gordan factors from their closed forms for
                  coupling to a rank-1 tensor (not the Racah sum).
  ensembles       populations of the Dx . Dz . Dx sequences of the
                  ``ensemble`` module docstring, averaged over a Gaussian
                  phase by trapezoidal quadrature on the real line.
  Rabi fits       the resonant rotation exp(-i (Omega t / 2) Jx).

The Zeeman basis is ordered m = +2 ... -2, as in the program.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import solve_ivp

# CODATA 2018, the Ne-20 atomic mass and g_J = 3/2 of the 3P2 level
MU_B = 9.2740100783e-24  # J/T
HBAR = 1.054571817e-34  # J s
K_B = 1.380649e-23  # J/K
MASS_NE20 = 19.9924401762 * 1.66053906660e-27  # kg
GAMMA = 1.5 * MU_B / HBAR  # rad/(s T)

M_VALUES = np.array([2.0, 1.0, 0.0, -1.0, -2.0])


def _spin2_jx() -> np.ndarray:
    m = M_VALUES
    jx = np.zeros((5, 5))
    for i in range(4):
        # <m+1| J+ |m> = sqrt(j(j+1) - m(m+1)), with m = m[i+1]
        jx[i, i + 1] = jx[i + 1, i] = 0.5 * math.sqrt(6.0 - m[i + 1] * (m[i + 1] + 1))
    return jx


JX = _spin2_jx()
JZ = np.diag(M_VALUES)
_JX_EIGVALS, _JX_EIGVECS = np.linalg.eigh(JX)


def rotation_x(theta: float) -> np.ndarray:
    """exp(-i theta Jx) for spin 2."""
    v = _JX_EIGVECS
    return (v * np.exp(-1j * theta * _JX_EIGVALS)) @ v.T


def basis_weights(weights) -> list[tuple[float, int]]:
    """(weight, basis index) pairs of the non-zero mixture weights."""
    return [(float(w), i) for i, w in enumerate(weights) if w > 0]


# --- RF traces ----------------------------------------------------------------


def rf_populations(
    kind: str,
    omega0: float,
    omega_rf: float,
    omega_rabi: float,
    times: np.ndarray,
    weights,
    light_shifts=None,
    rtol: float = 1e-11,
) -> np.ndarray:
    """Mixture population trace, shape (times, 5), under

    rot-rwa           H = (w0 - w) Jz + (Omega / 2) Jx
    lab-full          H(t) = w0 Jz + Omega cos(w t) Jx
    lab-light-shift   lab-full plus diag(light_shifts)
    """
    if kind == "rot-rwa":
        static = (omega0 - omega_rf) * JZ + 0.5 * omega_rabi * JX
        drive = np.zeros((5, 5))
    else:
        static = omega0 * JZ
        if kind == "lab-light-shift":
            static = static + np.diag(light_shifts)
        elif kind != "lab-full":
            raise ValueError(f"unknown Hamiltonian kind {kind!r}")
        drive = omega_rabi * JX
    mix = basis_weights(weights)
    y0 = np.zeros((5, len(mix)), complex)
    for col, (_, i) in enumerate(mix):
        y0[i, col] = 1.0

    def rhs(t, y):
        h = static + math.cos(omega_rf * t) * drive
        return (-1j * (h @ y.reshape(5, -1))).ravel()

    sol = solve_ivp(
        rhs, (times[0], times[-1]), y0.ravel(), method="DOP853",
        t_eval=times, rtol=rtol, atol=rtol * 1e-2,
    )
    if not sol.success:
        raise RuntimeError(f"reference RF integration failed: {sol.message}")
    pops = np.abs(sol.y.reshape(5, len(mix), times.size)) ** 2
    w = np.array([wt for wt, _ in mix])
    return np.einsum("k,mkn->nm", w, pops)


def light_shifts_from_scale(scale: float) -> np.ndarray:
    """Light shifts of ``lightshift_from_scale``: m = 0 shifted by -|scale|,
    m = -1 and -2 in the ratio 1 : 3 : 6 of the squared sigma+ J=2 -> J'=1
    Clebsch-Gordan factors, m = +2 and +1 unshifted."""
    return -abs(scale) * np.array([0.0, 0.0, 1.0, 3.0, 6.0])


def rabi_populations(omega: float, times: np.ndarray, weights) -> np.ndarray:
    """Resonant Rabi mixture trace: rotation by Omega t / 2 about x."""
    v = _JX_EIGVECS
    phases = np.exp(-1j * np.multiply.outer(0.5 * omega * times, _JX_EIGVALS))
    out = np.zeros((times.size, 5))
    for w, i in basis_weights(weights):
        # amp[n, m] = sum_k V[m, k] e^{-i theta_n l_k} V[i, k]
        out += w * np.abs((phases * v[i][None, :]) @ v.T) ** 2
    return out


# --- STIRAP chain ---------------------------------------------------------------

# <2 m; 1 0 | 2 m> = m / sqrt(6) and <2 m-1; 1 1 | 2 m> =
# -sqrt((2 + m)(3 - m) / 12) (Condon-Shortley); chain order
# (|+2>, |e2>, |+1>, |e1>, |0>)
PUMP_CG = (2 / math.sqrt(6), 1 / math.sqrt(6))
STOKES_CG = (-math.sqrt(4 * 1 / 12), -math.sqrt(3 * 2 / 12))


def fstirap_closed(eta: float) -> np.ndarray:
    """f-STIRAP dark-state populations of (|+2>, |+1>, |0>): 3 eta^4 : 6 eta^2 : 2."""
    p = np.array([3 * eta**4, 6 * eta**2, 2.0])
    return p / p.sum()


def chain_amplitudes(
    omega_peak: float,
    tau: float,
    delta_t: float,
    eta: float,
    detuning: float,
    two_photon: float,
    gamma_e: float,
    times: np.ndarray,
    rtol: float = 1e-12,
) -> np.ndarray:
    """Chain amplitudes (times, 5) from |+2> at times[0], under

    H(t) = diag(0, -D, -d2, -D - d2, -2 d2) - i (G/2)(|e2><e2| + |e1><e1|)
           + pump legs cg Omega_P(t) + Stokes legs cg Omega_S(t),
    Omega_P = W0 exp(-(t - dt)^2 / tau^2),
    Omega_S = W0 exp(-t^2 / tau^2) + eta Omega_P.
    """
    diag = np.array(
        [0.0, -detuning, -two_photon, -detuning - two_photon, -2 * two_photon], complex
    )
    diag[[1, 3]] -= 0.5j * gamma_e
    pump_legs = np.zeros((5, 5))
    stokes_legs = np.zeros((5, 5))
    for (a, b), cg in zip(((0, 1), (2, 3)), PUMP_CG):
        pump_legs[a, b] = pump_legs[b, a] = cg
    for (a, b), cg in zip(((1, 2), (3, 4)), STOKES_CG):
        stokes_legs[a, b] = stokes_legs[b, a] = cg
    h_static = np.diag(diag)

    def rhs(t, y):
        pump = omega_peak * math.exp(-((t - delta_t) ** 2) / tau**2)
        stokes = omega_peak * math.exp(-(t**2) / tau**2) + eta * pump
        return -1j * ((h_static + pump * pump_legs + stokes * stokes_legs) @ y)

    y0 = np.zeros(5, complex)
    y0[0] = 1.0
    sol = solve_ivp(
        rhs, (times[0], times[-1]), y0, method="DOP853",
        t_eval=times, rtol=rtol, atol=rtol * 1e-2,
    )
    if not sol.success:
        raise RuntimeError(f"reference chain integration failed: {sol.message}")
    return sol.y.T


def chain_window(tau: float, delta_t: float) -> tuple[float, float]:
    """Four pulse widths beyond both pulse centres; the couplings are below
    exp(-16) of their peak outside it."""
    return min(0.0, delta_t) - 4 * tau, max(0.0, delta_t) + 4 * tau


# --- ensembles --------------------------------------------------------------------

_SEQUENCE_ANGLES = {"ramsey": (math.pi / 2, math.pi / 2), "echo": (math.pi / 2, 3 * math.pi / 2)}


def sequence_populations(kind: str, weights, phis: np.ndarray) -> np.ndarray:
    """Mixture populations after Dx(last) Dz(phi) Dx(first), Dz(phi) =
    exp(-i phi Jz), for each phase; shape (len(phis), 5)."""
    first, last = (rotation_x(a) for a in _SEQUENCE_ANGLES[kind])
    dz = np.exp(-1j * np.multiply.outer(phis, M_VALUES))
    out = np.zeros((phis.size, 5))
    for w, i in basis_weights(weights):
        out += w * np.abs((dz * first[:, i][None, :]) @ last.T) ** 2
    return out


def phase_moments(kind: str, b0, b1, sigma_z0, t_axial, tau1, tau2=None):
    """Mean and variance of the free-evolution phase over the thermal
    ensemble, z0 ~ N(0, sigma_z0^2) and vz ~ N(0, k_B T / m):

    ramsey  phi = g B0 t1 + g B1 (z0 t1 + vz t1^2 / 2)
    echo    phi = -g B0 d - g B1 z0 d + g B1 vz (d^2 - 2 t2^2) / 2, d = t2 - t1
    """
    gb1 = GAMMA * b1
    var_v = K_B * t_axial / MASS_NE20
    t1 = np.asarray(tau1, dtype=float)
    if kind == "ramsey":
        return GAMMA * b0 * t1, gb1**2 * (sigma_z0**2 * t1**2 + var_v * t1**4 / 4)
    d = np.asarray(tau2, dtype=float) - t1
    lever = 0.5 * (d**2 - 2 * np.asarray(tau2, dtype=float) ** 2)
    return -GAMMA * b0 * d, gb1**2 * (sigma_z0**2 * d**2 + var_v * lever**2)


_QUAD_HALF_WIDTH = 10.0  # standard deviations; the Gaussian tail beyond is e^-50


def gaussian_average(f, mean, var) -> np.ndarray:
    """<f(phi)> over phi ~ N(mean, var) for each (mean, var) pair, where f
    maps an array of phases to an array (phases, k) holding trigonometric
    polynomials of order at most 4; shape (n, k).

    Trapezoidal quadrature in x = (phi - mean) / sigma.  The integrand's
    spectrum in x ends near 4 sigma with a Gaussian falloff, so a step of
    2 pi / (4 sigma + 8) puts its first alias 8 standard deviations out,
    below 1e-13.
    """
    mean = np.atleast_1d(np.asarray(mean, dtype=float))
    var = np.atleast_1d(np.asarray(var, dtype=float))
    rows = []
    for a, v in zip(mean, var):
        sigma = math.sqrt(v)
        if sigma == 0.0:
            rows.append(f(np.array([a]))[0])
            continue
        step = 2 * math.pi / (4 * sigma + 8)
        x = np.arange(-_QUAD_HALF_WIDTH, _QUAD_HALF_WIDTH + step / 2, step)
        density = step * np.exp(-0.5 * x**2) / math.sqrt(2 * math.pi)
        rows.append(density @ f(a + sigma * x))
    return np.array(rows)


def gaussian_phase_average(kind: str, weights, mean, var) -> np.ndarray:
    """Mixture populations of the sequence averaged over phi ~ N(mean, var),
    shape (n, 5).  Spin-2 populations hold phase harmonics up to the fourth."""
    return gaussian_average(lambda phis: sequence_populations(kind, weights, phis), mean, var)
