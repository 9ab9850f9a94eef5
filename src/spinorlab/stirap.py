"""Five-state chain model for STIRAP and fractional STIRAP.

Chain basis order: (|+2>, |e2>, |+1>, |e1>, |0>), where |e2> = |J'=2, m'=+2>
and |e1> = |J'=2, m'=+1>.  The pump beam drives the pi transitions
|+2>-|e2> and |+1>-|e1>; the Stokes beam drives the sigma+ transitions
|+1>-|e2> and |0>-|e1>.  The pi transition m=0 -> m'=0 is dipole forbidden
(its Clebsch-Gordan coefficient vanishes), so the chain terminates at |0>.

In the multi-photon rotating frame with the Zeeman splitting compensated the
Hamiltonian is

    H(t) = diag(0, -Delta, -d2, -Delta - d2, -2 d2)
           - i (Gamma_e/2) (|e2><e2| + |e1><e1|)
           + sum over legs  cg_leg * Omega_beam(t) (|a><b| + |b><a|)

with d2 the two-photon detuning per Raman step.  The coupling element of a
leg is cg_leg * Omega_beam(t) with the Condon-Shortley coefficient cg_leg;
Omega_P/ Omega_S are the per-beam envelope amplitudes returned by
``pulse_envelopes``.  The physical CG ratios are what produce the
3:6:2 weights of the fractional-STIRAP dark state, so they must not be
renormalized per beam.  The overall coupling normalization is not fixed by
the paper's abstract.  With the acceptance suite's pulses (40 MHz peak,
tau = 0.55 us, Delta = 20 MHz) at a 0.40 us delay, p_0 is 0.986 and the
rest sits in |+1>.  Scaling the drive by 0.5, 2, 4 or 10 gives p_0 = 0.895,
0.977, 0.991, 0.994, and Delta = 0 gives 0.998.  Other pulse widths do not
change p_0 monotonically (tau = 0.5 us gives 0.949).  The shortfall is
nonadiabatic leakage in the Gaussian tails, not a normalization slip.

Excited-state decay is modeled non-Hermitianly: the lost norm is the loss
fraction, no repopulation.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np
from scipy.integrate import solve_ivp

from .core import Populations, StateVector

CHAIN_LABELS = ("+2", "e2", "+1", "e1", "0")


class NonAdiabaticPulseWarning(UserWarning):
    """Pulse area too small for adiabatic passage (diagnostic only)."""


def _half_int(x: float, name: str) -> None:
    if abs(2 * x - round(2 * x)) > 1e-9:
        raise ValueError(f"{name} must be integer or half-integer, got {x}")


@lru_cache(maxsize=None)
def _cg_doubled(dj1: int, dm1: int, dj2: int, dm2: int, dj: int, dm: int) -> float:
    """Racah's closed form, exact rational arithmetic inside the square root."""
    # m must step from -j in integer steps; otherwise the projection is not
    # a state of that j (and the factorial arguments below are half-odd)
    if (dj1 - dm1) % 2 or (dj2 - dm2) % 2 or (dj - dm) % 2:
        return 0.0
    j1, m1, j2, m2, j, m = (x / 2 for x in (dj1, dm1, dj2, dm2, dj, dm))
    if m1 + m2 != m:
        return 0.0
    if not (abs(j1 - j2) <= j <= j1 + j2):
        return 0.0
    if abs(m1) > j1 or abs(m2) > j2 or abs(m) > j:
        return 0.0
    if (dj1 + dj2 + dj) % 2 != 0:
        return 0.0

    def f(x: float) -> int:
        n = round(x)
        if abs(x - n) > 1e-9 or n < 0:
            raise ValueError("non-integer factorial argument in CG evaluation")
        return math.factorial(n)

    pref = Fraction(
        (round(2 * j) + 1) * f(j1 + j2 - j) * f(j1 - j2 + j) * f(-j1 + j2 + j),
        f(j1 + j2 + j + 1),
    )
    pref *= Fraction(
        f(j + m) * f(j - m) * f(j1 - m1) * f(j1 + m1) * f(j2 - m2) * f(j2 + m2)
    )
    total = Fraction(0)
    k = 0
    while True:
        args = (j1 + j2 - j - k, j1 - m1 - k, j2 + m2 - k, j - j2 + m1 + k, j - j1 - m2 + k)
        if min(args[:3]) < -1e-9 and k > 0:
            break
        if all(a >= -1e-9 for a in args):
            denom = f(k)
            for a in args:
                denom *= f(a)
            total += Fraction((-1) ** k, denom)
        k += 1
        if k > j1 + j2 + j + 2:
            break
    if total == 0:
        return 0.0
    sign = 1.0 if total > 0 else -1.0
    return sign * math.sqrt(float(pref * total * total))


def clebsch_gordan(j1: float, m1: float, j2: float, m2: float, j: float, m: float) -> float:
    """Condon-Shortley Clebsch-Gordan coefficient <j1 m1; j2 m2 | j m>.

    Violated selection rules (projection, triangle) give 0 rather than an
    error.
    """
    for x, name in ((j1, "j1"), (m1, "m1"), (j2, "j2"), (m2, "m2"), (j, "j"), (m, "m")):
        _half_int(x, name)
    if j1 < 0 or j2 < 0 or j < 0:
        raise ValueError("angular momenta must be non-negative")
    return _cg_doubled(
        round(2 * j1), round(2 * m1), round(2 * j2), round(2 * m2), round(2 * j), round(2 * m)
    )


@dataclass(frozen=True)
class ChainCouplings:
    """Clebsch-Gordan factors of the four chain legs.

    pump_cg:   (|+2> -> |e2>, |+1> -> |e1>)  pi transitions, J=2 -> J'=2
    stokes_cg: (|+1> -> |e2>, |0> -> |e1>)   sigma+ transitions
    """

    pump_cg: tuple[float, float]
    stokes_cg: tuple[float, float]


@lru_cache(maxsize=1)
def physical_chain_couplings() -> ChainCouplings:
    pump = (clebsch_gordan(2, 2, 1, 0, 2, 2), clebsch_gordan(2, 1, 1, 0, 2, 1))
    stokes = (clebsch_gordan(2, 1, 1, 1, 2, 2), clebsch_gordan(2, 0, 1, 1, 2, 1))
    assert clebsch_gordan(2, 0, 1, 0, 2, 0) == 0.0  # the chain must end at |0>
    return ChainCouplings(pump_cg=pump, stokes_cg=stokes)


@dataclass(frozen=True)
class StirapParams:
    """Pulse-pair description.

    omega0_peak is the peak envelope amplitude common to both beams (the
    Stokes pulse peaks at t=0, the pump at t=delta_t; delta_t > 0 is the
    counterintuitive order).  eta is the asymptotic Stokes/pump ratio of
    fractional STIRAP; eta = 0 is plain STIRAP.  two_photon_detuning is the
    per-Raman-step detuning d2, with the Zeeman splitting absorbed by the
    laser frequencies; gamma_e is the excited-state decay rate.
    """

    omega0_peak: float  # rad/s
    tau_pulse: float  # s
    delta_t: float  # s
    eta: float = 0.0
    detuning: float = 0.0  # rad/s
    two_photon_detuning: float = 0.0  # rad/s
    gamma_e: float = 0.0  # rad/s

    def __post_init__(self):
        for name in ("omega0_peak", "delta_t", "eta", "detuning", "two_photon_detuning", "gamma_e"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if not self.tau_pulse > 0:
            raise ValueError("tau_pulse must be positive")
        if self.eta < 0:
            raise ValueError("eta must be >= 0")
        if self.gamma_e < 0:
            raise ValueError("gamma_e must be >= 0")


def pulse_envelopes(p: StirapParams, t):
    """(Omega_S, Omega_P) at time t (scalar or array), rad/s.

    Omega_P(t) = W0 exp(-(t - dt)^2 / tau^2)
    Omega_S(t) = W0 [exp(-t^2 / tau^2) + eta exp(-(t - dt)^2 / tau^2)]

    so Omega_S / Omega_P -> eta as t -> +inf: the pulses die together with a
    fixed ratio, which is what maps the dark state onto a superposition.
    """
    t = np.asarray(t, dtype=float)
    w0 = p.omega0_peak
    pump = w0 * np.exp(-((t - p.delta_t) ** 2) / p.tau_pulse**2)
    stokes = w0 * np.exp(-(t**2) / p.tau_pulse**2) + p.eta * pump
    return stokes, pump


def fstirap_populations_closed(eta: float) -> Populations:
    """Closed-form final populations of (|+2>, |+1>, |0>) after f-STIRAP.

    p_+2 = 3 eta^4 / (2 + 6 eta^2 + 3 eta^4), p_+1 = 6 eta^2 / (...),
    p_0 = 2 / (...).  eta=0 gives complete transfer to |0>.
    """
    if eta < 0:
        raise ValueError("eta must be >= 0")
    if math.isinf(eta):
        return Populations(np.array([1.0, 0.0, 0.0]))
    denom = 2 + 6 * eta**2 + 3 * eta**4
    return Populations(np.array([3 * eta**4, 6 * eta**2, 2.0]) / denom)


def dark_state(eta: float) -> StateVector:
    """Asymptotic (t -> +inf) dark state of the chain for pulse ratio eta.

    Zero amplitude on both excited states; with the physical couplings of
    :func:`physical_chain_couplings` its populations reproduce
    :func:`fstirap_populations_closed`.  Written in a form regular at
    eta = 0, where it reduces to |0>.
    """
    if eta < 0:
        raise ValueError("eta must be >= 0")
    cc = physical_chain_couplings()
    a1, a2 = cc.pump_cg
    b1, b2 = cc.stokes_cg
    amps = np.array(
        [eta**2, 0.0, -eta * a1 / b1, 0.0, a1 * a2 / (b1 * b2)], dtype=complex
    )
    return StateVector.normalized(amps)


def chain_hamiltonian(p: StirapParams, omega_pump: float, omega_stokes: float) -> np.ndarray:
    """Instantaneous chain Hamiltonian for given beam amplitudes (rad/s)."""
    cc = physical_chain_couplings()
    d2 = p.two_photon_detuning
    delta = p.detuning
    h = np.zeros((5, 5), complex)
    h[1, 1] = -delta - 0.5j * p.gamma_e
    h[2, 2] = -d2
    h[3, 3] = -delta - d2 - 0.5j * p.gamma_e
    h[4, 4] = -2 * d2
    h[0, 1] = h[1, 0] = cc.pump_cg[0] * omega_pump
    h[2, 3] = h[3, 2] = cc.pump_cg[1] * omega_pump
    h[1, 2] = h[2, 1] = cc.stokes_cg[0] * omega_stokes
    h[3, 4] = h[4, 3] = cc.stokes_cg[1] * omega_stokes
    return h


def _window(p: StirapParams) -> tuple[float, float]:
    return (min(0.0, p.delta_t) - 4 * p.tau_pulse, max(0.0, p.delta_t) + 4 * p.tau_pulse)


def _integrate(p: StirapParams, initial: np.ndarray, t_eval=None):
    # H(t) = H0 + Omega_P(t) H_P + Omega_S(t) H_S, with -i folded in
    h0 = chain_hamiltonian(p, 0.0, 0.0)
    a0 = -1j * h0
    a_pump = -1j * (chain_hamiltonian(p, 1.0, 0.0) - h0)
    a_stokes = -1j * (chain_hamiltonian(p, 0.0, 1.0) - h0)
    w0 = p.omega0_peak
    tau2 = p.tau_pulse**2
    dt = p.delta_t
    eta = p.eta

    def rhs(t, y):
        # pulse_envelopes in scalar math.exp: its numpy path made a solve ~30% slower
        pump = w0 * math.exp(-((t - dt) ** 2) / tau2)
        stokes = w0 * math.exp(-(t**2) / tau2) + eta * pump
        return (a0 + pump * a_pump + stokes * a_stokes) @ y

    t0, t1 = _window(p)
    sol = solve_ivp(
        rhs,
        (t0, t1),
        initial.astype(complex),
        method="DOP853",
        rtol=1e-10,
        atol=1e-12,
        t_eval=t_eval,
        dense_output=False,
    )
    if not sol.success:
        raise RuntimeError(f"chain integration failed: {sol.message}")
    return sol


def _warn_if_nonadiabatic(p: StirapParams) -> None:
    if p.omega0_peak * p.tau_pulse < 10:
        warnings.warn(
            "pulse area omega0_peak * tau_pulse < 10; transfer may be non-adiabatic",
            NonAdiabaticPulseWarning,
            stacklevel=3,
        )


def simulate_stirap(
    p: StirapParams, initial: StateVector | None = None
) -> tuple[StateVector, float]:
    """Propagate the chain through the pulse pair.

    Returns the final state (normalized) and the survival probability, i.e.
    the squared norm remaining when gamma_e > 0 (1.0 when lossless).
    """
    _warn_if_nonadiabatic(p)
    y0 = initial.amplitudes if initial is not None else np.eye(5, dtype=complex)[0]
    sol = _integrate(p, np.asarray(y0, dtype=complex))
    yf = sol.y[:, -1]
    survival = min(float(np.sum(np.abs(yf) ** 2)), 1.0)
    return StateVector.normalized(yf), survival


def stirap_trace(
    p: StirapParams, initial: StateVector | None = None, n_points: int = 200
):
    """Time trace through the pulse pair.

    Returns (times, populations (n,5) in chain order, survival (n,)).
    Populations are relative to the surviving norm.
    """
    _warn_if_nonadiabatic(p)
    t0, t1 = _window(p)
    times = np.linspace(t0, t1, n_points)
    y0 = initial.amplitudes if initial is not None else np.eye(5, dtype=complex)[0]
    sol = _integrate(p, np.asarray(y0, dtype=complex), t_eval=times)
    raw = np.abs(sol.y.T) ** 2
    survival = np.minimum(raw.sum(axis=1), 1.0)
    pops = raw / raw.sum(axis=1, keepdims=True)
    return times, pops, survival


def chain_to_zeeman_populations(state: StateVector) -> np.ndarray:
    """Populations of the chain's ground sublevels mapped onto the Zeeman
    basis m = +2 ... -2 (the m = -1, -2 slots are outside the chain and 0).
    Does not renormalize, so the result sums to 1 minus the excited share."""
    p = np.abs(state.amplitudes) ** 2
    return np.array([p[0], p[2], p[4], 0.0, 0.0])
