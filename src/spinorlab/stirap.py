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
leg is cg_leg * Omega_beam(t) with the Condon-Shortley coefficient cg_leg
(``PUMP_CG`` and ``STOKES_CG``, from ``core.clebsch_gordan``);
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

Every solve is one ``_integrate`` call: the c chains of a scan (c = 1 for
one chain or trace) stacked into one 5c state vector from |+2> and stepped
over the union of their windows by ``propagator._dop853``, the package's
one DOP853 loop.  A step evaluates the envelopes at its 12 stage times in
one ``np.exp`` and forms h(-iH) for every stage and chain as one
(12, c, 5, 5) batch.  The error norm is the RMS over all 5c components,
not per chain, so a chain's local error may reach sqrt(c) times the
one-chain bound.  Against the rtol-1e-12 oracle ``chain_trace`` of
tests/oracles.py, on an eta = 0 ... 2.5 scan at the acceptance suite's
pulses and a 0.40 us delay, the largest final population error of a
stack of c chains measured 1.4e-11 at c = 1, 2.9e-10 at c = 3, 4.0e-10
at c = 6, 6.3e-10 at c = 12, 5.4e-10 at c = 25, 1.15e-9 at c = 50 and
1.17e-9 at c = 100, where each chain solved alone stays within 3.9e-10.
The union window alone moves a chain ~1e-14.  A trace's sample times
inside a step are reached by one shorter step from its start, so no
interpolant is needed.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .core import Populations, StateVector, clebsch_gordan
from .propagator import _dop853


class NonAdiabaticPulseWarning(UserWarning):
    """Pulse area too small for adiabatic passage (diagnostic only)."""


# Clebsch-Gordan factors of the pump and Stokes legs, in the module docstring's order
PUMP_CG = (clebsch_gordan(2, 2, 1, 0, 2, 2), clebsch_gordan(2, 1, 1, 0, 2, 1))
STOKES_CG = (clebsch_gordan(2, 1, 1, 1, 2, 2), clebsch_gordan(2, 0, 1, 1, 2, 1))


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


def chain_hamiltonian(p: StirapParams, omega_pump: float, omega_stokes: float) -> np.ndarray:
    """Instantaneous chain Hamiltonian for given beam amplitudes (rad/s)."""
    d2 = p.two_photon_detuning
    delta = p.detuning
    h = np.zeros((5, 5), complex)
    h[1, 1] = -delta - 0.5j * p.gamma_e
    h[2, 2] = -d2
    h[3, 3] = -delta - d2 - 0.5j * p.gamma_e
    h[4, 4] = -2 * d2
    h[0, 1] = h[1, 0] = PUMP_CG[0] * omega_pump
    h[2, 3] = h[3, 2] = PUMP_CG[1] * omega_pump
    h[1, 2] = h[2, 1] = STOKES_CG[0] * omega_stokes
    h[3, 4] = h[4, 3] = STOKES_CG[1] * omega_stokes
    return h


def _window(p: StirapParams) -> tuple[float, float]:
    return (min(0.0, p.delta_t) - 4 * p.tau_pulse, max(0.0, p.delta_t) + 4 * p.tau_pulse)


def _integrate(chains: Sequence[StirapParams], t_eval=None) -> np.ndarray:
    """Step the chains, stacked into one state vector with chain j in y[j],
    from |+2> over the union of their windows with ``propagator._dop853``,
    and return the states at the times t_eval (the window's end if None),
    shape (len(t_eval), c, 5).  Owns the nonadiabatic warning: once per
    solve, aimed at the public caller."""
    if not chains:
        raise ValueError("no chains to integrate")
    if any(p.omega0_peak * p.tau_pulse < 10 for p in chains):
        warnings.warn(
            "pulse area omega0_peak * tau_pulse < 10; transfer may be non-adiabatic",
            NonAdiabaticPulseWarning,
            stacklevel=3,
        )
    # -iH_j(t) = sum_k e_jk(t) m_jk over (H0, W0 (H_P + eta H_S), W0 H_S), with
    # e_jk = exp(rate (t - centre)^2); H0's rate 0 makes its factor 1
    c = len(chains)
    m = np.empty((c, 3, 25), complex)
    for j, p in enumerate(chains):
        h0 = chain_hamiltonian(p, 0.0, 0.0)
        h_pump = chain_hamiltonian(p, p.omega0_peak, p.eta * p.omega0_peak) - h0
        h_stokes = chain_hamiltonian(p, 0.0, p.omega0_peak) - h0
        m[j] = -1j * np.stack((h0, h_pump, h_stokes)).reshape(3, 25)
    centre = np.array([[[0.0, p.delta_t, 0.0]] for p in chains])
    rate = np.array([[[0.0, -1 / p.tau_pulse**2, -1 / p.tau_pulse**2]] for p in chains])

    def generators(times, h):
        """h (-iH) of every chain at each time, shape (len(times), c, 5, 5)."""
        envelopes = h * np.exp(rate * np.square(np.reshape(times, (-1, 1, 1, 1)) - centre))
        return (envelopes @ m).reshape(-1, c, 5, 5)

    starts, ends = zip(*map(_window, chains))
    y0 = np.zeros((c, 5, 1), complex)
    y0[:, 0] = 1
    return _dop853(generators, y0, min(starts), [max(ends)] if t_eval is None else t_eval)[..., 0]


def simulate_stirap(p: StirapParams | Sequence[StirapParams]):
    """Propagate the chain from |+2> through the pulse pair.

    Returns the final state (normalized) and the survival probability, i.e.
    the squared norm remaining when gamma_e > 0 (1.0 when lossless); for a
    sequence of params, one stacked solve gives the list of those pairs.
    """
    chains = [p] if isinstance(p, StirapParams) else list(p)
    finals = _integrate(chains)[-1]
    out = [(StateVector.normalized(y), min(float(np.sum(np.abs(y) ** 2)), 1.0)) for y in finals]
    return out[0] if isinstance(p, StirapParams) else out


def stirap_trace(p: StirapParams, n_points: int = 200):
    """Time trace from |+2> through the pulse pair.

    Returns (times, populations (n,5) in chain order, survival (n,)).
    Populations are relative to the surviving norm.
    """
    times = np.linspace(*_window(p), n_points)
    raw = np.abs(_integrate([p], t_eval=times)[:, 0]) ** 2
    survival = np.minimum(raw.sum(axis=1), 1.0)
    pops = raw / raw.sum(axis=1, keepdims=True)
    return times, pops, survival


def chain_to_zeeman_populations(chain_pops) -> np.ndarray:
    """Chain populations (..., 5) in Zeeman slots m = +2 ... -2: |+2>, |+1>,
    |0> fill the first three and the m = -1, -2 slots, outside the chain, are
    0.  Does not renormalize: a row sums to 1 minus its excited share."""
    chain_pops = np.asarray(chain_pops, dtype=float)
    zeeman = np.zeros_like(chain_pops)
    zeeman[..., :3] = chain_pops[..., ::2]
    return zeeman
