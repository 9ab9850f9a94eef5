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
over the union of their windows by an explicit DOP853 loop in this module
(Hairer's 8th-order pair with its 5th/3rd-order error estimate, rtol 1e-10,
atol 1e-12, Hairer's initial step, safety 0.9, step factors 0.2 to 10; no
SciPy).  A step evaluates the envelopes at its 12 stage times in one
``np.exp`` and forms h(-iH) for every stage and chain as one (12, c, 5, 5)
batch, so a stage is one row of the tableau against the stored increments
and one batched mat-vec.  The error norm is the RMS over all 5c
components, not per chain, so a chain's local error may reach sqrt(c) times
the one-chain bound; stacks of 3 to 25 chains measured within 2.7e-10 of
per-chain solves, and the union window alone moves a chain ~1e-14.  A trace's
sample times are step ends (a step is cut short to land on one, and the
controller's suggested size carries on past it), so no interpolant is
needed; nothing but the current state and the sampled states is kept.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .core import Populations, StateVector, clebsch_gordan

CHAIN_LABELS = ("+2", "e2", "+1", "e1", "0")


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


# Hairer's DOP853 tableau (Hairer, Norsett & Wanner, Solving ODEs I, sec. II.5, and
# their dop853.f), each coefficient as the double nearest its 30-digit value: nodes c,
# the nonzero a_sj of stage s by column, and the 5th- and 3rd-order error weights, the
# latter as b less three corrections.  The 13th row is the weights b, at c = 1.
_C = np.array((
    0.0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274, 0.2816496580927726,
    0.3333333333333333, 0.25, 0.3076923076923077, 0.6512820512820513, 0.6, 0.8571428571428571,
    1.0, 1.0,
))
_A_ROWS = (
    {},
    {0: 0.05260015195876773},
    {0: 0.0197250569845379, 1: 0.0591751709536137},
    {0: 0.02958758547680685, 2: 0.08876275643042054},
    {0: 0.2413651341592667, 2: -0.8845494793282861, 3: 0.924834003261792},
    {0: 0.037037037037037035, 3: 0.17082860872947386, 4: 0.12546768756682242},
    {0: 0.037109375, 3: 0.17025221101954405, 4: 0.06021653898045596, 5: -0.017578125},
    {
        0: 0.03709200011850479, 3: 0.17038392571223998, 4: 0.10726203044637328,
        5: -0.015319437748624402, 6: 0.008273789163814023,
    },
    {
        0: 0.6241109587160757, 3: -3.3608926294469414, 4: -0.868219346841726,
        5: 27.59209969944671, 6: 20.154067550477894, 7: -43.48988418106996,
    },
    {
        0: 0.47766253643826434, 3: -2.4881146199716677, 4: -0.590290826836843,
        5: 21.230051448181193, 6: 15.279233632882423, 7: -33.28821096898486,
        8: -0.020331201708508627,
    },
    {
        0: -0.9371424300859873, 3: 5.186372428844064, 4: 1.0914373489967295,
        5: -8.149787010746927, 6: -18.52006565999696, 7: 22.739487099350505,
        8: 2.4936055526796523, 9: -3.0467644718982196,
    },
    {
        0: 2.273310147516538, 3: -10.53449546673725, 4: -2.0008720582248625,
        5: -17.9589318631188, 6: 27.94888452941996, 7: -2.8589982771350235,
        8: -8.87285693353063, 9: 12.360567175794303, 10: 0.6433927460157636,
    },
    {
        0: 0.054293734116568765, 5: 4.450312892752409, 6: 1.8915178993145003,
        7: -5.801203960010585, 8: 0.3111643669578199, 9: -0.1521609496625161,
        10: 0.20136540080403034, 11: 0.04471061572777259,
    },
)
_E5 = {
    0: 0.01312004499419488, 5: -1.2251564463762044, 6: -0.4957589496572502,
    7: 1.6643771824549864, 8: -0.35032884874997366, 9: 0.3341791187130175,
    10: 0.08192320648511571, 11: -0.022355307863886294,
}
_B_MINUS_E3 = {0: 0.2440944881889764, 8: 0.7338466882816118, 11: 0.022058823529411766}

_A = np.array([[row.get(j, 0.0) for j in range(12)] for row in _A_ROWS])
_E = np.array([[_E5.get(j, 0.0), _A[12, j] - _B_MINUS_E3.get(j, 0.0)] for j in range(12)]).T
# stage s reads the row (1, a_s0, ..., a_s,s-1) against (y, h k_0, ..., h k_s-1)
_ROWS = np.hstack((np.ones((13, 1)), _A)).astype(complex)
_NODES = _C[:12].reshape(-1, 1, 1, 1)
_RTOL, _ATOL = 1e-10, 1e-12
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0


def _rms(x) -> float:
    return math.sqrt(np.vdot(x, x).real / x.size)


def _integrate(chains: Sequence[StirapParams], t_eval=None) -> np.ndarray:
    """Step the chains, stacked into one state vector with chain j in y[j],
    from |+2> over the union of their windows with DOP853, and return the
    states at the times t_eval (the window's end if None), shape
    (len(t_eval), c, 5).

    The step-size controller is SciPy's for DOP853, in numpy alone: the
    error norm is the RMS over all 5c components, so one chain's local error
    may reach sqrt(c) times the one-chain bound.  Every time in t_eval is the
    end of a step, and only the current state and the states at t_eval are
    kept.  Owns the nonadiabatic warning: once per solve, aimed at the public
    caller."""
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
    t, t_end = min(starts), max(ends)
    # z[0] is the state y and z[s + 1] the stage increment h k_s, each (c, 5, 1)
    z = np.empty((13, c, 5, 1), complex)
    flat = z.reshape(13, 5 * c)
    y = z[0]
    y[:] = 0
    y[:, 0] = 1

    # Hairer's initial step for a method of error order 7, as SciPy selects it
    scale = _ATOL + np.abs(flat[0]) * _RTOL
    f0 = generators(t, 1.0)[0] @ y
    d0, d1 = _rms(flat[0] / scale), _rms(f0.ravel() / scale)
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, t_end - t)
    f1 = generators(t + h0, 1.0)[0] @ (y + h0 * f0)
    d2 = _rms((f1 - f0).ravel() / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h_abs = max(1e-6, h0 * 1e-3)
    else:
        h_abs = min(100 * h0, (0.01 / max(d1, d2)) ** (1 / 8), t_end - t)

    stops = [t_end] if t_eval is None else t_eval
    out = np.empty((len(stops), c, 5), complex)
    stage = np.empty_like(y)  # the state a stage reads, and after the last one y at t + h
    stage_flat = stage.reshape(5 * c)
    stages = [(_ROWS[s, : s + 1], flat[: s + 1], z[s + 1]) for s in range(12)]
    rejected = False
    for i, stop in enumerate(stops):
        while t < stop:
            min_step = 10 * (math.nextafter(t, math.inf) - t)
            h_abs = max(h_abs, min_step)
            t_new = min(t + h_abs, stop)
            h = t_new - t
            for (row, done, k), g in zip(stages, generators(t + h * _NODES, h)):
                np.dot(row, done, out=stage_flat)
                np.matmul(g, stage, out=k)
            y_new = np.dot(_ROWS[12], flat, out=stage_flat)
            scale = _ATOL + np.maximum(np.abs(flat[0]), np.abs(y_new)) * _RTOL
            # Hairer's blend of the 5th- and 3rd-order estimates, RMS over all 5c components
            err5, err3 = _E @ flat[1:] / scale
            e5, e3 = np.vdot(err5, err5).real, np.vdot(err3, err3).real
            error = e5 / math.sqrt((e5 + 0.01 * e3) * scale.size) if e5 or e3 else 0.0
            if error < 1:
                factor = min(_MAX_FACTOR, _SAFETY * error ** (-1 / 8)) if error else _MAX_FACTOR
                # a step cut short at a stop keeps the size the controller suggested before it
                h_abs = max(h_abs, h * factor) if t + h_abs > stop else h * factor
                if rejected:
                    h_abs = min(h_abs, h)
                t, rejected = t_new, False
                flat[0] = y_new
            else:
                h_abs = h * max(_MIN_FACTOR, _SAFETY * error ** (-1 / 8))
                rejected = True
                if h_abs < min_step:
                    raise RuntimeError(
                        f"chain integration failed: step below {min_step:.3g} s at t = {t:.6g} s"
                    )
        out[i] = y[..., 0]
    return out


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
