"""Numerical time evolution for RF-driven spin dynamics.

Four Hamiltonians are supported, all in units of hbar:

  LAB_FULL          H(t) = w0 Jz + Omega cos(w t) Jx
  ROT_FULL          the same in the frame rotating about z at the drive
                    frequency, counter-rotating terms kept:
                    H(t) = (w0 - w) Jz + (Omega/2)(1 + cos 2wt) Jx
                                       - (Omega/2) sin(2wt) Jy
  ROT_RWA           H = (w0 - w) Jz + (Omega/2) Jx
  LAB_LIGHT_SHIFT   LAB_FULL plus static diagonal AC-Stark shifts

Frame convention: the rotating frame is reached with U(t) = exp(+i w t Jz),
psi_rot = U psi_lab.  (The frame rotates about the bias axis z; the sign of
the 2w term in ROT_FULL follows from this choice.)  Diagonal frame
transforms leave m-state populations unchanged, so population traces can be
compared across frames directly.

Each H is diag(E) plus a driven part D(t).  A static H (ROT_RWA, or any
frame without a drive frequency) is one exact exponential,
U(t) = V exp(-i w (t - t0)) V^+ from the eigenpairs (w, V) of H.  Every
other H repeats with a period T: 2 pi/w in the lab frames and pi/w in
ROT_FULL.  Its unitary is built over one window, a period or the trace's
span if that is shorter, and reused (Floquet; Shirley, Phys. Rev. 138, B979
(1965)): a sample at t = t0 + n T + phi gets U(t) = U(phi) U(T)^n, with the
powers of U(T) formed once per distinct n.

Over the window the identity is stepped in the interaction picture of
diag(E), U = exp(-i E tau) U_I with dU_I/dtau = -i exp(i E tau) D(t0 + tau)
exp(-i E tau) U_I, so the stepper resolves the drive and not the Larmor
precession (stepped in the lab frame, the 1 kHz slow-drive test drifts from
unit norm by 7.4e-8; here by 3.9e-10).  The stepper is ``_dop853``, the loop
STIRAP uses too: Hairer's 8th-order pair with its 5th/3rd-order error
estimate (Hairer, Norsett & Wanner, Solving ODEs I, sec. II.5) at rtol
1e-10, atol 1e-12.  The controller alone sets the steps; a sample phase
inside a step is reached by one shorter step from that step's start, all of
them in batches after the window, so the samples cost no extra step ends.

U is never projected or renormalized: every sample of a trace must keep unit
norm to 1e-9, and a solve that passes _STEP_BUDGET steps raises
NumericalError.  U(T) is unitary to the stepper's tolerance only (at rtol
1e-10, 1e-12 to 5e-11 in the norm for drives of 200 to 800 kHz), and
U(T)^n multiplies that by up to n.  When n times U(T)'s drift could pass
half the check, the window is stepped once more at an rtol tightened in
proportion, no lower than 1e-14; traces of 400 and 4,000 periods of those
drives stay within 2.5e-10 of unit norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import (
    GAMMA,
    Populations,
    SpinSystem,
    StateVector,
    build_spin_system,
    clebsch_gordan,
    mixture_columns,
)


class NumericalError(RuntimeError):
    """Raised when the integrator cannot reach the requested accuracy."""


@dataclass(frozen=True)
class FieldConfig:
    """Static and RF field settings, SI units.

    The resonance frequency is omega0 (rad/s) when given, otherwise it is
    derived from b0 (T) through ``core.GAMMA`` = g_J mu_B / hbar.  b0 is
    never derived from omega0, and when both are given omega0 wins, with no
    consistency requirement between them.
    """

    b0: float = 0.0  # bias field, T
    b1: float = 0.0  # gradient along z, T/m
    omega_rf: float = 0.0  # drive frequency, rad/s
    omega_rabi: float = 0.0  # rad/s
    omega0: float | None = None  # resonance frequency, rad/s

    def __post_init__(self):
        for name in ("b0", "b1", "omega_rf", "omega_rabi", "omega0"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite")
        if self.b0 < 0:
            raise ValueError("b0 must be >= 0")

    @property
    def resonance(self) -> float:
        if self.omega0 is not None:
            return float(self.omega0)
        return GAMMA * self.b0

    @property
    def gamma_b1(self) -> float:
        """Dephasing rate scale gamma * b1 in rad/(s m)."""
        return GAMMA * self.b1


class HamiltonianKind(Enum):
    LAB_FULL = "lab-full"
    ROT_FULL = "rot-full"
    ROT_RWA = "rot-rwa"
    LAB_LIGHT_SHIFT = "lab-light-shift"


@dataclass(frozen=True)
class HamiltonianSpec:
    kind: HamiltonianKind
    field: FieldConfig
    light_shifts: np.ndarray | None = None  # rad/s, per m state (+J ... -J)

    def __post_init__(self):
        if self.light_shifts is not None:
            if self.kind is not HamiltonianKind.LAB_LIGHT_SHIFT:
                raise ValueError("light_shifts only allowed with LAB_LIGHT_SHIFT")
            shifts = np.asarray(self.light_shifts, dtype=float)
            if not np.all(np.isfinite(shifts)):
                raise ValueError("light shifts must be finite")
            shifts = shifts.copy()
            shifts.flags.writeable = False
            object.__setattr__(self, "light_shifts", shifts)
        elif self.kind is HamiltonianKind.LAB_LIGHT_SHIFT:
            raise ValueError("LAB_LIGHT_SHIFT requires a light_shifts vector")


def _hamiltonian(spec: HamiltonianSpec, sys: SpinSystem):
    """Return (E, D, T) in the spin system ``sys``, with H(t) = diag(E) + D(t):
    E is H's static diagonal, D maps an array of times to the stack of the
    driven rest and T is the period of H (None when H is static)."""
    w0 = spec.field.resonance
    w = spec.field.omega_rf
    rabi = spec.field.omega_rabi
    jx, jy, m = sys.jx, sys.jy, sys.m_values
    kind = spec.kind

    if kind is HamiltonianKind.ROT_RWA:
        drive = 0.5 * rabi * jx
        return (w0 - w) * m, (lambda t: np.broadcast_to(drive, (*np.shape(t), *drive.shape))), None

    if kind is HamiltonianKind.ROT_FULL:

        def d_rot(t):
            phase = 2 * w * np.asarray(t)[..., None, None]
            return 0.5 * rabi * (1 + np.cos(phase)) * jx - 0.5 * rabi * np.sin(phase) * jy

        return (w0 - w) * m, d_rot, (math.pi / abs(w) if w else None)

    energies = w0 * m
    if kind is HamiltonianKind.LAB_LIGHT_SHIFT:
        if spec.light_shifts.shape != (sys.dim,):
            raise ValueError(f"light_shifts must have length {sys.dim}")
        energies = energies + spec.light_shifts

    def d_lab(t):
        return rabi * np.cos(w * np.asarray(t))[..., None, None] * jx

    return energies, d_lab, (2 * math.pi / abs(w) if w else None)


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
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0
_STEP_BUDGET = 2**16  # steps, accepted or rejected, per solve
_SUBSTEP_BATCH = 32  # stops inside accepted steps, reached in one batch of short steps


def _rms(x) -> float:
    return math.sqrt(np.vdot(x, x).real / x.size)


def _dop853(generators, y0: np.ndarray, t0: float, stops, rtol: float = 1e-10) -> np.ndarray:
    """States of dy/dt = G(t) y from the (c, d, k) block y0 at t0, at each of
    the non-decreasing times ``stops`` (the last one past t0), shape
    (len(stops), c, d, k).  generators(times, h) returns h G at each of the
    1-d array of times, shape (len(times), c, d, d).

    The step-size controller is SciPy's for DOP853, in numpy alone, at the
    given rtol and atol = rtol/100: the error norm is the RMS over all
    components of y.  Only the last stop ends a step it cuts short: a stop
    inside an accepted step keeps that step's start and is reached by one
    shorter step from there (``_substeps``) once the loop is done, so the
    number of stops changes neither the steps nor the budget.  Only the
    current state and those at the stops are kept.  Past _STEP_BUDGET steps,
    or below the smallest step t can resolve, NumericalError names the cause
    and t."""
    # z[0] is the state y and z[s + 1] the stage increment h k_s, each shaped as y0
    z = np.empty((13, *y0.shape), complex)
    flat = z.reshape(13, -1)
    y = z[0]
    y[:] = y0
    t, t_end = t0, stops[-1]

    # Hairer's initial step for a method of error order 7, as SciPy selects it
    atol = rtol / 100
    scale = atol + np.abs(flat[0]) * rtol
    f0 = generators(t, 1.0)[0] @ y
    d0, d1 = _rms(flat[0] / scale), _rms(f0.ravel() / scale)
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, t_end - t)
    f1 = generators(t + h0, 1.0)[0] @ (y + h0 * f0)
    d2 = _rms((f1 - f0).ravel() / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h_abs = max(1e-6, h0 * 1e-3)
    else:
        h_abs = min(100 * h0, (0.01 / max(d1, d2)) ** (1 / 8), t_end - t)

    stops = np.asarray(stops, dtype=float)
    out = np.empty((stops.size, *y0.shape), complex)
    begin = stops.copy()  # where each stop's last step starts
    reached = np.searchsorted(stops, t0, side="right")  # stops before it are filled
    out[:reached] = y0
    stage = np.empty_like(y)  # the state a stage reads, and after the last one y at t + h
    stage_flat = stage.reshape(-1)
    stages = [(_ROWS[s, : s + 1], flat[: s + 1], z[s + 1]) for s in range(12)]
    rejected, steps = False, 0
    while t < t_end:
        if steps == _STEP_BUDGET:
            raise NumericalError(f"step budget of {_STEP_BUDGET} steps exhausted at t = {t:.6g} s")
        steps += 1
        min_step = 10 * (math.nextafter(t, math.inf) - t)
        h_abs = max(h_abs, min_step)
        t_new = min(t + h_abs, t_end)
        h = t_new - t
        for (row, done, k), g in zip(stages, generators(t + h * _C[:12], h)):
            np.dot(row, done, out=stage_flat)
            np.matmul(g, stage, out=k)
        y_new = np.dot(_ROWS[12], flat, out=stage_flat)
        scale = atol + np.maximum(np.abs(flat[0]), np.abs(y_new)) * rtol
        # Hairer's blend of the 5th- and 3rd-order estimates, RMS over all components
        err5, err3 = _E @ flat[1:] / scale
        e5, e3 = np.vdot(err5, err5).real, np.vdot(err3, err3).real
        error = e5 / math.sqrt((e5 + 0.01 * e3) * scale.size) if e5 or e3 else 0.0
        if error < 1:
            factor = min(_MAX_FACTOR, _SAFETY * error ** (-1 / 8)) if error else _MAX_FACTOR
            h_abs = min(h * factor, h) if rejected else h * factor
            inside = np.searchsorted(stops, t_new, side="left")
            out[reached:inside], begin[reached:inside] = y, t  # stops inside the step
            t, rejected = t_new, False
            flat[0] = y_new
            reached = np.searchsorted(stops, t, side="right")
            out[inside:reached] = y
        else:
            h_abs = h * max(_MIN_FACTOR, _SAFETY * error ** (-1 / 8))
            rejected = True
            if h_abs < min_step:
                raise NumericalError(
                    f"integration failed: step below {min_step:.3g} s at t = {t:.6g} s"
                )
    # a stop inside an accepted step is one shorter step from the start of that step
    short = np.flatnonzero(begin < stops)
    for lo in range(0, short.size, _SUBSTEP_BATCH):
        batch = short[lo : lo + _SUBSTEP_BATCH]
        out[batch] = _substeps(generators, out[batch], begin[batch], stops[batch] - begin[batch])
    return out


def _substeps(generators, ys: np.ndarray, ts: np.ndarray, hs: np.ndarray) -> np.ndarray:
    """Each state of the stack ys advanced from its time in ts by its step in
    hs, one DOP853 step apiece in one batch.  Each step is shorter than the
    accepted step it sits in, so its local error is smaller still."""
    k = np.empty((13, *ys.shape), complex)
    k[0] = ys
    for s in range(12):
        g = generators(ts + hs * _C[s], 1.0) * hs[:, None, None, None]
        k[s + 1] = g @ np.tensordot(_ROWS[s, : s + 1], k[: s + 1], 1)
    return np.tensordot(_ROWS[12], k, 1)


def _populations(amplitudes: np.ndarray) -> np.ndarray:
    return np.abs(amplitudes) ** 2


def _evolve(spec: HamiltonianSpec, psi0: np.ndarray, times) -> np.ndarray:
    """Trace of the (dim, columns) amplitude block psi0 under the spec's
    Hamiltonian, shape (times.size, dim, columns): one exact exponential for
    a static H, one DOP853 window in the interaction picture of diag(E) for
    a periodic one.  Every sample must keep unit norm to 1e-9."""
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size < 1 or np.any(np.diff(times) < 0):
        raise ValueError("times must be a non-empty, non-decreasing 1-d array")
    energies, drive, period = _hamiltonian(spec, build_spin_system((psi0.shape[0] - 1) / 2))
    if not (np.all(np.isfinite(energies)) and np.all(np.isfinite(drive(times[[0, -1]])))):
        raise NumericalError("Hamiltonian has non-finite entries")
    elapsed = times - times[0]
    if period is None or not elapsed[-1]:  # a trace of one instant is psi0 either way
        w, v = np.linalg.eigh(np.diag(energies) + drive(times[0]))
        turn = np.exp(-1j * np.multiply.outer(elapsed, w)) - 1  # U - 1 = V (exp(-i w t) - 1) V^+
        trace = psi0 + v @ (turn[..., None] * (v.conj().T @ psi0))
    else:
        window = min(period, elapsed[-1])  # a trace shorter than a period is its own window
        cycles = np.floor(elapsed / period).astype(int)
        phases = np.clip(elapsed - cycles * period, 0.0, window)
        stops, at = np.unique(np.append(phases, window), return_inverse=True)

        def generators(tau, h):
            """h G(tau) = -i h e^{iE tau} D(t0 + tau) e^{-iE tau}, shape (len(tau), 1, dim, dim)."""
            tau = np.reshape(tau, (-1, 1))
            q = np.exp(1j * energies * tau)
            phased = drive(times[0] + tau[:, 0]) * (q[:, :, None] * q[:, None, :].conj())
            return (-1j * h * phased)[:, None]

        identity = np.eye(psi0.shape[0], dtype=complex)
        u_i = _dop853(generators, identity[None], 0.0, stops)[:, 0]
        # U(T)^n drifts from unit norm by up to n times U(T)'s own drift: when that could
        # pass half the 1e-9 check, the window is stepped again at an rtol tightened in
        # proportion, to bring it near 1e-10
        drift = cycles[-1] * np.linalg.norm(u_i[-1].conj().T @ u_i[-1] - identity, 2)
        if drift > 5e-10:
            rtol = max(1e-14, 1e-10 * 1e-10 / drift)
            u_i = _dop853(generators, identity[None], 0.0, stops, rtol)[:, 0]
        kept = np.exp(-1j * np.multiply.outer(stops, energies))[..., None] * u_i  # U at the stops
        counts, which = np.unique(cycles, return_inverse=True)
        blocks = np.empty((counts.size, *psi0.shape), complex)
        block, done = psi0, 0
        for i, n in enumerate(counts):
            block = np.linalg.matrix_power(kept[-1], n - done) @ block
            blocks[i], done = block, n
        trace = kept[at[:-1]] @ blocks[which]
    if np.max(np.abs(_populations(trace).sum(axis=1) - 1)) > 1e-9:
        raise NumericalError("norm drifted beyond 1e-9")
    return trace


def evolve_populations(
    state: StateVector | Populations,
    spec: HamiltonianSpec,
    times,
) -> np.ndarray:
    """Population trace p(t) at the given times.

    ``state`` is a pure state, or Populations: an incoherent mixture of the
    Zeeman basis states, whose basis states of nonzero weight are propagated
    together in one run.  A periodic H is stepped to rtol 1e-10 over one
    window, or tighter when the trace spans enough periods to need it; past
    the step budget, or if a sample drifts from unit norm by more than 1e-9,
    NumericalError is raised.
    """
    columns, weights = mixture_columns(state)
    return _populations(_evolve(spec, columns, times)) @ weights


def evolve_state(state: StateVector, spec: HamiltonianSpec, t0: float, t1: float) -> StateVector:
    """Evolve a state from t0 to t1."""
    if t1 < t0:
        raise ValueError("t1 must be >= t0")
    return StateVector(_evolve(spec, state.amplitudes[:, None], [t0, t1])[-1, :, 0])


def rotating_frame_state(state: StateVector, omega_rf: float, t: float) -> StateVector:
    """psi_rot = exp(+i w t Jz) psi_lab (diagonal, populations unchanged)."""
    j = (state.dim - 1) / 2
    m = j - np.arange(state.dim)
    return StateVector(np.exp(1j * omega_rf * t * m) * state.amplitudes)


def lab_frame_state(state: StateVector, omega_rf: float, t: float) -> StateVector:
    """Inverse of :func:`rotating_frame_state`."""
    return rotating_frame_state(state, -omega_rf, t)


def _sigma_plus_weights() -> np.ndarray:
    """|<2 m; 1 1 | 1 m+1>|^2 for m = +2 ... -2 (zero without a J'=1 partner)."""
    return np.array([clebsch_gordan(2, m, 1, 1, 1, m + 1) ** 2 for m in (2, 1, 0, -1, -2)])


def lightshift_from_scale(scale: float) -> np.ndarray:
    """Light-shift vector normalized so the m=0 shift is -|scale| (red detuned),
    with the m=-1 and m=-2 shifts in the physical CG^2 ratios (1 : 3 : 6)."""
    weights = _sigma_plus_weights()
    return -abs(scale) * weights / weights[2]
