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

A static H (ROT_RWA, or any frame without a drive frequency) is one exact
exponential, U(t) = V exp(-i w (t - t0)) V^+ from the eigenpairs (w, V) of H.
Every other H repeats with a period T: 2 pi/w in the lab frames and pi/w in
ROT_FULL.  Its unitary is built over one period only (Floquet; Shirley,
Phys. Rev. 138, B979 (1965)) and reused: a sample at t = t0 + n T + phi gets
U(t) = U(phi) U(T)^n.  The period is cut into equal steps, split again at
the sample phases, and each step applies the two-stage Gauss-Magnus
exponential exp(-i K), with Hermitian K built from H at the two Gauss
points (Blanes, Casas, Oteo & Ros, Phys. Rep. 470, 151 (2009)): every step
is unitary by construction and the rule is fourth-order accurate.  The
steps are exponentiated in chunks of _CHUNK with one batched eigh, so the
temporaries stay bounded however fine the period is cut, and multiplied in
order, keeping U only at the sample phases and at T.  Convergence is
certified by doubling the steps per period until the populations of the
whole trace move by less than tol.  The budget is _STEP_BUDGET steps per
period, or _MIN_DOUBLINGS doublings past the first count when that is more,
so a drive much slower than the fastest scale of H, whose first count can
pass _STEP_BUDGET, still gets passes to compare; past the budget
NumericalError names it, the last step count and change.  A trace shorter
than one period is propagated over its own span.  Every sample of a trace
must keep unit norm to 1e-9.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import (
    CONSTANTS,
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
    derived from b0 (T) through gamma = g_j mu_B / hbar.  b0 is never derived
    from omega0, and when both are given omega0 wins, with no consistency
    requirement between them.
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
        return CONSTANTS.gamma * self.b0

    @property
    def gamma_b1(self) -> float:
        """Dephasing rate scale gamma * b1 in rad/(s m)."""
        return CONSTANTS.gamma * self.b1


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
    """Return (H, T, top) in the spin system ``sys``: H maps an array of times
    to the stack of H(t), T is the period of H (None when H is static) and
    top is its fastest angular frequency scale."""
    w0 = spec.field.resonance
    w = spec.field.omega_rf
    rabi = spec.field.omega_rabi
    jx, jy, jz = sys.jx, sys.jy, sys.jz
    kind = spec.kind

    if kind is HamiltonianKind.ROT_RWA:
        h_static = (w0 - w) * jz + 0.5 * rabi * jx
        return (lambda t: np.broadcast_to(h_static, (*np.shape(t), *h_static.shape))), None, 0.0

    if kind is HamiltonianKind.ROT_FULL:
        detuned = (w0 - w) * jz

        def h_rot(t):
            phase = 2 * w * np.asarray(t)[..., None, None]
            return detuned + 0.5 * rabi * (1 + np.cos(phase)) * jx - 0.5 * rabi * np.sin(phase) * jy

        return h_rot, (math.pi / abs(w) if w else None), max(abs(w0 - w), rabi, 2 * abs(w))

    h_static = w0 * jz
    top = max(abs(w0), abs(w), rabi)
    if kind is HamiltonianKind.LAB_LIGHT_SHIFT:
        if spec.light_shifts.shape != (sys.dim,):
            raise ValueError(f"light_shifts must have length {sys.dim}")
        h_static = h_static + np.diag(spec.light_shifts)
        top = max(top, float(np.max(np.abs(spec.light_shifts))))

    def h_lab(t):
        return h_static + rabi * np.cos(w * np.asarray(t))[..., None, None] * jx

    return h_lab, (2 * math.pi / abs(w) if w else None), top


_GAUSS_LO = 0.5 - math.sqrt(3) / 6
_GAUSS_HI = 0.5 + math.sqrt(3) / 6
_COMM_COEF = math.sqrt(3) / 12
_CHUNK = 128  # Magnus steps exponentiated per batched eigh
_STEP_BUDGET = 2**16  # steps per period at which step doubling gives up
_MIN_DOUBLINGS = 2  # doublings past the first count that the budget always allows


def _propagate(h_of_t, psi0, t0: float, window: float, phases, cycles, steps: int) -> np.ndarray:
    """Trace of the (dim, columns) block psi0 at the times t0 + cycles *
    window + phases, shape (phases.size, dim, columns).  One window of H is
    cut into ``steps`` equal Gauss-Magnus steps, split again at the sample
    phases; their ordered product is kept at the sample phases and at the
    window's end, U(t) = U(phase) U(window)**cycles."""
    bounds = np.concatenate([np.linspace(0.0, window, steps + 1), phases])
    grid, at = np.unique(bounds, return_inverse=True)
    keep = np.zeros(grid.size, bool)
    keep[at[steps:]] = True  # the window's end and the sample phases
    slot = np.cumsum(keep) - 1
    dim = psi0.shape[0]
    kept = np.empty((slot[-1] + 1, dim, dim), complex)
    u = np.eye(dim, dtype=complex)
    if keep[0]:
        kept[0] = u
    for start in range(0, grid.size - 1, _CHUNK):
        a = grid[start : start + _CHUNK + 1]
        h = np.diff(a)
        a1 = h_of_t(t0 + a[:-1] + _GAUSS_LO * h)
        a2 = h_of_t(t0 + a[:-1] + _GAUSS_HI * h)
        h = h[:, None, None]
        k = (h / 2) * (a1 + a2) - 1j * (_COMM_COEF * h * h) * (a2 @ a1 - a1 @ a2)
        w, v = np.linalg.eigh(k)
        chunk = (v * np.exp(-1j * w)[:, None, :]) @ v.conj().swapaxes(1, 2)
        for i, step in enumerate(chunk, start + 1):
            u = step @ u
            if keep[i]:
                kept[slot[i]] = u
    counts, which = np.unique(cycles, return_inverse=True)
    blocks = np.empty((counts.size, *psi0.shape), complex)
    block, done = psi0, 0
    for i, m in enumerate(counts):
        block = np.linalg.matrix_power(u, m - done) @ block
        blocks[i], done = block, m
    return kept[slot[at[steps + 1 :]]] @ blocks[which]


def _populations(amplitudes: np.ndarray) -> np.ndarray:
    return np.abs(amplitudes) ** 2


def _evolve(spec: HamiltonianSpec, psi0: np.ndarray, times, tol: float) -> np.ndarray:
    """Trace of the (dim, columns) amplitude block psi0 under the spec's
    Hamiltonian, shape (times.size, dim, columns).  A static H is one exact
    exponential; for a periodic H the steps per period are doubled until the
    populations of the trace move by less than ``tol`` everywhere.  Every
    sample must keep unit norm to 1e-9."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size < 1 or np.any(np.diff(times) < 0):
        raise ValueError("times must be a non-empty, non-decreasing 1-d array")
    h_of_t, period, top = _hamiltonian(spec, build_spin_system((psi0.shape[0] - 1) / 2))
    if not np.all(np.isfinite(h_of_t(times[[0, -1]]))):
        raise NumericalError("Hamiltonian has non-finite entries")
    elapsed = times - times[0]
    if period is None:
        w, v = np.linalg.eigh(h_of_t(times[0]))  # U - 1 = V (exp(-i w t) - 1) V^+, exact at t = 0
        turn = np.exp(-1j * np.multiply.outer(elapsed, w)) - 1
        trace = psi0 + v @ (turn[..., None] * (v.conj().T @ psi0))
    else:
        window = min(period, elapsed[-1])  # a trace shorter than a period is its own window
        cycles = np.floor(elapsed / period).astype(int)
        phases = np.clip(elapsed - cycles * period, 0.0, window)
        steps = max(1, math.ceil(100 * top * window / (2 * math.pi)))  # 1/100 of the fastest period
        budget = max(_STEP_BUDGET, steps * 2**_MIN_DOUBLINGS)
        prev = None
        while steps <= budget:
            trace = _propagate(h_of_t, psi0, times[0], window, phases, cycles, steps)
            cur = _populations(trace)
            if prev is not None:
                change = float(np.max(np.abs(cur - prev)))
                if change < tol:
                    break
            prev, steps = cur, steps * 2
        else:
            raise NumericalError(
                f"step budget of {budget} steps per period exhausted: not converged at "
                f"{steps // 2} steps per period, last change {change:.3g} against tol {tol:.3g}"
            )
    if np.max(np.abs(_populations(trace).sum(axis=1) - 1)) > 1e-9:
        raise NumericalError("norm drifted beyond 1e-9")
    return trace


def evolve_populations(
    state: StateVector | Populations,
    spec: HamiltonianSpec,
    times,
    tol: float = 1e-8,
) -> np.ndarray:
    """Population trace p(t) at the given times.

    ``state`` is a pure state, or Populations: an incoherent mixture of the
    Zeeman basis states, whose basis states of nonzero weight are propagated
    together in one run.  For a periodic H the steps per period are doubled
    until the whole trace of every state moves by less than ``tol``; past the
    step budget NumericalError is raised.
    """
    columns, weights = mixture_columns(state)
    return _populations(_evolve(spec, columns, times, tol)) @ weights


def evolve_state(
    state: StateVector,
    spec: HamiltonianSpec,
    t0: float,
    t1: float,
    tol: float = 1e-8,
) -> StateVector:
    """Evolve a state from t0 to t1; converged by step doubling on populations."""
    if t1 < t0:
        raise ValueError("t1 must be >= t0")
    return StateVector(_evolve(spec, state.amplitudes[:, None], [t0, t1], tol)[-1, :, 0])


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
