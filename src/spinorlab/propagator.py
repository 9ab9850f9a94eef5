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

The integrator is a two-stage Gauss-Magnus exponential rule: each step
applies exp(-i K) with Hermitian K built from the Hamiltonian at the two
Gauss points, so every step is unitary by construction and the rule is
fourth-order accurate.  Convergence is certified by step halving.

Classical counterpart: the torque equation dJ/dt = b(t) x J with the same
coefficient vector b that appears in H = b . J.  It is the same stepper in
the spin-1 Cartesian representation (L_k)_ij = -i eps_kij: with H = b . L
the Schrodinger equation for a real 3-vector J reads dJ/dt = b x J, which is
the Ehrenfest companion of the quantum evolution (the sign convention is
fixed by that correspondence).  Each step is unitary on the 3-vector, i.e.
an exact rotation, so |J| is conserved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .core import (
    CONSTANTS,
    PhysicalConstants,
    Populations,
    StateVector,
    build_spin_system,
    mixture_columns,
    rad_per_s,
)


class NumericalError(RuntimeError):
    """Raised when the integrator cannot reach the requested accuracy."""


@dataclass(frozen=True)
class FieldConfig:
    """Static and RF field settings, SI units.

    b0 (T) and omega0 (rad/s) are treated as independent knobs: if only one
    is given the other is derived through gamma = g_j mu_B / hbar, but both
    may be supplied as-measured without a consistency requirement.  b_rf and
    omega_rabi, in contrast, describe the same physical drive, so supplying
    both with omega_rabi != gamma*b_rf is an error.
    """

    b0: float = 0.0  # bias field, T
    b1: float = 0.0  # gradient along z, T/m
    omega_rf: float = 0.0  # drive frequency, rad/s
    omega_rabi: float | None = None  # rad/s
    b_rf: float | None = None  # T
    omega0: float | None = None  # resonance frequency, rad/s
    constants: PhysicalConstants = field(default=CONSTANTS, repr=False)

    def __post_init__(self):
        for name in ("b0", "b1", "omega_rf", "omega_rabi", "b_rf", "omega0"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite")
        if self.b0 < 0:
            raise ValueError("b0 must be >= 0")
        if self.omega_rabi is not None and self.b_rf is not None:
            implied = self.constants.gamma * self.b_rf
            if not math.isclose(self.omega_rabi, implied, rel_tol=1e-9, abs_tol=1e-6):
                raise ValueError(
                    "omega_rabi and b_rf disagree: "
                    f"{self.omega_rabi} vs gamma*b_rf = {implied}"
                )

    @property
    def rabi(self) -> float:
        if self.omega_rabi is not None:
            return float(self.omega_rabi)
        if self.b_rf is not None:
            return self.constants.gamma * self.b_rf
        return 0.0

    @property
    def resonance(self) -> float:
        if self.omega0 is not None:
            return float(self.omega0)
        return self.constants.gamma * self.b0

    @property
    def gamma_b1(self) -> float:
        """Dephasing rate scale gamma * b1 in rad/(s m)."""
        return self.constants.gamma * self.b1


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


def _hamiltonian(spec: HamiltonianSpec, ops):
    """Return (H(t) callable, list of angular frequency scales) for the
    operator triple ops = (jx, jy, jz)."""
    w0 = spec.field.resonance
    w = spec.field.omega_rf
    rabi = spec.field.rabi
    jx, jy, jz = ops
    kind = spec.kind

    if kind is HamiltonianKind.ROT_RWA:
        h_static = (w0 - w) * jz + 0.5 * rabi * jx
        return (lambda t: h_static), [abs(w0 - w), rabi]

    if kind is HamiltonianKind.ROT_FULL:
        detuned = (w0 - w) * jz

        def h_rot(t):
            return (
                detuned
                + 0.5 * rabi * (1 + np.cos(2 * w * t)) * jx
                - 0.5 * rabi * np.sin(2 * w * t) * jy
            )

        return h_rot, [abs(w0 - w), rabi, 2 * abs(w)]

    h_static = w0 * jz
    scales = [abs(w0), abs(w), rabi]
    if kind is HamiltonianKind.LAB_LIGHT_SHIFT:
        dim = jz.shape[0]
        if spec.light_shifts.shape != (dim,):
            raise ValueError(f"light_shifts must have length {dim}")
        h_static = h_static + np.diag(spec.light_shifts)
        scales.append(float(np.max(np.abs(spec.light_shifts))))

    def h_lab(t):
        return h_static + rabi * np.cos(w * t) * jx

    return h_lab, scales


def _base_step(scales) -> float | None:
    """Initial step from the fastest frequency scale; None when all scales
    vanish (the Hamiltonians of this module are then identically zero)."""
    top = max((s for s in scales if s > 0), default=0.0)
    if top == 0.0:
        return None
    return 0.01 * 2 * math.pi / top


_GAUSS_LO = 0.5 - math.sqrt(3) / 6
_GAUSS_HI = 0.5 + math.sqrt(3) / 6
_COMM_COEF = math.sqrt(3) / 12


def _propagate(h_of_t, psi0: np.ndarray, times: np.ndarray, h_max: float) -> np.ndarray:
    """Unitary trace of the (dim, columns) block psi0 at the sample times,
    shape (times.size, dim, columns); fixed steps of at most h_max."""
    psi = psi0.copy()
    out = np.empty((times.size, *psi.shape), complex)
    out[0] = psi
    for i in range(times.size - 1):
        ta, tb = times[i], times[i + 1]
        n = max(1, math.ceil((tb - ta) / h_max))
        h = (tb - ta) / n
        t = ta
        for _ in range(n):
            a1 = h_of_t(t + _GAUSS_LO * h)
            a2 = h_of_t(t + _GAUSS_HI * h)
            k = (h / 2) * (a1 + a2) - 1j * (_COMM_COEF * h * h) * (a2 @ a1 - a1 @ a2)
            w, v = np.linalg.eigh(k)
            psi = v @ (np.exp(-1j * w)[:, None] * (v.conj().T @ psi))
            t += h
        out[i + 1] = psi
    return out


_MAX_REFINEMENTS = 14


def _populations(amplitudes: np.ndarray) -> np.ndarray:
    return np.abs(amplitudes) ** 2


def _converge(run, h: float, tol: float, observe):
    """run(h) with the step h halved until observe(run(h)) moves by less
    than tol from the previous step's; returns that last run(h).  Running
    out of refinements raises NumericalError (step-size underflow)."""
    prev = observe(run(h))
    for _ in range(_MAX_REFINEMENTS):
        h /= 2
        result = run(h)
        cur = observe(result)
        change = float(np.max(np.abs(cur - prev)))
        if change < tol:
            return result
        prev = cur
    raise NumericalError(
        f"step-size underflow: not converged at step {h:.3g} s, "
        f"last change {change:.3g} against tol {tol:.3g}"
    )


def _evolve(spec: HamiltonianSpec, ops, psi0: np.ndarray, times, tol: float, observe):
    """Trace of the (dim, columns) block psi0 under the spec's Hamiltonian in
    the operator triple ``ops``, shape (times.size, dim, columns); the step is
    halved until observe(trace) moves by less than ``tol`` everywhere."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size < 2 or np.any(np.diff(times) < 0):
        raise ValueError("times must be a non-decreasing 1-d array")
    h_of_t, scales = _hamiltonian(spec, ops)
    if not np.all(np.isfinite(h_of_t(times[0]))) or not np.all(np.isfinite(h_of_t(times[-1]))):
        raise NumericalError("Hamiltonian has non-finite entries")
    h = _base_step(scales)
    if h is None:  # H is identically zero: nothing evolves
        return np.broadcast_to(psi0, (times.size, *psi0.shape)).copy()
    return _converge(lambda h: _propagate(h_of_t, psi0, times, h), h, tol, observe)


def _evolve_spin(columns: np.ndarray, spec: HamiltonianSpec, times, tol: float) -> np.ndarray:
    """Quantum trace of the amplitude columns, converged on populations;
    every sample must keep unit norm to 1e-9."""
    sys = build_spin_system((columns.shape[0] - 1) / 2)
    trace = _evolve(spec, (sys.jx, sys.jy, sys.jz), columns, times, tol, _populations)
    if np.max(np.abs(_populations(trace).sum(axis=1) - 1)) > 1e-9:
        raise NumericalError("norm drifted beyond 1e-9")
    return trace


def evolve_populations(
    state: StateVector | Populations,
    spec: HamiltonianSpec,
    times,
    tol: float = 1e-8,
) -> np.ndarray:
    """Population trace p(t) at the given times, converged by step halving.

    ``state`` is a pure state, or Populations: an incoherent mixture of the
    Zeeman basis states, whose basis states of nonzero weight are stepped
    together in one run.  The step is halved until the whole trace of every
    state moves by less than ``tol``; running out of refinements raises
    NumericalError (step-size underflow).
    """
    columns, weights = mixture_columns(state)
    return _populations(_evolve_spin(columns, spec, times, tol)) @ weights


def evolve_state(
    state: StateVector,
    spec: HamiltonianSpec,
    t0: float,
    t1: float,
    tol: float = 1e-8,
) -> StateVector:
    """Evolve a state from t0 to t1; converged by step halving on populations."""
    if t1 < t0:
        raise ValueError("t1 must be >= t0")
    return StateVector(_evolve_spin(state.amplitudes[:, None], spec, [t0, t1], tol)[-1, :, 0])


def rotating_frame_state(state: StateVector, omega_rf, t: float) -> StateVector:
    """psi_rot = exp(+i w t Jz) psi_lab (diagonal, populations unchanged)."""
    j = (state.dim - 1) / 2
    m = j - np.arange(state.dim)
    return StateVector(np.exp(1j * rad_per_s(omega_rf) * t * m) * state.amplitudes)


def lab_frame_state(state: StateVector, omega_rf, t: float) -> StateVector:
    """Inverse of :func:`rotating_frame_state`."""
    return rotating_frame_state(state, -rad_per_s(omega_rf), t)


@dataclass(frozen=True)
class ClassicalSpin:
    """Classical angular momentum vector, units of hbar."""

    jx: float
    jy: float
    jz: float

    @property
    def vector(self) -> np.ndarray:
        return np.array([self.jx, self.jy, self.jz])

    def magnitude(self) -> float:
        return float(np.linalg.norm(self.vector))


# Cartesian spin-1 generators (L_k)_ij = -i eps_kij: H = b . L moves a real
# 3-vector by dJ/dt = -i (b . L) J = b x J
_CARTESIAN = (
    np.array([[0, 0, 0], [0, 0, -1j], [0, 1j, 0]]),
    np.array([[0, 0, 1j], [0, 0, 0], [-1j, 0, 0]]),
    np.array([[0, -1j, 0], [1j, 0, 0], [0, 0, 0]]),
)


def evolve_classical(
    spin: ClassicalSpin,
    spec: HamiltonianSpec,
    t0: float,
    t1: float,
    tol: float = 1e-8,
) -> ClassicalSpin:
    """Integrate dJ/dt = b(t) x J; every step is a rotation, so |J| is exact."""
    if t1 < t0:
        raise ValueError("t1 must be >= t0")
    if spec.kind is HamiltonianKind.LAB_LIGHT_SHIFT:
        raise ValueError("classical torque evolution is only defined for linear-in-J Hamiltonians")
    trace = _evolve(spec, _CARTESIAN, spin.vector[:, None], [t0, t1], tol, np.real)
    return ClassicalSpin(*trace[-1, :, 0].real)


def _sigma_plus_weights() -> np.ndarray:
    """|<2 m; 1 1 | 1 m+1>|^2 for m = +2 ... -2 (zero without a J'=1 partner)."""
    from .stirap import clebsch_gordan

    return np.array([clebsch_gordan(2, m, 1, 1, 1, m + 1) ** 2 for m in (2, 1, 0, -1, -2)])


def lightshift_vector(
    omega_light,
    detuning,
    polarization: str = "sigma+",
    transition: str = "2->1",
) -> np.ndarray:
    """AC-Stark shifts of the five m states from far-detuned sigma+ light
    driving J=2 -> J'=1, in rad/s, basis m = +2 ... -2.

    shift_m = |c_m|^2 * omega_light^2 / (4 * detuning), with c_m the
    Clebsch-Gordan factor <2 m; 1 1 | 1 m+1>.  States m = +2, +1 have no
    sigma+ partner in J'=1 and are unshifted, which is what isolates the
    (+2, +1) two-level system.
    """
    if polarization != "sigma+" or transition != "2->1":
        raise ValueError("only sigma+ light on the J=2 -> J'=1 transition is modeled")
    delta = rad_per_s(detuning)
    if delta == 0:
        raise ValueError("detuning must be nonzero")
    return _sigma_plus_weights() * rad_per_s(omega_light) ** 2 / (4 * delta)


def lightshift_from_scale(scale) -> np.ndarray:
    """Light-shift vector normalized so the m=0 shift is -|scale| (red detuned),
    with the m=-1 and m=-2 shifts in the physical CG^2 ratios (1 : 3 : 6)."""
    weights = _sigma_plus_weights()
    return -abs(rad_per_s(scale)) * weights / weights[2]
