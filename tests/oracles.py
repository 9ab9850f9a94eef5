"""Independent numerical oracles used to freeze expected test values.

These deliberately avoid the implementation paths they check: the
Clebsch-Gordan oracle builds coupled states by ladder operators and
null-space extraction in the product basis (no Racah sum), the phase
average oracle integrates over an explicit phase grid, the sequence oracle
multiplies out the rotation matrices of each pulse and free evolution (no
phase harmonics), and the RF oracle
integrates the Schrodinger equation with an adaptive Runge-Kutta method
(no Magnus steps, no period), and the chain oracle integrates the STIRAP
chain one chain at a time from its Hamiltonian at each instant (no stacked
state, no stage batches, no tableau of its own).
"""

import math

import numpy as np
from scipy.integrate import solve_ivp


def _single_ops(j: float):
    d = round(2 * j) + 1
    m = j - np.arange(d)
    jp = np.zeros((d, d))
    jp[np.arange(d - 1), np.arange(1, d)] = np.sqrt(j * (j + 1) - m[1:] * (m[1:] + 1))
    return jp, jp.T, np.diag(m)


def ladder_cg_table(j1: float, j2: float) -> dict:
    """All <j1 m1; j2 m2 | J M> by explicit construction in the product space.

    For each total J the stretched state |J, J> is the null vector of the
    total raising operator inside the M = J sector (unique because coupling
    two irreps is multiplicity free), signed so the largest-m1 component is
    positive (Condon-Shortley).  Lower M states follow from the total
    lowering operator.  Returns {(m1, m2, J, M): coefficient}.
    """
    d1, d2 = round(2 * j1) + 1, round(2 * j2) + 1
    p1, _, z1 = _single_ops(j1)
    p2, _, z2 = _single_ops(j2)
    eye1, eye2 = np.eye(d1), np.eye(d2)
    jp = np.kron(p1, eye2) + np.kron(eye1, p2)
    jm = jp.T
    mz = np.diag(np.kron(z1, eye2) + np.kron(eye1, z2))

    table = {}
    j_total = j1 + j2
    while j_total >= abs(j1 - j2) - 1e-9:
        sector = np.where(np.abs(mz - j_total) < 1e-9)[0]
        _, _, vt = np.linalg.svd(jp[:, sector])
        null = vt[-1]
        vec = np.zeros(d1 * d2)
        vec[sector] = null
        m1_in_sector = j1 - (sector // d2)
        anchor = sector[np.argmax(m1_in_sector)]
        if vec[anchor] < 0:
            vec = -vec
        m_total = j_total
        table[(j_total, m_total)] = vec
        while m_total > -j_total + 1e-9:
            norm = np.sqrt(j_total * (j_total + 1) - m_total * (m_total - 1))
            vec = jm @ vec / norm
            m_total -= 1
            table[(j_total, m_total)] = vec
        j_total -= 1

    out = {}
    for (J, M), vec in table.items():
        for idx, c in enumerate(vec):
            m1 = j1 - idx // d2
            m2 = j2 - idx % d2
            if abs(c) > 1e-13 or abs(m1 + m2 - M) < 1e-9:
                out[(m1, m2, J, M)] = c
    return out


def uniform_phase_average(dx: np.ndarray, m_values: np.ndarray, initial: np.ndarray, n: int = 4096):
    """Average populations of Dx(pi/2) Dz(phi) Dx(pi/2) |initial> over a
    uniform phi grid (exact for trigonometric polynomials of order < n/2)."""
    phis = 2 * np.pi * np.arange(n) / n
    v = dx @ initial
    phases = np.exp(-1j * np.multiply.outer(phis, m_values))
    amps = (phases * v[None, :]) @ dx.T
    return np.mean(np.abs(amps) ** 2, axis=0)


def single_atom_sequence(initial, kind, phi):
    """Populations after Dx(last) Dz(phi) Dx(pi/2) |initial>, with last = pi/2
    for Ramsey and 3 pi/2 for echo, as the explicit product of
    ``rotation_operator`` matrices.  ``phi`` may be an array; the result has
    shape phi.shape + (dim,)."""
    from spinorlab.core import build_spin_system
    from spinorlab.ensemble import SequenceKind
    from spinorlab.rotations import RotationAxis, rotation_operator

    sys = build_spin_system((initial.dim - 1) / 2)
    last = math.pi / 2 if kind is SequenceKind.RAMSEY else 3 * math.pi / 2
    sequence = (
        rotation_operator(sys, RotationAxis.X, last)
        @ rotation_operator(sys, RotationAxis.Z, phi)
        @ rotation_operator(sys, RotationAxis.X, math.pi / 2)
    )
    p = np.abs(sequence @ initial.amplitudes) ** 2
    return p / p.sum(axis=-1, keepdims=True)


def rf_populations(frame: str, w0, w, rabi, shifts, columns, times):
    """|psi(t)|^2 of every amplitude column of ``columns`` (dim, k) under
    i dpsi/dt = H(t) psi, shape (times.size, dim, k), by adaptive DOP853
    (rtol 1e-12).  H is written out here for ``frame`` in "lab-full",
    "rot-full" and "lab-light-shift", with ``shifts`` the static diagonal of
    the last; the spin matrices come from the ladder operators above."""
    dim, k = columns.shape
    jp, jm, jz = _single_ops((dim - 1) / 2)
    jx, jy = (jp + jm) / 2, (jp - jm) / 2j
    static = (w0 - w) * jz if frame == "rot-full" else w0 * jz
    if frame == "lab-light-shift":
        static = static + np.diag(shifts)

    def hamiltonian(t):
        if frame == "rot-full":
            return static + rabi / 2 * ((1 + np.cos(2 * w * t)) * jx - np.sin(2 * w * t) * jy)
        return static + rabi * np.cos(w * t) * jx

    def rhs(t, y):
        return (-1j * hamiltonian(t) @ y.reshape(dim, k)).ravel()

    unique, inverse = np.unique(times, return_inverse=True)
    sol = solve_ivp(
        rhs, (unique[0], unique[-1]), columns.astype(complex).ravel(), method="DOP853",
        t_eval=unique, rtol=1e-12, atol=1e-13,
    )
    assert sol.success, sol.message
    return np.abs(sol.y.T.reshape(-1, dim, k)[inverse]) ** 2


def chain_trace(params, times):
    """States (times.size, 5) of one STIRAP chain from |+2> at times[0],
    under i dpsi/dt = H(t) psi with H(t) = ``chain_hamiltonian`` of the beam
    amplitudes ``pulse_envelopes`` gives at t, by SciPy's DOP853 (rtol
    1e-12) with its dense output at ``times``."""
    from spinorlab.stirap import chain_hamiltonian, pulse_envelopes

    def rhs(t, y):
        stokes, pump = pulse_envelopes(params, t)
        return -1j * chain_hamiltonian(params, pump, stokes) @ y

    sol = solve_ivp(
        rhs, (times[0], times[-1]), np.eye(5, dtype=complex)[0], method="DOP853",
        t_eval=times, rtol=1e-12, atol=1e-14,
    )
    assert sol.success, sol.message
    return sol.y.T
