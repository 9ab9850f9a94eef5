"""Coherent dynamics of a five-level (spin-2) atomic system.

Simulation toolkit for RF-driven multi-level Rabi oscillations (with and
without the rotating-wave approximation), light-shift reduction to a
two-level system, STIRAP and fractional-STIRAP state preparation on a
five-state chain, Ramsey and spin-echo dephasing of thermal ensembles, and
the variable-projection fits used to extract drive and field parameters from
measured population traces.
"""

from .core import (
    GAMMA,
    K_B,
    MASS_NE20,
    Populations,
    SpinSystem,
    StateVector,
    build_spin_system,
    clebsch_gordan,
    populations,
    zeeman_state,
)
from .rotations import (
    RotationAxis,
    equilibrium_populations,
    rotation_operator,
    rotation_population_curve,
    two_level_population,
)
from .propagator import (
    FieldConfig,
    HamiltonianKind,
    HamiltonianSpec,
    NumericalError,
    evolve_populations,
    evolve_state,
    lab_frame_state,
    lightshift_from_scale,
    rotating_frame_state,
)
from .stirap import (
    PUMP_CG,
    STOKES_CG,
    NonAdiabaticPulseWarning,
    StirapParams,
    fstirap_populations_closed,
    pulse_envelopes,
    simulate_stirap,
    stirap_trace,
)
from .ensemble import (
    AverageMethod,
    EnsembleSpec,
    SequenceKind,
    echo_envelope,
    ensemble_average,
    ensemble_average_curve,
    ramsey_envelope,
)
from .fit import FitResult, TimeSeries, fit_echo, fit_rabi, fit_ramsey

__version__ = "0.1.0"
