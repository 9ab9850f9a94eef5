"""Coherent dynamics of a five-level (spin-2) atomic system.

Simulation toolkit for RF-driven multi-level Rabi oscillations (with and
without the rotating-wave approximation), light-shift reduction to a
two-level system, STIRAP and fractional-STIRAP state preparation on a
five-state chain, Ramsey and spin-echo dephasing of thermal ensembles, and
the variable-projection fits used to extract drive and field parameters from
measured population traces.
"""

from .core import (
    CONSTANTS,
    PhysicalConstants,
    Populations,
    SpinSystem,
    StateVector,
    build_spin_system,
    populations,
    zeeman_state,
)
from .rotations import (
    Angle,
    RotationAxis,
    equilibrium_populations,
    rotation_operator,
    rotation_population_curve,
    rotation_populations,
    two_level_population,
)
from .propagator import (
    ClassicalSpin,
    FieldConfig,
    HamiltonianKind,
    HamiltonianSpec,
    NumericalError,
    evolve_classical,
    evolve_populations,
    evolve_state,
    lab_frame_state,
    lightshift_from_scale,
    lightshift_vector,
    rotating_frame_state,
)
from .stirap import (
    ChainCouplings,
    NonAdiabaticPulseWarning,
    StirapParams,
    clebsch_gordan,
    dark_state,
    fstirap_populations_closed,
    physical_chain_couplings,
    pulse_envelopes,
    simulate_stirap,
    stirap_trace,
)
from .ensemble import (
    AverageMethod,
    EnsembleSpec,
    SequenceKind,
    SequenceTiming,
    echo_envelope,
    ensemble_average,
    ensemble_average_curve,
    phase_echo,
    phase_ramsey,
    ramsey_damped_cosine,
    ramsey_envelope,
    single_atom_sequence,
)
from .fit import FitResult, TimeSeries, fit_echo, fit_rabi, fit_ramsey

__version__ = "0.1.0"
