import inspect

import spinorlab


def test_public_names():
    """Every name ``import spinorlab`` exports, one a line, so that a change
    to the public surface reads as a one-line diff here."""
    exported = sorted(
        name
        for name, value in vars(spinorlab).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    )
    assert exported == [
        "Angle",
        "AverageMethod",
        "CONSTANTS",
        "ClassicalSpin",
        "EnsembleSpec",
        "FieldConfig",
        "FitResult",
        "HamiltonianKind",
        "HamiltonianSpec",
        "NonAdiabaticPulseWarning",
        "NumericalError",
        "PUMP_CG",
        "PhysicalConstants",
        "Populations",
        "RotationAxis",
        "STOKES_CG",
        "SequenceKind",
        "SequenceTiming",
        "SpinSystem",
        "StateVector",
        "StirapParams",
        "TimeSeries",
        "build_spin_system",
        "clebsch_gordan",
        "dark_state",
        "echo_envelope",
        "ensemble_average",
        "ensemble_average_curve",
        "equilibrium_populations",
        "evolve_classical",
        "evolve_populations",
        "evolve_state",
        "fit_echo",
        "fit_rabi",
        "fit_ramsey",
        "fstirap_populations_closed",
        "lab_frame_state",
        "lightshift_from_scale",
        "lightshift_vector",
        "phase_echo",
        "phase_ramsey",
        "populations",
        "pulse_envelopes",
        "ramsey_damped_cosine",
        "ramsey_envelope",
        "rotating_frame_state",
        "rotation_operator",
        "rotation_population_curve",
        "rotation_populations",
        "simulate_stirap",
        "single_atom_sequence",
        "stirap_trace",
        "two_level_population",
        "zeeman_state",
    ]
