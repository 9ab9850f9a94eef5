import inspect
import os
import subprocess
import sys
from pathlib import Path

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


def test_rabi_run_imports_no_scipy(tmp_path):
    """SciPy loads only when a STIRAP solve or a fit needs it, so the RF,
    Ramsey and echo scenarios start without its import time."""
    config = tmp_path / "rabi.yaml"
    config.write_text(
        "scenario: rabi\nomega0: 800 kHz\nomega_rabi: 95 kHz\nduration: 42 us\n"
        "points: 30\np0_plus2: 1.0\n",
        encoding="utf-8",
    )
    script = (
        "import sys, spinorlab, spinorlab.cli\n"
        f"assert spinorlab.cli.main(['run', {str(config)!r}, '--out', {str(tmp_path / 'rabi.csv')!r}]) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    src = str(Path(spinorlab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
