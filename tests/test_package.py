import ast
import inspect
import os
import subprocess
import sys
from pathlib import Path

import spinorlab
from test_golden_csv import CONFIGS as GOLDEN_CONFIGS


def test_public_names():
    """Every name ``import spinorlab`` exports, one a line, so that a change
    to the public surface reads as a one-line diff here."""
    exported = sorted(
        name
        for name, value in vars(spinorlab).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    )
    assert exported == [
        "AverageMethod",
        "EnsembleSpec",
        "FieldConfig",
        "FitResult",
        "GAMMA",
        "HamiltonianKind",
        "HamiltonianSpec",
        "K_B",
        "MASS_NE20",
        "NonAdiabaticPulseWarning",
        "NumericalError",
        "PUMP_CG",
        "Populations",
        "RotationAxis",
        "STOKES_CG",
        "SequenceKind",
        "SpinSystem",
        "StateVector",
        "StirapParams",
        "TimeSeries",
        "build_spin_system",
        "clebsch_gordan",
        "echo_envelope",
        "ensemble_average",
        "ensemble_average_curve",
        "equilibrium_populations",
        "evolve_populations",
        "evolve_state",
        "fit_echo",
        "fit_rabi",
        "fit_ramsey",
        "fstirap_populations_closed",
        "lab_frame_state",
        "lightshift_from_scale",
        "populations",
        "pulse_envelopes",
        "ramsey_envelope",
        "rotating_frame_state",
        "rotation_operator",
        "rotation_population_curve",
        "simulate_stirap",
        "stirap_trace",
        "two_level_population",
        "zeeman_state",
    ]


def test_no_scenario_imports_scipy(tmp_path):
    """No scenario imports SciPy or PyYAML, so the RF, STIRAP, Ramsey, echo
    and fit scenarios all start without their import time."""
    data = Path(__file__).parent / "data"
    configs = {
        "rabi": "scenario: rabi\nomega0: 800 kHz\nomega_rabi: 95 kHz\nduration: 42 us\n"
        "points: 30\np0_plus2: 1.0\n",
        "fit-rabi": f"scenario: fit-rabi\ndata: {data / 'fit-input-rabi.csv'}\n",
        "fit-ramsey": f"scenario: fit-ramsey\ndata: {data / 'fit-input-ramsey.csv'}\n"
        "b0: 179 mG\nsigma_z0: 0.73 mm\nt_axial: 0.2 mK\n",
        "fit-echo": f"scenario: fit-echo\ndata: {data / 'fit-input-echo.csv'}\nt_axial: 0.2 mK\n",
        **{name: GOLDEN_CONFIGS[name] for name in ("stirap-lossless", "stirap-lossy", "fstirap-scan")},
    }
    script = ["import sys, spinorlab, spinorlab.cli"]
    for name, text in configs.items():
        config = tmp_path / f"{name}.yaml"
        config.write_text(text, encoding="utf-8")
        argv = ["run", str(config), "--out", str(tmp_path / f"{name}.csv")]
        script.append(f"assert spinorlab.cli.main({argv!r}) == 0, {name!r}")
    script.append("print(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'yaml')))")
    src = str(Path(spinorlab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-c", "\n".join(script)], capture_output=True, text=True, env=env, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"  # after the fits' printed parameters


def test_no_module_imports_a_name_it_never_uses():
    """Each module but ``__init__`` (which re-exports) uses every name it
    imports, so that a deletion leaves no stale import behind."""
    unused = []
    for path in sorted(Path(spinorlab.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]  # import a.b binds a
                    if name not in used:
                        unused.append(f"{path.name}:{node.lineno} {name}")
    assert unused == []


def test_every_private_name_is_read_in_the_package():
    """Each private top-level name a module defines (dunders aside), and each
    public one that ``import spinorlab`` does not export, is read in the
    package, by name or as an attribute, so that a deletion leaves no
    orphaned helper or constant behind."""
    paths = Path(spinorlab.__file__).parent.glob("*.py")
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in paths}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    defined = []
    for module, tree in sorted(trees.items()):
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for target in targets for n in ast.walk(target) if isinstance(n, ast.Name)]
            else:
                continue
            defined += [(module, name) for name in names if not name.endswith("__")]
    assert len(defined) > 50  # the walk found the helpers
    exported = set(vars(spinorlab))
    unread = [f"{module}: {name}" for module, name in defined if name not in read | exported]
    assert unread == []
