"""The names the benchmark's tracer wraps must exist in spinorlab, and the
scenarios must call the ones it traces on the preparation and analysis
workloads.

``spinorbench/tracing.py`` wraps functions by (module, attribute) and reads
some of their arguments by name.  A refactoring that renames one of them,
or stops calling it, would otherwise fail only in a traced benchmark run;
here it fails the unit tests.  The tracer module is imported read-only, by
file path.
"""

import ast
import importlib
import importlib.util
import inspect
import math
import sys
from collections import Counter
from pathlib import Path

import numpy as np

from spinorlab import cli, fit
from spinorlab.ensemble import EnsembleSpec, SequenceKind, ensemble_average_curve
from spinorlab.propagator import FieldConfig

TRACING = Path(__file__).resolve().parents[1] / "spinorbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("spinorbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


def _wrapped(attr: str):
    for module_name, name, _, _ in tracing.WRAPPED:
        if name == attr:
            return getattr(importlib.import_module(module_name), name)
    raise AssertionError(f"{attr} has work reported but is not wrapped")


def _argument_names(fn) -> set[str]:
    """The keys a work function reads from its ``args`` mapping, as
    args["name"] or args.get("name")."""
    names = set()
    for node in ast.walk(ast.parse(inspect.getsource(fn))):
        if isinstance(node, ast.Subscript) and getattr(node.value, "id", None) == "args":
            names.add(node.slice.value)
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "get"
            and getattr(node.func.value, "id", None) == "args"
        ):
            names.add(node.args[0].value)
    return names


def test_every_wrapped_name_exists():
    missing = [
        f"{module_name}.{attr}"
        for module_name, attr, _, _ in tracing.WRAPPED
        if not callable(getattr(importlib.import_module(module_name), attr, None))
    ]
    assert missing == []


def test_argument_names_read_by_the_tracer_are_parameters():
    read = {}
    for attr, work in tracing._WORK.items():
        params = inspect.signature(_wrapped(attr)).parameters
        for name in _argument_names(work):
            read[f"{attr}({name})"] = name in params
    assert read, "no argument names found: the parse of tracing._WORK is stale"
    assert all(read.values()), read


def _write_trace(path: Path, times, pops) -> str:
    rows = (",".join(f"{v:.9g}" for v in (t, *p)) for t, p in zip(times * 1e6, pops))
    path.write_text("t_us,p_p2,p_p1,p_0,p_m1,p_m2\n" + "\n".join(rows) + "\n", encoding="utf-8")
    return str(path)


def test_fits_call_every_name_traced_on_analysis(tmp_path, monkeypatch):
    spec = EnsembleSpec(sigma_z0=0.73e-3, t_axial=0.2e-3, n_samples=1)
    rabi_t = np.linspace(0.0, 30e-6, 60)
    ramsey_t = np.linspace(0.0, 60e-6, 301)
    echo_t = np.linspace(1e-6, 220e-6, 60)
    traces = {
        "fit-rabi": (
            rabi_t,
            fit.rabi_model_curve(rabi_t, 2 * math.pi * 95e3, np.array([0.97, 0.03, 0, 0, 0])),
            "",
        ),
        "fit-ramsey": (
            ramsey_t,
            ensemble_average_curve(
                FieldConfig(b0=179e-7, b1=4.5e-4), spec, SequenceKind.RAMSEY, ramsey_t
            ),
            "b0: 179 mG\nsigma_z0: 0.73 mm\nt_axial: 0.2 mK\n",
        ),
        "fit-echo": (
            echo_t,
            ensemble_average_curve(
                FieldConfig(b0=0.0, b1=13.5e-4), spec, SequenceKind.ECHO, echo_t, echo_t
            ),
            "sigma_z0: 0.73 mm\nt_axial: 0.2 mK\n",
        ),
    }
    configs = {}
    for scenario, (times, pops, keys) in traces.items():
        data = _write_trace(tmp_path / f"{scenario}.csv", times, pops)
        configs[scenario] = f"scenario: {scenario}\ndata: {data}\n{keys}"
    fit._basis_coefficients.cache_clear()  # so that the harmonics are built again
    assert _names_not_called("analysis", configs, tmp_path, monkeypatch) == []


def test_scenarios_call_every_name_traced_on_preparation(tmp_path, monkeypatch):
    pulses = "omega_peak: 40 MHz\ntau_pulse: 0.55 us\ndelta_t: 0.7 us\ndetuning: 20 MHz\n"
    configs = {
        "rabi-lab": "scenario: rabi-lab\nomega0: 800 kHz\nomega_rabi: 95 kHz\n"
        "duration: 2 us\npoints: 20\n",
        "stirap": "scenario: stirap\npoints: 20\n" + pulses,
        "fstirap-scan": "scenario: fstirap-scan\neta_max: 1.0\npoints: 2\n" + pulses,
    }
    assert _names_not_called("preparation", configs, tmp_path, monkeypatch) == []


def _names_not_called(workload: str, configs: dict, tmp_path, monkeypatch) -> list[str]:
    """Run ``cli.main`` on every config text and return the names WRAPPED
    lists for ``workload`` that no run called, as module.attribute."""
    traced = [
        (module_name, attr)
        for module_name, attr, _, workloads in tracing.WRAPPED
        if workload in workloads
    ]
    calls = Counter()
    for module_name, attr in traced:
        module = importlib.import_module(module_name)

        def counted(*args, _fn=getattr(module, attr), _name=attr, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(module, attr, counted)
    for scenario, text in configs.items():
        config = tmp_path / f"{scenario}.yaml"
        config.write_text(text, encoding="utf-8")
        assert cli.main(["run", str(config), "--out", str(tmp_path / f"{scenario}.out")]) == 0
    return [f"{module_name}.{attr}" for module_name, attr in traced if calls[attr] == 0]
