"""Spans around the calls into spinorlab's layers, kept in memory.

The tracer replaces a layer's public functions with wrappers in the module
where their caller looks them up (``cli.evolve_populations``,
``fit.rotation_population_curve``, ...), so the program itself is not
changed.  A span holds its layer, start, end, parent span, the round it
belongs to and the work it reports (points, Monte Carlo samples, fit
evaluations).  A span's self time is its duration minus its children's.
A wrapped name that is missing, or called on other workloads than WRAPPED
names for it, is reported as a failure, so a layer's metrics cannot read 0
because a call went past the tracer.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import time
from dataclasses import dataclass, field

PREP, COH, ANA = ("preparation",), ("coherence",), ("analysis",)
ALL = PREP + COH + ANA
# (module, attribute, layer, the workloads that call it): wrapped where the
# caller looks the name up
WRAPPED = (
    ("spinorlab.cli", "evolve_populations", "propagator", PREP),
    ("spinorlab.stirap", "simulate_stirap", "stirap", PREP),
    ("spinorlab.stirap", "stirap_trace", "stirap", PREP),
    ("spinorlab.ensemble", "ensemble_average_curve", "ensemble", COH + ANA),
    ("spinorlab.ensemble", "ramsey_envelope", "ensemble", COH),
    ("spinorlab.ensemble", "echo_envelope", "ensemble", COH),
    ("spinorlab.fit", "_carrier_and_variance", "ensemble.harmonic", ANA),
    ("spinorlab.fit", "_harmonic_sum", "ensemble.harmonic", ANA),
    ("spinorlab.fit", "_phase_harmonics", "ensemble.harmonic", ANA),
    ("spinorlab.fit", "fit_rabi", "fit", ANA),
    ("spinorlab.fit", "fit_ramsey", "fit", ANA),
    ("spinorlab.fit", "fit_echo", "fit", ANA),
    ("spinorlab.fit", "rotation_population_curve", "rotations", ANA),
    ("spinorlab.cli", "load_config", "cli.load_config", ALL),
    ("spinorlab.cli", "format_table", "cli.format_table", ALL),
)


@dataclass
class Span:
    layer: str
    name: str
    start: float
    parent: int | None
    round: int
    end: float = 0.0
    work: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _propagator_work(args, result) -> dict:
    return {"points": len(args["times"])}


def _ensemble_work(args, result) -> dict:
    method = args.get("method")
    if method is None or method.value != "montecarlo":
        return {}
    return {"mc": args["spec"].n_samples * len(result)}


def _fit_work(args, result) -> dict:
    return {"evals": result.n_evals, "converged": int(result.converged)}


_WORK = {
    "evolve_populations": _propagator_work,
    "ensemble_average_curve": _ensemble_work,
    "fit_rabi": _fit_work,
    "fit_ramsey": _fit_work,
    "fit_echo": _fit_work,
}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.round = 0  # set by the caller at the start of each round
        self._originals: list[tuple] = []
        self._stack: list[int] = []

    def call(self, layer: str, name: str, fn, *args, work=None, **kwargs):
        """Run fn(*args, **kwargs) inside a span of ``layer``."""
        index = len(self.spans)
        span = Span(layer, name, 0.0, self._stack[-1] if self._stack else None, self.round)
        self.spans.append(span)
        self._stack.append(index)
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
        if work is not None:
            span.work = work(args, kwargs, result)
        return result

    def install(self) -> list[str]:
        """Wrap every function of WRAPPED; return the names the program no
        longer has, whose layer metrics would read 0."""
        missing = []
        for module_name, attr, layer, _ in WRAPPED:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                missing.append(f"{module_name}.{attr}")
                continue
            self._originals.append((module, attr, fn))
            setattr(module, attr, self._wrap(layer, f"{module_name}.{attr}", fn, _WORK.get(attr)))
        return missing

    def uninstall(self) -> None:
        for module, attr, fn in self._originals:
            setattr(module, attr, fn)
        self._originals.clear()

    def call_failures(self, workload: str) -> list[str]:
        """Each wrapped function must be called on the workloads WRAPPED
        names for it and on no other: a call that moved to a name the
        tracer does not wrap would otherwise read as a layer made free."""
        called = {span.name for span in self.spans}
        failures = []
        for module_name, attr, _, workloads in WRAPPED:
            name = f"{module_name}.{attr}"
            if (name in called) != (workload in workloads):
                state = "called" if name in called else "not called"
                failures.append(f"{name} {state} on {workload}, expected on {', '.join(workloads)}")
        return failures

    def _wrap(self, layer, name, fn, work_of):
        work = None
        if work_of is not None:
            signature = inspect.signature(fn)

            def work(args, kwargs, result):
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                return work_of(bound.arguments, result)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(layer, name, fn, *args, work=work, **kwargs)

        return traced

    def round_metrics(self) -> list[dict]:
        """Per-layer totals of each round: calls, busy (outermost spans of
        the layer), self time and reported work."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.duration
        rounds: dict[int, dict] = {}
        for i, span in enumerate(self.spans):
            totals = rounds.setdefault(span.round, {})
            layer = totals.setdefault(
                span.layer, {"calls": 0, "busy": 0.0, "self": 0.0, "mc_busy": 0.0}
            )
            layer["calls"] += 1
            layer["self"] += span.duration - child_time[i]
            if not self._inside_same_layer(span):
                layer["busy"] += span.duration
            if "mc" in span.work:
                layer["mc_busy"] += span.duration
            for key, value in span.work.items():
                layer[key] = layer.get(key, 0) + value
        return [rounds[r] for r in sorted(rounds)]

    def _inside_same_layer(self, span: Span) -> bool:
        parent = span.parent
        while parent is not None:
            if self.spans[parent].layer == span.layer:
                return True
            parent = self.spans[parent].parent
        return False

    def dump(self) -> list[dict]:
        return [
            {"layer": s.layer, "name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
             "round": s.round, **s.work}
            for s in self.spans
        ]


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(rounds: list[dict]) -> dict[str, tuple[float, str]]:
    """Median over rounds of each per-layer metric, as {name: (value, unit)}."""

    def get(totals, layer, key):
        return totals.get(layer, {}).get(key, 0)

    per_round = []
    for r in rounds:
        chains = get(r, "stirap", "calls")
        per_round.append({
            "propagator.calls": (get(r, "propagator", "calls"), "count"),
            "propagator.busy_s": (get(r, "propagator", "busy"), "s"),
            "propagator.points_per_s": (
                _ratio(get(r, "propagator", "points"), get(r, "propagator", "busy")), "1/s"),
            "stirap.calls": (chains, "count"),
            "stirap.busy_s": (get(r, "stirap", "busy"), "s"),
            "stirap.chains_per_s": (_ratio(chains, get(r, "stirap", "busy")), "1/s"),
            "ensemble.calls": (get(r, "ensemble", "calls"), "count"),
            "ensemble.busy_s": (get(r, "ensemble", "busy"), "s"),
            "ensemble.mc_samples_per_s": (
                _ratio(get(r, "ensemble", "mc"), get(r, "ensemble", "mc_busy")), "1/s"),
            "ensemble.harmonic_calls": (get(r, "ensemble.harmonic", "calls"), "count"),
            "ensemble.harmonic_busy_s": (get(r, "ensemble.harmonic", "busy"), "s"),
            "fit.calls": (get(r, "fit", "calls"), "count"),
            "fit.self_s": (get(r, "fit", "self"), "s"),
            "fit.evals": (get(r, "fit", "evals"), "count"),
            "fit.evals_per_s": (_ratio(get(r, "fit", "evals"), get(r, "fit", "busy")), "1/s"),
            "fit.converged": (get(r, "fit", "converged"), "count"),
            "rotations.calls": (get(r, "rotations", "calls"), "count"),
            "rotations.busy_s": (get(r, "rotations", "busy"), "s"),
            "cli.calls": (get(r, "cli", "calls"), "count"),
            "cli.self_s": (get(r, "cli", "self"), "s"),
            "cli.load_config_s": (get(r, "cli.load_config", "busy"), "s"),
            "cli.format_table_s": (get(r, "cli.format_table", "busy"), "s"),
        })
    return {
        name: (statistics.median(r[name][0] for r in per_round), unit)
        for name, (_, unit) in per_round[0].items()
    }
