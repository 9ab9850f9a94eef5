"""Tests of the benchmark's reference code against closed forms, and a short
smoke run of each workload with its checks on.

    python3 -m pytest spinorbench/tests
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import reference as ref  # noqa: E402
import tracing  # noqa: E402
from checks import mc_bound  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# config keys that set an operation's amount of work
WORK_KEYS = ("scenario", "omega0", "duration", "points", "samples", "tau_max", "tau1",
             "tau2_max", "tau_sum_max")


def test_rf_reference_matches_static_rotation():
    omega = 2 * math.pi * 95e3
    times = np.linspace(0.0, 30e-6, 25)
    weights = np.array([0.5, 0.3, 0.2, 0.0, 0.0])
    got = ref.rf_populations("rot-rwa", 1e6, 1e6, omega, times, weights)
    jx = ref.JX.astype(complex)
    expected = np.zeros_like(got)
    for n, t in enumerate(times):
        u = expm(-1j * (omega / 2) * t * jx)
        expected[n] = np.abs(u[:, :3]) ** 2 @ weights[:3]
    np.testing.assert_allclose(got, expected, atol=1e-9)
    np.testing.assert_allclose(ref.rabi_populations(omega, times, weights), expected, atol=1e-12)


def test_rabi_reference_inverts_at_pi():
    omega = 2 * math.pi * 95e3
    t_pi = 2 * math.pi / omega  # rotation angle Omega t / 2 = pi
    pops = ref.rabi_populations(omega, np.array([t_pi]), [0.7, 0.3, 0, 0, 0])
    np.testing.assert_allclose(pops[0], [0, 0, 0, 0.3, 0.7], atol=1e-12)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_quadrature_reproduces_ramsey_and_echo_envelopes(k):
    """<cos k phi> = cos(k A) exp(-k^2 var / 2); for k = 1 the damping is the
    Ramsey envelope, and at tau1 = tau2 the echo tau^4 law."""
    b0, b1, sigma_z0, t_axial = 179e-7, 13.5e-4, 0.73e-3, 0.2e-3
    gb1 = ref.GAMMA * b1
    var_v = ref.K_B * t_axial / ref.MASS_NE20
    tau = np.linspace(0.0, 80e-6, 33)
    ramsey_env = np.exp(-0.5 * (gb1 * sigma_z0 * tau) ** 2) * np.exp(-0.125 * gb1**2 * var_v * tau**4)
    echo_env = np.exp(-0.5 * gb1**2 * var_v * tau**4)
    for kind, envelope, carrier in (
        ("ramsey", ramsey_env, ref.GAMMA * b0 * tau),
        ("echo", echo_env, 0 * tau),
    ):
        mean, var = ref.phase_moments(kind, b0, b1, sigma_z0, t_axial, tau, tau)
        got = ref.gaussian_average(lambda p: np.cos(k * p)[:, None], mean, var)[:, 0]
        np.testing.assert_allclose(got, np.cos(k * carrier) * envelope ** (k * k), atol=1e-13)


def test_dephased_ramsey_reaches_equilibrium():
    """A fully dephased Ramsey sequence from |+2> ends in
    (35/128, 5/32, 9/64, 5/32, 35/128)."""
    pops = ref.gaussian_phase_average("ramsey", [1, 0, 0, 0, 0], [0.3], [400.0])
    np.testing.assert_allclose(pops[0], [35 / 128, 5 / 32, 9 / 64, 5 / 32, 35 / 128], atol=1e-13)


@pytest.mark.parametrize("eta", [0.0, 0.7, 2.0])
def test_chain_couplings_give_fstirap_dark_state(eta):
    """The ground-state null vector of the couplings at Omega_S = eta
    Omega_P holds 3 eta^4 : 6 eta^2 : 2."""
    a1, a2 = ref.PUMP_CG
    b1, b2 = ref.STOKES_CG
    # rows: the excited states |e2>, |e1>; columns: |+2>, |+1>, |0>
    coupling = np.array([[a1, eta * b1, 0.0], [0.0, a2, eta * b2]])
    dark = np.linalg.svd(coupling)[2][-1]
    np.testing.assert_allclose(dark**2, ref.fstirap_closed(eta), atol=1e-12)


def test_chain_reference_transfers_and_conserves_norm():
    tau, delta_t = 0.55e-6, 0.7e-6
    window = np.array(ref.chain_window(tau, delta_t))
    amps = ref.chain_amplitudes(2 * math.pi * 40e6, tau, delta_t, 0.0, 2 * math.pi * 20e6, 0.0, 0.0, window)
    final = np.abs(amps[-1]) ** 2
    assert abs(final.sum() - 1) < 1e-9
    assert final[4] > 0.99
    lossy = ref.chain_amplitudes(2 * math.pi * 40e6, tau, delta_t, 0.0, 2 * math.pi * 20e6, 0.0, 2 * math.pi * 1e6, window)
    assert np.sum(np.abs(lossy[-1]) ** 2) < 1 - 1e-4


def test_mc_bound_covers_simulated_means():
    rng = np.random.default_rng(0)
    mean = np.array([0.0, 1e-3, 0.2, 0.5, 0.999])
    n = 2000
    samples = rng.random((400, n, mean.size)) < mean  # Bernoulli: the widest case
    worst = np.max(np.abs(samples.mean(axis=1) - mean) / mc_bound(mean, n, mean.size))
    assert worst < 1


def _same_work_new_inputs(a, b):
    assert (a.name, a.scenario) == (b.name, b.scenario)
    assert {k: a.config.get(k) for k in WORK_KEYS} == {k: b.config.get(k) for k in WORK_KEYS}
    if a.trace is None:
        assert a.config != b.config, a.name
    else:
        assert a.trace[1].shape == b.trace[1].shape
        assert not np.array_equal(a.trace[2], b.trace[2]), a.name


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_no_round_or_warmup_repeats_an_input(workload):
    """Later rounds and set-up repeats draw new inputs of the same size, so
    a cache keyed on the inputs gains nothing in a run."""
    make_ops, make_warmup = WORKLOADS[workload]
    for a, b in zip(make_ops(4, 0), make_ops(4, 1)):
        _same_work_new_inputs(a, b)
    _same_work_new_inputs(make_warmup(4, 0), make_warmup(4, 1))
    assert [op.config for op in make_ops(4, 2)] == [op.config for op in make_ops(4, 2)]


def test_tracer_reports_calls_that_went_past_it():
    tracer = tracing.Tracer()
    failures = tracer.call_failures("analysis")  # no span recorded at all
    assert any("spinorlab.fit.fit_rabi not called on analysis" in f for f in failures)
    assert not any("evolve_populations" in f for f in failures)
    tracer.spans.append(tracing.Span("propagator", "spinorlab.cli.evolve_populations", 0.0, None, 0))
    assert any("evolve_populations called on analysis" in f for f in tracer.call_failures("analysis"))


def _run(args, cwd):
    return subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["preparation", "coherence", "analysis"])
def test_workload_smoke(workload, trace):
    proc = _run(["--workload", workload, "--seed", "7", "--seconds", "0", "--trace", str(trace)], ROOT)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"], proc.stderr
    assert result["failed"] == 0 and result["attempted"] >= 8
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = spec["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in listed}
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    if trace:
        assert (metrics["propagator.calls"] > 0) == (workload == "preparation")
        assert (metrics["stirap.calls"] > 0) == (workload == "preparation")
        assert (metrics["fit.calls"] > 0) == (workload == "analysis")
        assert metrics["cli.calls"] == result["attempted"]
    else:
        assert all(v > 0 for v in metrics.values())


def test_refuses_to_run_without_the_program(tmp_path):
    proc = _run(["--workload", "coherence", "--seed", "1", "--seconds", "1"], tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
