import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import chain_trace, ladder_cg_table
from spinorlab.stirap import (
    PUMP_CG,
    STOKES_CG,
    NonAdiabaticPulseWarning,
    StirapParams,
    _window,
    chain_hamiltonian,
    chain_to_zeeman_populations,
    clebsch_gordan,
    fstirap_populations_closed,
    pulse_envelopes,
    simulate_stirap,
    stirap_trace,
)

TWO_PI = 2 * math.pi


def paper_pulses(**overrides) -> StirapParams:
    kwargs = dict(
        omega0_peak=TWO_PI * 40e6,
        tau_pulse=0.55e-6,
        delta_t=0.7e-6,
        eta=0.0,
        detuning=TWO_PI * 20e6,
    )
    kwargs.update(overrides)
    return StirapParams(**kwargs)


# ---------------------------------------------------------------- CG algebra


def test_forbidden_pi_transition():
    assert clebsch_gordan(2, 0, 1, 0, 2, 0) == 0.0


def test_singlet_coefficient():
    assert clebsch_gordan(0.5, 0.5, 0.5, -0.5, 0, 0) == pytest.approx(1 / math.sqrt(2), abs=1e-15)


def test_full_table_against_ladder_oracle():
    for j1, j2 in [(0.5, 0.5), (1, 1), (1.5, 1), (2, 1), (2, 2), (2.5, 1.5), (3, 2)]:
        for (m1, m2, j, m), expected in ladder_cg_table(j1, j2).items():
            got = clebsch_gordan(j1, m1, j2, m2, j, m)
            assert got == pytest.approx(expected, abs=1e-12), (j1, m1, j2, m2, j, m)


half_int = st.integers(-6, 6).map(lambda n: n / 2)


@given(half_int, half_int, half_int, half_int)
@example(m1=0.0, m2=0.0, j=0.5, m=0.0)  # m1 = 0 is not a projection of j1 = 3/2
@settings(max_examples=80, deadline=None)
def test_selection_rules_give_zero(m1, m2, j, m):
    j1, j2 = 1.5, 1.0
    if abs(m1) > j1 or abs(m2) > j2 or j < 0 or abs(m) > j:
        return
    value = clebsch_gordan(j1, m1, j2, m2, j, m)
    off_ladder = any((a - b) % 1 for a, b in ((j1, m1), (j2, m2), (j, m)))
    if (
        m1 + m2 != m
        or not abs(j1 - j2) <= j <= j1 + j2
        or (2 * (j1 + j2 + j)) % 2 != 0
        or off_ladder
    ):
        assert value == 0.0


def test_cg_rows_are_orthonormal():
    # fixed (m1, m2) column: sum over (J, M) of CG^2 = 1
    for m1 in (2, 1, 0, -1, -2):
        for m2 in (1, 0, -1):
            total = sum(
                clebsch_gordan(2, m1, 1, m2, j, m1 + m2) ** 2
                for j in (1, 2, 3)
                if abs(m1 + m2) <= j
            )
            assert total == pytest.approx(1.0, abs=1e-12)


def test_physical_couplings_values():
    assert PUMP_CG[0] == pytest.approx(2 / math.sqrt(6), abs=1e-14)
    assert PUMP_CG[1] == pytest.approx(1 / math.sqrt(6), abs=1e-14)
    assert STOKES_CG[0] == pytest.approx(-1 / math.sqrt(3), abs=1e-14)
    assert STOKES_CG[1] == pytest.approx(-1 / math.sqrt(2), abs=1e-14)
    # the pi transition m = 0 -> m' = 0 is forbidden, so the chain ends at |0>
    assert clebsch_gordan(2, 0, 1, 0, 2, 0) == 0.0


# ------------------------------------------------------------------- pulses


def test_envelope_values_at_zero():
    p = paper_pulses()
    stokes, pump = pulse_envelopes(p, 0.0)
    w0 = TWO_PI * 40e6
    assert stokes == pytest.approx(w0)
    assert pump == pytest.approx(w0 * math.exp(-(0.7 / 0.55) ** 2))


def test_envelope_ratio_limits():
    late = 8e-6
    p1 = paper_pulses(eta=1.0)
    stokes, pump = pulse_envelopes(p1, late)
    assert stokes / pump == pytest.approx(1.0, rel=1e-6)
    p0 = paper_pulses(eta=0.0)
    stokes, pump = pulse_envelopes(p0, late)
    assert stokes / pump < 1e-6


def test_params_validation():
    with pytest.raises(ValueError):
        paper_pulses(tau_pulse=0.0)
    with pytest.raises(ValueError):
        paper_pulses(eta=-0.5)
    with pytest.raises(ValueError):
        paper_pulses(gamma_e=-1.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="eta must be finite"):
            paper_pulses(eta=bad)
        with pytest.raises(ValueError, match="gamma_e must be finite"):
            paper_pulses(gamma_e=bad)


# ------------------------------------------------------------- closed forms


def test_closed_form_limits():
    assert np.allclose(fstirap_populations_closed(0.0).p, [0, 0, 1], atol=1e-15)
    assert np.allclose(fstirap_populations_closed(1e6).p, [1, 0, 0], atol=1e-11)
    assert np.allclose(fstirap_populations_closed(1.0).p, [3 / 11, 6 / 11, 2 / 11], atol=1e-15)


@given(st.floats(0, 50, allow_nan=False))
@settings(max_examples=50, deadline=None)
def test_closed_form_normalized(eta):
    assert fstirap_populations_closed(eta).p.sum() == pytest.approx(1.0, abs=1e-12)


# --------------------------------------------------------------- dark state


ETAS = [0.0, 0.1, 0.3, 0.7, 1.0, 1.7, 2.5]


def chain_singular_values_and_null_vector(eta):
    """Singular values of the chain Hamiltonian at pulse ratio eta on two-photon
    resonance, largest first, and its last right-singular vector."""
    p = paper_pulses(eta=eta)
    _, sigma, vh = np.linalg.svd(chain_hamiltonian(p, p.omega0_peak, eta * p.omega0_peak))
    return sigma, vh[-1]


def test_dark_state_limits_and_weights():
    _, dark0 = chain_singular_values_and_null_vector(0.0)
    assert np.allclose(np.abs(dark0) ** 2, [0, 0, 0, 0, 1], atol=1e-15)
    _, dark1 = chain_singular_values_and_null_vector(1.0)
    mapped = chain_to_zeeman_populations(np.abs(dark1) ** 2)
    assert np.allclose(mapped, [3 / 11, 6 / 11, 2 / 11, 0, 0], atol=1e-14)


@pytest.mark.parametrize("eta", ETAS)
def test_dark_state_is_annihilated(eta):
    # the chain has exactly one dark state: a single singular value at zero
    sigma, _ = chain_singular_values_and_null_vector(eta)
    assert sigma[-1] < 1e-15 * sigma[0]
    assert sigma[-2] > 0.01 * sigma[0]


@pytest.mark.parametrize("eta", ETAS)
def test_dark_state_matches_closed_form(eta):
    _, dark = chain_singular_values_and_null_vector(eta)
    assert abs(dark[1]) < 1e-15 and abs(dark[3]) < 1e-15  # no excited amplitude
    mapped = chain_to_zeeman_populations(np.abs(dark) ** 2)
    closed = fstirap_populations_closed(eta).p
    np.testing.assert_allclose(mapped, [*closed, 0, 0], rtol=0, atol=1e-12)
    if eta == 1.0:
        np.testing.assert_allclose(closed, [3 / 11, 6 / 11, 2 / 11], rtol=0, atol=1e-15)


# --------------------------------------------------------------- propagation


def test_complete_transfer_with_paper_pulses():
    final, survival = simulate_stirap(paper_pulses())
    p = np.abs(final.amplitudes) ** 2
    assert p[4] > 0.99
    assert survival == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("eta", [0.0, 0.25, 0.5, 1.0, 2.0, 3.0])
def test_fractional_transfer_matches_closed_form(eta):
    final, _ = simulate_stirap(paper_pulses(eta=eta))
    mapped = chain_to_zeeman_populations(np.abs(final.amplitudes) ** 2)
    closed = fstirap_populations_closed(eta).p
    assert np.max(np.abs(mapped[:3] - closed)) < 0.02


def test_transfer_plateau_over_stable_delays():
    # the delay scan continues down to 0.4 us in the acceptance suite
    delays = np.linspace(0.46e-6, 1.0e-6, 10)
    finals = simulate_stirap([paper_pulses(delta_t=float(delta_t)) for delta_t in delays])
    for delta_t, (final, _) in zip(delays, finals):
        assert np.abs(final.amplitudes[4]) ** 2 > 0.99, delta_t


def test_stacked_solve_equals_each_chain_alone():
    chains = [
        paper_pulses(),
        paper_pulses(delta_t=-0.5e-6, eta=0.7),
        paper_pulses(delta_t=1.1e-6, gamma_e=TWO_PI * 1e6),
        paper_pulses(delta_t=0.3e-6, eta=1.5, two_photon_detuning=TWO_PI * 300e3),
        # the narrowest window, integrated here over the union of all five
        paper_pulses(tau_pulse=0.3e-6, delta_t=0.2e-6, omega0_peak=TWO_PI * 60e6, gamma_e=TWO_PI * 2e6),
    ]
    starts, ends = zip(*(_window(p) for p in chains))
    assert min(starts) < starts[-1] and ends[-1] < max(ends)
    for p, (final, survival) in zip(chains, simulate_stirap(chains)):
        alone, survival_alone = simulate_stirap(p)
        assert np.max(np.abs(np.abs(final.amplitudes) ** 2 - np.abs(alone.amplitudes) ** 2)) < 1e-9
        assert abs(survival - survival_alone) < 1e-9 and survival <= 1.0


def test_stacked_solve_warns_once_at_the_caller():
    weak = paper_pulses(omega0_peak=5 / 0.55e-6)
    with pytest.warns(NonAdiabaticPulseWarning) as record:
        simulate_stirap([weak, paper_pulses(), weak])
    assert [w.filename for w in record] == [__file__]


def test_intuitive_order_fails_on_resonance():
    # pump before Stokes: without the dark-state route (and with no
    # one-photon detuning to open a bright adiabatic path) the transfer
    # is incomplete
    final, _ = simulate_stirap(paper_pulses(delta_t=-0.7e-6, detuning=0.0))
    assert np.abs(final.amplitudes[4]) ** 2 < 0.9


def test_fidelity_monotone_in_pulse_area():
    areas = [5, 10, 20, 40, 80]
    # the paper drive, half and double it follow the five areas in one stacked solve
    drives = [area / 0.55e-6 for area in areas] + [TWO_PI * 40e6, TWO_PI * 20e6, TWO_PI * 80e6]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NonAdiabaticPulseWarning)
        finals = simulate_stirap([paper_pulses(omega0_peak=drive) for drive in drives])
    *fidelities, base, half, double = (np.abs(final.amplitudes[4]) ** 2 for final, _ in finals)
    assert all(b > a for a, b in zip(fidelities, fidelities[1:]))
    # halving the paper drive degrades, doubling improves
    assert half < base <= double + 1e-9


def test_dark_state_protection_and_two_photon_loss():
    # moderate drive so the two-photon detuning visibly breaks protection
    protected = paper_pulses(omega0_peak=TWO_PI * 10e6, gamma_e=TWO_PI * 1e6)
    _, survival0 = simulate_stirap(protected)
    assert survival0 > 0.95
    detuned = paper_pulses(
        omega0_peak=TWO_PI * 10e6,
        gamma_e=TWO_PI * 1e6,
        two_photon_detuning=TWO_PI * 500e3,
    )
    _, survival1 = simulate_stirap(detuned)
    assert 1 - survival1 > 0.02
    assert survival1 < survival0


def test_nonadiabatic_warning():
    # the warning points at the caller's file, not at stirap.py
    weak = paper_pulses(omega0_peak=5 / 0.55e-6)
    for run in (simulate_stirap, lambda p: stirap_trace(p, n_points=3)):
        with pytest.warns(NonAdiabaticPulseWarning) as record:
            run(weak)
        assert [w.filename for w in record] == [__file__]


def test_trace_shapes_and_survival():
    times, pops, survival = stirap_trace(paper_pulses(), n_points=101)
    assert times.shape == (101,) and pops.shape == (101, 5) and survival.shape == (101,)
    assert np.allclose(pops.sum(axis=1), 1.0, atol=1e-9)
    assert np.allclose(survival, 1.0, atol=1e-9)
    assert pops[0, 0] > 0.999 and pops[-1, 4] > 0.99


# -------------------------------------------------------- time-domain oracle


# lossy and fractional, two-photon detuned, intuitive order with loss, and the
# narrowest window: stacked, each chain is solved over the union of all four
ORACLE_CHAINS = [
    paper_pulses(gamma_e=TWO_PI * 4e6, eta=0.5),
    paper_pulses(delta_t=0.4e-6, two_photon_detuning=TWO_PI * 300e3),
    paper_pulses(delta_t=-0.5e-6, eta=1.5, gamma_e=TWO_PI * 1e6),
    paper_pulses(tau_pulse=0.3e-6, delta_t=0.2e-6, omega0_peak=TWO_PI * 60e6, gamma_e=TWO_PI * 2e6),
]


@pytest.fixture(scope="module")
def oracle_traces():
    """Each oracle chain's 41-point trace over its own window, by the oracle."""
    return [np.abs(chain_trace(p, np.linspace(*_window(p), 41))) ** 2 for p in ORACLE_CHAINS]


@pytest.mark.parametrize("index", range(len(ORACLE_CHAINS)))
def test_trace_matches_time_domain_oracle(index, oracle_traces):
    times, pops, survival = stirap_trace(ORACLE_CHAINS[index], n_points=41)
    raw = oracle_traces[index]
    assert np.max(np.abs(pops - raw / raw.sum(axis=1, keepdims=True))) < 1e-9
    assert np.max(np.abs(survival - np.minimum(raw.sum(axis=1), 1.0))) < 1e-9


def test_stacked_solve_matches_time_domain_oracle(oracle_traces):
    for raw, (final, survival) in zip(oracle_traces, simulate_stirap(ORACLE_CHAINS)):
        expected = raw[-1]
        assert np.max(np.abs(np.abs(final.amplitudes) ** 2 - expected / expected.sum())) < 1e-9
        assert abs(survival - min(expected.sum(), 1.0)) < 1e-9


def test_two_hundred_chain_scan_keeps_no_trajectory():
    chains = [paper_pulses(eta=float(eta)) for eta in np.linspace(0.0, 2.0, 200)]
    tracemalloc.start()
    try:
        simulate_stirap(chains)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # a stored step history would be ~16 kB per step here, over 1,000 steps
    assert peak < 5e6, peak
