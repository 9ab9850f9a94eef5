import math
from pathlib import Path

import numpy as np
import pytest

from spinorlab import cli, ensemble, fit, propagator, stirap
from spinorlab.stirap import fstirap_populations_closed

TWO_PI = 2 * math.pi
DATA = Path(__file__).parent / "data"


def write_config(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def run_cli(args):
    return cli.main(args)


RABI_CONFIG = """\
scenario: rabi
omega0: 800 kHz
omega_rabi: 95 kHz
duration: 42 us
points: 300
p0_plus2: 0.97
p0_plus1: 0.03
"""


def load_csv(path, delimiter=","):
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(delimiter)
        data = np.loadtxt(fh, delimiter=delimiter)
    return header, np.atleast_2d(data)


def test_list_scenarios_contents_and_stability(capsys):
    assert run_cli(["list-scenarios"]) == 0
    first = capsys.readouterr().out
    assert run_cli(["list-scenarios"]) == 0
    second = capsys.readouterr().out
    assert first == second
    names = [line.split()[0] for line in first.strip().splitlines()]
    assert names == sorted(names)
    assert "ramsey" in names and "fit-rabi" in names and "echo-scan" in names


def test_rabi_scenario_hits_inversion(tmp_path):
    cfg = write_config(tmp_path, "rabi.yaml", RABI_CONFIG)
    out = tmp_path / "rabi.csv"
    assert run_cli(["run", cfg, "--out", str(out)]) == 0
    header, data = load_csv(out)
    assert header == ["t_us", "p_p2", "p_p1", "p_0", "p_m1", "p_m2"]
    theta = TWO_PI * 95e3 * data[:, 0] * 1e-6 / 2
    row = data[np.argmin(np.abs(theta - math.pi))]
    # 0.97 inverts to m=-2, 0.03 to m=-1
    assert np.allclose(row[1:], [0, 0, 0, 0.03, 0.97], atol=1e-3)


def test_output_is_byte_identical_across_runs(tmp_path):
    cfg = write_config(
        tmp_path,
        "ramsey.yaml",
        """\
scenario: ramsey
b0: 179 mG
b1: 4.5 mG/mm
sigma_z0: 0.73 mm
t_axial: 0.2 mK
tau_max: 40 us
points: 25
method: montecarlo
samples: 20000
seed: 5
""",
    )
    out1, out2 = (tmp_path / f"r{i}.csv" for i in range(2))
    assert run_cli(["run", cfg, "--out", str(out1)]) == 0
    assert run_cli(["run", cfg, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_seed_override_changes_output(tmp_path):
    cfg = write_config(
        tmp_path,
        "ramsey.yaml",
        """\
scenario: ramsey
b0: 179 mG
b1: 4.5 mG/mm
sigma_z0: 0.73 mm
t_axial: 0.2 mK
tau_max: 40 us
points: 10
method: montecarlo
samples: 5000
""",
    )
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli(["run", cfg, "--out", str(out1), "--seed", "1"]) == 0
    assert run_cli(["run", cfg, "--out", str(out2), "--seed", "2"]) == 0
    assert out1.read_bytes() != out2.read_bytes()


def test_fstirap_scan_matches_closed_forms(tmp_path):
    cfg = write_config(
        tmp_path,
        "fstirap.yaml",
        """\
scenario: fstirap-scan
omega_peak: 40 MHz
tau_pulse: 0.55 us
delta_t: 0.7 us
detuning: 20 MHz
eta_max: 3.0
points: 7
""",
    )
    out = tmp_path / "scan.csv"
    assert run_cli(["run", cfg, "--out", str(out)]) == 0
    header, data = load_csv(out)
    assert header[0] == "eta" and header[-1] == "survival"
    for row in data:
        closed = fstirap_populations_closed(row[0]).p
        assert np.max(np.abs(row[[1, 2, 3]] - closed)) < 0.02


def test_echo_scan_envelope_crossing(tmp_path):
    cfg = write_config(
        tmp_path,
        "echo.yaml",
        """\
scenario: echo-scan
b0: 179 mG
b1: 13.5 mG/mm
sigma_z0: 0.73 mm
t_axial: 0.2 mK
tau_sum_max: 400 us
points: 201
""",
    )
    out = tmp_path / "echo.csv"
    assert run_cli(["run", cfg, "--out", str(out)]) == 0
    header, data = load_csv(out)
    assert header[0] == "tau_tilde_us" and header[-1] == "envelope"
    total = 2 * data[:, 0]  # tau1 + tau2 in us
    env = data[:, -1]
    crossing = np.interp(0.5, env[::-1], total[::-1])
    assert abs(crossing - 300) < 10


def test_two_level_scenario(tmp_path):
    cfg = write_config(
        tmp_path,
        "twolevel.yaml",
        """\
scenario: two-level
omega0: 800 kHz
omega_rabi: 90 kHz
duration: 12 us
points: 120
shift_scale: 1 MHz
""",
    )
    out = tmp_path / "tl.csv"
    assert run_cli(["run", cfg, "--out", str(out)]) == 0
    _, data = load_csv(out)
    leak = data[:, 3:6].sum(axis=1)
    assert leak.max() < 0.05


def test_unknown_key_exits_one(tmp_path, capsys):
    cfg = write_config(tmp_path, "bad.yaml", RABI_CONFIG + "bogus_key: 3\n")
    assert run_cli(["run", cfg, "--out", str(tmp_path / "x.csv")]) == 1
    assert "bogus_key" in capsys.readouterr().err


def test_missing_key_exits_one(tmp_path, capsys):
    cfg = write_config(tmp_path, "bad.yaml", "scenario: rabi\nomega0: 800 kHz\n")
    assert run_cli(["run", cfg, "--out", str(tmp_path / "x.csv")]) == 1
    err = capsys.readouterr().err
    assert "omega_rabi" in err


def test_bad_unit_exits_one(tmp_path, capsys):
    cfg = write_config(
        tmp_path, "bad.yaml", RABI_CONFIG.replace("800 kHz", "800 parsec")
    )
    assert run_cli(["run", cfg, "--out", str(tmp_path / "x.csv")]) == 1
    assert "omega0" in capsys.readouterr().err


def test_missing_unit_exits_one(tmp_path, capsys):
    cfg = write_config(tmp_path, "bad.yaml", RABI_CONFIG.replace("800 kHz", "800"))
    assert run_cli(["run", cfg, "--out", str(tmp_path / "x.csv")]) == 1
    assert "omega0" in capsys.readouterr().err


STIRAP_PULSES = """\
omega_peak: 40 MHz
tau_pulse: 0.55 us
delta_t: 0.7 us
detuning: 20 MHz
"""


@pytest.mark.parametrize(
    "extra, chains",
    [("scenario: stirap\npoints: 20\n", 1), ("scenario: fstirap-scan\neta_max: 1.0\npoints: 4\n", 4)],
    ids=["stirap", "fstirap-scan"],
)
def test_one_chain_solve_per_stirap_run(extra, chains, tmp_path, monkeypatch):
    solves = []
    integrate = stirap._integrate
    monkeypatch.setattr(
        stirap, "_integrate", lambda ps, t_eval=None: solves.append(len(ps)) or integrate(ps, t_eval)
    )
    cfg = write_config(tmp_path, "stirap.yaml", extra + STIRAP_PULSES)
    assert run_cli(["run", cfg, "--out", str(tmp_path / "out.csv")]) == 0
    assert solves == [chains]


@pytest.mark.parametrize(
    "text, key",
    [
        ("scenario: stirap\n" + STIRAP_PULSES + "eta: .nan\n", "eta"),
        ("scenario: fstirap-scan\n" + STIRAP_PULSES + "eta_max: .inf\n", "eta_max"),
        ("scenario: stirap\n" + STIRAP_PULSES.replace("20 MHz", "1e400 MHz"), "detuning"),
    ],
    ids=["nan", "inf", "overflow"],
)
def test_non_finite_number_exits_one(tmp_path, capsys, text, key):
    cfg = write_config(tmp_path, "bad.yaml", text)
    assert run_cli(["run", cfg, "--out", str(tmp_path / "x.csv")]) == 1
    assert capsys.readouterr().err.startswith(f"config error: {key}: ")


ENSEMBLE = "b0: 179 mG\nb1: 4.5 mG/mm\nsigma_z0: 0.73 mm\nt_axial: 0.2 mK\npoints: 5\n"
RABI_KEYS = "omega0: 800 kHz\nomega_rabi: 95 kHz\n"


@pytest.mark.parametrize(
    "text, key",
    [
        ("scenario: rabi\nduration: -10 us\npoints: 5\n" + RABI_KEYS, "duration"),
        ("scenario: rabi-lab\nduration: -10 us\npoints: 5\n" + RABI_KEYS, "duration"),
        ("scenario: two-level\nduration: -10 us\npoints: 5\n" + RABI_KEYS, "duration"),
        ("scenario: ramsey\ntau_max: -40 us\n" + ENSEMBLE, "tau_max"),
        ("scenario: echo\ntau1: 25 us\ntau2_max: -40 us\n" + ENSEMBLE, "tau2_max"),
        ("scenario: echo\ntau1: -5 us\ntau2_max: 40 us\n" + ENSEMBLE, "tau1"),
        ("scenario: echo-scan\ntau_sum_max: -40 us\n" + ENSEMBLE, "tau_sum_max"),
        ("scenario: fstirap-scan\n" + STIRAP_PULSES + "eta_max: 1\neta_min: -1\n", "eta_min"),
        ("scenario: fstirap-scan\n" + STIRAP_PULSES + "eta_max: -1\n", "eta_max"),
        ("scenario: stirap\n" + STIRAP_PULSES + "eta: -1\n", "eta"),
    ],
    ids=[
        "rabi",
        "rabi-lab",
        "two-level",
        "ramsey",
        "echo",
        "echo-tau1",
        "echo-scan",
        "eta_min",
        "eta_max",
        "eta",
    ],
)
def test_negative_span_exits_one_naming_its_key(tmp_path, capsys, text, key):
    cfg = write_config(tmp_path, "bad.yaml", text)
    assert run_cli(["run", cfg, "--out", str(tmp_path / "x.csv")]) == 1
    assert capsys.readouterr().err.startswith(f"config error: {key}: must lie in [0, inf]")


@pytest.mark.parametrize("scenario", ["rabi", "rabi-lab", "two-level"])
def test_rabi_with_one_point_writes_the_initial_state(tmp_path, scenario):
    text = f"scenario: {scenario}\nduration: 10 us\npoints: 1\n" + RABI_KEYS
    cfg, out = write_config(tmp_path, "one.yaml", text), tmp_path / "one.csv"
    assert run_cli(["run", cfg, "--out", str(out)]) == 0
    assert out.read_text(encoding="utf-8").splitlines()[1:] == ["0,1,0,0,0,0"]


@pytest.mark.parametrize(
    "flag, value", [("--samples", "0"), ("--seed", "-1"), ("--seed", "abc"), ("--samples", "1e3")]
)
def test_bad_override_flag_exits_one_naming_it(tmp_path, capsys, flag, value):
    cfg = write_config(
        tmp_path,
        "ramsey.yaml",
        "scenario: ramsey\nb0: 179 mG\nb1: 4.5 mG/mm\nsigma_z0: 0.73 mm\n"
        "t_axial: 0.2 mK\ntau_max: 40 us\npoints: 5\nmethod: montecarlo\n",
    )
    assert run_cli(["run", cfg, "--out", str(tmp_path / "x.csv"), flag, value]) == 1
    assert capsys.readouterr().err.startswith(f"config error: {flag}: ")


@pytest.mark.parametrize("flag, value", [("--seed", "9"), ("--samples", "5")])
@pytest.mark.parametrize(
    "text",
    [RABI_CONFIG, "scenario: fit-rabi\ndata: never-read.csv\n"],
    ids=["rabi", "fit-rabi"],
)
def test_override_flag_without_its_key_exits_one(tmp_path, capsys, text, flag, value):
    cfg = write_config(tmp_path, "cfg.yaml", text)
    out = tmp_path / "x.csv"
    assert run_cli(["run", cfg, "--out", str(out), flag, value]) == 1
    assert capsys.readouterr().err.startswith(f"config error: {flag}: ")
    assert not out.exists()


def test_unknown_scenario_exits_one(tmp_path, capsys):
    cfg = write_config(tmp_path, "bad.yaml", "scenario: warp-drive\n")
    assert run_cli(["run", cfg, "--out", str(tmp_path / "x.csv")]) == 1
    assert "scenario" in capsys.readouterr().err


def test_numerical_failure_exits_two(tmp_path, capsys, monkeypatch):
    from spinorlab.propagator import NumericalError

    def boom(raw, seed=None, samples=None):
        raise NumericalError("step-size underflow: trace did not converge")

    monkeypatch.setattr(cli, "run_scenario", boom)
    cfg = write_config(tmp_path, "rabi.yaml", RABI_CONFIG)
    assert run_cli(["run", cfg, "--out", str(tmp_path / "x.csv")]) == 2
    assert "numerical failure" in capsys.readouterr().err


def test_singular_matrix_is_a_numerical_failure(tmp_path, capsys, monkeypatch):
    # np.linalg.LinAlgError is a ValueError, which is otherwise a config error
    def singular(raw, seed=None, samples=None):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(cli, "run_scenario", singular)
    cfg = write_config(tmp_path, "rabi.yaml", RABI_CONFIG)
    assert run_cli(["run", cfg, "--out", str(tmp_path / "x.csv")]) == 2
    assert capsys.readouterr().err == "numerical failure: Singular matrix\n"


def test_step_budget_overrun_exits_two_and_names_the_budget(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(propagator, "_STEP_BUDGET", 8)
    text = RABI_CONFIG.replace("scenario: rabi", "scenario: rabi-lab")
    cfg = write_config(tmp_path, "lab.yaml", text)
    out = tmp_path / "x.csv"
    assert run_cli(["run", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: step budget of 8 steps exhausted at t = "), err
    assert not out.exists()


def test_tsv_format(tmp_path):
    cfg = write_config(tmp_path, "rabi.yaml", RABI_CONFIG)
    out = tmp_path / "rabi.tsv"
    assert run_cli(["run", cfg, "--out", str(out), "--format", "tsv"]) == 0
    header, data = load_csv(out, delimiter="\t")
    assert header[0] == "t_us"
    assert data.shape[1] == 6


def test_fit_rabi_pipeline(tmp_path, capsys):
    rabi_cfg = write_config(tmp_path, "rabi.yaml", RABI_CONFIG)
    data_csv = tmp_path / "rabi.csv"
    assert run_cli(["run", rabi_cfg, "--out", str(data_csv)]) == 0
    fit_cfg = write_config(
        tmp_path, "fit.yaml", f"scenario: fit-rabi\ndata: {data_csv}\n"
    )
    out = tmp_path / "fit.csv"
    assert run_cli(["run", fit_cfg, "--out", str(out)]) == 0
    text = capsys.readouterr().out
    fields = dict(
        line.split(" = ") for line in text.strip().splitlines() if " = " in line
    )
    assert float(fields["omega_khz"]) == pytest.approx(95.0, rel=1e-3)
    assert float(fields["p_plus2_0"]) == pytest.approx(0.97, abs=0.005)
    assert fields["converged"] == "true"
    header, fitted = load_csv(out)
    assert header[0] == "t_us"
    _, raw = load_csv(data_csv)
    assert np.max(np.abs(fitted[:, 1:] - raw[:, 1:])) < 1e-3


def test_fit_echo_requires_single_anchor(tmp_path, capsys):
    data_csv = tmp_path / "echo.csv"
    data_csv.write_text(
        "tau_tilde_us,p_p2,p_p1,p_0,p_m1,p_m2\n"
        "1,1,0,0,0,0\n10,0.9,0.05,0.05,0,0\n20,0.5,0.2,0.1,0.1,0.1\n",
        encoding="utf-8",
    )
    cfg = write_config(
        tmp_path,
        "fit.yaml",
        f"scenario: fit-echo\ndata: {data_csv}\nsigma_z0: 0.73 mm\n",
    )
    assert run_cli(["run", cfg, "--out", str(tmp_path / "x.csv")]) == 1
    assert "t_axial" in capsys.readouterr().err


def test_fit_rabi_guess_out_of_range_names_key_and_unit(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        "fit.yaml",
        f"scenario: fit-rabi\ndata: {DATA / 'fit-input-rabi.csv'}\nomega_guess: 1 Hz\n",
    )
    assert run_cli(["run", cfg, "--out", str(tmp_path / "x.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: omega_guess: ") and "rad/s" in err and "Hz" in err


def test_fit_echo_with_both_anchors_names_both_keys(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        "fit.yaml",
        f"scenario: fit-echo\ndata: {DATA / 'fit-input-echo.csv'}\n"
        "t_axial: 0.2 mK\nb1: 13.5 mG/mm\n",
    )
    assert run_cli(["run", cfg, "--out", str(tmp_path / "x.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: t_axial, b1: ") and "known" not in err


ECHO_TRACE = (
    "tau_tilde_us,p_p2,p_p1,p_0,p_m1,p_m2\n"
    "{t0},1,0,0,0,0\n10,0.9,0.05,0.05,0,0\n20,0.5,0.2,0.1,0.1,{p}\n"
)


@pytest.mark.parametrize(
    "t0, p, named",
    [("-100", "0.1", "delays"), ("nan", "0.1", "times"), ("1", "inf", "populations")],
)
def test_fit_echo_bad_trace_exits_one(tmp_path, capsys, t0, p, named):
    data_csv = tmp_path / "echo.csv"
    data_csv.write_text(ECHO_TRACE.format(t0=t0, p=p), encoding="utf-8")
    cfg = write_config(
        tmp_path,
        "fit.yaml",
        f"scenario: fit-echo\ndata: {data_csv}\nsigma_z0: 0.73 mm\nt_axial: 0.2 mK\n",
    )
    assert run_cli(["run", cfg, "--out", str(tmp_path / "x.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: data: ") and named in err


@pytest.mark.parametrize(
    "scenario, rows, message",
    [
        ("fit-rabi", "1,1,0,0,0,0\n1,0.9,0.1,0,0,0\n", "times must be strictly increasing"),
        ("fit-rabi", "1,1,0,0,0,0\n", "need at least 2 samples to fit, got 1"),
        ("fit-ramsey", "-1,1,0,0,0,0\n1,0.9,0.1,0,0,0\n", "delays must be >= 0"),
        ("fit-rabi", "", "no data rows"),
        ("fit-rabi", "\n# no samples\n", "no data rows"),
        ("fit-rabi", "1,1,0,0,0,0\n2,0.9,0.1,0,0,x\n", "malformed CSV"),
        ("fit-rabi", "1,1,0,0\n2,0.9,0.1,0\n", "need a time column plus five population columns"),
    ],
    ids=["repeated-time", "one-row", "negative-delay", "header-only", "comments-only", "non-numeric", "four-columns"],
)
def test_bad_data_file_names_data(tmp_path, capsys, scenario, rows, message):
    data_csv = tmp_path / "trace.csv"
    data_csv.write_text("t_us,p_p2,p_p1,p_0,p_m1,p_m2\n" + rows, encoding="utf-8")
    known = "b0: 179 mG\nsigma_z0: 0.73 mm\nt_axial: 0.2 mK\n" if scenario == "fit-ramsey" else ""
    cfg = write_config(tmp_path, "fit.yaml", f"scenario: {scenario}\ndata: {data_csv}\n{known}")
    assert run_cli(["run", cfg, "--out", str(tmp_path / "x.csv")]) == 1
    assert capsys.readouterr().err.startswith(f"config error: data: {message}")


@pytest.mark.parametrize(
    "text, key",
    [
        (RABI_CONFIG.replace("p0_plus1: 0.03", "p0_plus1: 0.3"), "p0_plus2"),
        (RABI_CONFIG.replace("800 kHz", "fast"), "omega0"),
        ("scenario: ramsey\ntau_max: 40 us\nmethod: fast\n" + ENSEMBLE, "method"),
        ("scenario: fit-rabi\ndata: 5\n", "data"),
        # YAML-only spellings: a flow sequence is no value, and a list item no line
        ("scenario: rabi\nomega0: [800 kHz\n", "omega0"),
        ("- scenario: rabi\n", "config"),
        (RABI_KEYS, "scenario"),
        # integers beyond the float range are config errors, not numerical failures
        ("scenario: fstirap-scan\neta_max: " + "1" * 400 + "\n" + STIRAP_PULSES, "eta_max"),
        (RABI_CONFIG.replace("p0_plus2: 0.97", "p0_plus2: " + "9" * 400), "p0_plus2"),
        # counts beyond sys.maxsize are no array size; the parser rejects them
        (RABI_CONFIG.replace("points: 300", "points: " + "1" * 400), "points"),
        ("scenario: ramsey\ntau_max: 40 us\nmethod: montecarlo\nsamples: " + "1" * 400 + "\n" + ENSEMBLE, "samples"),
        # beyond Python's digit limit for int(); a number is read by float()
        ("scenario: fstirap-scan\neta_max: " + "1" * 5000 + "\n" + STIRAP_PULSES, "eta_max"),
        ("scenario: stirap\neta: abc\n" + STIRAP_PULSES, "eta"),
        # fit-echo's anchor divides the fitted compound, so it must be positive
        (f"scenario: fit-echo\ndata: {DATA / 'fit-input-echo.csv'}\nt_axial: 0 mK\n", "t_axial"),
        (f"scenario: fit-echo\ndata: {DATA / 'fit-input-echo.csv'}\nb1: 0 mG/mm\n", "b1"),
        (f"scenario: fit-echo\ndata: {DATA / 'fit-input-echo.csv'}\nt_axial: -0.2 mK\n", "t_axial"),
        (None, "config"),  # no config file at all
        # a key starts with a letter or underscore, and YAML's null is a plain key
        ("scenario: rabi\n1: 2\n", "config"),
        ("scenario: rabi\nnull: 3\n", "null"),
        # YAML would read 1:30 in base 60, as 90, and take the last of repeated keys
        (RABI_CONFIG.replace("points: 300", "points: 1:30"), "points"),
        (RABI_CONFIG + "points: 30\n", "points"),
        (RABI_CONFIG.replace("points: 300", "points : 300"), "config"),
    ],
    ids=[
        "p0-sum",
        "omega0",
        "method",
        "data",
        "invalid-yaml",
        "list",
        "no-scenario",
        "huge-eta",
        "huge-p0",
        "huge-points",
        "huge-samples",
        "digit-limit",
        "not-a-number",
        "zero-t-axial",
        "zero-b1",
        "negative-t-axial",
        "missing-file",
        "integer-key",
        "null-key",
        "base-60",
        "repeated-key",
        "space-before-colon",
    ],
)
def test_bad_config_exits_one_naming_its_key(tmp_path, capsys, text, key):
    cfg = str(tmp_path / "bad.yaml") if text is None else write_config(tmp_path, "bad.yaml", text)
    out = tmp_path / "x.csv"
    assert run_cli(["run", cfg, "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"config error: {key}: ")
    assert not out.exists()


MC_RAMSEY = "scenario: ramsey\ntau_max: 40 us\nmethod: montecarlo\nsamples: 2000\n" + ENSEMBLE


def _run_bytes(tmp_path, text, *flags):
    cfg, out = write_config(tmp_path, "cfg.yaml", text), tmp_path / "out.csv"
    assert run_cli(["run", cfg, "--out", str(out), *flags]) == 0
    return out.read_bytes()


@pytest.mark.parametrize(
    "text, flags, same_as",
    [
        # YAML would read 010 as octal 8
        (MC_RAMSEY + "seed: 010\n", [], MC_RAMSEY + "seed: 10\n"),
        (MC_RAMSEY, ["--seed", "010"], MC_RAMSEY + "seed: 010\n"),
        (
            "scenario: fstirap-scan\n" + STIRAP_PULSES + "eta_max: 1e0\npoints: 2\n",
            [],
            "scenario: fstirap-scan\n" + STIRAP_PULSES + "eta_max: 1\npoints: 2\n",
        ),
        ("# a comment\n\n" + RABI_CONFIG.replace("points: 300", "points: 300  # rows"), [], RABI_CONFIG),
    ],
    ids=["octal-seed", "seed-flag", "exponent", "comments"],
)
def test_values_read_as_plain_decimals(tmp_path, text, flags, same_as):
    assert _run_bytes(tmp_path, text, *flags) == _run_bytes(tmp_path, same_as)


@pytest.mark.parametrize("points", [20, 70])
@pytest.mark.parametrize(
    "timing",
    [
        "scenario: ramsey\ntau_max: 40 us\n",
        "scenario: echo\ntau1: 50 us\ntau2_max: 100 us\n",
        "scenario: echo-scan\ntau_sum_max: 300 us\n",
    ],
    ids=["ramsey", "echo", "echo-scan"],
)
def test_monte_carlo_grids_take_one_exponential_per_32_timings(tmp_path, monkeypatch, timing, points):
    # every CLI grid is a linspace, so each batch takes exact phases at
    # timings 0, 32, 64, ... and steps the others along the grid
    anchors = []
    phase = ensemble._phase

    def counting(*args):
        anchors.append(args)
        return phase(*args)

    monkeypatch.setattr(ensemble, "_phase", counting)
    text = timing + ENSEMBLE.replace("points: 5", f"points: {points}")
    text += f"method: montecarlo\nsamples: {ensemble._MC_BATCH + 1}\n"  # two batches
    cfg = write_config(tmp_path, "mc.yaml", text)
    assert run_cli(["run", cfg, "--out", str(tmp_path / "x.csv")]) == 0
    assert len(anchors) == 2 * math.ceil(points / ensemble._MC_ANCHOR)


def test_out_into_a_missing_directory_exits_one_naming_out(tmp_path, capsys):
    cfg = write_config(tmp_path, "rabi.yaml", RABI_CONFIG)
    assert run_cli(["run", cfg, "--out", str(tmp_path / "missing" / "x.csv")]) == 1
    assert capsys.readouterr().err.startswith("config error: --out: cannot write ")


def test_fit_echo_needs_no_sigma_z0_and_rejects_b0(tmp_path, capsys):
    tau = np.linspace(1e-6, 220e-6, 60)
    pops = fit.echo_model_curve(tau, 3e17, np.array([0.8, 0.0, 0.2, 0.0, 0.0]))
    rows = "\n".join(",".join(f"{v:.9g}" for v in (t * 1e6, *p)) for t, p in zip(tau, pops))
    data_csv = tmp_path / "echo.csv"
    data_csv.write_text(f"tau_tilde_us,p_p2,p_p1,p_0,p_m1,p_m2\n{rows}\n", encoding="utf-8")
    base = f"scenario: fit-echo\ndata: {data_csv}\nt_axial: 0.2 mK\n"
    outputs = []
    for name, extra in (("bare", ""), ("sigma", "sigma_z0: 0.73 mm\n")):
        cfg, out = write_config(tmp_path, f"{name}.yaml", base + extra), tmp_path / f"{name}.csv"
        assert run_cli(["run", cfg, "--out", str(out)]) == 0
        outputs.append((capsys.readouterr().out, out.read_bytes()))
    assert outputs[0] == outputs[1]  # sigma_z0 cancels at tau1 = tau2
    assert "converged = true" in outputs[0][0]
    cfg = write_config(tmp_path, "b0.yaml", base + "b0: 179 mG\n")
    assert run_cli(["run", cfg, "--out", str(tmp_path / "x.csv")]) == 1
    assert "b0: unknown key" in capsys.readouterr().err


def test_fit_missing_data_file_exits_one(tmp_path, capsys):
    cfg = write_config(
        tmp_path, "fit.yaml", "scenario: fit-rabi\ndata: /nonexistent/path.csv\n"
    )
    assert run_cli(["run", cfg, "--out", str(tmp_path / "x.csv")]) == 1
    assert "data" in capsys.readouterr().err


def test_nested_config_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path, "bad.yaml", "scenario: rabi\nomega0:\n  value: 3\n")
    assert run_cli(["run", cfg, "--out", str(tmp_path / "x.csv")]) == 1
    assert "omega0" in capsys.readouterr().err


def test_nine_significant_digits(tmp_path):
    cfg = write_config(tmp_path, "rabi.yaml", RABI_CONFIG)
    out = tmp_path / "rabi.csv"
    assert run_cli(["run", cfg, "--out", str(out)]) == 0
    second_line = out.read_text(encoding="utf-8").splitlines()[2]
    first_value = second_line.split(",")[1]
    assert len(first_value.replace(".", "").replace("-", "").lstrip("0")) <= 9


@pytest.mark.parametrize("delimiter", [",", "\t"])
def test_format_table_matches_per_value_formatting(delimiter):
    rows = np.array(
        [
            [-0.0, math.nan, math.inf, -math.inf, 1e-300],
            [5e-324, -1.0000000005, 123456789012.0, 0.1, 1 / 3],
        ]
    )
    expected = [delimiter.join("abcde")]
    expected += [delimiter.join(f"{v:.9g}" for v in row) for row in rows]
    text = cli.format_table(cli.RunOutput(list("abcde"), rows), delimiter)
    assert text == "\n".join(expected) + "\n"
    assert text.splitlines()[1] == delimiter.join(["-0", "nan", "inf", "-inf", "1e-300"])
