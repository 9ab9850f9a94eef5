import math

import numpy as np
import pytest

from spinorlab import cli
from spinorlab.stirap import fstirap_populations_closed

TWO_PI = 2 * math.pi


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


@pytest.mark.parametrize("flag, value", [("--samples", "0"), ("--seed", "-1")])
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
