"""Golden CSV output of every non-fit scenario.

Every config below starts from a mixture or, for STIRAP, has loss or a
fractional ratio, and is small enough that the module runs in a few
seconds.  The expected files under ``tests/data/`` pin the CSV bytes, so a
refactoring of the propagator, the STIRAP chain, the Monte Carlo batches or
the mixture sums that changes any output digit fails here.  After a
deliberate change of output, regenerate them with ``PYTHONPATH=src python
tests/test_golden_csv.py`` from the repository root and review the diff.
"""

from pathlib import Path

import pytest

from spinorlab import cli

DATA = Path(__file__).parent / "data"

_STIRAP = """\
omega_peak: 40 MHz
tau_pulse: 0.55 us
delta_t: 0.4 us
detuning: 20 MHz
"""

_ENSEMBLE = """\
b0: 179 mG
b1: 4.5 mG/mm
sigma_z0: 0.73 mm
t_axial: 0.2 mK
points: 12
samples: 20000
seed: 7
p0_plus2: 0.8
p0_zero: 0.2
"""
_ECHO = "tau1: 30 us\ntau2_max: 60 us\n"
_MC = "method: montecarlo\n"

CONFIGS = {
    "rabi": """\
scenario: rabi
omega0: 800 kHz
omega_rabi: 95 kHz
duration: 20 us
points: 40
p0_plus2: 0.6
p0_plus1: 0.3
p0_minus1: 0.1
""",
    "rabi-lab": """\
scenario: rabi-lab
omega0: 400 kHz
omega_rabi: 95 kHz
duration: 6 us
points: 25
p0_plus2: 0.7
p0_zero: 0.3
""",
    "two-level": """\
scenario: two-level
omega0: 400 kHz
omega_rabi: 60 kHz
duration: 4 us
points: 20
p0_plus2: 0.9
p0_plus1: 0.1
""",
    "stirap-lossy": "scenario: stirap\n" + _STIRAP + "gamma_e: 4 MHz\neta: 0.5\npoints: 40\n",
    "fstirap-scan": "scenario: fstirap-scan\n" + _STIRAP + "eta_max: 2.0\npoints: 3\n",
    "ramsey-mc": "scenario: ramsey\n" + _ENSEMBLE + "tau_max: 60 us\n" + _MC,
    "ramsey-analytic": "scenario: ramsey\n" + _ENSEMBLE + "tau_max: 60 us\nmethod: analytic\n",
    "echo-mc": "scenario: echo\n" + _ENSEMBLE + _ECHO + _MC,
    "echo-analytic": "scenario: echo\n" + _ENSEMBLE + _ECHO,
    "echo-scan-mc": "scenario: echo-scan\n" + _ENSEMBLE + "tau_sum_max: 120 us\n" + _MC,
}


def _run(name: str, workdir: Path) -> bytes:
    config = workdir / f"{name}.yaml"
    config.write_text(CONFIGS[name], encoding="utf-8")
    out = workdir / f"{name}.csv"
    assert cli.main(["run", str(config), "--out", str(out)]) == 0
    return out.read_bytes()


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_csv_matches_golden_file(name, tmp_path):
    assert _run(name, tmp_path) == (DATA / f"{name}.csv").read_bytes()


if __name__ == "__main__":
    import tempfile

    DATA.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name in sorted(CONFIGS):
            (DATA / f"{name}.csv").write_bytes(_run(name, Path(tmp)))
            print(f"wrote {DATA / name}.csv")
