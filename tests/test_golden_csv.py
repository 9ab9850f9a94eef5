"""Golden CSV and stdout output of every scenario, and the scenario list.

Every non-fit config below starts from a mixture or, for STIRAP, has loss,
a fractional ratio or a two-photon detuning, and is small enough that the
module runs in a few seconds.  The fit configs read the fixed input traces
``tests/data/fit-input-*.csv``: a three-state Rabi trace at 95 kHz, a
constant trace, and a 0.9/0.1 Ramsey (B1 = 4.5 mG/mm) and echo
(B1 = 13.5 mG/mm) trace, the non-constant ones with seeded Gaussian noise
of zero mean across each row.  The expected files under ``tests/data/`` pin
the CSV bytes, the printed fit parameters (``<name>.stdout``; every other
scenario prints nothing) and the ``list-scenarios`` text, so a refactoring
of the propagator, the STIRAP chain, the Monte Carlo batches, the mixture
sums, the fits or the front end that changes any output digit fails here.
After a deliberate change of output, regenerate them with
``PYTHONPATH=src python tests/test_golden_csv.py`` from the repository root
and review the diff.
"""

import contextlib
import io
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


def _fit(scenario: str, trace: str) -> str:
    return f"scenario: fit-{scenario}\ndata: {DATA / f'fit-input-{trace}.csv'}\n"


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
    "stirap-lossless": (
        "scenario: stirap\n" + _STIRAP + "two_photon_detuning: 200 kHz\npoints: 40\n"
    ),
    "fstirap-scan": "scenario: fstirap-scan\n" + _STIRAP + "eta_max: 2.0\npoints: 3\n",
    "ramsey-mc": "scenario: ramsey\n" + _ENSEMBLE + "tau_max: 60 us\n" + _MC,
    "ramsey-analytic": "scenario: ramsey\n" + _ENSEMBLE + "tau_max: 60 us\nmethod: analytic\n",
    "echo-mc": "scenario: echo\n" + _ENSEMBLE + _ECHO + _MC,
    "echo-analytic": "scenario: echo\n" + _ENSEMBLE + _ECHO,
    "echo-scan-mc": "scenario: echo-scan\n" + _ENSEMBLE + "tau_sum_max: 120 us\n" + _MC,
    "fit-rabi-noisy": _fit("rabi", "rabi") + "omega_guess: 90 kHz\n",
    "fit-rabi-constant": _fit("rabi", "constant"),
    "fit-ramsey": _fit("ramsey", "ramsey") + "b0: 179 mG\nsigma_z0: 0.73 mm\nt_axial: 0.2 mK\n",
    "fit-echo-t-axial": _fit("echo", "echo") + "t_axial: 0.2 mK\n",
    "fit-echo-b1": _fit("echo", "echo") + "b1: 13.5 mG/mm\nsigma_z0: 0.73 mm\n",
}


def _main(argv: list) -> str:
    """Run ``cli.main`` on argv, assert exit 0 and return its stdout."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert cli.main(argv) == 0
    return stdout.getvalue()


def _run(name: str, workdir: Path) -> tuple[bytes, str]:
    config = workdir / f"{name}.yaml"
    config.write_text(CONFIGS[name], encoding="utf-8")
    out = workdir / f"{name}.csv"
    stdout = _main(["run", str(config), "--out", str(out)])
    return out.read_bytes(), stdout


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_csv_matches_golden_file(name, tmp_path):
    csv, stdout = _run(name, tmp_path)
    assert csv == (DATA / f"{name}.csv").read_bytes()
    fit = name.startswith("fit-")
    assert stdout == ((DATA / f"{name}.stdout").read_text(encoding="utf-8") if fit else "")


def test_scenario_list_matches_golden_file():
    assert _main(["list-scenarios"]) == (DATA / "list-scenarios.txt").read_text(encoding="utf-8")


if __name__ == "__main__":
    import tempfile

    DATA.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name in sorted(CONFIGS):
            csv, stdout = _run(name, Path(tmp))
            (DATA / f"{name}.csv").write_bytes(csv)
            if name.startswith("fit-"):
                (DATA / f"{name}.stdout").write_text(stdout, encoding="utf-8")
            print(f"wrote {DATA / name}.csv")
    (DATA / "list-scenarios.txt").write_text(_main(["list-scenarios"]), encoding="utf-8")
