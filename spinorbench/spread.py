"""Run one workload with several seeds and print each metric's median and
its quartile spread (the distance between the first and third quartiles
as a share of the median), as used to set the bounds in BENCHMARK.json.

    python3 spinorbench/spread.py --workload coherence --seeds 1-10 [--trace 0]

Runs are made one after another from the current directory, each in its
own process and with BENCHMARK.json's run_seconds; the per-run results go
to .spinorbench_out/spread-*.jsonl.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args()
    spec = json.loads(Path("BENCHMARK.json").read_text())
    log = Path(".spinorbench_out") / f"spread-{args.workload}-t{args.trace}.jsonl"
    log.parent.mkdir(exist_ok=True)
    results = []
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)],
            capture_output=True, text=True, check=True,
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        results.append(result)
        with log.open("a", encoding="utf-8") as fh:
            fh.write(json.dumps({"seed": seed, **result}) + "\n")
        print(seed, result["correct"], result["attempted"], result["failed"],
              {k: round(v["value"], 4) for k, v in result["metrics"].items()}, flush=True)
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median if median else float("nan")
        print(f"{name:28s} median {median:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  spread {spread:.4f}")
    print("correct:", all(r["correct"] for r in results),
          "failed share:", {r["failed"] / r["attempted"] for r in results})
    return 0


if __name__ == "__main__":
    sys.exit(main())
