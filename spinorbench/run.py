"""Benchmark of spinorlab through its command-line front door.

    python3 spinorbench/run.py --workload preparation --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout: the program is imported from
``./src``.  One process runs one workload with one thread: the BLAS and
OpenMP thread counts are pinned to 1 before numpy loads, and
SPINORLAB_THREADS is removed.  Every operation is one in-process call of
``spinorlab.cli.main(["run", <config>, "--out", <csv>])``; a non-zero exit
code counts it as failed.

Set-up (timed as ``setup_s``) runs three times, each in a fresh process
(this script with ``--setup-repeat``): import spinorlab, write the first
round's inputs and run one warm-up operation on inputs of its own.  The
three run before the timed rounds, after them and after the checks, and
``setup_s`` is their median, so an import or a first call that grows
shows, and one slow spell of the machine does not set the figure.  The
measuring process imports spinorlab and runs a warm-up of its own, untimed,
before the rounds.
The timed part runs whole rounds of the workload's operations until
``--seconds`` have passed.  Every round after the first writes inputs of
its own, drawn from the seed and the round's number, outside the
operations' timers, so a cache keyed on the inputs gains nothing that a
separate ``spinorlab run`` would not.  ``wall_s`` and ``cpu_s`` are one
round's time: the sum over operations of each one's median over the
rounds.  ``peak_rss_mb`` is the process's peak resident memory at the end
of the timed rounds.  The correctness checks run after that and are left
out of every metric: the warm-ups' outputs, a repeat of the first round
that must reproduce its outputs byte for byte, and the outputs of the last
round.

With ``--trace 1`` the layers' public functions are wrapped (see
tracing.py) and the per-layer metrics of one round are printed instead,
each the median over the rounds, with ``tracing.wall_s``, the traced
round's wall time.  A wrapped function that the program no longer has, or
that is called on another set of workloads than tracing.WRAPPED names,
fails the run's checks.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The same object, with the spans
of a traced run, is written to .spinorbench_out/ in the checkout.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("SPINORLAB_THREADS", None)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

OUT_DIR = ".spinorbench_out"
SETUP_REPEATS = 3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("preparation", "coherence", "analysis"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-repeat", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--work", type=Path, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_program(root: Path):
    """Import spinorlab from the checkout's src/ and time it."""
    if not (root / "src" / "spinorlab" / "cli.py").is_file():
        raise SystemExit(f"no spinorlab source under {root / 'src'}: run from a source checkout")
    sys.path.insert(0, str(root / "src"))
    start = time.perf_counter()
    from spinorlab import cli

    return cli, time.perf_counter() - start


def write_config(config: dict, path: Path) -> None:
    path.write_text("".join(f"{k}: {v}\n" for k, v in config.items()), encoding="utf-8")


def write_trace(trace, path: Path) -> None:
    column, times, pops = trace
    lines = [",".join([column, "p_p2", "p_p1", "p_0", "p_m1", "p_m2"])]
    for t, row in zip(times * 1e6, pops):
        lines.append(",".join(f"{v:.9g}" for v in (t, *row)))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_inputs(ops, directory: Path) -> list[tuple[Path, Path]]:
    """Write each operation's config (and fit trace); return its config
    and output paths."""
    directory.mkdir(parents=True)
    jobs = []
    for i, op in enumerate(ops):
        config = dict(op.config)
        if op.trace is not None:
            data = directory / f"{i:02d}-data.csv"
            write_trace(op.trace, data)
            config["data"] = str(data)
        config_path = directory / f"{i:02d}.yaml"
        write_config(config, config_path)
        jobs.append((config_path, directory / f"{i:02d}-out.csv"))
    return jobs


def call(main, config: Path, out: Path) -> tuple[int, str, str]:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(["run", str(config), "--out", str(out)])
    return code, stdout.getvalue(), stderr.getvalue()


def read(path: Path) -> str:
    return path.read_text(encoding="utf-8")


def check_output(checks, label: str, op, out: Path, stdout: str) -> list[str]:
    try:
        return [f"{label} {m}" for m in checks.check(op, read(out), stdout)]
    except Exception:  # a malformed output fails its check, not the run
        return [f"{label} {op.name}: check raised\n{traceback.format_exc()}"]


def max_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def setup_once(args, root: Path) -> dict:
    """One timed set-up, the whole of a ``--setup-repeat`` process: import
    spinorlab, write the first round's inputs and run warm-up number
    ``args.setup_repeat``.  Making the inputs from the seed is the
    benchmark's own work and is left out."""
    cli, import_s = import_program(root)
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from workloads import WORKLOADS

    make_ops, make_warmup = WORKLOADS[args.workload]
    ops = [*make_ops(args.seed, 0), make_warmup(args.seed, args.setup_repeat)]
    start = time.perf_counter()
    config, out = write_inputs(ops, args.work)[-1]
    code, stdout, err = call(cli.main, config, out)
    return {"setup_s": import_s + time.perf_counter() - start, "code": code,
            "stdout": stdout, "stderr": err, "out": str(out)}


def setup_in_child(args, root: Path, repeat: int, work: Path) -> dict:
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", "0", "--setup-repeat", str(repeat),
            "--work", str(work)]
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True, timeout=150)
    if proc.returncode != 0:
        raise SystemExit(f"set-up {repeat} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run(args, root: Path) -> dict:
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import checks
    import tracing
    from workloads import WORKLOADS

    make_ops, make_warmup = WORKLOADS[args.workload]
    work = root / OUT_DIR / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    failures = []
    warmups = []  # (warm-up op, its result), each on inputs of its own

    def set_up():
        i = len(warmups)
        warmups.append((make_warmup(args.seed, i), setup_in_child(args, root, i, work / f"setup{i}")))

    try:
        # The three (SETUP_REPEATS) set-ups are spread over the run (before the
        # rounds, after them, after the checks), so that no one slow spell
        # of the machine sets their median.
        set_up()
        cli, import_s = import_program(root)
        import_rss_mb = max_rss_mb()
        ops = make_ops(args.seed, 0)
        names = [op.name for op in ops]
        warmup = make_warmup(args.seed, SETUP_REPEATS)
        jobs = write_inputs([*ops, warmup], work / "round0")
        code, stdout, err = call(cli.main, *jobs[-1])
        own_warmup = (warmup, {"code": code, "stdout": stdout, "stderr": err, "out": str(jobs[-1][1])})
        del ops, warmup

        tracer = None
        main = cli.main
        if args.trace:
            tracer = tracing.Tracer()
            failures.extend(f"not traced, missing from the program: {name}" for name in tracer.install())
            main = lambda argv: tracer.call("cli", "spinorlab.cli.main", cli.main, argv)  # noqa: E731

        # Round 0 runs the inputs written with the in-process warm-up; every
        # later round writes fresh ones, outside the operations' timers, so no timed
        # call repeats an earlier input.
        round_jobs = [jobs[:-1]]
        stdouts = []
        walls = [[] for _ in names]
        cpus = [[] for _ in names]
        attempted = failed = rounds = 0
        start = time.perf_counter()
        while rounds == 0 or time.perf_counter() - start < args.seconds:
            if rounds:
                round_jobs.append(write_inputs(make_ops(args.seed, rounds), work / f"round{rounds}"))
            if tracer is not None:
                tracer.round = rounds
            stdouts.append([])
            for i, (config, out) in enumerate(round_jobs[rounds]):
                w0, c0 = time.perf_counter(), time.process_time()
                code, stdout, err = call(main, config, out)
                walls[i].append(time.perf_counter() - w0)
                cpus[i].append(time.process_time() - c0)
                attempted += 1
                if code != 0:  # counted in failed; correct speaks of the others
                    failed += 1
                    stdout = None
                    print(f"{names[i]} round {rounds} exited {code}: {err.strip()}", file=sys.stderr)
                stdouts[rounds].append(stdout)
            rounds += 1
        peak_rss_mb = max_rss_mb()
        if tracer is not None:
            tracer.uninstall()
            failures.extend(tracer.call_failures(args.workload))
        set_up()

        check_start = time.perf_counter()
        for i, (config, out) in enumerate(round_jobs[0]):  # the program must be deterministic
            if stdouts[0][i] is None:
                continue
            repeat = out.with_name(out.stem + "-repeat.csv")
            code, stdout, err = call(cli.main, config, repeat)
            if code != 0 or (read(repeat), stdout) != (read(out), stdouts[0][i]):
                failures.append(f"{names[i]}: a repeat of round 0 differs from it")
        r = rounds - 1  # one round checked: a bounded check time, however fast the program
        for op, (_, out), stdout in zip(make_ops(args.seed, r), round_jobs[r], stdouts[r]):
            if stdout is not None:
                failures.extend(check_output(checks, f"round {r}", op, out, stdout))
        check_s = time.perf_counter() - check_start
        set_up()
        for i, (op, w) in enumerate([*warmups, own_warmup]):
            if w["code"] != 0:
                failures.append(f"warm-up {i} exited {w['code']}: {w['stderr'].strip()}")
            else:
                failures.extend(check_output(checks, f"warm-up {i}", op, Path(w["out"]), w["stdout"]))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    setups = [w["setup_s"] for _, w in warmups]
    round_wall = sum(statistics.median(w) for w in walls)
    if tracer is None:
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "wall_s": (round_wall, "s"),
            "cpu_s": (sum(statistics.median(c) for c in cpus), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        metrics = tracing.layer_metrics(tracer.round_metrics())
        metrics["tracing.wall_s"] = (round_wall, "s")
    for message in failures:
        print(f"CHECK FAILED {message}", file=sys.stderr)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    raw = dict(result, workload=args.workload, seed=args.seed, rounds=rounds,
               import_s=import_s, import_rss_mb=import_rss_mb, setup_repeats_s=setups,
               check_s=check_s,
               per_op={n: {"wall_s": w, "cpu_s": c} for n, w, c in zip(names, walls, cpus)})
    if tracer is not None:
        raw["spans"] = tracer.dump()
    out_file = root / OUT_DIR / f"{args.workload}-s{args.seed}-t{args.trace}.json"
    out_file.write_text(json.dumps(raw), encoding="utf-8")
    return result


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_repeat is not None:
        print(json.dumps(setup_once(args, Path.cwd())))
        return 0
    result = run(args, Path.cwd())
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
