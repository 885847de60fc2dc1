"""rosenbench benchmark: one workload, one closed-loop run, one JSON line.

    python3 rosenperf/run.py --workload matrix --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; the package is imported from its
`src/` directory and nowhere else.  With `--trace 0` the workload's timed
section is repeated for `--seconds` and the end-to-end metrics are
printed; with `--trace 1` a separate traced run prints the per-layer
metrics and writes its spans to `.rosenperf/`.  Either way every pass is
checked against the workload's correctness gate, the last line of standard
output is one JSON object, and the exit status is 1 when a gate failed.

`--corrupt` changes one digit of the first gated row before the gate sees
it; a run with it must fail (the gate's self-test).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("matrix", "linesearch", "emit")
#: Fresh interpreters that each import the package and build the inputs.
SETUP_SAMPLES = 7
#: Each case's fastest repetition needs at least this many to choose from.
MIN_PASSES = 3
#: Iterations of the loop that times each CPU before a pass (about 10 ms).
CALIBRATION_LOOP = 200_000
#: A traced run alternates this many untraced and traced passes.
TRACE_ROUNDS = 2
#: Fresh interpreters that each import rosenbench.cli, for cli.import_ms.
IMPORT_SAMPLES = 5


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--corrupt", action="store_true",
                   help="self-test: change one gated digit, so the run must fail")
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def import_package():
    """Import rosenbench from this checkout's src/, or exit without a result."""
    if not (SRC / "rosenbench" / "__init__.py").is_file():
        sys.exit(f"error: no rosenbench sources under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import rosenbench
    if Path(rosenbench.__file__).resolve().parent != SRC / "rosenbench":
        sys.exit(f"error: imported rosenbench from {rosenbench.__file__}, not {SRC}")


def fresh_interpreter_s(statement: str, workdir: Path) -> float:
    """Seconds a fresh interpreter takes to run `statement`, start-up excluded.

    The child finds the package in src/ and the benchmark's modules here.
    """
    code = ("import sys, time; t0 = time.perf_counter(); "
            f"sys.path[:0] = {[str(SRC), str(HERE)]!r}; {statement}; "
            "print(time.perf_counter() - t0)")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, cwd=workdir, check=True)
    return float(done.stdout)


def measure_setup(args, workdir: Path) -> float:
    """Seconds one fresh interpreter takes to import the package and build the inputs."""
    return fresh_interpreter_s(
        "import pathlib, workloads; "
        f"workloads.build({args.workload!r}, {args.seed}, pathlib.Path({str(workdir)!r}))",
        workdir)


def environment(args) -> dict:
    import numpy
    commit = None
    try:
        top, head = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                                   capture_output=True, text=True, timeout=10).stdout.split()
        if Path(top).resolve() == ROOT:  # not the commit of an enclosing repository
            commit = head
    except (OSError, ValueError):
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "rosenbench").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(), "cpu": cpu,
        "git_commit": commit, "src_sha256": digest.hexdigest(),
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
    }


def gate_pass(workload, out, corrupt: bool) -> tuple[int, list[str]]:
    """Gate one pass; return (cases that failed, failure messages)."""
    from workloads import corrupt_digit
    rows = out.rows
    if corrupt:
        rows = [corrupt_digit(rows[0], workload.corrupt_field)] + rows[1:]
    failures = workload.gate(rows)
    return min(len(failures), len(rows)), failures


def pin_least_contended_cpu(cpus: list[int]) -> int:
    """Pin this process to the CPU on which a short loop runs fastest right now.

    On a shared host one CPU can run at two thirds of the other's speed
    for a minute; a pass pinned to the faster one is disturbed least.
    """
    def spin() -> float:
        t0 = time.perf_counter()
        total = 0
        for i in range(CALIBRATION_LOOP):
            total += i * i
        return time.perf_counter() - t0

    timings = []
    for cpu in cpus:
        os.sched_setaffinity(0, {cpu})
        timings.append((spin(), cpu))
    cpu = min(timings)[1]
    os.sched_setaffinity(0, {cpu})
    return cpu


def timed_run(args, workdir: Path) -> dict:
    import workloads
    workload = workloads.build(args.workload, args.seed, workdir)
    passes, setup, failures = [], [], []
    attempted = failed = 0
    cpus = sorted(os.sched_getaffinity(0))
    chosen = []
    start = time.perf_counter()
    try:
        while len(passes) < MIN_PASSES or time.perf_counter() < start + args.seconds:
            # Each pass, and the set-up samples taken before it (whose
            # child interpreters inherit the pinning), runs on one CPU.
            chosen.append(pin_least_contended_cpu(cpus))
            # Set-up samples are spread evenly over the run, between passes.
            due = 1 + int(SETUP_SAMPLES * (time.perf_counter() - start) / args.seconds)
            while len(setup) < min(due, SETUP_SAMPLES):
                setup.append(measure_setup(args, workdir))
            t0 = time.perf_counter()
            out = workload.run()
            out.wall = time.perf_counter() - t0
            bad_cases, msgs = gate_pass(workload, out, args.corrupt and not passes)
            attempted += len(out.rows)
            failed += bad_cases
            failures += msgs
            passes.append(out)
        while len(setup) < SETUP_SAMPLES:
            setup.append(measure_setup(args, workdir))
    finally:
        os.sched_setaffinity(0, cpus)
    # Contention on the shared host only ever adds time, so set-up counts
    # with its fastest sample and each case with its fastest repetition.
    wall_s = sum(map(min, zip(*(o.case_walls for o in passes))))
    iterations = statistics.median(o.iterations for o in passes)
    pass_walls = [o.wall for o in passes]
    metrics = {
        "setup_s": (min(setup), "s"),
        "wall_s": (wall_s, "s"),
        "iters_per_s": (iterations / wall_s, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    report = [
        f"passes {len(passes)}: pass wall min {min(pass_walls):.4f} median "
        f"{statistics.median(pass_walls):.4f} max {max(pass_walls):.4f} s",
        f"setup_s samples {len(setup)}: " + " ".join(f"{s:.4f}" for s in setup),
        "passes ran on CPUs " + " ".join(map(str, chosen)),
        f"failed_frac {failed / attempted:.6g} 1 ({failed} of {attempted} cases)",
    ]
    if passes[-1].csv_bytes:
        report.append(f"csv_mb_per_s {passes[-1].csv_bytes / 1e6 / wall_s:.6g} MB/s")
    return {"metrics": metrics, "report": report, "failures": failures,
            "attempted": attempted, "failed": failed}


def traced_run(args, workdir: Path) -> dict:
    import tracing
    import workloads
    workload = workloads.build(args.workload, args.seed, workdir)
    attempted = failed = 0
    failures, plain_walls, traced = [], [], []
    cpus = sorted(os.sched_getaffinity(0))
    try:
        # Untraced and traced passes alternate, each pinned as in the timed
        # run, and each kind counts with its fastest pass, so that a change
        # of host state between two passes does not read as tracing overhead.
        for _ in range(TRACE_ROUNDS):
            pin_least_contended_cpu(cpus)
            t0 = time.perf_counter()
            out = workload.run()
            plain_walls.append(time.perf_counter() - t0)
            pin_least_contended_cpu(cpus)
            tracer = tracing.Tracer()
            counts, traced_out, traced_wall = tracing.traced_pass(workload, tracer)
            traced.append((traced_wall, counts, tracer))
            for o in (out, traced_out):
                bad_cases, msgs = gate_pass(workload, o, args.corrupt and attempted == 0)
                attempted += len(o.rows)
                failed += bad_cases
                failures += msgs
        pin_least_contended_cpu(cpus)
        layers, probe_failures = tracing.probe_layers(args.seed, workdir)
        layers["cli.import_ms"] = 1e3 * min(fresh_interpreter_s("import rosenbench.cli", workdir)
                                            for _ in range(IMPORT_SAMPLES))
    finally:
        os.sched_setaffinity(0, cpus)
    traced_wall, counts, tracer = min(traced, key=lambda t: t[0])
    failures += probe_failures
    failed += len(probe_failures)
    attempted += 2  # the two gated quadratic runs of the probe suite
    layers.update(counts)
    layers["trace.overhead_frac"] = traced_wall / min(plain_walls) - 1.0
    units = per_layer_units()
    metrics = {name: (layers[name], unit) for name, unit in units.items()}
    spans = tracer.spans + tracer.objective_spans()
    trace_dir = ROOT / ".rosenperf"
    trace_dir.mkdir(exist_ok=True)
    trace_file = trace_dir / f"trace-{args.workload}-seed{args.seed}.jsonl"
    with open(trace_file, "w") as fh:
        fh.write(json.dumps({"env": environment(args), "metrics": layers}) + "\n")
        for span in spans:
            fh.write(json.dumps(span) + "\n")
    report = ["untraced passes " + " ".join(f"{w:.4f}" for w in plain_walls) + " s, traced "
              + " ".join(f"{t[0]:.4f}" for t in traced) + " s",
              f"{len(spans)} spans written to {trace_file.relative_to(ROOT)}"]
    return {"metrics": metrics, "report": report, "failures": failures,
            "attempted": attempted, "failed": failed}


def per_layer_units() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    import_package()
    (ROOT / ".rosenperf").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / ".rosenperf"))
    try:
        result = (traced_run if args.trace else timed_run)(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("env " + json.dumps(environment(args), sort_keys=True))
    for line in result["report"]:
        print(line)
    for name, (value, unit) in result["metrics"].items():
        print(f"{name} {value:.6g} {unit}")
    for msg in result["failures"][:20]:
        print(f"GATE FAILED {msg}")
    correct = not result["failures"]
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
