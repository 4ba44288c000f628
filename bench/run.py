"""Download-free benchmark of bmps: digit-scale training, digit-scale Laplace
prediction, and the binary CLI lifecycle.

Usage, from the repository root:

    python3 bench/run.py --workload digits-train --seed 0 --seconds 30 --trace 0

``--workload all`` runs every workload, each in a fresh process, one after
the other. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; with ``--trace 0`` the
metrics are the end-to-end ones, with ``--trace 1`` the per-layer ones. The
lines before it name every metric with its unit. Run details (machine, every
metric, problems found) go to ``.bench_out/``, and the spans of a traced run
to ``.bench_out/trace-<workload>-seed<seed>.json``.

The benchmark imports bmps from ``src/`` beside this directory and exits with
code 2, printing no result, when it is not there. Workload and metric names
and units come from ``BENCHMARK.json`` at the repository root.
"""

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = tuple(w["name"] for w in SPEC["workloads"])
# The bmps modules the benchmark drives; set-up time includes importing them.
BMPS_MODULES = ("cli", "data", "decision", "initializer", "laplace", "mps", "trainer")
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
)
# Set-up is repeated and its median reported, so work moved into set-up shows.
# Each repeat is a fresh interpreter's import of bmps plus the in-process set-up.
SETUP_REPEATS = 3
# Every run times at least this many operations, however short --seconds is.
MIN_OPS = 2
# A shared virtual machine can run at one of two speeds, about 1.5x apart,
# switching every few seconds to every minute. Timings are therefore means
# over all of a run's operations, which follow the mix of the two speeds; a
# median or a fastest call jumps from one speed to the other.

UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
# Lines printed beside the end-to-end metrics, under the roadmap's names.
UNITS.update(
    import_s="s", train_samples_per_s="rows/s", laplace_fit_s="s", cli_run_s="s",
    error_rate="ratio",
)


def pin_blas_threads():
    """Cap BLAS threads at the usable core count; must run before numpy loads."""
    cores = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        value = os.environ.get(var, "")
        if not value.isdigit() or not 1 <= int(value) <= cores:
            os.environ[var] = str(cores)
    return cores


def import_bmps():
    """Import bmps from this checkout's src/, or exit 2 without a result."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import bmps

        for name in BMPS_MODULES:
            __import__(f"bmps.{name}")
    except ImportError as exc:
        print(f"error: cannot import bmps from {src}: {exc}", file=sys.stderr)
        sys.exit(2)
    if Path(bmps.__file__).resolve().parent != src / "bmps":
        print(f"error: bmps resolved to {bmps.__file__}, not under {src}", file=sys.stderr)
        sys.exit(2)


def import_seconds():
    """Time a fresh interpreter takes to import bmps, its own start-up excluded."""
    code = (
        "import sys, time\n"
        "t0 = time.perf_counter()\n"
        "sys.path.insert(0, sys.argv[1])\n"
        f"import {', '.join('bmps.' + name for name in BMPS_MODULES)}\n"
        "print(time.perf_counter() - t0)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, str(ROOT / "src")],
        stdout=subprocess.PIPE, text=True, check=True,
    )
    return float(proc.stdout)


def machine_info(cores):
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cores": cores,
        "cpu_count": os.cpu_count(),
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
    }


class Runner:
    """Runs operations of one workload and checks each one's outputs."""

    def __init__(self, work, reference):
        self.work = work
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.seconds = None
        self.timings = []

    def op(self, scope=None):
        """One operation plus its checks; its result, or None if it failed.

        ``scope`` is entered around the operation alone, not its checks;
        ``self.seconds`` is left holding the operation's wall time.
        """
        import workloads

        self.attempted += 1
        try:
            t0 = time.perf_counter()
            with scope or contextlib.nullcontext():
                res = self.work.op()
            self.seconds = time.perf_counter() - t0
            found = self.work.check(res) + workloads.compare(
                self.work.summary(res), self.reference
            )
        except Exception as exc:  # any exception counts as a failed operation
            found = [f"{type(exc).__name__}: {exc}"]
        if not found:
            self.timings.append(
                {"op_s": self.seconds, "fit_s": res.fit_s, "predict_s": res.predict_s}
            )
            return res
        self.failed += 1
        for msg in found:
            print(f"problem: {self.work.name}: {msg}", file=sys.stderr)
        self.problems += found
        return None


def measure(runner, args, workdir):
    """Untraced run: median set-up time, then operations for --seconds."""
    imports, setups = [], []
    for _ in range(SETUP_REPEATS):
        imports.append(import_seconds())
        t0 = time.perf_counter()
        runner.work.setup(args.seed, workdir)
        setups.append(time.perf_counter() - t0)
    results = []
    start = time.perf_counter()
    while runner.attempted < MIN_OPS or time.perf_counter() - start < args.seconds:
        res = runner.op()
        if res is not None:
            results.append(res)
    if not results:
        return None, None
    metrics = {
        "setup_s": statistics.median(i + s for i, s in zip(imports, setups)),
        "fit_s": statistics.fmean(r.fit_s for r in results),
        "predict_rows_per_s": sum(r.predict_rows * len(r.predict_s) for r in results)
        / sum(t for r in results for t in r.predict_s),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    named = {k: statistics.fmean(r.named[k] for r in results) for k in results[0].named}
    named["import_s"] = statistics.median(imports)
    return metrics, named


def measure_traced(runner, args, workdir):
    """Traced run: untraced and traced operations alternate for --seconds."""
    from spans import Tracer, layer_value

    tracer = Tracer()
    with tracer.installed(), tracer.span("setup"):
        runner.work.setup(args.seed, workdir)
    # A first operation pays for cold memory; keep it out of the comparison.
    runner.op()
    plain, traced = [], []
    start = time.perf_counter()
    while runner.attempted < 3 or time.perf_counter() - start < args.seconds:
        if runner.op() is not None:
            plain.append(runner.seconds)
        first_span = len(tracer.spans)
        if runner.op(tracer.operation()) is not None:
            traced.append(runner.seconds)
        else:
            del tracer.spans[first_span:]
    tracer.write(OUT / f"trace-{runner.work.name}-seed{args.seed}.json")
    if not (plain and traced):
        return None
    totals = tracer.totals()
    metrics = {"trace.overhead_frac": statistics.median(traced) / statistics.median(plain) - 1.0}
    for m in SPEC["per_layer"]:
        if m["name"] not in metrics:
            metrics[m["name"]] = layer_value(m["name"], totals, len(traced))
    return metrics


def run_one(args):
    cores = pin_blas_threads()
    import_bmps()
    import workloads

    machine = machine_info(cores)
    references = json.loads((HERE / "references.json").read_text())["workloads"]
    work = workloads.WORKLOADS[args.workload]()
    input_set = str(args.seed % workloads.INPUT_SETS)
    runner = Runner(work, references[args.workload][input_set])

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}-seed{args.seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir()
    try:
        if args.trace:
            metrics, named = measure_traced(runner, args, workdir), {}
        else:
            metrics, named = measure(runner, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if metrics is None:
        print(f"error: every {args.workload} operation failed", file=sys.stderr)
        sys.exit(1)

    named = dict(named, **metrics, error_rate=runner.failed / runner.attempted)
    for key, value in named.items():
        print(f"{args.workload} {key} {value:.6g} {UNITS[key]}")
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()},
    }
    details = dict(
        result, workload=args.workload, seed=args.seed, seconds=args.seconds,
        trace=args.trace, machine=machine, all_metrics=named, problems=runner.problems,
        operations=runner.timings,
    )
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(details, indent=1) + "\n")
    print("machine " + json.dumps(machine))
    print(json.dumps(result))


def spawn(workload, seed, seconds, trace):
    """Run one workload in a fresh run.py process; its stdout and parsed result."""
    argv = [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
    if proc.returncode != 0:
        sys.stdout.write(proc.stdout)
        print(f"error: {workload} seed {seed} exited with code {proc.returncode}",
              file=sys.stderr)
        sys.exit(proc.returncode)
    return proc.stdout, json.loads(proc.stdout.strip().splitlines()[-1])


def run_all(args):
    """Every workload, each in its own fresh process, one after another."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        stdout, result = spawn(name, args.seed, args.seconds, args.trace)
        sys.stdout.write(stdout)
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            merged["metrics"][f"{name}/{key}"] = value
    print(json.dumps(merged))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        run_all(args)
    else:
        run_one(args)


if __name__ == "__main__":
    main()
