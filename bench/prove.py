"""Run the benchmark over several seeds and report each metric's spread.

Usage, from the repository root:

    python3 bench/prove.py --runs 10 [--out FILE] [workload ...]

Each run is a fresh ``bench/run.py`` process with its own seed, 0 to
``--runs`` - 1, and the ``run_seconds`` of ``BENCHMARK.json``. For every
end-to-end metric it prints the median and the interquartile range as a share
of the median (quartiles as ``statistics.quantiles(values, n=4)`` gives them)
next to the metric's bound, and ``--out`` saves all of it as JSON.
"""

import argparse
import json
import statistics
from pathlib import Path

from run import SPEC, WORKLOAD_NAMES, spawn


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workloads", nargs="*", help=f"default: {' '.join(WORKLOAD_NAMES)}")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--out")
    args = parser.parse_args()
    unknown = sorted(set(args.workloads) - set(WORKLOAD_NAMES))
    if unknown:
        parser.error(f"unknown workloads {unknown}")

    report = {"run_seconds": SPEC["run_seconds"], "workloads": {}}
    for workload in args.workloads or WORKLOAD_NAMES:
        runs = []
        for seed in range(args.runs):
            stdout, result = spawn(workload, seed, SPEC["run_seconds"], trace=0)
            machine = next(line for line in stdout.splitlines() if line.startswith("machine "))
            report["machine"] = json.loads(machine.removeprefix("machine "))
            runs.append(dict(result, seed=seed))
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}", flush=True)
        summary = {}
        for metric in SPEC["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            summary[metric["name"]] = {
                "unit": metric["unit"], "median": median, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / median, "bound": metric["bound"], "values": values,
            }
            print(f"  {metric['name']:<20} median {median:12.6g} {metric['unit']:<7} "
                  f"spread {(q3 - q1) / median:7.4f} (bound {metric['bound']})", flush=True)
        report["workloads"][workload] = {
            "correct": all(r["correct"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "metrics": summary,
        }
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")


if __name__ == "__main__":
    main()
