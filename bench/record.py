"""Record the reference outputs that the benchmark compares every run against.

Usage, from the repository root: ``python3 bench/record.py [workload ...]``.
It runs one operation of each workload on each input set and rewrites the
matching entries of ``bench/references.json``. Record only from code whose
outputs are known to be right; the benchmark then flags any run that differs.
"""

import json
import shutil
import sys

import run

run.pin_blas_threads()
run.import_bmps()

import workloads  # noqa: E402


def main(names):
    path = run.HERE / "references.json"
    stored = json.loads(path.read_text()) if path.exists() else {"workloads": {}}
    stored["input_sets"] = workloads.INPUT_SETS
    stored["rtol"] = workloads.RTOL
    workdir = run.OUT / "record"
    for name in names or run.WORKLOAD_NAMES:
        entries = stored["workloads"].setdefault(name, {})
        for seed in range(workloads.INPUT_SETS):
            work = workloads.WORKLOADS[name]()
            work.setup(seed, workdir)
            res = work.op()
            problems = work.check(res)
            if problems:
                sys.exit(f"{name} input set {seed}: {problems}")
            entries[str(seed)] = work.summary(res)
            print(f"recorded {name} input set {seed}", flush=True)
    shutil.rmtree(workdir, ignore_errors=True)
    path.write_text(json.dumps(stored, indent=1) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
