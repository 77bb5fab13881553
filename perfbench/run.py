"""mimolab benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload paper_table --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from its
`src/` directory, never from an installed copy. With --trace 0 the run
repeats whole rounds of the workload for --seconds and reports the
end-to-end metrics named in BENCHMARK.json. With --trace 1 it runs one
warm-up round, then traced, untraced and traced rounds on the same inputs,
and reports the per-layer metrics.
The last line of standard output is one JSON object: correct, attempted,
failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 5
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def environment(workers: int) -> dict:
    import numpy
    import scipy

    import mimolab
    blas = {}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        pass
    return {
        "mimolab": mimolab.__version__, "numpy": numpy.__version__, "scipy": scipy.__version__,
        "python": platform.python_version(),
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_env": {k: os.environ.get(k, "unset") for k in BLAS_ENV},
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "trial_workers": workers,
    }


def measure_setup(workload) -> tuple[float, list]:
    """Median over repeats of a fresh-interpreter `import mimolab` plus the
    in-process preparation of the workload's inputs."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    samples, ops = [], None
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import mimolab"], env=env, cwd=ROOT,
                       check=True, timeout=120)
        ops = workload.prepare()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples), ops


class Tally:
    """Attempted and failed operations, latencies of the rest, check problems."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = self.failed = 0
        self.latencies: list[float] = []
        self.problems: list[str] = []

    def run(self, op, entry):
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            # the CLI reports to stdout, which must end with the result line
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                result = self.workload.call(op, entry)
        except Exception:  # one failing operation must not end the run
            traceback.print_exc(file=sys.stderr)
            self.failed += 1
            return None
        elapsed = time.perf_counter() - t0
        if self.workload.failed(op, result):
            self.failed += 1
            return None
        self.latencies.append(elapsed)
        try:
            self.problems += self.workload.check(op, result)
        except (OSError, ValueError, KeyError, TypeError) as e:  # unreadable output
            self.problems.append(f"{op.kind}: output could not be checked: {e!r}")
        return result


def timed_run(workload, ops, seconds: float) -> tuple[Tally, dict]:
    tally = Tally(workload)
    entry = workload.entry()
    start = time.perf_counter()
    for round_index in itertools.count():
        r0 = time.perf_counter()
        for op in ops if round_index == 0 else workload.prepare(round_index):
            tally.run(op, entry)
        now = time.perf_counter()
        # whole rounds only: start another only if it fits in the run
        if now - start + (now - r0) > seconds:
            break
    lat = sorted(tally.latencies) or [0.0]
    p90 = statistics.quantiles(lat, n=10, method="inclusive")[-1] if len(lat) > 1 else lat[0]
    metrics = {"call_ms_p50": 1e3 * statistics.median(lat), "call_ms_p90": 1e3 * p90,
               "calls": len(tally.latencies)}
    return tally, metrics


def traced_run(workload, ops, seed: int) -> tuple[Tally, dict]:
    import workloads

    tally = Tally(workload)
    walls: dict[str, list[float]] = {}
    passes, first_results = [], None
    # The first round warms caches and lazy imports and is left out of the
    # overhead, which compares the traced rounds with the untraced one between.
    for kind in ("warm-up", "traced", "untraced", "traced"):
        tracer = spans.Tracer() if kind == "traced" else None
        with tracer.installed() if tracer else contextlib.nullcontext():
            entry = workload.entry()
            if tracer:
                entry = tracer.wrap(entry, workload.entry_name)
            t0 = time.perf_counter()
            results = [tally.run(op, entry) for op in ops]
            wall = time.perf_counter() - t0
        if tracer:
            passes.append(tracer)
            first_results = first_results or results
        walls.setdefault(kind, []).append(wall)
    counts = [t.counters() for t in passes]
    if counts[0] != counts[1]:
        tally.problems.append(f"traced counts differ between passes: {counts}")
    checked, problems = workloads.check_picks(passes[0].selections.values(),
                                              workload.pos_r, workload.pos_t)
    tally.problems += problems
    metrics = spans.layer_metrics(passes)
    metrics.update(workload.traced_extras(first_results))
    untraced = walls["untraced"][0]
    metrics["trace.overhead_pct"] = 100.0 * (statistics.mean(walls["traced"]) - untraced) / untraced
    metrics["trace.checked_picks"] = checked
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"spans_{workload.name}_seed{seed}.json", "w") as fh:
        json.dump([t.dump() for t in passes], fh)
    return tally, metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "mimolab" / "__init__.py").is_file():
        print(f"no mimolab sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workdir = OUT / f"work_{args.workload}_{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, str(workdir))
        print("env " + json.dumps(environment(workload.workers), sort_keys=True))
        setup_s, ops = measure_setup(workload)
        if args.trace:
            tally, measured = traced_run(workload, ops, args.seed)
            wanted = spec["per_layer"]
        else:
            tally, measured = timed_run(workload, ops, args.seconds)
            measured["setup_s"] = setup_s
            measured["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for problem in tally.problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    metrics = {}
    for m in wanted:
        metrics[m["name"]] = {"value": measured[m["name"]], "unit": m["unit"]}
        print(f"{m['name']:<40} {metrics[m['name']]['value']:>16.6g} {m['unit']}")
    if "calls" in measured:
        print(f"{measured['calls']} calls timed in {tally.attempted} attempted")
    print(json.dumps({"correct": not tally.problems and bool(tally.latencies),
                      "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
