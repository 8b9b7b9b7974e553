"""Run one workload of the indexlaw benchmark and print its metrics.

    python3 bench/run.py --workload cli-small --seed 1 --seconds 20 --trace 0

Run from the repository root, which must hold ``src/indexlaw`` and
``BENCHMARK.json``.  ``--trace 0`` measures the end-to-end metrics with
nothing wrapped; ``--trace 1`` replays the workload in this process with each
layer wrapped and reports the per-layer metrics.  Metric names and units come
from ``BENCHMARK.json``.  Report lines go to standard output; the last line
is one JSON object with the keys correct, attempted, failed and metrics.
Scratch files live in ``.bench_work/`` and the spans of the last traced run
of each workload in ``.bench_work/trace-<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from collections import defaultdict
from importlib import metadata
from pathlib import Path

import numpy as np

import tracer as tracing
import workloads as wl

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 3
STARTUP_REPEATS = 3
MIN_TAIL_BEYOND = 10

# A child that only imports the package: interpreter start plus import.
IMPORT_CHILD = ("import json, sys; import indexlaw; print(json.dumps({'file': indexlaw.__file__, "
                "'scipy_modules': sum(1 for m in sys.modules if m.startswith('scipy'))}))")


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def machine_facts() -> dict:
    facts = {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
             "numpy": np.__version__, "scipy": metadata.version("scipy")}
    try:
        facts["blas"] = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        facts["blas"] = "unknown"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        facts[var] = os.environ.get(var, "unset")
    return facts


def import_child(workdir: Path) -> tuple[float, int]:
    """Wall time of a child that imports indexlaw, and its scipy module count."""
    code, out, seconds, _ = wl.run_child(["-c", IMPORT_CHILD], wl.child_env(SRC),
                                         workdir / "import.json")
    if code != 0:
        err = wl.last_line((workdir / "import.err").read_text(errors="replace"))
        raise RuntimeError(f"import indexlaw failed in a child (exit {code}): {err}")
    info = json.loads(out)
    if Path(info["file"]).resolve().parent != (SRC / "indexlaw").resolve():
        raise RuntimeError(f"child imported indexlaw from {info['file']}, not from {SRC}")
    return seconds, info["scipy_modules"]


def tail(samples: list) -> tuple[float, float] | None:
    """The highest percentile with at least ten samples beyond it, as
    (percentile, value); None unless that percentile is above the median."""
    n = len(samples)
    if n < 2 * MIN_TAIL_BEYOND + 1:
        return None
    return 100.0 * (n - MIN_TAIL_BEYOND) / n, sorted(samples)[n - MIN_TAIL_BEYOND - 1]


class Tally:
    """Outcomes of the operations of one run."""

    def __init__(self):
        self.seconds = defaultdict(list)   # kind -> durations of ops that passed
        self.failed_seconds = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.errors: list = []
        self.rss_kb = 0
        self.replicates = 0

    def run(self, op: wl.Op, inprocess: bool) -> wl.Outcome:
        try:
            outcome = op.run(inprocess)
        except Exception as exc:  # an operation that raises counts as failed; the run goes on
            outcome = wl.Outcome(seconds=0.0, error=f"{op.kind}: raised {exc!r}")
        self.attempted += 1
        self.rss_kb = max(self.rss_kb, outcome.rss_kb)
        if outcome.error:
            self.failed += 1
            self.failed_seconds[op.kind].append(outcome.seconds)
            if len(self.errors) < 5:
                self.errors.append(outcome.error)
        else:
            self.seconds[op.kind].append(outcome.seconds)
            self.replicates += outcome.replicates
        return outcome

    def samples(self, kind: str) -> list:
        return self.seconds[kind] or self.failed_seconds[kind]


def set_up(workload: str, seed: int, workdir: Path):
    """Build the workload SETUP_REPEATS times: import warm-up in a child and
    input generation.  Returns the last cycle and every set-up time."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        import_child(workdir)
        cycle = wl.WORKLOADS[workload](seed, workdir, SRC)
        times.append(time.perf_counter() - t0)
    return cycle, times


def timed_run(workload: str, seed: int, seconds: float, workdir: Path):
    """End-to-end metrics, nothing wrapped; CLI ops in child processes.  The
    timed window is whole cycles, ending with the first one that finishes
    after ``seconds``."""
    cycle, setup_times = set_up(workload, seed, workdir)
    kinds = list(dict.fromkeys(op.kind for op in cycle.ops))
    tally = Tally()
    start = time.perf_counter()
    # whole cycles only, so every run measures the same mix of operations
    while True:
        for op in cycle.ops:
            tally.run(op, inprocess=False)
        if time.perf_counter() - start >= seconds:
            break
    elapsed = time.perf_counter() - start
    if workload not in wl.CLI_WORKLOADS:
        tally.rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    p50 = {k: statistics.median(tally.samples(k)) for k in kinds}
    metrics = {
        "setup_s": (statistics.median(setup_times), "s", len(setup_times)),
        "ops_per_s": ((tally.attempted - tally.failed) / elapsed, "1/s", tally.attempted),
        "peak_rss_mb": (tally.rss_kb / 1024.0, "MB", tally.attempted),
    }
    report = {"error_rate": (tally.failed / max(tally.attempted, 1), "ratio", tally.attempted)}
    for k in kinds:
        n = len(tally.samples(k))
        report[f"{k}_p50_s"] = (p50[k], "s", n)
        t = tail(tally.samples(k))
        if t:
            report[f"{k}_tail_s"] = (t[1], f"s@p{t[0]:.1f}", n)
        else:
            report[f"{k}_tail_s"] = (None, f"s (needs {2 * MIN_TAIL_BEYOND + 1} samples)", n)
    if workload == "validate":
        busy = sum(sum(v) for v in tally.seconds.values())
        report["mc_replicates_per_s"] = (tally.replicates / busy if busy else 0.0, "1/s",
                                         tally.replicates)
    facts = {**cycle.facts, "elapsed_s": elapsed, "setup_times_s": setup_times}
    return tally, metrics, report, facts


def run_cycle(cycle: wl.Cycle, tally: Tally, tracer: tracing.Tracer | None = None) -> float:
    """One pass over the cycle in this process; returns the ops' total time."""
    total = 0.0
    for op in cycle.ops:
        if tracer:
            tracer.op = tally.attempted
        total += tally.run(op, inprocess=True).seconds
    return total


def traced_run(workload: str, seed: int, seconds: float, workdir: Path):
    """Per-layer metrics: after one warm-up cycle, alternate an unwrapped and
    a wrapped cycle until ``seconds`` have passed; the ratio of their times
    is the tracing overhead."""
    cycle = wl.WORKLOADS[workload](seed, workdir, SRC)
    tally = Tally()
    tracer = tracing.Tracer()
    run_cycle(cycle, tally)
    plain = traced = 0.0
    cycles = 0
    start = time.perf_counter()
    while True:
        plain += run_cycle(cycle, tally)
        tracer.install()
        try:
            traced += run_cycle(cycle, tally, tracer)
        finally:
            tracer.uninstall()
        cycles += 1
        if time.perf_counter() - start >= seconds:
            break
    startup = [import_child(workdir) for _ in range(STARTUP_REPEATS)]
    layer = tracer.aggregate(cycles)
    layer["startup.import_s"] = statistics.median(s for s, _ in startup)
    layer["startup.scipy_modules"] = startup[0][1]
    layer["montecarlo.replicates"] = sum(r for _, r in wl.EXPERIMENTS) \
        if workload == "validate" else 0
    layer["trace.overhead_ratio"] = traced / plain
    tracer.write(WORK / f"trace-{workload}.json")
    report = {f"inprocess_{k}_p50_s": (statistics.median(tally.samples(k)), "s",
                                       len(tally.samples(k)))
              for k in dict.fromkeys(op.kind for op in cycle.ops)}
    facts = {**cycle.facts, "traced_cycles": cycles, "absent_layers": tracer.absent,
             "spans": len(tracer.spans)}
    return tally, {k: (v, None, cycles) for k, v in layer.items()}, report, facts


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "indexlaw" / "__init__.py").is_file():
        fail(f"no indexlaw sources at {SRC / 'indexlaw'}; run from the repository root")
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        fail(f"cannot read BENCHMARK.json: {exc}")
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    sys.path.insert(0, str(SRC))

    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        run = traced_run if args.trace else timed_run
        tally, measured, report, facts = run(args.workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing:
        fail(f"metrics not measured: {missing}")
    print(f"indexlaw benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("machine: " + json.dumps(machine_facts()))
    print("workload: " + json.dumps(facts))
    units = {m["name"]: m["unit"] for m in wanted}
    for name, (value, unit, n) in {**measured, **report}.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:48s} {shown:>12s} {units.get(name, unit) or ''}  (n={n})")
    for error in tally.errors:
        print(f"  failed: {error}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": measured[m["name"]][0], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
