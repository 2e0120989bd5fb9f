#!/usr/bin/env python3
"""Closed-loop request benchmark of jetweil, end to end and layer by layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload taylor-scalar --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35 --trace 0

One client sends one request at a time from one process with no worker
threads; each workload runs in its own process.  ``--trace 0`` reports
the end-to-end metrics with no tracing installed.  ``--trace 1`` replays
a fixed slice of the workload alternately plain and traced and reports
per-layer call counts, self times and computed bytes / multiply-adds,
measured from outside the package.  The last line of standard output is
one JSON object: correct, attempted, failed and metrics.

``correct`` covers the well-posed requests, whose replies must match the
references.  Domain-edge requests that do not end in a clean numeric error
count in ``failed`` (and in ``ok_frac``) like any other failed request.
"""
from __future__ import annotations

import os

# one process, no worker threads: keep BLAS single-threaded
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import importlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_build" / "perfbench"
MODULES = ("slp", "weil", "jets", "modes", "oracle", "stability", "checks",
           "cli")
SETUP_SAMPLES = 3


def import_jetweil() -> types.SimpleNamespace:
    """Import jetweil from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "jetweil" / "__init__.py").is_file():
        raise SystemExit(f"error: no jetweil sources under {src}")
    sys.path.insert(0, str(src))
    package = importlib.import_module("jetweil")
    if Path(package.__file__).resolve().parent != src / "jetweil":
        raise SystemExit(f"error: imported jetweil from {package.__file__}")
    return types.SimpleNamespace(
        package=package,
        **{m: importlib.import_module(f"jetweil.{m}") for m in MODULES})


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            name = ref[5:]
            loose = ROOT / ".git" / name
            if loose.is_file():
                return loose.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + name):
                    return line.split()[0]
            return "unknown"
        return ref
    except OSError:
        return "unavailable (not a git checkout)"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def setup(jw, name: str, seed: int, workdir: Path):
    """Corpus, references and warm-up; returns (workload, seconds)."""
    import workloads
    start = time.perf_counter()
    workdir.mkdir(parents=True, exist_ok=True)
    workload = workloads.WORKLOADS[name](jw, seed, workdir)
    for req in workload.warmup:
        req.run()
    return workload, time.perf_counter() - start


def setup_in_child(name: str, seed: int) -> float:
    """Import plus set-up time of a fresh process."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--seed", str(seed), "--setup-only"],
        capture_output=True, text=True, timeout=150, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def run_all(args) -> int:
    """Every workload in its own process, one after another."""
    import workloads
    results = {}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             name, "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode:
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{metric}": value
                    for name, r in results.items()
                    for metric, value in r["metrics"].items()},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    jw = import_jetweil()
    import numpy
    import_s = time.perf_counter() - t0

    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import harness
    import workloads
    if args.workload == "all":
        return run_all(args)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{sorted(workloads.WORKLOADS)} or all")

    workdir = OUT_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        workload, setup_s = setup(jw, args.workload, args.seed, workdir)
        if args.setup_only:
            print(json.dumps({"setup_s": import_s + setup_s}))
            return 0
        samples = [import_s + setup_s]
        samples += [setup_in_child(args.workload, args.seed)
                    for _ in range(SETUP_SAMPLES - 1)]

        if args.trace:
            traced = harness.TracedRun(jw.package,
                                       workload.schedule[:workload.trace_count])
            traced.run(args.seconds)
            tally, metrics = traced.tally, traced.metrics()
            correct = tally.wellposed_failures == 0 and traced.counts_repeat()
            spans = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
            traced.first.write_spans(spans)
        else:
            tally = harness.closed_loop(workload.schedule, args.seconds)
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            metrics = harness.end_to_end(tally, statistics.median(samples),
                                         rss_mb)
            correct = tally.wellposed_failures == 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"# workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")
    print("# load: closed loop, 1 client, 1 process, no worker threads")
    print(f"# host: nproc {os.cpu_count()}, cpu {cpu_model()}, "
          f"python {platform.python_version()}, numpy {numpy.__version__}, "
          f"git {git_sha()}")
    print(f"# setup samples (s): {', '.join(f'{s:.3f}' for s in samples)}")
    print(f"# requests: {len(workload.schedule)} distinct, {tally.attempted} "
          f"sent, {tally.failed} failed "
          f"(fail_frac {tally.failed / tally.attempted:.5f})")
    for (label, reason), count in sorted(tally.failures.items()):
        print(f"# failed x{count}: {label}: {reason}")
    if args.trace:
        print(f"# spans of the first traced pass: {spans.relative_to(ROOT)}")
    for metric, (value, unit) in metrics.items():
        print(f"{metric:<44} {value:>16.6g} {unit}")
    print(json.dumps({
        "correct": bool(correct),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m: {"value": v, "unit": u}
                    for m, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
