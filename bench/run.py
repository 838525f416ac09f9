"""Benchmark of dualcat, end to end (``--trace 0``) or layer by layer (``--trace 1``).

Run from anywhere, with the checkout that holds ``src/dualcat`` as the
parent of this directory:

    python3 bench/run.py --workload bell-chsh --seed 1 --seconds 15 --trace 0

A run repeats whole rounds of its workload's operations until ``--seconds``
have passed (at least one round), checks every output, and prints as its
last line one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The line before it records the environment.

End-to-end metrics (untraced):
  run_s        median over rounds of the wall time of a round's operations
  cpu_s        median over rounds of their process CPU time, all threads
  peak_rss_mb  peak resident set of the process at the end of the first round
  setup_s      median over fresh processes of the time from spawn to the
               first timed operation: interpreter, ``import dualcat`` and
               building the first round's inputs

Per-layer metrics (traced) are medians over traced rounds; the run first
measures untraced rounds for half its time, so ``trace.overhead_s`` is the
traced minus the untraced median of run_s.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import os
import platform
import random
import resource
import shutil
import subprocess
import sys
import time
import traceback
import warnings
from pathlib import Path
from statistics import median

import checks
import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".bench_tmp"
SETUP_PROBES = 3
WORKLOADS = ("bell-chsh", "polarization-access", "cli-small")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="build the first round's inputs, print the clock and exit")
    return parser.parse_args(argv)


def blas_info() -> list:
    """Each OpenBLAS loaded in this process, with its configuration and threads."""
    out = []
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return out
    for path in paths:
        lib = ctypes.CDLL(path)
        entry = {"library": Path(path).name}
        for suffix in ("64_", ""):
            for prefix in ("scipy_openblas", "openblas"):
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if threads is not None and config is not None:
                    threads.restype, config.restype = ctypes.c_int, ctypes.c_char_p
                    entry.update(threads=threads(), config=config().decode())
        out.append(entry)
    return out


def environment() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_info(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "thread_env": {k: os.environ.get(k) for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def measure_setup(args) -> float:
    """Median over fresh processes of spawn-to-first-operation time.

    ``perf_counter`` is CLOCK_MONOTONIC on Linux, shared by parent and child.
    """
    cmd = [sys.executable, str(BENCH / "run.py"), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
        times.append(float(proc.stdout.split()[-1]) - t0)
    return median(times)


class Runner:
    """Runs rounds of one workload and keeps their counts and timings."""

    def __init__(self, workload, rng) -> None:
        self.workload = workload
        self.rng = rng
        self.attempted = 0
        self.failed = 0
        self.problems: list = []
        self.peak_rss_mb = None

    def round(self, tracer=None) -> tuple:
        """One round: (wall s, CPU s, per-layer metrics or None)."""
        if tracer is not None:
            tracer.start()
        inputs = self.workload.inputs(self.rng)
        wall = cpu = 0.0
        outputs = []
        for inp in inputs:
            self.attempted += 1
            t0, c0 = time.perf_counter(), time.process_time()
            try:
                out = self.workload.run(inp)
            except Exception:  # counted as failed; the run goes on
                traceback.print_exc(file=sys.stderr)
                self.failed += 1
                out = None
            wall += time.perf_counter() - t0
            cpu += time.process_time() - c0
            outputs.append(out)
        layers = tracer.metrics() if tracer is not None else None
        self.check(inputs, outputs)
        return wall, cpu, layers

    def check(self, inputs: list, outputs: list) -> None:
        checked = [(self.workload.check, inp, out) for inp, out in zip(inputs, outputs)
                   if out is not None]
        if all(out is not None for out in outputs):
            checked.append((self.workload.check_round, inputs, outputs))
        for check, inp, out in checked:
            try:
                check(inp, out)
            except checks.CheckError as err:
                self.problems.append(str(err))

    def repeat(self, seconds: float, tracer=None) -> list:
        """Whole rounds until ``seconds`` have passed, at least one."""
        end = time.perf_counter() + seconds
        rounds = [self.round(tracer)]
        self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        while time.perf_counter() < end:
            rounds.append(self.round(tracer))
        return rounds


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def measure(args) -> dict:
    setup_s = None if args.trace else measure_setup(args)
    import workloads

    outdir = SCRATCH / str(os.getpid())
    outdir.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(workloads.make(args.workload, outdir), random.Random(args.seed))
        # the CLI prints a line per run and access_polarization warns about
        # small envelopes; neither belongs in the benchmark's output
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink), \
                warnings.catch_warnings():
            warnings.simplefilter("ignore")
            if not args.trace:
                rounds = runner.repeat(args.seconds)
            else:
                plain = runner.repeat(args.seconds / 2.0)
                tracer = tracing.Tracer()
                tracer.install()
                rounds = runner.repeat(args.seconds / 2.0, tracer)
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            SCRATCH.rmdir()

    run_s = median(r[0] for r in rounds)
    if not args.trace:
        metrics = {
            "run_s": metric(run_s, "s"),
            "setup_s": metric(setup_s, "s"),
            "cpu_s": metric(median(r[1] for r in rounds), "s"),
            "peak_rss_mb": metric(runner.peak_rss_mb, "MB"),
        }
    else:
        metrics = {name: metric(median(r[2][name] for r in rounds), unit)
                   for name, unit in tracing.metric_names()}
        metrics["trace.run_s"] = metric(run_s, "s")
        metrics["trace.overhead_s"] = metric(run_s - median(r[0] for r in plain), "s")
    for problem in runner.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({"environment": environment(), "rounds": len(rounds)}))
    return {"correct": not runner.problems, "attempted": runner.attempted,
            "failed": runner.failed, "metrics": metrics}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "dualcat" / "__init__.py").is_file():
        print(f"bench: no dualcat sources under {SRC}; run this from a dualcat checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        import workloads

        workloads.make(args.workload, SCRATCH).inputs(random.Random(args.seed))
        print(time.perf_counter())
        return 0
    print(json.dumps(measure(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
