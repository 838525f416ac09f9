"""Record dualcat's end-to-end benchmark in one JSON file.

    python3 tools/bench_record.py BENCH_<n>.json

The file holds, from the checkout that holds this directory:

- ``cli``: each CLI experiment at its defaults, each run in a fresh child
  process: exit code, wall time and peak RSS (``ru_maxrss``), medians over
  ``REPEATS`` runs;
- ``ladder``: ``duality --alpha A`` at defaults for each A: exit code,
  ``converged``, ``postselect_probability``, ``norm_deficit``, wall time and
  peak RSS (medians as above), and the tracemalloc peak of the access,
  taken in one more child that wraps ``circuits.access_polarization`` and
  calls the CLI's ``main`` (RSS follows the glibc heap layout, the
  tracemalloc peak does not);
- ``bench``: the end-to-end metrics of ``bench/run.py --trace 0`` per
  workload, or its exit code alone if it fails;
- ``lines``: the line count of each ``src/dualcat`` module and their total;
- ``tier1``: the pass and fail counts and the wall time of the tier-1 suite
  (``pytest -q -W error``);
- ``environment``: Python, numpy and OpenBLAS as the CLI records them, the
  BLAS threads inside the engine's scope, scipy and the loaded BLAS
  libraries as ``bench/run.py`` records them, and ``nproc``.

The recorder itself imports only the standard library; everything it
measures runs in a child process.
"""

from __future__ import annotations

import json
import os
import re
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
LADDER = ["2.8", "3.2", "3.6", "4.0", "4.4"]
WORKLOADS = ["bell-chsh", "polarization-access", "cli-small"]
SECONDS, SEED = 15.0, 1  # of each bench/run.py run
REPEATS = 3  # fresh runs per CLI measurement
TIER1 = True  # run the tier-1 suite

#: run in a child: the CLI's main, with the tracemalloc peak of each access
ACCESS_PEAK = """
import json, sys, tracemalloc
from dualcat import circuits, cli
inner, peaks = circuits.access_polarization, []
def traced(*args, **kwargs):
    tracemalloc.start()
    try:
        return inner(*args, **kwargs)
    finally:
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
circuits.access_polarization = traced
code = cli.main(sys.argv[1:])
print(json.dumps({"exit": code, "peaks": peaks}))
"""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(cmd: list) -> tuple[int, float, float, str]:
    """Exit code, wall time (s), peak RSS (MB) and stdout of one child."""
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL, text=True)
    out = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    return proc.returncode, wall, usage.ru_maxrss / 1024.0, out


def cli_runs(args: list, repeats: int, scratch: Path) -> tuple[dict, dict]:
    """Medians of ``repeats`` fresh CLI runs, and the JSON the last one wrote."""
    result = scratch / "result.json"
    result.unlink(missing_ok=True)  # a run that writes nothing must not read the last one's
    runs = [run_child([sys.executable, "-m", "dualcat.cli", "--output", str(result), *args])
            for _ in range(repeats)]
    codes = {code for code, *_ in runs}
    summary = {"exit": codes.pop() if len(codes) == 1 else sorted(codes),
               "wall_s": statistics.median(r[1] for r in runs),
               "rss_mb": statistics.median(r[2] for r in runs), "runs": repeats}
    return summary, json.loads(result.read_text()) if result.exists() else {}


def record_cli(names: list, repeats: int, scratch: Path) -> tuple[dict, dict]:
    out, provenance = {}, {}
    for name in names:
        out[name], payload = cli_runs([name], repeats, scratch)
        provenance = payload.get("provenance", provenance)
    return out, provenance


def record_ladder(alphas: list, repeats: int, scratch: Path) -> list:
    rows = []
    for alpha in alphas:
        row, payload = cli_runs(["duality", "--alpha", alpha], repeats, scratch)
        result = payload.get("result", {})
        row = {"alpha": float(alpha), **row, "converged": payload.get("converged"),
               "postselect_probability": result.get("scalars", {}).get("postselect_probability"),
               "norm_deficit": result.get("convergence", {}).get("norm_deficit")}
        code, _, _, text = run_child([sys.executable, "-c", ACCESS_PEAK, "--output",
                                      str(scratch / "traced.json"), "duality", "--alpha", alpha])
        peaks = json.loads(text.splitlines()[-1])["peaks"] if code == 0 and text.strip() else []
        row["access_tracemalloc_peak_mb"] = max(peaks) / 1e6 if peaks else None
        rows.append(row)
    return rows


def record_bench(workloads: list, seconds: float) -> tuple[dict, dict]:
    out, environment = {}, {}
    for name in workloads:
        code, _, _, text = run_child([sys.executable, str(ROOT / "bench" / "run.py"),
                                      "--workload", name, "--seed", str(SEED),
                                      "--seconds", str(seconds), "--trace", "0"])
        lines = text.strip().splitlines()
        if code or len(lines) < 2:
            out[name] = {"exit": code}
            continue
        report = json.loads(lines[-1])
        environment = json.loads(lines[-2])["environment"]
        out[name] = {"exit": code, "seed": SEED, "seconds": seconds,
                     "correct": report["correct"], "attempted": report["attempted"],
                     "failed": report["failed"],
                     "metrics": {k: v["value"] for k, v in report["metrics"].items()}}
    return out, environment


def record_lines() -> dict:
    counts = {p.name: len(p.read_text().splitlines())
              for p in sorted((SRC / "dualcat").glob("*.py"))}
    return {**counts, "total": sum(counts.values())}


def record_tier1() -> dict:
    code, wall, _, text = run_child([sys.executable, "-m", "pytest", "-q", "-W", "error",
                                     "-p", "no:cacheprovider", "--continue-on-collection-errors"])
    counts = {word: int(n) for n, word in re.findall(r"(\d+) (passed|failed|errors?)", text)}
    return {"exit": code, "passed": counts.get("passed", 0), "failed": counts.get("failed", 0),
            "errors": counts.get("error", 0) + counts.get("errors", 0), "wall_s": wall}


def cli_experiments() -> list:
    """The CLI's experiment names, or None if the CLI cannot list them."""
    code, _, _, text = run_child([sys.executable, "-c",
                                  "from dualcat.cli import EXPERIMENTS; print(*EXPERIMENTS)"])
    return None if code else text.split()


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1 or argv[0].startswith("-"):
        print(f"usage: {Path(__file__).name} OUTPUT.json", file=sys.stderr)
        return 2
    output = Path(argv[0])
    names = cli_experiments()
    if names is None:
        print("bench_record: cannot list the CLI experiments", file=sys.stderr)
        return 1
    with tempfile.TemporaryDirectory() as tmp:
        scratch = Path(tmp)
        cli, provenance = record_cli(names, REPEATS, scratch)
        ladder = record_ladder(LADDER, REPEATS, scratch)
    bench, bench_env = record_bench(WORKLOADS, SECONDS)
    record = {
        "environment": {
            "python": provenance.get("python"), "numpy": provenance.get("numpy"),
            "openblas": provenance.get("openblas"),
            "engine_blas_threads": provenance.get("engine_blas_threads"),
            "scipy": bench_env.get("scipy"), "blas_loaded": bench_env.get("blas"),
            "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count(),
            "thread_env": {k: os.environ.get(k) for k in
                           ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        },
        "cli": cli,
        "ladder": ladder,
        "bench": bench,
        "lines": record_lines(),
        "tier1": record_tier1() if TIER1 else None,
    }
    output.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(f"wrote {output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
