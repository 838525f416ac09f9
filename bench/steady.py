"""Steadiness of the benchmark: run workloads back to back, one fresh
process per run, and summarize each metric.

    python3 bench/steady.py --workload cli-small --runs 10 --first-seed 100

For each metric it prints the median, the quartiles (``statistics.quantiles``
with n=4), the quartile spread (q3 - q1)/median and the range
(max - min)/median, and for end-to-end metrics the bound from
``BENCHMARK.json`` with the quartile spread as a share of it.  It also
checks that every run was correct and that the share of failed operations
is the same in every run.  The raw results go to ``bench/results/``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path
from statistics import median, quantiles

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr.strip()}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["environment"] = json.loads(lines[-2]).get("environment") if len(lines) > 1 else None
    return result


def summarize(results: list, bounds: dict) -> list:
    rows = []
    for name, entry in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        med = median(values)
        q1, _, q3 = quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        iqr = (q3 - q1) / med if med else float("nan")
        span = (max(values) - min(values)) / med if med else float("nan")
        bound = bounds.get(name)
        rows.append({"metric": name, "unit": entry["unit"], "median": med, "q1": q1, "q3": q3,
                     "iqr_share": iqr, "range_share": span, "bound": bound,
                     "iqr_of_bound": iqr / bound if bound else None})
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", required=True,
                        help="repeat to run several workloads, one after the other")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    out_dir = BENCH / "results"
    out_dir.mkdir(exist_ok=True)
    ok = True
    for workload in args.workload:
        results = [run_once(workload, args.first_seed + i, seconds, args.trace)
                   for i in range(args.runs)]
        shares = {r["failed"] / r["attempted"] for r in results}
        correct = all(r["correct"] for r in results)
        ok = ok and correct and len(shares) == 1
        print(f"{workload}: {args.runs} runs, seeds {args.first_seed}..{args.first_seed + args.runs - 1}, "
              f"{seconds} s, trace {args.trace}, correct {correct}, failed shares {sorted(shares)}")
        print(f"  {'metric':44s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'iqr/med':>8s} "
              f"{'rng/med':>8s} {'bound':>6s} {'iqr/bnd':>7s}")
        rows = summarize(results, {} if args.trace else bounds)
        for r in rows:
            bound = f"{r['bound']:6.3f}" if r["bound"] else "     -"
            share = f"{r['iqr_of_bound']:7.3f}" if r["iqr_of_bound"] is not None else "      -"
            print(f"  {r['metric']:44s} {r['median']:12.6g} {r['q1']:12.6g} {r['q3']:12.6g} "
                  f"{r['iqr_share']:8.4f} {r['range_share']:8.4f} {bound} {share}")
        stamp = time.strftime("%Y%m%dT%H%M%S")
        (out_dir / f"{workload}-trace{args.trace}-{stamp}.json").write_text(
            json.dumps({"workload": workload, "seconds": seconds, "trace": args.trace,
                        "first_seed": args.first_seed, "runs": results, "summary": rows}, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
