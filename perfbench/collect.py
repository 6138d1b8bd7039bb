"""Repeat the benchmark over seeds and summarise each metric's spread.

    python3 perfbench/collect.py --workloads nonlinear_step linear_decay \\
        --seeds 1-10 --seconds 25 [--trace] [--out perfbench/baseline/BENCH_1.json]

For every workload and metric (all that ``run.py`` computes, including the
throughputs and the layer times left off the result line) it prints the
median of the per-run values, their quartiles
(``statistics.quantiles(values, n=4)``) and the spread (q3 - q1) / median.
``--out`` writes the same summary, the bounds from ``BENCHMARK.json`` and
the environment of the last run as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def one_run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(int(trace))]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=900, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    details = json.loads((HERE.parent / ".bench_out" / workload / "result.json").read_text())
    return result, details


def summarise(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None, "n": len(values)}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in BENCHMARK["workloads"]])
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--seconds", type=float, default=BENCHMARK["run_seconds"])
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    summary = {}
    env = None
    for workload in args.workloads:
        runs = {}
        failed = attempted = 0
        for seed in args.seeds:
            result, details = one_run(workload, seed, args.seconds, args.trace)
            env = details["env"]
            attempted += result["attempted"]
            failed += result["failed"]
            # every computed metric, not only those on the result line
            for name, value in {**details["metrics"], **details["derived"]}.items():
                runs.setdefault(name, []).append(value)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  + " ".join(f"{k}={v[-1]:.6g}" for k, v in runs.items() if k in bounds),
                  flush=True)
        summary[workload] = {"attempted": attempted, "failed": failed, "metrics": {}}
        for name, values in runs.items():
            stats = summarise(values)
            summary[workload]["metrics"][name] = stats
            if name in bounds or args.trace:
                spread = stats["spread"]
                flag = ""
                if name in bounds and spread is not None:
                    flag = "ok" if spread < bounds[name] / 3 else "WIDE"
                print(f"  {workload:<15} {name:<40} median {stats['median']:.6g} "
                      f"spread {spread if spread is None else round(spread, 4)} {flag}")
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps({
            "seeds": args.seeds, "seconds": args.seconds, "trace": args.trace,
            "bounds": bounds, "env": env, "workloads": summary}, indent=1) + "\n")


if __name__ == "__main__":
    main()
