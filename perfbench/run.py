"""radns benchmark: drive the shipped CLI in a closed loop and check every result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the program is imported from ``src/`` next to this
directory, and everything a run writes goes to ``.bench_out/`` there.

One client calls ``radns.cli.command_dispatch`` once per call, each call in
a fresh interpreter, the next starting when the previous one has ended, for
``--seconds`` seconds and at least three calls.  The seed draws the inputs
(amplitude c, width w, probe times); seed 0 gives the reference inputs.
Every call's artifacts are checked (see ``checks.py``); a call fails on a
non-zero exit or a failed check.

``--trace 0`` prints the end-to-end metrics as the medians over the calls.
``--trace 1`` alternates traced and untraced calls and prints the per-layer
metrics (medians over the traced calls) and the tracing overhead; traced
calls must write byte-identical artifacts and repeat every count exactly.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; ``metrics`` holds the
ones ``BENCHMARK.json`` declares, and the lines above it print all of them.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import checks
from tracing import SPANS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

MIN_CALLS = 3
SETUP_SAMPLES = 5
CALL_TIMEOUT_S = 150.0
THREADS = "1"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# Reference inputs per workload; the smoke sizes only exercise the harness.
WORKLOADS = {
    "nonlinear_step": {
        "command": "simulate",
        "grid": {"N": 8191, "R": 1100.0, "dt": 0.05, "T": 20.0, "output_interval": 2.0},
        "smoke": {"N": 255, "R": 60.0, "dt": 0.05, "T": 1.0, "output_interval": 0.5},
        "artifacts": ["diagnostics.csv"],
    },
    "linear_decay": {
        "command": "linear-decay",
        "grid": {"N": 16384, "R": 500.0, "T": 140.0, "output_interval": 2.0},
        "smoke": {"N": 2047, "R": 500.0, "T": 140.0, "output_interval": 2.0},
        "artifacts": ["linear-decay.csv", "linear_decay.json"],
    },
    "kernel_probe": {
        "command": "kernel-probe",
        "t_ref": [16.0, 64.0, 256.0],
        "smoke_t_ref": [64.0],
        "artifacts": ["kernel_probe.json"],
    },
}

E2E_METRICS = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}


def layer_metric_units():
    units = {}
    for span in SPANS:
        units[f"{span}_s"] = "s"
        units[f"{span}_self_s"] = "s"
        units[f"{span}_calls"] = "count"
    units.update({
        "spectral.transform_s": "s",
        "spectral.transforms": "count",
        "spectral.transform_bytes_computed": "B",
        "spectral.transforms_per_step": "count/step",
        "spectral.transforms_per_row": "count/row",
        "semigroup.probe_quadrature_points": "count",
        "semigroup.probe_unconverged": "count",
        "semigroup.probe_at_max_nodes": "count",
        "trace.overhead_s": "s",
    })
    return units


def make_inputs(name, seed, smoke):
    """Workload inputs drawn from the seed; seed 0 is the reference set."""
    spec = WORKLOADS[name]
    rng = random.Random(seed)
    if "t_ref" in spec:
        t_ref = spec["smoke_t_ref" if smoke else "t_ref"]
        scale = [1.0] * len(t_ref) if seed == 0 else [rng.uniform(0.9, 1.1) for _ in t_ref]
        return {"t_list": [t * s for t, s in zip(t_ref, scale)]}
    inputs = dict(spec["smoke" if smoke else "grid"])
    if seed == 0:
        inputs.update(c=0.01, w=1.0)
    else:
        inputs.update(c=rng.uniform(0.008, 0.012), w=rng.uniform(0.9, 1.1))
    return inputs


def work_units(inputs):
    if "t_list" in inputs:
        return {"probe_times": len(inputs["t_list"])}
    rows = int(round(inputs["T"] / inputs["output_interval"])) + 1
    if "dt" in inputs:
        return {"steps": int(round(inputs["T"] / inputs["dt"])), "rows": rows}
    return {"rows": rows}


def config_text(inputs):
    lines = []
    for key, value in inputs.items():
        text = " ".join(repr(v) for v in value) if isinstance(value, list) else repr(value)
        lines.append(f"{key} = {text}")
    return "\n".join(lines) + "\n"


def environment():
    def getconf(key):
        try:
            out = subprocess.run(["getconf", key], capture_output=True, text=True, timeout=10)
            return int(out.stdout.strip())
        except (OSError, ValueError, subprocess.SubprocessError):
            return None

    l2, l3 = getconf("LEVEL2_CACHE_SIZE"), getconf("LEVEL3_CACHE_SIZE")
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "l2_bytes": l2,
        "l3_bytes": l3,
        "threads": {var: THREADS for var in THREAD_VARS},
    }


def working_set(inputs, env):
    """Computed (not measured) working sets against the cache sizes."""
    if "t_list" in inputs:
        # complex128 tensor of the finest refinement, max_nodes = 256
        size, what = 16 * 256 ** 3, "probe quadrature tensor (256^3 complex128)"
    else:
        size, what = 8 * inputs["N"], f"one float64 grid array (N = {inputs['N']})"
    l2, l3 = env["l2_bytes"], env["l3_bytes"]
    if l2 is None or l3 is None:
        kind = "unknown (no cache sizes)"
    elif size <= l2:
        kind = "cache-resident (fits L2)"
    elif size > l3:
        kind = "memory-bound (exceeds L3)"
    else:
        kind = "L3-resident"
    return {"array": what, "bytes": size, "class": kind}


class Client:
    """Runs worker processes one after another and keeps their results."""

    def __init__(self, out_dir, deadline):
        self.out_dir = out_dir
        self.deadline = deadline
        self.env = dict(os.environ, **{var: THREADS for var in THREAD_VARS})
        self.count = 0

    def spawn(self, cli_args=None, trace=False):
        self.count += 1
        tag = f"w{self.count:03d}"
        result = self.out_dir / f"{tag}.result.json"
        cmd = [sys.executable, str(HERE / "worker.py"), str(SRC), str(result)]
        if trace:
            cmd += ["--trace", str(self.out_dir / f"{tag}.trace.json")]
        if cli_args:
            cmd += ["--"] + cli_args
        timeout = max(1.0, min(CALL_TIMEOUT_S, self.deadline - time.monotonic()))
        with open(self.out_dir / f"{tag}.log", "wb") as log:
            try:
                proc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                      env=self.env, cwd=ROOT, timeout=timeout)
            except subprocess.TimeoutExpired:
                return None, f"{tag} timed out after {timeout:.0f} s"
        if proc.returncode != 0 or not result.is_file():
            tail = (self.out_dir / f"{tag}.log").read_text(errors="replace")[-400:]
            return None, f"{tag} exited {proc.returncode}: {tail.strip()}"
        return json.loads(result.read_text()), None


def run(args):
    if not (SRC / "radns" / "cli.py").is_file():
        raise SystemExit(f"error: no radns sources at {SRC}")
    spec = WORKLOADS[args.workload]
    started = time.monotonic()
    out_dir = OUT / args.workload
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)

    inputs = make_inputs(args.workload, args.seed, args.smoke)
    config = out_dir / "run.cfg"
    config.write_text(config_text(inputs), encoding="utf-8")
    reference = args.seed == 0 and not args.smoke
    env = environment()
    client = Client(out_dir, started + 170.0)

    # warm-up: the first import writes bytecode caches a user pays for once
    warm, err = client.spawn()
    if warm is None:
        raise SystemExit(f"error: cannot import radns.cli: {err}")
    setup = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES):
            sample, err = client.spawn()
            if sample is None:
                raise SystemExit(f"error: set-up failed: {err}")
            setup.append(sample["setup_s"])

    calls = []
    loop_start = time.monotonic()
    while ((len(calls) < MIN_CALLS or time.monotonic() - loop_start < args.seconds)
           and time.monotonic() < client.deadline):
        k = len(calls)
        traced = bool(args.trace) and k % 2 == 0
        call_dir = out_dir / f"call{k}"
        cli_args = [spec["command"], "--config", str(config), "--out", str(call_dir), "--quiet"]
        result, err = client.spawn(cli_args, trace=traced)
        call = {"traced": traced, "dir": call_dir, "result": result, "error": err}
        if result is not None and err is None:
            try:
                call["max_rel_err"] = checks.check_call(spec, call_dir, result["exit_code"],
                                                        inputs, reference)
            except checks.CheckFailed as exc:
                call["error"] = str(exc)
            except (OSError, ValueError, KeyError) as exc:
                call["error"] = f"unreadable artifacts: {exc}"
        calls.append(call)

    if args.trace:
        metrics, units = layer_metrics(calls, spec)
    else:
        metrics, units = e2e_metrics(calls, setup)
    report(args, inputs, reference, env, working_set(inputs, env), calls,
           metrics, units, out_dir)


def e2e_metrics(calls, setup):
    timed = [c["result"] for c in calls if c["result"] is not None]
    if not timed:
        raise SystemExit("error: no call finished")
    metrics = {
        "run_s": statistics.median(r["run_s"] for r in timed),
        "setup_s": statistics.median(setup + [r["setup_s"] for r in timed]),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in timed),
    }
    return metrics, E2E_METRICS


def layer_metrics(calls, spec):
    """Medians of the traced calls' layer times; counts must repeat exactly."""
    untraced = [c for c in calls if not c["traced"] and c["result"] is not None]
    traced = [c for c in calls if c["traced"] and c["result"] is not None]
    if not traced or not untraced:
        raise SystemExit("error: need a finished traced and untraced call")
    base = untraced[0]
    first = traced[0]["result"]["layers"]
    counts = {k: v for k, v in first.items() if not k.endswith("_s")}
    for call in traced:
        if call["error"] is not None:
            continue
        layers = call["result"]["layers"]
        changed = [k for k in counts if layers[k] != counts[k]]
        if changed:
            call["error"] = f"counts differ between traced calls: {changed}"
            continue
        if base["error"] is None:
            differ = checks.differing_artifacts(call["dir"], base["dir"], spec["artifacts"])
            if differ:
                call["error"] = f"traced artifacts differ from untraced: {differ}"

    units = layer_metric_units()
    metrics = {}
    for key in units:
        if key == "trace.overhead_s":
            continue
        if key in counts:
            metrics[key] = counts[key]
        else:
            metrics[key] = statistics.median(c["result"]["layers"][key] for c in traced)
    metrics["trace.overhead_s"] = (statistics.median(c["result"]["run_s"] for c in traced)
                                   - statistics.median(c["result"]["run_s"] for c in untraced))
    return metrics, units


def declared_metrics(trace):
    """Names `BENCHMARK.json` lists for the result line of this mode."""
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [m["name"] for m in benchmark["per_layer" if trace else "end_to_end"]]


def report(args, inputs, reference, env, sets, calls, metrics, units, out_dir):
    failed = [c for c in calls if c["error"] is not None]
    errs = [c["max_rel_err"] for c in calls if "max_rel_err" in c]
    timed = [c["result"]["run_s"] for c in calls
             if c["result"] is not None and not c["traced"]]
    work = work_units(inputs)
    checks_line = {
        "max_rel_err": max(errs) if errs else None,
        "reference_compared": reference,
        "failed_frac": len(failed) / len(calls),
        "attempted": len(calls),
        "failed": len(failed),
    }
    derived = {}
    if timed:
        run_s = statistics.median(timed)
        for unit, n in work.items():
            derived[f"{unit}_per_s"] = n / run_s

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(calls)} calls, inputs {json.dumps(inputs)}")
    print("env " + json.dumps(env, sort_keys=True))
    print("working set " + json.dumps(sets))
    print("work per call " + json.dumps(work))
    for call in failed:
        print(f"FAILED call: {call['error']}")
    print("checks " + json.dumps(checks_line))
    for key, value in derived.items():
        print(f"  {key:<40} {value:.6g} 1/s")
    for key, value in metrics.items():
        print(f"  {key:<40} {value:.6g} {units[key]}")

    details = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "inputs": inputs, "env": env, "working_set": sets, "work": work,
        "checks": checks_line, "derived": derived, "metrics": metrics,
        "calls": [{"traced": c["traced"], "error": c["error"],
                   "max_rel_err": c.get("max_rel_err"),
                   "result": {k: v for k, v in (c["result"] or {}).items() if k != "layers"}}
                  for c in calls],
    }
    (out_dir / "result.json").write_text(json.dumps(details, indent=1, sort_keys=True))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(calls),
        "failed": len(failed),
        "metrics": {k: {"value": metrics[k], "unit": units[k]}
                    for k in declared_metrics(args.trace)},
    }))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny grids that exercise the harness, not the program")
    run(parser.parse_args(argv))


if __name__ == "__main__":
    main()
