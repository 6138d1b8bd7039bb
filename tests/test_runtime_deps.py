"""The declared runtime dependencies are enough: numpy alone runs the CLI.

scipy is a test dependency only (quadrature, expm and minimisation oracles).
A fresh interpreter with scipy blocked in `sys.modules` imports `radns.cli`
and runs each kind of command on a tiny config, and `besov-norm` once more
on N = 1183, where the wide blocks take the band-pruned DST; every command
must exit 0, the band-pruned path and (in `kernel-probe`'s frame) the
chirp-z path must run, and no scipy module may be loaded.  A second fresh
interpreter checks that importing `radns.cli` holds BLAS and OpenMP at one
thread unless the user set a count.  This module imports only the standard
library, so it also runs where scipy is not installed.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = r"""
import json, os, sys
sys.modules["scipy"] = None          # any `import scipy...` now raises ImportError
import radns.spectral
from radns.cli import command_dispatch

path_calls = {"band": 0, "chirp": 0}
for path in path_calls:
    def counting(*args, path=path, fn=getattr(radns.spectral, f"_{path}_dst")):
        path_calls[path] += 1
        return fn(*args)
    setattr(radns.spectral, f"_{path}_dst", counting)

out = sys.argv[1]
def config(name, text):
    path = os.path.join(out, name)
    with open(path, "w") as fh:
        fh.write(text)
    return path

run = "N = 255\nR = 60\ndt = 0.1\nT = 4\n"
calls = {
    "grid-check": config("grid.cfg", "N = 255\nR = 30\n"),
    "simulate": config("run.cfg", run),
    "weighted-decay": config("weighted.cfg", run + "linear_only = true\n"),
    "besov-norm": config("besov.cfg", "N = 255\nR = 30\ns = 0\np = inf\nq = 1\n"),
    # 2(N+1) = 2368 = 2^6 37: the wide blocks take the band-pruned DST
    "besov-norm-band": config("band.cfg", "N = 1183\nR = 30\ns = 0\np = inf\nq = 1\n"),
    "fit": config("fit.cfg", "csv = " + os.path.join(out, "simulate", "diagnostics.csv")
                  + "\nfit_t_lo = 1\nfit_t_hi = 4\n"),
    "kernel-probe": config("probe.cfg", "t_list = 16\n"),
}
codes = {command: command_dispatch([command.removesuffix("-band"), "--config", cfg,
                                    "--quiet", "--out", os.path.join(out, command)])
         for command, cfg in calls.items()}
loaded = sorted(name for name, module in sys.modules.items()
                if name.split(".")[0] == "scipy" and module is not None)
print(json.dumps({"codes": codes, "scipy_modules": loaded, "path_calls": path_calls}))
"""


def test_cli_runs_without_scipy(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", SCRIPT, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["codes"] == {"grid-check": 0, "simulate": 0, "weighted-decay": 0,
                               "besov-norm": 0, "besov-norm-band": 0, "fit": 0,
                               "kernel-probe": 0}
    assert result["scipy_modules"] == []
    assert result["path_calls"]["band"] > 0 and result["path_calls"]["chirp"] > 0


THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

THREAD_SCRIPT = r"""
import json, os, sys
import radns.cli
print(json.dumps({name: os.environ.get(name) for name in sys.argv[1:]}))
"""


def thread_settings(overrides):
    """The thread variables a fresh interpreter sees after importing
    radns.cli, from an environment without them plus `overrides`."""
    env = {name: value for name, value in os.environ.items() if name not in THREAD_VARIABLES}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.update(overrides)
    proc = subprocess.run([sys.executable, "-c", THREAD_SCRIPT, *THREAD_VARIABLES], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_cli_holds_blas_and_openmp_at_one_thread():
    """radns.cli sets each thread count to 1 before numpy starts its pools,
    and a count the user set wins."""
    assert thread_settings({}) == dict.fromkeys(THREAD_VARIABLES, "1")
    assert thread_settings({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "3"}) == {
        "OMP_NUM_THREADS": "3", "OPENBLAS_NUM_THREADS": "2", "MKL_NUM_THREADS": "1"}
