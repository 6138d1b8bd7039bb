"""The declared runtime dependencies are enough: numpy alone runs the CLI.

scipy is a test dependency only (quadrature, expm and minimisation oracles).
A fresh interpreter with scipy blocked in `sys.modules` imports `radns.cli`
and runs each kind of command on a tiny config; every command must exit 0
and no scipy module may be loaded.  This module imports only the standard
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
from radns.cli import command_dispatch

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
    "fit": config("fit.cfg", "csv = " + os.path.join(out, "simulate", "diagnostics.csv")
                  + "\nfit_t_lo = 1\nfit_t_hi = 4\n"),
    "kernel-probe": config("probe.cfg", "t_list = 16\n"),
}
codes = {command: command_dispatch([command, "--config", cfg, "--quiet",
                                    "--out", os.path.join(out, command)])
         for command, cfg in calls.items()}
loaded = sorted(name for name, module in sys.modules.items()
                if name.split(".")[0] == "scipy" and module is not None)
print(json.dumps({"codes": codes, "scipy_modules": loaded}))
"""


def test_cli_runs_without_scipy(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", SCRIPT, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["codes"] == {"grid-check": 0, "simulate": 0, "weighted-decay": 0,
                               "besov-norm": 0, "fit": 0, "kernel-probe": 0}
    assert result["scipy_modules"] == []
