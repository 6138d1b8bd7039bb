"""Output checks for one benchmark call.

Every call is checked by closed forms that need no stored data: the exit
code (a PASS verdict where the command has one), the CSV schema, row count
and time stamps, finiteness, and the row-0 oracle

    l2_av(0) = c (pi w^2 / 2)^(3/4),

the 3D L^2 norm of c exp(-(r/w)^2).  For the reference inputs (seed 0) the
artifacts are also compared with the copies in ``reference/``, generated by
the program and accepted at a relative error of at most 1e-9.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
REFERENCE_RTOL = 1e-9
ORACLE_RTOL = 1e-12

CSV_HEADER = "t,l2_av,linf_av,besov0_21,besov0_inf1,nl_l2,nl_besov_inf1,weighted_sup"


class CheckFailed(Exception):
    pass


def _require(ok, message):
    if not ok:
        raise CheckFailed(message)


def read_csv(path):
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    _require(lines and lines[0] == CSV_HEADER, f"{path.name}: unexpected header")
    return [[float(x) for x in line.split(",")] for line in lines[1:]]


def _rel(value, ref, floor):
    return abs(value - ref) / max(abs(ref), floor)


def _compare_rows(rows, ref_rows, name):
    _require(len(rows) == len(ref_rows), f"{name}: {len(rows)} rows, reference {len(ref_rows)}")
    worst = 0.0
    for col in range(len(ref_rows[0])):
        # a column that starts at exactly 0 (the nonlinear part) is scaled by its peak
        floor = 1e-12 * max(abs(r[col]) for r in ref_rows)
        for row, ref in zip(rows, ref_rows):
            worst = max(worst, _rel(row[col], ref[col], max(floor, 1e-300)))
    return worst


def _compare_json(value, ref, where="$"):
    if isinstance(ref, dict):
        _require(isinstance(value, dict) and value.keys() == ref.keys(), f"{where}: keys differ")
        return max([_compare_json(value[k], ref[k], f"{where}.{k}") for k in ref], default=0.0)
    if isinstance(ref, list):
        _require(isinstance(value, list) and len(value) == len(ref), f"{where}: length differs")
        return max([_compare_json(v, r, f"{where}[{i}]")
                    for i, (v, r) in enumerate(zip(value, ref))], default=0.0)
    if isinstance(ref, (int, float)) and not isinstance(ref, bool):
        _require(isinstance(value, (int, float)) and not isinstance(value, bool),
                 f"{where}: not a number")
        return _rel(value, ref, 1e-300)
    _require(value == ref, f"{where}: {value!r} != {ref!r}")
    return 0.0


def _check_rows(rows, inputs, name):
    """Closed-form checks on a diagnostics CSV; returns the oracle error."""
    n_out = int(round(inputs["T"] / inputs["output_interval"]))
    _require(len(rows) == n_out + 1, f"{name}: {len(rows)} rows, expected {n_out + 1}")
    for k, row in enumerate(rows):
        _require(math.isclose(row[0], k * inputs["output_interval"], rel_tol=1e-12),
                 f"{name}: row {k} has t = {row[0]}")
        _require(all(math.isfinite(x) and x >= 0 for x in row[1:]),
                 f"{name}: row {k} has a negative or non-finite norm")
    c, w = inputs["c"], inputs["w"]
    exact = c * (math.pi * w * w / 2.0) ** 0.75
    err = _rel(rows[0][1], exact, 1e-300)
    _require(err <= ORACLE_RTOL, f"{name}: row-0 l2_av off the closed form by {err:.3g}")
    return err


def check_call(workload, out_dir, exit_code, inputs, reference):
    """Raise CheckFailed on a wrong result; return the worst relative error."""
    out_dir = Path(out_dir)
    _require(exit_code == 0, f"exit code {exit_code}")
    worst = 0.0
    for name in workload["artifacts"]:
        path = out_dir / name
        _require(path.is_file(), f"missing {name}")
        if name.endswith(".csv"):
            rows = read_csv(path)
            worst = max(worst, _check_rows(rows, inputs, name))
            if reference:
                worst = max(worst, _compare_rows(rows, read_csv(REFERENCE_DIR / name), name))
        else:
            payload = json.loads(path.read_text(encoding="utf-8"))
            _require(payload.get("passed") is True, f"{name}: verdict is not PASS")
            if "t_list" in inputs:
                times = [d["t"] for d in payload["entries"][0]["per_time"]]
                _require(times == inputs["t_list"], f"{name}: probe times {times}")
            if reference:
                ref = json.loads((REFERENCE_DIR / name).read_text(encoding="utf-8"))
                worst = max(worst, _compare_json(payload, ref))
    _require(worst <= REFERENCE_RTOL, f"relative error {worst:.3g} above {REFERENCE_RTOL}")
    return worst


def differing_artifacts(dir_a, dir_b, names):
    """Names of the artifacts whose bytes differ between two output directories."""
    return [n for n in names
            if (Path(dir_a) / n).read_bytes() != (Path(dir_b) / n).read_bytes()]
