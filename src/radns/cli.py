"""Command-line entry point with bit-stable CSV/JSON emission.

Exit codes: 0 pass, 1 experiment FAIL verdict, 2 configuration error,
3 solver abort or non-finite output.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import sys
import warnings

import numpy as np

from .besov import BesovSpec, pair_besov_norm
from .config import RunConfig, load_config
from .decay import (
    DecaySeries,
    fit_decay_exponent,
    run_kernel_lower_probe,
    run_linear_decay,
    run_lower_bound,
    run_nonlinear_decay,
    run_weighted_decay,
)
from .errors import ConfigurationError, FitError, RadnsError, SolverAbort
from .solver import CSV_COLUMNS, initial_data_gaussian, simulate
from .spectral import make_grid, physical_values, to_spectral

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2
EXIT_ABORT = 3


def _fmt(value: float) -> str:
    """17-significant-digit decimal rendering; round trips every double."""
    return format(float(value), ".17g")


def write_csv(path: str, rows) -> None:
    for row in rows:
        if not all(math.isfinite(v) for v in row.as_tuple()):
            raise SolverAbort("refusing to write non-finite diagnostics", time=row.t)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row.as_tuple()) + "\n")


def write_json(path: str, payload: dict) -> None:
    def default(obj):
        if isinstance(obj, (np.floating, np.integer)):
            return obj.item()
        if isinstance(obj, np.ndarray):
            return obj.tolist()
        raise TypeError(f"not serialisable: {type(obj)}")

    with open(path, "w", encoding="utf-8", newline="") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=default)
        fh.write("\n")


def _emit(args, text: str) -> None:
    if not args.quiet:
        print(text)


def _load(args) -> RunConfig:
    if args.config is None:
        return RunConfig()
    config = load_config(args.config)
    if not config.ok:
        raise ConfigurationError("; ".join(config.errors))
    return config


def _outdir(args) -> str:
    os.makedirs(args.out, exist_ok=True)
    return args.out


def _report_exit(args, report, out_name: str) -> int:
    out = _outdir(args)
    write_json(os.path.join(out, out_name), report.as_dict())
    if report.rows:
        write_csv(os.path.join(out, report.name + ".csv"), report.rows)
    for entry in report.entries:
        _emit(args, f"[{entry.verdict}] {entry.label}"
              + (f": fitted {entry.fitted_exponent:.4f} vs target "
                 f"{entry.target_exponent:.4f} (r2={entry.r2:.5f})"
                 if entry.fitted_exponent is not None
                 and entry.target_exponent is not None else ""))
    return EXIT_PASS if report.passed else EXIT_FAIL


def cmd_grid_check(args) -> int:
    config = _load(args)
    grid = make_grid(config.get("N"), config.get("R"))
    rng = np.random.default_rng(0)
    samples = rng.standard_normal(grid.n_modes)
    hat = to_spectral(grid, samples)
    back = physical_values(grid, hat)
    inv_err = float(np.max(np.abs(back - samples)) / np.max(np.abs(samples)))
    phys = grid.dr * np.sum(grid.r ** 2 * samples ** 2)
    spect = grid.drho * np.sum(grid.rho ** 2 * hat ** 2)
    par_err = abs(phys - spect) / phys
    dual_err = abs(grid.dr * grid.drho - math.pi / (grid.n_modes + 1))
    ok = inv_err <= 1e-12 and par_err <= 1e-10 and dual_err <= 1e-15
    payload = {"experiment": "grid-check", "passed": bool(ok),
               "involution_rel_err": inv_err, "parseval_rel_err": par_err,
               "duality_abs_err": dual_err,
               "n_modes": grid.n_modes, "outer_radius": grid.outer_radius}
    write_json(os.path.join(_outdir(args), "grid_check.json"), payload)
    _emit(args, f"[{'PASS' if ok else 'FAIL'}] grid-check: involution {inv_err:.2e}, "
          f"parseval {par_err:.2e}")
    return EXIT_PASS if ok else EXIT_FAIL


def cmd_linear_decay(args) -> int:
    config = _load(args)
    solver = config.solver_config()
    window = (config.get("fit_t_lo"), config.get("fit_t_hi"))
    report = run_linear_decay(solver, config.get("p_list"), window=window)
    return _report_exit(args, report, "linear_decay.json")


def cmd_simulate(args) -> int:
    config = _load(args)
    solver = config.solver_config()
    rows, _ = simulate(solver)
    write_csv(os.path.join(_outdir(args), "diagnostics.csv"), rows)
    _emit(args, f"simulated to t = {rows[-1].t:g} ({len(rows)} output rows)")
    return EXIT_PASS


def cmd_nonlinear_decay(args) -> int:
    config = _load(args)
    solver = config.solver_config()
    window = (config.get("fit_t_lo"), config.get("fit_t_hi"))
    report = run_nonlinear_decay(solver, config.get("p_list"), window=window)
    return _report_exit(args, report, "nonlinear_decay.json")


def cmd_lower_bound(args) -> int:
    config = _load(args)
    report = run_lower_bound(config.solver_config())
    return _report_exit(args, report, "lower_bound.json")


def cmd_weighted_decay(args) -> int:
    config = _load(args)
    report = run_weighted_decay(config.solver_config())
    return _report_exit(args, report, "weighted_decay.json")


def cmd_kernel_probe(args) -> int:
    config = _load(args)
    report = run_kernel_lower_probe(tuple(config.get("t_list")))
    return _report_exit(args, report, "kernel_probe.json")


def cmd_besov_norm(args) -> int:
    config = _load(args)
    grid = make_grid(config.get("N"), config.get("R"))
    a0 = to_spectral(grid, initial_data_gaussian(config.get("c"), config.get("w"), grid))
    spec = BesovSpec(config.get("s"), config.get("p"), config.get("q"),
                     band=config.get("band"),
                     j0=config.get("j0") if config.get("band") != "full" else None)
    value = pair_besov_norm(grid, a0, spec)
    if not math.isfinite(value):
        raise SolverAbort("non-finite Besov norm", time=0.0)
    payload = {"experiment": "besov-norm", "value": value,
               "s": spec.s, "p": spec.p, "q": spec.q,
               "band": spec.band, "j0": spec.j0}
    write_json(os.path.join(_outdir(args), "besov_norm.json"), payload)
    _emit(args, f"besov norm = {_fmt(value)}")
    return EXIT_PASS


def cmd_fit(args) -> int:
    config = _load(args)
    if not config.has("csv"):
        raise ConfigurationError("fit needs a `csv = PATH` key in the config")
    path = config.get("csv")
    column = config.get("column") if config.has("column") else "l2_av"
    if column not in CSV_COLUMNS[1:]:
        raise ConfigurationError(f"unknown column {column!r}")
    try:
        with warnings.catch_warnings():   # an empty file warns, then raises IndexError
            warnings.simplefilter("ignore", UserWarning)
            # a one-row file parses to a 0-d record; keep it a (short) series
            data = np.atleast_1d(np.genfromtxt(path, delimiter=",", names=True))
    except OSError as exc:
        raise ConfigurationError(f"cannot read csv {path}: {exc}") from exc
    except IndexError as exc:
        raise ConfigurationError(f"csv {path} is empty") from exc
    except ValueError as exc:           # a ragged row
        raise ConfigurationError(f"cannot parse csv {path}: {' '.join(str(exc).split())}"
                                 ) from exc
    if not {"t", column} <= set(data.dtype.names or ()):
        raise ConfigurationError(f"csv {path} needs `t` and `{column}` columns")
    series = DecaySeries.from_samples(data["t"], data[column])
    window = (config.get("fit_t_lo"), config.get("fit_t_hi"))
    fit = fit_decay_exponent(series, window)
    verdict = "REPORT"
    if config.has("target"):
        tol = config.get("fit_tol")
        verdict = "PASS" if abs(fit.slope - config.get("target")) <= tol else "FAIL"
    payload = {"experiment": "fit", "column": column,
               "fitted_exponent": fit.slope, "intercept": fit.intercept,
               "r2": fit.r_squared, "window": list(fit.window),
               "dropped": fit.dropped, "verdict": verdict}
    if config.has("target"):
        payload["target_exponent"] = config.get("target")
    write_json(os.path.join(_outdir(args), "fit.json"), payload)
    _emit(args, f"[{verdict}] fit {column}: slope {fit.slope:.4f} (r2={fit.r_squared:.5f})")
    return EXIT_FAIL if verdict == "FAIL" else EXIT_PASS


_HANDLERS = {
    "grid-check": cmd_grid_check,
    "linear-decay": cmd_linear_decay,
    "simulate": cmd_simulate,
    "nonlinear-decay": cmd_nonlinear_decay,
    "lower-bound": cmd_lower_bound,
    "weighted-decay": cmd_weighted_decay,
    "kernel-probe": cmd_kernel_probe,
    "besov-norm": cmd_besov_norm,
    "fit": cmd_fit,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="radns",
        description="Radial compressible-flow acoustics laboratory")
    sub = parser.add_subparsers(dest="command")
    for name in _HANDLERS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", default=None, help="key = value config file")
        cmd.add_argument("--out", default=".", help="output directory")
        cmd.add_argument("--quiet", action="store_true")
    return parser


def _stable_heap() -> None:
    """Keep freed temporaries in the heap for reuse (glibc only; else nothing).

    By default glibc trims the heap whenever twice its dynamic mmap threshold
    lies free at the top, so the 64-256 KiB arrays freed on every solver and
    Besov operation go back to the kernel and fault in again (~290k minor
    faults per linear-decay run).  Setting either threshold alone would freeze
    the mmap threshold at 128 KiB and mmap every N = 16384 array, so both are
    set.  Outputs do not depend on this.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):   # not glibc, or no C library handle
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(-3, 64 << 20)       # M_MMAP_THRESHOLD
    mallopt(-1, 256 << 20)      # M_TRIM_THRESHOLD


def command_dispatch(argv) -> int:
    _stable_heap()
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit:
        print(parser.format_usage(), file=sys.stderr)
        return EXIT_CONFIG
    if args.command is None or args.command not in _HANDLERS:
        print(parser.format_usage(), file=sys.stderr)
        return EXIT_CONFIG
    try:
        return _HANDLERS[args.command](args)
    except SolverAbort as exc:
        print(f"solver abort at t = {exc.time:g}: {exc}"
              + (f" (mode {exc.mode_index})" if exc.mode_index is not None else ""),
              file=sys.stderr)
        return EXIT_ABORT
    except (ConfigurationError, FitError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except RadnsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def main() -> None:
    sys.exit(command_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
