"""Experiment drivers: norm time-series, log-log exponent fits, and the
pass/fail comparisons against the sharp decay rates.

The curl-free linear flow decays in L^p at the rate t^(-sigma(p)) with

    sigma(p) = (3/2)(1 - 1/p) + (1/2)(1 - 2/p) = 2 - 5/(2p),

so sigma(2) = 3/4 and sigma(inf) = 2 (the latter is sharp from below).  The
Duhamel remainder gains an extra 1/2, and the weighted sup norm r|(a,v)|
decays like (t+1)^(-3/4).  Constants are non-constructive, so every verdict
here is either a fitted-exponent window or a boundedness-ratio check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field, replace
from typing import Sequence

import numpy as np

from .besov import _block_lq_norm, j0_for_time, resolved_range
from .errors import FitError, NumericDomainError, SolverAbort, UnsupportedParameterError
from .semigroup import CutoffPsi, kernel_probe, probe_point_grid, scalar_kernel_values
from .solver import CSV_COLUMNS, DiagnosticsRow, SolverConfig, simulate
from .spectral import make_grid


@dataclass
class DecaySeries:
    """Strictly increasing finite time stamps with positive finite values;
    nonpositive samples are dropped at construction and counted."""

    t: np.ndarray
    values: np.ndarray
    dropped: int = 0

    @classmethod
    def from_samples(cls, t: Sequence[float], values: Sequence[float]) -> "DecaySeries":
        t = np.asarray(t, dtype=float)
        values = np.asarray(values, dtype=float)
        if t.shape != values.shape:
            raise FitError("time stamps and values differ in length")
        bad = np.flatnonzero(~(np.isfinite(t) & np.isfinite(values)))
        if bad.size:
            raise FitError(f"non-finite time stamp or value at sample {bad[:3].tolist()}")
        if np.any(np.diff(t) <= 0):
            raise FitError("time stamps must be strictly increasing")
        keep = values > 0
        return cls(t[keep], values[keep], dropped=int(np.sum(~keep)))

    def window(self, t_lo: float, t_hi: float) -> "DecaySeries":
        sel = (self.t >= t_lo) & (self.t <= t_hi)
        return DecaySeries(self.t[sel], self.values[sel], self.dropped)


@dataclass(frozen=True)
class FitResult:
    """Fitted decay exponent with the convention value ~ t^(-slope)."""

    slope: float
    intercept: float
    r_squared: float
    window: tuple[float, float]
    dropped: int = 0


def theoretical_exponent(p: float, kind: str = "full") -> float:
    """Sharp decay exponent for the given Lebesgue index and series kind."""
    if p < 2:
        raise UnsupportedParameterError(f"decay rates cover p in [2, inf], got {p}")
    sigma = 2.0 - 5.0 / (2.0 * p) if np.isfinite(p) else 2.0
    if kind == "full":
        return sigma
    if kind == "nonlinear":
        return sigma + 0.5
    if kind == "weighted_sup":
        return 0.75
    raise UnsupportedParameterError(f"unknown series kind {kind!r}")


def fit_decay_exponent(series: DecaySeries, window: tuple[float, float]) -> FitResult:
    """Ordinary least squares on (log t, log value) inside the window."""
    t_lo, t_hi = window
    sel = (series.t >= t_lo) & (series.t <= t_hi)
    t = series.t[sel]
    v = series.values[sel]
    if len(t) < 4:
        raise FitError(f"window [{t_lo}, {t_hi}] holds {len(t)} points; need >= 4")
    if np.any(v <= 0):
        offenders = t[v <= 0]
        raise FitError(f"nonpositive values at t = {offenders.tolist()}")
    x = np.log(t)
    y = np.log(v)
    xm = x - x.mean()
    ym = y - y.mean()
    var = float(np.dot(xm, xm))
    sst = float(np.dot(ym, ym))
    if sst <= 1e-24 * max(1.0, float(np.dot(y, y))):
        return FitResult(0.0, float(y.mean()), 1.0, window, dropped=series.dropped)
    slope_ols = float(np.dot(xm, ym) / var)
    intercept = float(y.mean() - slope_ols * x.mean())
    residual = y - (slope_ols * x + intercept)
    r2 = 1.0 - float(np.dot(residual, residual)) / sst
    return FitResult(-slope_ols, intercept, r2, window, dropped=series.dropped)


# -- experiment reports ---------------------------------------------------------


@dataclass
class ExperimentEntry:
    """One fitted or ratio-checked quantity with its verdict."""

    label: str
    target_exponent: float | None
    fitted_exponent: float | None
    r2: float | None
    window: tuple[float, float]
    verdict: str
    extra: dict = dc_field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.verdict == "PASS"

    def as_dict(self) -> dict:
        out = {
            "label": self.label,
            "target_exponent": self.target_exponent,
            "fitted_exponent": self.fitted_exponent,
            "r2": self.r2,
            "window": list(self.window),
            "verdict": self.verdict,
        }
        out.update(self.extra)
        return out


@dataclass
class ExperimentReport:
    name: str
    entries: list[ExperimentEntry]
    rows: list[DiagnosticsRow] = dc_field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(e.passed for e in self.entries)

    def as_dict(self) -> dict:
        return {"experiment": self.name,
                "passed": self.passed,
                "entries": [e.as_dict() for e in self.entries]}


_COLUMN_FOR_P = {2.0: "l2_av", math.inf: "linf_av"}


def _require_csv_p(p_list: Sequence[float]) -> None:
    """The diagnostics rows hold the p = 2 and p = inf norms only."""
    bad = [p for p in p_list if float(p) not in _COLUMN_FOR_P]
    if bad:
        raise UnsupportedParameterError(f"decay fits cover p = 2 and inf only, got {bad}")


def series_from_rows(rows: Sequence[DiagnosticsRow], column: str) -> DecaySeries:
    idx = CSV_COLUMNS.index(column)
    data = np.array([row.as_tuple() for row in rows])
    return DecaySeries.from_samples(data[:, 0], data[:, idx])


def _fit_entry(label: str, series: DecaySeries, window: tuple[float, float],
               target: float, tol: float, r2_min: float) -> ExperimentEntry:
    if len(series.t) == 0:
        return ExperimentEntry(label, target, None, None, window, "EMPTY")
    fit = fit_decay_exponent(series, window)
    ok = abs(fit.slope - target) <= tol and fit.r_squared >= r2_min
    return ExperimentEntry(label, target, fit.slope, fit.r_squared, window,
                           "PASS" if ok else "FAIL",
                           extra={"tolerance": tol, "r2_min": r2_min})


def linear_rows(config: SolverConfig) -> list[DiagnosticsRow]:
    """Diagnostics of the exactly propagated data at simulate's output times.

    This is simulate's linear-only run, which takes no time step: each output
    is one application of the mode-wise propagator to the initial data, so
    the series carries no integrator error.
    """
    return simulate(replace(config, linear_only=True))[0]


_DEFAULT_EXPONENT_TOL = {2.0: 0.05, math.inf: 0.10}


def run_linear_decay(config: SolverConfig, p_list: Sequence[float] = (2.0, math.inf),
                     window: tuple[float, float] = (10.0, 200.0),
                     tolerances: dict | None = None,
                     r2_min: float = 0.995) -> ExperimentReport:
    """Fit L^p decay exponents of the linear flow against sigma(p)."""
    _require_csv_p(p_list)
    rows = linear_rows(config)
    tol = dict(_DEFAULT_EXPONENT_TOL)
    if tolerances:
        tol.update(tolerances)
    window = (window[0], min(window[1], config.t_final))
    entries = []
    for p in p_list:
        series = series_from_rows(rows, _COLUMN_FOR_P[float(p)])
        entries.append(_fit_entry(f"L^{p} linear", series, window,
                                  theoretical_exponent(p, "full"),
                                  tol[float(p)], r2_min))
    return ExperimentReport("linear-decay", entries, rows)


def run_nonlinear_decay(config: SolverConfig,
                        p_list: Sequence[float] = (2.0, math.inf),
                        window: tuple[float, float] = (10.0, 200.0),
                        r2_min_total: float = 0.995,
                        r2_min_nl: float = 0.98,
                        rows: list[DiagnosticsRow] | None = None
                        ) -> ExperimentReport:
    """Full simulation; fit the total norms and the Duhamel-remainder norms.

    The p = inf remainder is measured through the summed-block sup norm, the
    route on which the p != 2 estimate actually rests.
    """
    _require_csv_p(p_list)
    if rows is None:
        rows, _ = simulate(config)
    window = (window[0], min(window[1], config.t_final))
    entries = []
    total_tol = {2.0: 0.10, math.inf: 0.10}
    nl_tol = {2.0: 0.15, math.inf: 0.20}
    for p in p_list:
        p = float(p)
        total = series_from_rows(rows, _COLUMN_FOR_P[p])
        entries.append(_fit_entry(f"L^{p} total", total, window,
                                  theoretical_exponent(p, "full"),
                                  total_tol[p], r2_min_total))
        nl_col = "nl_l2" if p == 2.0 else "nl_besov_inf1"
        nl = series_from_rows(rows, nl_col)
        label = "nonlinear part L^2" if p == 2.0 else "nonlinear part B0_inf1"
        entries.append(_fit_entry(label, nl, window,
                                  theoretical_exponent(p, "nonlinear"),
                                  nl_tol[p], r2_min_nl))
    return ExperimentReport("nonlinear-decay", entries, rows)


def _ratio_entry(label: str, series: DecaySeries, window: tuple[float, float],
                 scale, max_ratio: float, against_first: bool) -> ExperimentEntry:
    trimmed = series.window(*window)
    if len(trimmed.t) == 0:
        return ExperimentEntry(label, None, None, None, window, "EMPTY")
    scaled = trimmed.values * scale(trimmed.t)
    lo = scaled[0] if against_first else float(scaled.min())
    hi = float(scaled.max())
    ok = lo > 0 and hi / lo <= max_ratio
    return ExperimentEntry(label, None, None, None, window,
                           "PASS" if ok else "FAIL",
                           extra={"scaled_min": float(scaled.min()),
                                  "scaled_max": hi,
                                  "ratio": hi / lo if lo > 0 else math.inf,
                                  "max_ratio": max_ratio})


def run_lower_bound(config: SolverConfig, window: tuple[float, float] = (20.0, 200.0),
                    rows: list[DiagnosticsRow] | None = None) -> ExperimentReport:
    """t^2 ||(a, v)(t)||_inf must stay in a bounded band: the sup-norm floor."""
    if rows is None:
        rows = simulate(config)[0]
    window = (window[0], min(window[1], config.t_final))
    series = series_from_rows(rows, "linf_av")
    mode = "linear" if config.linear_only else "nonlinear"
    entry = _ratio_entry(f"t^2 sup-norm floor ({mode})", series, window,
                         lambda t: t ** 2, 3.0, against_first=False)
    return ExperimentReport("lower-bound", [entry], rows)


def run_weighted_decay(config: SolverConfig, window: tuple[float, float] = (1.0, 200.0),
                       rows: list[DiagnosticsRow] | None = None) -> ExperimentReport:
    """(t+1)^{3/4} sup_r r|(a, v)| must stay within a factor 5 of its start."""
    if rows is None:
        rows = simulate(config)[0]
    window = (window[0], min(window[1], config.t_final))
    series = series_from_rows(rows, "weighted_sup")
    entry = _ratio_entry("weighted sup decay", series, window,
                         lambda t: (t + 1.0) ** 0.75, 5.0, against_first=True)
    entry.target_exponent = 0.75
    return ExperimentReport("weighted-decay", [entry], rows)


#: N and R of the fixed grid the B0_inf_inf frame is read on
_FRAME_GRID = (8192, 1500.0)


def _frame_blocks(t: float, j0: int) -> range:
    """Blocks j0 - 2 .. j0 + 2 of the frame at time t.  A window the frame
    grid does not resolve in full would read a smaller sup, or 0 when it is
    empty, so it raises NumericDomainError instead."""
    j_min, j_max = resolved_range(make_grid(*_FRAME_GRID))
    if j0 - 2 < j_min or j0 + 2 > j_max:
        raise NumericDomainError(
            f"frame blocks {j0 - 2} .. {j0 + 2} at t = {t:g} leave the range "
            f"[{j_min}, {j_max}] resolved by the N = {_FRAME_GRID[0]}, "
            f"R = {_FRAME_GRID[1]:g} frame grid")
    return range(j0 - 2, j0 + 3)


def block_frame_sup(t: float, j0: int) -> float:
    """max over |j - j0| <= 2 of the blockwise kernel sup (B0_inf_inf frame)."""
    blocks = _frame_blocks(t, j0)
    grid = make_grid(*_FRAME_GRID)
    kernel = scalar_kernel_values(grid.rho, t)
    parts = np.array((kernel.real, kernel.imag))
    return _block_lq_norm(grid, parts, 0.0, math.inf, math.inf, blocks)


def run_kernel_lower_probe(t_list: Sequence[float] = (16.0, 64.0, 256.0)) -> ExperimentReport:
    """Anisotropic probe sweep: t^2 * probe sup must stay in a factor-3 band.

    Also reports, per time, the dyadic-frame sup near the matching cutoff
    index, which dominates the probe value up to a constant.
    """
    if not all(4.0 <= t < math.inf for t in t_list):
        raise NumericDomainError("probe times must be finite and satisfy t >= 4")
    for t in t_list:            # every time is checked before the first probe
        if not math.isfinite(t * t):    # then t^2 * sup is not finite for any sup
            raise SolverAbort(f"t^2 * probe sup is not finite at t = {t:g}", time=t)
        _frame_blocks(t, j0_for_time(t))
    max_ratio = 3.0
    scaled = []
    details = []
    for t in t_list:
        value = kernel_probe(t, CutoffPsi(), probe_point_grid(t))
        j0 = j0_for_time(t)
        frame = block_frame_sup(t, j0)
        scaled.append(t * t * value)
        details.append({"t": t, "probe_sup": value, "j0": j0,
                        "frame_sup": frame,
                        "frame_to_probe": frame / value if value > 0 else math.inf})
    scaled = np.asarray(scaled)
    lo, hi = float(scaled.min()), float(scaled.max())
    ok = lo > 0 and hi / lo <= max_ratio
    entry = ExperimentEntry("t^2-scaled probe sup", None, None, None,
                            (min(t_list), max(t_list)),
                            "PASS" if ok else "FAIL",
                            extra={"scaled_values": scaled.tolist(),
                                   "ratio": hi / lo if lo > 0 else math.inf,
                                   "max_ratio": max_ratio,
                                   "per_time": details})
    return ExperimentReport("kernel-probe", [entry])
