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
from .errors import FitError, NumericDomainError, UnsupportedParameterError
from .semigroup import CutoffPsi, kernel_probe, scalar_kernel_parts
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


#: fewest points a fit uses, and fewest output times a verdict window holds
_MIN_POINTS = 4


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
    inside = series.window(*window)
    t, v = inside.t, inside.values
    if len(t) < _MIN_POINTS:
        raise FitError(f"window [{window[0]}, {window[1]}] holds {len(t)} points; "
                       f"need >= {_MIN_POINTS}")
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


#: (series kind, p) -> (label, CSV column, theoretical_exponent kind, tolerance
#: on |slope - target|, r^2 floor) of one fitted entry.  The p = inf remainder
#: is read through the summed-block sup norm, on which the p != 2 estimate rests.
_FITS = {("linear", 2.0): ("L^2.0 linear", "l2_av", "full", 0.05, 0.995),
         ("linear", math.inf): ("L^inf linear", "linf_av", "full", 0.10, 0.995),
         ("total", 2.0): ("L^2.0 total", "l2_av", "full", 0.10, 0.995),
         ("total", math.inf): ("L^inf total", "linf_av", "full", 0.10, 0.995),
         ("nonlinear", 2.0): ("nonlinear part L^2", "nl_l2", "nonlinear", 0.15, 0.98),
         ("nonlinear", math.inf): ("nonlinear part B0_inf1", "nl_besov_inf1", "nonlinear",
                                   0.20, 0.98)}


def _require_csv_p(p_list: Sequence[float]) -> None:
    """The diagnostics rows hold the p = 2 and p = inf norms only."""
    bad = [p for p in p_list if ("linear", float(p)) not in _FITS]
    if bad:
        raise UnsupportedParameterError(f"decay fits cover p = 2 and inf only, got {bad}")


def series_from_rows(rows: Sequence[DiagnosticsRow], column: str) -> DecaySeries:
    idx = CSV_COLUMNS.index(column)
    data = np.array([row.as_tuple() for row in rows])
    return DecaySeries.from_samples(data[:, 0], data[:, idx])


def _windowed(rows: Sequence[DiagnosticsRow], column: str, window: tuple[float, float]
              ) -> tuple[tuple[float, float], DecaySeries]:
    """The window cut at the last output time (which may pass T by a rounding)
    and the column's series inside it.  A cut window that holds fewer than
    _MIN_POINTS output times has no verdict: it raises FitError."""
    window = (window[0], min(window[1], rows[-1].t))
    count = sum(window[0] <= row.t <= window[1] for row in rows)
    if count < _MIN_POINTS:
        raise FitError(f"window [{window[0]}, {window[1]}] holds {count} output times; "
                       f"need >= {_MIN_POINTS}")
    return window, series_from_rows(rows, column).window(*window)


def _fit_entry(kind: str, p: float, rows: Sequence[DiagnosticsRow],
               window: tuple[float, float]) -> ExperimentEntry:
    label, column, target_kind, tol, r2_min = _FITS[kind, p]
    target = theoretical_exponent(p, target_kind)
    window, series = _windowed(rows, column, window)
    if len(series.t) == 0:
        return ExperimentEntry(label, target, None, None, window, "EMPTY")
    fit = fit_decay_exponent(series, window)
    ok = abs(fit.slope - target) <= tol and fit.r_squared >= r2_min
    return ExperimentEntry(label, target, fit.slope, fit.r_squared, window,
                           "PASS" if ok else "FAIL",
                           extra={"tolerance": tol, "r2_min": r2_min})


def _band_entry(label: str, window: tuple[float, float], lo: float, hi: float,
                max_ratio: float, extra: dict) -> ExperimentEntry:
    """PASS when the band hi / lo is at most max_ratio; lo <= 0 reads ratio inf."""
    ratio = hi / lo if lo > 0 else math.inf
    return ExperimentEntry(label, None, None, None, window,
                           "PASS" if ratio <= max_ratio else "FAIL",
                           extra={**extra, "ratio": ratio, "max_ratio": max_ratio})


def linear_rows(config: SolverConfig) -> list[DiagnosticsRow]:
    """Diagnostics of the exactly propagated data at simulate's output times.

    This is simulate's linear-only run, which takes no time step: each output
    applies the mode-wise propagator of its gap to the previous output's
    pair, exact by the semigroup law, so the series carries no integrator
    error.
    """
    return simulate(replace(config, linear_only=True))[0]


def run_linear_decay(rows: list[DiagnosticsRow], p_list: Sequence[float],
                     window: tuple[float, float]) -> ExperimentReport:
    """Fit L^p decay exponents of the linear flow against sigma(p)."""
    _require_csv_p(p_list)
    entries = [_fit_entry("linear", p, rows, window) for p in map(float, p_list)]
    return ExperimentReport("linear-decay", entries, rows)


def run_nonlinear_decay(rows: list[DiagnosticsRow], p_list: Sequence[float],
                        window: tuple[float, float]) -> ExperimentReport:
    """Fit the total norms and the Duhamel-remainder norms of a full run."""
    _require_csv_p(p_list)
    entries = [_fit_entry(kind, p, rows, window)
               for p in map(float, p_list) for kind in ("total", "nonlinear")]
    return ExperimentReport("nonlinear-decay", entries, rows)


def _ratio_entry(label: str, rows: Sequence[DiagnosticsRow], column: str,
                 window: tuple[float, float], scale, max_ratio: float,
                 against_first: bool) -> ExperimentEntry:
    window, trimmed = _windowed(rows, column, window)
    if len(trimmed.t) == 0:
        return ExperimentEntry(label, None, None, None, window, "EMPTY")
    scaled = trimmed.values * scale(trimmed.t)
    lo = scaled[0] if against_first else float(scaled.min())
    hi = float(scaled.max())
    return _band_entry(label, window, lo, hi, max_ratio,
                       {"scaled_min": float(scaled.min()), "scaled_max": hi})


def run_lower_bound(rows: list[DiagnosticsRow], linear: bool) -> ExperimentReport:
    """t^2 ||(a, v)(t)||_inf must stay in a bounded band: the sup-norm floor."""
    mode = "linear" if linear else "nonlinear"
    entry = _ratio_entry(f"t^2 sup-norm floor ({mode})", rows, "linf_av", (20.0, 200.0),
                         lambda t: t ** 2, 3.0, against_first=False)
    return ExperimentReport("lower-bound", [entry], rows)


def run_weighted_decay(rows: list[DiagnosticsRow]) -> ExperimentReport:
    """(t+1)^{3/4} sup_r r|(a, v)| must stay within a factor 5 of its start."""
    target = theoretical_exponent(math.inf, "weighted_sup")
    entry = _ratio_entry("weighted sup decay", rows, "weighted_sup", (1.0, 200.0),
                         lambda t: (t + 1.0) ** target, 5.0, against_first=True)
    entry.target_exponent = target
    return ExperimentReport("weighted-decay", [entry], rows)


#: N and R of the fixed grid the B0_inf_inf frame is read on
_FRAME_GRID = (8192, 1500.0)


def block_frame_sup(t: float, j0: int) -> float:
    """max over |j - j0| <= 2 of the blockwise kernel sup (B0_inf_inf frame).
    A window the frame grid does not resolve in full would read a smaller
    sup, or 0 when it is empty, so it raises NumericDomainError instead."""
    grid = make_grid(*_FRAME_GRID)
    j_min, j_max = resolved_range(grid)
    if j0 - 2 < j_min or j0 + 2 > j_max:
        raise NumericDomainError(
            f"frame blocks {j0 - 2} .. {j0 + 2} at t = {t:g} leave the range "
            f"[{j_min}, {j_max}] resolved by the N = {_FRAME_GRID[0]}, "
            f"R = {_FRAME_GRID[1]:g} frame grid")
    parts = scalar_kernel_parts(grid.rho * grid.rho, t)
    return _block_lq_norm(grid, parts, 0.0, math.inf, math.inf, range(j0 - 2, j0 + 3))


def run_kernel_lower_probe(t_list: Sequence[float] = (16.0, 64.0, 256.0)) -> ExperimentReport:
    """Anisotropic probe sweep: t^2 * probe sup must stay in a factor-3 band.

    Also reports, per time, the dyadic-frame sup near the matching cutoff
    index, which dominates the probe value up to a constant.
    """
    if not all(4.0 <= t < math.inf for t in t_list):
        raise NumericDomainError("probe times must be finite and satisfy t >= 4")
    j0s = [j0_for_time(t) for t in t_list]
    # frames first: a time the frame grid cannot resolve fails before any probe runs
    frames = [block_frame_sup(t, j0) for t, j0 in zip(t_list, j0s)]
    scaled = []
    details = []
    for t, j0, frame in zip(t_list, j0s, frames):
        value = kernel_probe(t, CutoffPsi())
        scaled.append(t * t * value)
        details.append({"t": t, "probe_sup": value, "j0": j0,
                        "frame_sup": frame,
                        "frame_to_probe": frame / value if value > 0 else math.inf})
    scaled = np.asarray(scaled)
    entry = _band_entry("t^2-scaled probe sup", (min(t_list), max(t_list)),
                        float(scaled.min()), float(scaled.max()), 3.0,
                        {"scaled_values": scaled.tolist(), "per_time": details})
    return ExperimentReport("kernel-probe", [entry])
