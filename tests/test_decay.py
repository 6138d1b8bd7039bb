"""Exponent formulas, log-log fitting, and experiment-driver smoke tests.

The reference-scale rate verifications live in the acceptance suite; here the
drivers run on small grids and short horizons with loose windows.
"""

import json
import math
import pathlib

import numpy as np
import pytest

import radns.semigroup
from radns.besov import j0_for_time, phi_hat, resolved_range
from radns.decay import (
    DecaySeries,
    ExperimentReport,
    block_frame_sup,
    fit_decay_exponent,
    run_kernel_lower_probe,
    run_linear_decay,
    run_lower_bound,
    run_nonlinear_decay,
    run_weighted_decay,
    series_from_rows,
    theoretical_exponent,
    linear_rows,
)
from radns.errors import FitError, NumericDomainError, UnsupportedParameterError
from radns.solver import DiagnosticsRow, SolverConfig, simulate
from radns.spectral import make_grid
from test_semigroup import kernel_values


class TestTheoreticalExponent:
    def test_reference_values(self):
        assert theoretical_exponent(2.0, "full") == 0.75
        assert theoretical_exponent(math.inf, "full") == 2.0
        assert theoretical_exponent(2.0, "nonlinear") == 1.25
        assert theoretical_exponent(math.inf, "nonlinear") == 2.5
        assert theoretical_exponent(7.3, "weighted_sup") == 0.75

    def test_strictly_increasing(self):
        ps = [2.0, 3.0, 4.0, 6.0, math.inf]
        vals = [theoretical_exponent(p) for p in ps]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        assert theoretical_exponent(3.0) == pytest.approx(2.0 - 5.0 / 6.0)
        assert theoretical_exponent(4.0) == pytest.approx(2.0 - 5.0 / 8.0)

    def test_p_below_two_rejected(self):
        with pytest.raises(UnsupportedParameterError):
            theoretical_exponent(1.5)


class TestDecaySeries:
    def test_drops_nonpositive(self):
        s = DecaySeries.from_samples([1, 2, 3, 4], [1.0, 0.0, 2.0, -1.0])
        assert s.dropped == 2
        assert list(s.t) == [1.0, 3.0]

    def test_rejects_unsorted(self):
        with pytest.raises(FitError):
            DecaySeries.from_samples([1, 3, 2], [1.0, 1.0, 1.0])


class TestFit:
    def test_exact_power_law(self):
        t = np.linspace(2.0, 50.0, 40)
        s = DecaySeries.from_samples(t, 7.0 * t ** -2.0)
        fit = fit_decay_exponent(s, (2.0, 50.0))
        assert fit.slope == pytest.approx(2.0, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_random_exponents(self):
        rng = np.random.default_rng(0)
        t = np.geomspace(1.0, 100.0, 30)
        for _ in range(10):
            alpha = rng.uniform(0.5, 3.0)
            amp = rng.uniform(0.1, 10.0)
            s = DecaySeries.from_samples(t, amp * t ** -alpha)
            fit = fit_decay_exponent(s, (1.0, 100.0))
            assert fit.slope == pytest.approx(alpha, abs=1e-12)

    def test_constant_series(self):
        t = np.linspace(1.0, 10.0, 10)
        fit = fit_decay_exponent(DecaySeries.from_samples(t, np.full(10, 3.0)),
                                 (1.0, 10.0))
        assert fit.slope == 0.0
        assert fit.r_squared == 1.0

    def test_perturbed_power_law(self):
        t = np.geomspace(10.0, 1000.0, 120)
        vals = t ** -0.75 * (1.0 + 0.1 * np.sin(np.log(t)))
        fit = fit_decay_exponent(DecaySeries.from_samples(t, vals), (10.0, 1000.0))
        assert fit.slope == pytest.approx(0.75, abs=0.05)

    def test_underpopulated_window(self):
        s = DecaySeries.from_samples([1.0, 2.0, 3.0, 4.0], [1, 1, 1, 1])
        with pytest.raises(FitError):
            fit_decay_exponent(s, (3.5, 4.0))

    def test_nonpositive_in_window_listed(self):
        s = DecaySeries(np.array([1.0, 2.0, 3.0, 4.0]),
                        np.array([1.0, -2.0, 1.0, 1.0]))
        with pytest.raises(FitError, match="2.0"):
            fit_decay_exponent(s, (1.0, 4.0))


def small_linear_config(**overrides):
    base = dict(n_modes=4095, outer_radius=140.0, dt=0.05, t_final=60.0,
                output_interval=1.0, amplitude=0.01, width=1.0, linear_only=True)
    base.update(overrides)
    return SolverConfig(**base)


@pytest.fixture(scope="module")
def small_linear_report():
    rows = linear_rows(small_linear_config())
    return run_linear_decay(rows, (2.0, math.inf), (10.0, 60.0))


class TestLinearDriver:
    def test_unsupported_p_rejected_before_rows(self):
        # p = 3 has no diagnostics column: it used to raise KeyError: 3.0; the
        # check comes before any row is read, so no rows at all still gets it
        with pytest.raises(UnsupportedParameterError, match="p = 2 and inf only"):
            run_linear_decay([], (3,), (10.0, 200.0))

    def test_rates_at_small_scale(self, small_linear_report):
        # the small grid meets the rates to 0.1 / 0.2 with r2 >= 0.98, looser
        # than the reference-run verdict the report applies
        by_label = {e.label: e for e in small_linear_report.entries}
        assert by_label["L^2.0 linear"].fitted_exponent == pytest.approx(0.75, abs=0.1)
        assert by_label["L^inf linear"].fitted_exponent == pytest.approx(2.0, abs=0.2)
        assert all(e.r2 >= 0.98 for e in small_linear_report.entries)

    def test_zero_data_flags_empty(self):
        rows = linear_rows(small_linear_config(amplitude=0.0, t_final=30.0))
        report = run_linear_decay(rows, (2.0,), (5.0, 30.0))
        assert report.entries[0].verdict == "EMPTY"

    def test_last_row_inside_the_window(self):
        # 141 x 0.1 = 14.100000000000001 > T = 14.1: a window cut at T dropped
        # the last row from the fit (slope 0.762028 instead of 0.761057)
        rows = linear_rows(small_linear_config(n_modes=255, outer_radius=60.0, dt=0.1,
                                               t_final=14.1, output_interval=0.3))
        assert rows[-1].t > 14.1
        entry = run_linear_decay(rows, (2.0,), (1.0, 200.0)).entries[0]
        every_row = fit_decay_exponent(series_from_rows(rows, "l2_av"), (1.0, math.inf))
        assert entry.window == (1.0, rows[-1].t)
        assert entry.fitted_exponent == every_row.slope
        assert entry.fitted_exponent == pytest.approx(0.761057, abs=1e-6)

    def test_report_serialisable(self, small_linear_report):
        payload = small_linear_report.as_dict()
        assert payload["experiment"] == "linear-decay"
        for entry in payload["entries"]:
            assert set(entry) >= {"label", "target_exponent", "fitted_exponent",
                                  "r2", "window", "verdict"}

    @pytest.mark.parametrize("t_final, times", [
        (7.0, [0.0, 2.0, 4.0, 6.0, 7.0]),
        (5.0, [0.0, 2.0, 4.0, 5.0]),
    ])
    def test_output_times_match_simulate(self, t_final, times):
        # T not a multiple of the output interval: the last row is at T,
        # neither past it nor short of it, exactly as simulate reports
        cfg = small_linear_config(n_modes=255, outer_radius=60.0, t_final=t_final,
                                  output_interval=2.0)
        assert [row.t for row in linear_rows(cfg)] == times
        assert [row.t for row in simulate(cfg)[0]] == times

    def test_deterministic(self):
        cfg = small_linear_config(t_final=20.0)
        a = run_linear_decay(linear_rows(cfg), (2.0,), (5.0, 20.0))
        b = run_linear_decay(linear_rows(cfg), (2.0,), (5.0, 20.0))
        assert a.entries[0].fitted_exponent == b.entries[0].fitted_exponent
        assert [r.as_tuple() for r in a.rows] == [r.as_tuple() for r in b.rows]


@pytest.fixture(scope="module")
def small_nonlinear_rows():
    cfg = SolverConfig(n_modes=2047, outer_radius=140.0, dt=0.05, t_final=60.0,
                       output_interval=1.0, amplitude=0.01, width=1.0)
    return simulate(cfg)[0]


class TestNonlinearDriver:
    def test_unsupported_p_rejected_before_rows(self):
        # the KeyError used to come only after the whole simulation
        with pytest.raises(UnsupportedParameterError, match="p = 2 and inf only"):
            run_nonlinear_decay([], (2.0, 3.0), (10.0, 200.0))

    def test_smoke_fits(self, small_nonlinear_rows):
        report = run_nonlinear_decay(small_nonlinear_rows, (2.0,), (10.0, 60.0))
        by_label = {e.label: e for e in report.entries}
        assert by_label["L^2.0 total"].fitted_exponent == pytest.approx(0.75, abs=0.15)
        assert by_label["nonlinear part L^2"].fitted_exponent == pytest.approx(
            1.25, abs=0.3)

    def test_gamma_pair_same_targets(self):
        cfg2 = SolverConfig(n_modes=2047, outer_radius=140.0, dt=0.05, t_final=60.0,
                            output_interval=1.0, amplitude=0.01, width=1.0, gamma=2.0)
        report = run_nonlinear_decay(simulate(cfg2)[0], (2.0,), (10.0, 60.0))
        by_label = {e.label: e for e in report.entries}
        assert by_label["L^2.0 total"].fitted_exponent == pytest.approx(0.75, abs=0.15)
        assert by_label["nonlinear part L^2"].fitted_exponent == pytest.approx(
            1.25, abs=0.3)


def synthetic_rows(t_final, value=lambda t: (t + 1.0) ** -2):
    """One row per unit time up to t_final, every column set to value(t)."""
    return [DiagnosticsRow(float(t), *[value(t)] * 7) for t in range(t_final + 1)]


class TestWindowRule:
    """Every driver cuts its window at the last row and needs 4 output times
    in it; a window without a positive value reads EMPTY."""

    DRIVERS = {
        "linear": lambda rows: run_linear_decay(rows, (2.0, math.inf), (10.0, 200.0)),
        "nonlinear": lambda rows: run_nonlinear_decay(rows, (2.0, math.inf), (10.0, 200.0)),
        "lower-bound": lambda rows: run_lower_bound(rows, linear=True),
        "weighted": run_weighted_decay,
    }
    #: last row time at which the cut window holds exactly 4 output times
    FOUR_AT = {"linear": 13, "nonlinear": 13, "lower-bound": 23, "weighted": 4}

    @pytest.mark.parametrize("driver", sorted(DRIVERS))
    def test_four_output_times_needed(self, driver):
        t_final = self.FOUR_AT[driver]
        with pytest.raises(FitError, match="holds 3 output times; need >= 4"):
            self.DRIVERS[driver](synthetic_rows(t_final - 1))
        for entry in self.DRIVERS[driver](synthetic_rows(t_final)).entries:
            assert entry.verdict in ("PASS", "FAIL")
            assert entry.window[1] == t_final

    @pytest.mark.parametrize("driver", sorted(DRIVERS))
    def test_no_positive_value_in_window_is_empty(self, driver):
        # positive before the window, zero inside it: EMPTY, not a FitError
        rows = synthetic_rows(30, lambda t: 1.0 if t < 1 else 0.0)
        entries = self.DRIVERS[driver](rows).entries
        assert entries and all(e.verdict == "EMPTY" for e in entries)

    def test_fit_needs_four_positive_values(self):
        rows = synthetic_rows(20, lambda t: 1.0 if t < 12 else 0.0)
        with pytest.raises(FitError, match="holds 2 points; need >= 4"):
            run_linear_decay(rows, (2.0,), (10.0, 200.0))


class TestVerdictTable:
    """Every fitted entry's label, target, tolerance, r^2 floor and cut window,
    pinned at p = 2 and inf for both fit drivers."""

    PINNED = [
        ("L^2.0 linear", 0.75, 0.05, 0.995),
        ("L^inf linear", 2.0, 0.10, 0.995),
        ("L^2.0 total", 0.75, 0.10, 0.995),
        ("nonlinear part L^2", 1.25, 0.15, 0.98),
        ("L^inf total", 2.0, 0.10, 0.995),
        ("nonlinear part B0_inf1", 2.5, 0.20, 0.98),
    ]

    def test_fit_entries_pinned(self, small_linear_report, small_nonlinear_rows):
        nonlinear = run_nonlinear_decay(small_nonlinear_rows, (2.0, math.inf), (10.0, 60.0))
        entries = small_linear_report.entries + nonlinear.entries
        got = [(e.label, e.target_exponent, e.extra["tolerance"], e.extra["r2_min"])
               for e in entries]
        assert got == self.PINNED
        assert all(e.window == (10.0, 60.0) for e in entries)
        assert all(e.verdict in ("PASS", "FAIL") for e in entries)


class TestRatioDrivers:
    # the windows [20, 200] and [1, 200] are cut at the last row, t = T here

    def test_lower_bound_small_scale(self, small_nonlinear_rows):
        report = run_lower_bound(small_nonlinear_rows, linear=False)
        entry = report.entries[0]
        assert entry.verdict == "PASS"
        assert entry.window == (20.0, 60.0)
        assert entry.label == "t^2 sup-norm floor (nonlinear)"
        assert entry.extra["ratio"] <= 3.0
        assert entry.extra["scaled_min"] > 0.0

    def test_lower_bound_linear_mode(self):
        rows = linear_rows(small_linear_config(t_final=40.0))
        report = run_lower_bound(rows, linear=True)
        assert report.entries[0].verdict == "PASS"
        assert report.entries[0].window == (20.0, 40.0)
        assert report.entries[0].label == "t^2 sup-norm floor (linear)"

    def test_lower_bound_zero_data(self):
        rows = linear_rows(small_linear_config(amplitude=0.0, t_final=30.0))
        report = run_lower_bound(rows, linear=True)
        assert report.entries[0].verdict == "EMPTY"

    def test_weighted_small_scale(self, small_nonlinear_rows):
        report = run_weighted_decay(small_nonlinear_rows)
        assert report.entries[0].verdict == "PASS"
        assert report.entries[0].window == (1.0, 60.0)
        assert report.entries[0].target_exponent == 0.75
        assert report.entries[0].extra["ratio"] <= 5.0

    def test_weighted_linear_mode(self):
        rows = linear_rows(small_linear_config(t_final=40.0))
        report = run_weighted_decay(rows)
        assert report.entries[0].verdict == "PASS"
        assert report.entries[0].window == (1.0, 40.0)


class TestKernelProbeDriver:
    def test_single_time_trivial_ratio(self):
        report = run_kernel_lower_probe((16.0,))
        entry = report.entries[0]
        assert entry.verdict == "PASS"
        assert entry.extra["ratio"] == pytest.approx(1.0)
        assert entry.extra["per_time"][0]["frame_sup"] > 0.0

    def test_rejects_small_time(self):
        with pytest.raises(NumericDomainError):
            run_kernel_lower_probe((2.0, 16.0))
        # inf and nan used to pass here and abort only after the full refinement
        for t in (math.inf, math.nan):
            with pytest.raises(NumericDomainError):
                run_kernel_lower_probe((16.0, t))

    def test_cut_frame_rejected_before_any_probe(self, monkeypatch):
        def no_probe(*args, **kwargs):
            raise AssertionError("probe ran before every time was checked")

        monkeypatch.setattr("radns.decay.kernel_probe", no_probe)
        with pytest.raises(NumericDomainError, match="t = 1e\\+08"):
            run_kernel_lower_probe((16.0, 1e8))
        with pytest.raises(NumericDomainError, match="frame blocks"):
            block_frame_sup(1e8, j0_for_time(1e8))

    def test_shipped_outputs_pinned(self, monkeypatch):
        # the kernel-probe reference run: every probe and frame sup as in the
        # benchmark's reference JSON, reached through the same refinements
        path = pathlib.Path(__file__).parents[1] / "perfbench" / "reference" / "kernel_probe.json"
        want = json.loads(path.read_text())["entries"][0]["per_time"]
        probe_integral = radns.semigroup._probe_integral
        n_nodes = []

        def recording(t, psi, coords, n):
            n_nodes.append((t, n))
            return probe_integral(t, psi, coords, n)

        monkeypatch.setattr(radns.semigroup, "_probe_integral", recording)
        got = run_kernel_lower_probe((16.0, 64.0, 256.0)).entries[0].extra["per_time"]
        assert [row["t"] for row in got] == [row["t"] for row in want]
        for mine, ref in zip(got, want):
            assert mine["probe_sup"] == pytest.approx(ref["probe_sup"], rel=1e-12, abs=0.0)
            assert mine["frame_sup"] == pytest.approx(ref["frame_sup"], rel=1e-12, abs=0.0)
        assert [[n for s, n in n_nodes if s == t] for t in (16.0, 64.0, 256.0)] == [
            [32, 64, 128, 256], [32, 64, 128], [32, 64, 128, 256]]

    @pytest.mark.parametrize("t", [4.0, 16.0, 64.0, 256.0])
    def test_frame_sup_direct_sum_bounds(self, t):
        # the block kernel is K_j(r) = sqrt(2/pi) drho sum_k rho_k m_k sin(r rho_k)/r
        # with m = phi_hat_j e^{t lambda}; summed explicitly (no DST) at r = dr it
        # bounds the node sup from below, and |sin(r rho)/r| <= rho bounds it above
        grid = make_grid(8192, 1500.0)
        j0 = j0_for_time(t)
        j_min, j_max = resolved_range(grid)
        scale = math.sqrt(2.0 / math.pi) * grid.drho
        lower = upper = 0.0
        for j in range(max(j0 - 2, j_min), min(j0 + 2, j_max) + 1):
            m = phi_hat(j, grid.rho) * kernel_values(grid.rho, t)
            at_dr = scale * np.sum(grid.rho * m * np.sin(grid.dr * grid.rho)) / grid.dr
            lower = max(lower, abs(at_dr))
            upper = max(upper, scale * np.sum(grid.rho ** 2 * np.abs(m)))
        value = block_frame_sup(t, j0)
        assert lower * (1.0 - 1e-12) <= value <= upper
