"""Exponent formulas, log-log fitting, and experiment-driver smoke tests.

The reference-scale rate verifications live in the acceptance suite; here the
drivers run on small grids and short horizons with loose windows.
"""

import math

import numpy as np
import pytest

from radns.besov import DyadicPartition, j0_for_time
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
from radns.semigroup import scalar_kernel_values
from radns.solver import SolverConfig, simulate
from radns.spectral import make_grid


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
        assert fit.zero_variance
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
    cfg = small_linear_config()
    return run_linear_decay(cfg, (2.0, math.inf), window=(10.0, 60.0),
                            tolerances={2.0: 0.1, math.inf: 0.2}, r2_min=0.98)


class TestLinearDriver:
    def test_rates_at_small_scale(self, small_linear_report):
        assert small_linear_report.passed
        by_label = {e.label: e for e in small_linear_report.entries}
        assert by_label["L^2.0 linear"].fitted_exponent == pytest.approx(0.75, abs=0.1)
        assert by_label["L^inf linear"].fitted_exponent == pytest.approx(2.0, abs=0.2)

    def test_zero_data_flags_empty(self):
        cfg = small_linear_config(amplitude=0.0, t_final=30.0)
        report = run_linear_decay(cfg, (2.0,), window=(5.0, 30.0))
        assert report.entries[0].verdict == "EMPTY"

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
        a = run_linear_decay(cfg, (2.0,), window=(5.0, 20.0))
        b = run_linear_decay(cfg, (2.0,), window=(5.0, 20.0))
        assert a.entries[0].fitted_exponent == b.entries[0].fitted_exponent
        assert [r.as_tuple() for r in a.rows] == [r.as_tuple() for r in b.rows]


@pytest.fixture(scope="module")
def small_nonlinear_rows():
    cfg = SolverConfig(n_modes=2047, outer_radius=140.0, dt=0.05, t_final=60.0,
                       output_interval=1.0, amplitude=0.01, width=1.0)
    from radns.solver import simulate
    return cfg, simulate(cfg)[0]


class TestNonlinearDriver:
    def test_smoke_fits(self, small_nonlinear_rows):
        cfg, rows = small_nonlinear_rows
        report = run_nonlinear_decay(cfg, (2.0,), window=(10.0, 60.0),
                                     r2_min_total=0.9, r2_min_nl=0.9, rows=rows)
        by_label = {e.label: e for e in report.entries}
        assert by_label["L^2.0 total"].fitted_exponent == pytest.approx(0.75, abs=0.15)
        assert by_label["nonlinear part L^2"].fitted_exponent == pytest.approx(
            1.25, abs=0.3)

    def test_gamma_pair_same_targets(self, small_nonlinear_rows):
        cfg, _ = small_nonlinear_rows
        cfg2 = SolverConfig(n_modes=2047, outer_radius=140.0, dt=0.05, t_final=60.0,
                            output_interval=1.0, amplitude=0.01, width=1.0, gamma=2.0)
        report = run_nonlinear_decay(cfg2, (2.0,), window=(10.0, 60.0),
                                     r2_min_total=0.9, r2_min_nl=0.9)
        by_label = {e.label: e for e in report.entries}
        assert by_label["L^2.0 total"].fitted_exponent == pytest.approx(0.75, abs=0.15)
        assert by_label["nonlinear part L^2"].fitted_exponent == pytest.approx(
            1.25, abs=0.3)


class TestRatioDrivers:
    def test_lower_bound_small_scale(self, small_nonlinear_rows):
        cfg, rows = small_nonlinear_rows
        report = run_lower_bound(cfg, window=(20.0, 60.0), rows=rows)
        entry = report.entries[0]
        assert entry.verdict == "PASS"
        assert entry.extra["ratio"] <= 3.0
        assert entry.extra["scaled_min"] > 0.0

    def test_lower_bound_linear_mode(self):
        cfg = small_linear_config(t_final=40.0)
        report = run_lower_bound(cfg, window=(20.0, 40.0))
        assert report.entries[0].verdict == "PASS"

    def test_lower_bound_zero_data(self):
        cfg = small_linear_config(amplitude=0.0, t_final=30.0)
        report = run_lower_bound(cfg, window=(10.0, 30.0))
        assert report.entries[0].verdict == "EMPTY"

    def test_weighted_small_scale(self, small_nonlinear_rows):
        cfg, rows = small_nonlinear_rows
        report = run_weighted_decay(cfg, window=(1.0, 60.0), rows=rows)
        assert report.entries[0].verdict == "PASS"
        assert report.entries[0].extra["ratio"] <= 5.0

    def test_weighted_linear_mode(self):
        cfg = small_linear_config(t_final=40.0)
        report = run_weighted_decay(cfg, window=(1.0, 40.0))
        assert report.entries[0].verdict == "PASS"


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

    @pytest.mark.parametrize("t", [4.0, 16.0, 64.0, 256.0])
    def test_frame_sup_direct_sum_bounds(self, t):
        # the block kernel is K_j(r) = sqrt(2/pi) drho sum_k rho_k m_k sin(r rho_k)/r
        # with m = phi_hat_j e^{t lambda}; summed explicitly (no DST) at r = dr it
        # bounds the node sup from below, and |sin(r rho)/r| <= rho bounds it above
        grid = make_grid(8192, 1500.0)
        part = DyadicPartition()
        j0 = j0_for_time(t)
        j_min, j_max = part.resolved_range(grid)
        scale = math.sqrt(2.0 / math.pi) * grid.drho
        lower = upper = 0.0
        for j in range(max(j0 - 2, j_min), min(j0 + 2, j_max) + 1):
            m = part.phi_hat(j, grid.rho) * scalar_kernel_values(grid.rho, t, "plus")
            at_dr = scale * np.sum(grid.rho * m * np.sin(grid.dr * grid.rho)) / grid.dr
            lower = max(lower, abs(at_dr))
            upper = max(upper, scale * np.sum(grid.rho ** 2 * np.abs(m)))
        value = block_frame_sup(t, j0)
        assert lower * (1.0 - 1e-12) <= value <= upper
