"""Pressure law, initial data, forcing terms, and ETD2 integrator tests."""

import math

import numpy as np
import pytest

from radns.besov import BesovSpec, DyadicPartition
from radns.errors import ConfigurationError, SolverAbort
from radns.semigroup import apply_semigroup, mode_exponential
from radns.solver import (
    PressureLaw,
    SolverConfig,
    SolverState,
    diagnostics_row,
    initial_data_gaussian,
    initial_state,
    make_etd_tables,
    nonlinear_part,
    nonlinear_rhs,
    reconstruct_velocity,
    simulate,
    step_etd2,
)
from radns.spectral import (
    RadialScalarField,
    apply_multiplier,
    divergence_of_profile,
    field_from_samples,
    lp_norm,
    make_grid,
    to_physical,
    to_spectral,
    weighted_sup_norm,
    zero_field,
)
from test_besov import oracle_pair_besov_norm


def small_config(**overrides):
    base = dict(n_modes=511, outer_radius=30.0, dt=0.1, t_final=1.0,
                output_interval=0.5, amplitude=0.01, width=1.0)
    base.update(overrides)
    return SolverConfig(**base)


def pressure(gamma, density):
    """The gamma-law P(rho) = rho^gamma / gamma that PressureLaw encodes."""
    return np.asarray(density, dtype=float) ** gamma / gamma


class TestPressureLaw:
    def test_normalisation(self):
        for gamma in (1.1, 1.4, 2.0, 5.0 / 3.0):
            law = PressureLaw(gamma)
            # P'(1) = 1 by construction of the gamma-law
            eps = 1e-7
            deriv = (pressure(gamma, 1 + eps) - pressure(gamma, 1 - eps)) / (2 * eps)
            assert deriv == pytest.approx(1.0, rel=1e-8)
            assert law.beta(0.0) == 0.0
            # beta(a) = P'(1+a)/(1+a) - P'(1), P' by central differences
            for a in (-0.3, 0.2):
                rho = 1.0 + a
                p_prime = (pressure(gamma, rho + eps) - pressure(gamma, rho - eps)) / (2 * eps)
                assert law.beta(a) == pytest.approx(p_prime / rho - deriv, abs=1e-7)

    def test_beta_vanishes_at_gamma_two(self):
        law = PressureLaw(2.0)
        a = np.linspace(-0.5, 0.5, 101)
        assert np.all(law.beta(a) == 0.0)

    def test_beta_closed_form(self):
        law = PressureLaw(1.4)
        a = np.array([-0.2, 0.0, 0.3])
        assert law.beta(a) == pytest.approx((1 + a) ** (-0.6) - 1.0, rel=1e-14)

    def test_gamma_at_most_one_rejected(self):
        with pytest.raises(ConfigurationError):
            PressureLaw(1.0)


class TestInitialData:
    def test_zero_amplitude(self):
        grid = make_grid(256, 20.0)
        a0, v0 = initial_data_gaussian(0.0, 1.0, grid)
        assert np.all(a0.values == 0.0) and np.all(v0.values == 0.0)

    def test_sup_norm(self):
        grid = make_grid(2048, 60.0)
        a0, _ = initial_data_gaussian(0.01, 1.0, grid)
        assert lp_norm(a0, math.inf) == pytest.approx(
            0.01 * math.exp(-grid.r[0] ** 2), rel=1e-12)

    def test_l2_norm_quadrature(self):
        grid = make_grid(4095, 60.0)
        a0, _ = initial_data_gaussian(0.01, 1.0, grid)
        assert lp_norm(a0, 2) == pytest.approx(0.01 * (math.pi / 2) ** 0.75, rel=1e-8)


class TestReconstructVelocity:
    def test_zero(self):
        grid = make_grid(256, 20.0)
        vel = reconstruct_velocity(zero_field(grid, "spectral"))
        assert np.all(vel.samples == 0.0)

    def test_single_mode(self):
        grid = make_grid(1024, 20.0)
        k0 = 5
        rho0 = grid.rho[k0]
        v_hat = zero_field(grid, "spectral")
        v_hat.values[k0] = 1.0
        vel = reconstruct_velocity(v_hat)
        # the spectral delta maps to v(r) = amp rho0 sin(rho0 r)/r, so
        # q = |D|^{-1} v has amplitude amp and U = -q'
        amp = math.sqrt(2 / math.pi) * grid.drho
        mode_deriv = (rho0 * np.cos(rho0 * grid.r) / grid.r
                      - np.sin(rho0 * grid.r) / grid.r ** 2)
        expected = -amp * mode_deriv
        assert np.max(np.abs(vel.samples - expected)) < 1e-12

    def test_divergence_round_trip(self):
        # v-fields arising from velocities vanish linearly at rho = 0, which
        # keeps |D|^{-1}v localised; use such a field here
        grid = make_grid(2047, 40.0)
        v_hat = field_from_samples(grid, grid.rho * np.exp(-grid.rho ** 2 / 2),
                                   "spectral")
        vel = reconstruct_velocity(v_hat)
        div = divergence_of_profile(vel)
        back = apply_multiplier(to_spectral(div), lambda rho: 1.0 / rho)
        err = np.max(np.abs(back.values - v_hat.values))
        assert err < 1e-9  # v = |D|^{-1} div u recovers the input


def make_state(grid, a_vals, v_vals):
    a = RadialScalarField(grid, a_vals, "spectral")
    v = RadialScalarField(grid, v_vals, "spectral")
    return SolverState(0.0, a, v, a.copy(), v.copy())


class TestNonlinearRhs:
    def test_zero_state(self):
        cfg = small_config()
        grid = cfg.grid()
        state = make_state(grid, np.zeros(grid.n_modes), np.zeros(grid.n_modes))
        f_hat, h_hat = nonlinear_rhs(state, cfg.law(), cfg)
        assert np.all(f_hat.values == 0.0) and np.all(h_hat.values == 0.0)

    def test_f_term_independent_of_gamma(self):
        cfg = small_config()
        grid = cfg.grid()
        rng = np.random.default_rng(0)
        a_vals = 0.05 * np.exp(-grid.rho ** 2 / 4)
        v_vals = 0.03 * np.exp(-grid.rho ** 2 / 3)
        state = make_state(grid, a_vals, v_vals)
        f14, h14 = nonlinear_rhs(state, PressureLaw(1.4), cfg)
        f20, h20 = nonlinear_rhs(state, PressureLaw(2.0), cfg)
        assert np.array_equal(f14.values, f20.values)
        assert not np.array_equal(h14.values, h20.values)

    def test_beta_term_absent_at_gamma_two(self):
        # with beta = 0 the h-term must equal the one computed with the
        # pressure contribution dropped explicitly
        cfg = small_config()
        grid = cfg.grid()
        a_vals = 0.05 * np.exp(-grid.rho ** 2 / 4)
        v_vals = 0.03 * np.exp(-grid.rho ** 2 / 3)
        state = make_state(grid, a_vals, v_vals)

        class NoPressure(PressureLaw):
            def beta(self, a):
                return np.zeros_like(np.asarray(a, dtype=float))

        _, h_gamma2 = nonlinear_rhs(state, PressureLaw(2.0), cfg)
        _, h_dropped = nonlinear_rhs(state, NoPressure(1.4), cfg)
        assert np.array_equal(h_gamma2.values, h_dropped.values)

    def test_quadratic_amplitude_scaling(self):
        cfg = small_config(n_modes=1023, outer_radius=40.0)
        grid = cfg.grid()
        base_a = 0.3 * np.exp(-grid.rho ** 2 / 4)
        base_v = 0.2 * np.exp(-grid.rho ** 2 / 3)
        eps_list = (1e-3, 1e-4, 1e-5)
        norms = []
        for eps in eps_list:
            state = make_state(grid, eps * base_a, eps * base_v)
            f_hat, h_hat = nonlinear_rhs(state, cfg.law(), cfg)
            norms.append(math.hypot(lp_norm(to_physical(f_hat), 2),
                                    lp_norm(to_physical(h_hat), 2)))
        slope = np.polyfit(np.log(eps_list), np.log(norms), 1)[0]
        assert slope == pytest.approx(2.0, abs=0.05)

    def test_density_floor_abort(self):
        cfg = small_config()
        grid = cfg.grid()
        a_phys = field_from_samples(grid, -0.7 * np.exp(-grid.r ** 2))
        state = make_state(grid, to_spectral(a_phys).values, np.zeros(grid.n_modes))
        with pytest.raises(SolverAbort) as err:
            nonlinear_rhs(state, cfg.law(), cfg)
        assert err.value.time == 0.0


class TestStepEtd2:
    def test_linear_only_step_equals_propagator(self):
        cfg = small_config(linear_only=True)
        state = initial_state(cfg)
        tables = make_etd_tables(state.a_hat.grid, cfg.dt)
        stepped = step_etd2(state, cfg.law(), cfg, tables)
        a_exact, v_exact = apply_semigroup(state.a_hat, state.v_hat, cfg.dt)
        assert np.max(np.abs(stepped.a_hat.values - a_exact.values)) <= 1e-12
        assert np.max(np.abs(stepped.v_hat.values - v_exact.values)) <= 1e-12

    def test_zero_data_stays_zero(self):
        cfg = small_config(amplitude=0.0)
        state = initial_state(cfg)
        tables = make_etd_tables(state.a_hat.grid, cfg.dt)
        stepped = step_etd2(state, cfg.law(), cfg, tables)
        assert np.all(stepped.a_hat.values == 0.0)
        assert np.all(stepped.v_hat.values == 0.0)

    @staticmethod
    def _advance(cfg, dt, t_end):
        state = initial_state(cfg)
        tables = make_etd_tables(state.a_hat.grid, dt)
        law = cfg.law()
        for _ in range(int(round(t_end / dt))):
            state = step_etd2(state, law, cfg, tables)
        return np.concatenate([state.a_hat.values, state.v_hat.values])

    def test_self_convergence_order_two(self):
        cfg = small_config(amplitude=0.01, dt=0.1)
        ref = self._advance(cfg, 0.025 / 8.0, 1.0)
        errors = [np.max(np.abs(self._advance(cfg, dt, 1.0) - ref))
                  for dt in (0.1, 0.05, 0.025)]
        orders = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
        for order in orders:
            assert order == pytest.approx(2.0, abs=0.4)

    def test_richardson_single_vs_double_step(self):
        # one step at dt against two at dt/2; the gap must shrink at least
        # at the second-order rate (stiff modes pull the observable local
        # exponent below the nonstiff value 3)
        cfg = small_config(amplitude=0.01)
        gaps = []
        for dt in (0.2, 0.1, 0.05):
            one = self._advance(cfg, dt, dt)
            two = self._advance(cfg, dt / 2.0, dt)
            gaps.append(np.max(np.abs(one - two)))
        orders = [math.log2(gaps[i] / gaps[i + 1]) for i in range(2)]
        for order in orders:
            assert 2.0 <= order <= 4.0


class TestNonlinearPart:
    def test_zero_at_start(self):
        cfg = small_config()
        state = initial_state(cfg)
        nl_a, nl_v = nonlinear_part(state)
        assert np.all(nl_a.values == 0.0) and np.all(nl_v.values == 0.0)

    def test_zero_data_zero_for_all_time(self):
        cfg = small_config(amplitude=0.0, t_final=1.0)
        rows, state = simulate(cfg)
        nl_a, nl_v = nonlinear_part(state)
        assert np.all(nl_a.values == 0.0) and np.all(nl_v.values == 0.0)

    def test_much_smaller_than_solution(self):
        cfg = SolverConfig(n_modes=2047, outer_radius=60.0, dt=0.05, t_final=10.0,
                           output_interval=10.0, amplitude=0.01)
        rows, state = simulate(cfg)
        nl = rows[-1].nl_l2
        total = rows[-1].l2_av
        assert nl < total / 10.0


def oracle_row(state, partition):
    """The row as the physical-space formulas give it: each field synthesised
    alone, L^p norms by the rectangle rule of the pointwise modulus, and Besov
    norms from the one-block-at-a-time loop."""
    grid = state.a_hat.grid
    a, v = to_physical(state.a_hat), to_physical(state.v_hat)
    nl_a = to_physical(RadialScalarField(
        grid, state.a_hat.values - state.a_lin_hat.values, "spectral"))
    nl_v = to_physical(RadialScalarField(
        grid, state.v_hat.values - state.v_lin_hat.values, "spectral"))
    modulus = field_from_samples(grid, np.hypot(a.values, v.values))
    nl_modulus = field_from_samples(grid, np.hypot(nl_a.values, nl_v.values))
    spec21, spec_inf1 = BesovSpec(0.0, 2.0, 1.0), BesovSpec(0.0, math.inf, 1.0)
    return (state.t, lp_norm(modulus, 2.0), lp_norm(modulus, math.inf),
            oracle_pair_besov_norm(a, v, spec21, partition),
            oracle_pair_besov_norm(a, v, spec_inf1, partition),
            lp_norm(nl_modulus, 2.0),
            oracle_pair_besov_norm(nl_a, nl_v, spec_inf1, partition),
            weighted_sup_norm(modulus))


class TestDiagnosticsRow:
    """Transforms per row: one two-row synthesis of (a, v), then one two-row
    transform per block for each p = inf pair norm; every p = 2 norm is
    Parseval, and an identically zero nonlinear part costs nothing."""

    def snapshot(self, linear):
        grid = make_grid(1023, 40.0)
        rng = np.random.default_rng(3)
        decay = np.exp(-0.05 * grid.rho ** 2)
        a, v, da, dv = (rng.standard_normal(grid.n_modes) * decay for _ in range(4))
        a_hat = RadialScalarField(grid, a, "spectral")
        v_hat = RadialScalarField(grid, v, "spectral")
        if linear:        # as linear_rows builds it: the pair is its own linear flow
            return SolverState(3.0, a_hat, v_hat, a_hat, v_hat)
        return SolverState(3.0, a_hat, v_hat, RadialScalarField(grid, a - 1e-3 * da, "spectral"),
                           RadialScalarField(grid, v - 1e-3 * dv, "spectral"))

    @pytest.mark.parametrize("linear", [True, False])
    def test_transform_count(self, transform_counter, linear):
        partition = DyadicPartition()
        state = self.snapshot(linear)
        j_min, j_max = partition.resolved_range(state.a_hat.grid)
        n_blocks = j_max - j_min + 1
        diagnostics_row(state, partition)
        assert transform_counter[0] == (2 + 2 * n_blocks if linear else 2 + 4 * n_blocks)

    @pytest.mark.parametrize("linear", [True, False])
    def test_matches_physical_space_formulas(self, linear):
        partition = DyadicPartition()
        state = self.snapshot(linear)
        row = diagnostics_row(state, partition).as_tuple()
        for got, want in zip(row, oracle_row(state, partition)):
            assert got == pytest.approx(want, rel=1e-12)
        if linear:
            assert row[5] == 0.0 and row[6] == 0.0

    def test_stepped_state_matches(self):
        cfg = small_config(t_final=2.0, output_interval=1.0)
        rows, state = simulate(cfg)
        partition = DyadicPartition()
        for got, want in zip(rows[-1].as_tuple(), oracle_row(state, partition)):
            assert got == pytest.approx(want, rel=1e-12)


class TestSimulate:
    def test_zero_final_time_single_row(self):
        cfg = small_config(t_final=0.0)
        rows, state = simulate(cfg)
        assert len(rows) == 1
        assert rows[0].t == 0.0
        assert rows[0].l2_av > 0.0

    def test_zero_data_all_zero(self):
        cfg = small_config(amplitude=0.0)
        rows, _ = simulate(cfg)
        for row in rows:
            assert row.l2_av == row.linf_av == row.nl_l2 == row.weighted_sup == 0.0

    def test_deterministic(self):
        cfg = small_config(t_final=1.0)
        rows_a, state_a = simulate(cfg)
        rows_b, state_b = simulate(cfg)
        assert np.array_equal(state_a.a_hat.values, state_b.a_hat.values)
        assert np.array_equal(state_a.v_hat.values, state_b.v_hat.values)
        assert [r.as_tuple() for r in rows_a] == [r.as_tuple() for r in rows_b]

    def test_decaying_l2_after_transient(self):
        cfg = SolverConfig(n_modes=2047, outer_radius=80.0, dt=0.05, t_final=30.0,
                           output_interval=1.0, amplitude=0.01)
        rows, _ = simulate(cfg)
        tail = [r.l2_av for r in rows if r.t >= 5.0]
        assert all(b < a for a, b in zip(tail, tail[1:]))

    def test_front_containment_enforced(self):
        with pytest.raises(ConfigurationError):
            small_config(t_final=100.0).validate()

    def test_abort_propagates_time(self):
        cfg = small_config(amplitude=0.01, density_guard=0.9999, t_final=5.0)
        with pytest.raises(SolverAbort) as err:
            simulate(cfg)
        assert err.value.time > 0.0
