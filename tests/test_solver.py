"""Pressure law, initial data, forcing terms, and ETD2 integrator tests."""

import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

import radns.semigroup
import radns.solver
from radns.besov import (
    BesovSpec,
    _sup_bound_weights,
    block_support,
    pair_besov_norm,
    resolved_range,
)
from radns.decay import linear_rows
from radns.errors import ConfigurationError, SolverAbort
from radns.semigroup import _propagator, apply_semigroup, mode_product
from radns.solver import (
    CSV_COLUMNS,
    PressureLaw,
    SolverConfig,
    SolverState,
    _check_density,
    diagnostics_row,
    initial_data_gaussian,
    initial_state,
    make_etd_tables,
    nonlinear_rhs,
    simulate,
    step_etd2,
)
from radns.spectral import (
    dst,
    lp_norm,
    make_grid,
    modulus,
    physical_values,
    spectral_l2_norm,
    to_spectral,
)
from test_besov import is_wide, oracle_pair_besov_norm, screened_kept_blocks
from test_spectral import (
    RadialVectorProfile,
    dealias_mask,
    divergence_of_profile,
    gradient_profile,
    physical_and_gradient,
)
from test_sup_modulus import weighted_sup_norm


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

    @pytest.mark.parametrize("gamma", [math.inf, math.nan])
    def test_non_finite_gamma_rejected(self, gamma):
        with pytest.raises(ConfigurationError, match="finite"):
            PressureLaw(gamma)


class TestInitialData:
    def test_zero_amplitude(self):
        grid = make_grid(256, 20.0)
        a0 = initial_data_gaussian(0.0, 1.0, grid)
        assert np.all(a0 == 0.0)

    def test_sup_norm(self):
        grid = make_grid(2048, 60.0)
        a0 = initial_data_gaussian(0.01, 1.0, grid)
        assert lp_norm(grid, a0, math.inf) == pytest.approx(
            0.01 * math.exp(-grid.r[0] ** 2), rel=1e-12)

    def test_l2_norm_quadrature(self):
        grid = make_grid(4095, 60.0)
        a0 = initial_data_gaussian(0.01, 1.0, grid)
        assert lp_norm(grid, a0, 2) == pytest.approx(0.01 * (math.pi / 2) ** 0.75, rel=1e-8)


def reconstruct_velocity(grid, v_hat):
    """Profile U of u = -|D|^{-1} grad v (the only velocity a radial v allows)."""
    grad = gradient_profile(grid, (1.0 / grid.rho) * v_hat)
    return RadialVectorProfile(grid, -grad.samples)


def reference_rhs(state, law, config):
    """The forcing pair as the general vector-profile calculus gives it:
    U from |D|^{-1} v, grad(U^2/2) from a dealiased re-synthesis of U^2/2,
    and both divergences from the dealiased sine expansion of the profile
    (17 transforms).  Oracle for nonlinear_rhs."""
    grid = state.grid
    mask = dealias_mask(grid)
    a_hat, v_hat = state.pair * mask

    a, grad_a = physical_and_gradient(grid, a_hat)
    _, grad_w = physical_and_gradient(grid, grid.rho * v_hat)     # w = |D| v
    velocity = reconstruct_velocity(grid, v_hat)

    half_speed = to_spectral(grid, 0.5 * velocity.samples ** 2) * mask
    grad_half_speed = gradient_profile(grid, half_speed)

    # f = -div(a u)
    transport = RadialVectorProfile(grid, a * velocity.samples)
    f_phys = divergence_of_profile(transport, dealias=True)
    f_hat = to_spectral(grid, -f_phys)

    # h = |D|^{-1} div(G x/r) with the combined forcing profile G
    forcing = (-grad_half_speed.samples
               - (a / (1.0 + a)) * grad_w
               - law.beta(a) * grad_a)
    div_g = divergence_of_profile(RadialVectorProfile(grid, forcing),
                                  dealias=True)
    h_hat = (1.0 / grid.rho) * to_spectral(grid, div_g)

    return np.array((f_hat, h_hat)) * mask


class TestReconstructVelocity:
    def test_zero(self):
        grid = make_grid(256, 20.0)
        vel = reconstruct_velocity(grid, np.zeros(grid.n_modes))
        assert np.all(vel.samples == 0.0)

    def test_single_mode(self):
        grid = make_grid(1024, 20.0)
        k0 = 5
        rho0 = grid.rho[k0]
        v_hat = np.zeros(grid.n_modes)
        v_hat[k0] = 1.0
        vel = reconstruct_velocity(grid, v_hat)
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
        v_hat = grid.rho * np.exp(-grid.rho ** 2 / 2)
        vel = reconstruct_velocity(grid, v_hat)
        div = divergence_of_profile(vel)
        back = (1.0 / grid.rho) * to_spectral(grid, div)
        err = np.max(np.abs(back - v_hat))
        assert err < 1e-9  # v = |D|^{-1} div u recovers the input


def make_state(grid, a_vals, v_vals, t=0.0):
    return SolverState(t, grid, np.array((a_vals, v_vals)))


class TestNonlinearRhs:
    def test_zero_state(self):
        cfg = small_config()
        grid = cfg.grid()
        state = make_state(grid, np.zeros(grid.n_modes), np.zeros(grid.n_modes))
        assert np.all(nonlinear_rhs(state, cfg.law(), cfg) == 0.0)

    def test_f_term_independent_of_gamma(self):
        cfg = small_config()
        grid = cfg.grid()
        rng = np.random.default_rng(0)
        a_vals = 0.05 * np.exp(-grid.rho ** 2 / 4)
        v_vals = 0.03 * np.exp(-grid.rho ** 2 / 3)
        state = make_state(grid, a_vals, v_vals)
        f14, h14 = nonlinear_rhs(state, PressureLaw(1.4), cfg)
        f20, h20 = nonlinear_rhs(state, PressureLaw(2.0), cfg)
        assert np.array_equal(f14, f20)
        assert not np.array_equal(h14, h20)

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
        assert np.array_equal(h_gamma2, h_dropped)

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
            norms.append(math.hypot(lp_norm(grid, physical_values(grid, f_hat), 2),
                                    lp_norm(grid, physical_values(grid, h_hat), 2)))
        slope = np.polyfit(np.log(eps_list), np.log(norms), 1)[0]
        assert slope == pytest.approx(2.0, abs=0.05)

    def test_density_floor_abort(self):
        cfg = small_config()
        grid = cfg.grid()
        a_phys = -0.7 * np.exp(-grid.r ** 2)
        state = make_state(grid, to_spectral(grid, a_phys), np.zeros(grid.n_modes))
        with pytest.raises(SolverAbort) as err:
            nonlinear_rhs(state, cfg.law(), cfg)
        assert err.value.time == 0.0
        assert "floor" in str(err.value) and err.value.mode_index == 0

    def test_density_size_abort_names_its_node(self):
        # 1 + a >= 1 clears the floor; it is |a| >= 1 that fires, at the peak
        cfg = small_config()
        grid = cfg.grid()
        a_phys = 1.2 * np.exp(-grid.r ** 2)
        state = make_state(grid, to_spectral(grid, a_phys), np.zeros(grid.n_modes))
        with pytest.raises(SolverAbort) as err:
            nonlinear_rhs(state, cfg.law(), cfg)
        assert "max|a|" in str(err.value) and "floor" not in str(err.value)
        assert err.value.mode_index == int(np.argmax(a_phys)) == 0

    def test_transform_count(self, transform_counter):
        # one FFT for each of the three (w, w') syntheses, for f's sine sum
        # and for h's (S, C) pair
        cfg = small_config()
        state = initial_state(cfg)
        tables = make_etd_tables(state.grid, cfg.dt)
        transform_counter[0] = 0
        nonlinear_rhs(state, cfg.law(), cfg)
        assert transform_counter[0] == 5
        transform_counter[0] = 0
        # two RHS calls; the sup bound settles the end-of-step density check
        step_etd2(state, cfg.law(), cfg, tables)
        assert transform_counter[0] == 10


def smooth_state(grid, rng, amplitude=0.01):
    """Random polynomial-times-Gaussian spectra: a_hat = P(rho^2/s) e^{-rho^2/s}
    and v_hat = rho Q(rho^2/s') e^{-rho^2/s'} (a velocity potential vanishes
    linearly at rho = 0), each scaled to a physical sup of `amplitude`."""
    rho2 = grid.rho ** 2
    fields = []
    for odd in (False, True):
        s = rng.uniform(1.0, 2.0)
        hat = np.polyval(rng.standard_normal(2), rho2 / s) * np.exp(-rho2 / s)
        if odd:
            hat = grid.rho * hat
        fields.append(amplitude * hat / np.max(np.abs(physical_values(grid, hat))))
    return make_state(grid, *fields)


class TestReferenceRhs:
    """nonlinear_rhs against reference_rhs, the vector-profile path it
    replaced.  The two differ most at the lowest modes of h_hat, where the
    reference loses digits dividing the transform of div(G x/r) by a small
    rho (rho_1 = pi/R), so the N = 8191, R = 1100 grid gets a wider bound."""

    @pytest.mark.parametrize("n_modes, radius, tol", [(511, 30.0, 1e-12),
                                                      (8191, 1100.0, 1e-7)])
    def test_matches_on_random_smooth_states(self, n_modes, radius, tol):
        cfg = small_config(n_modes=n_modes, outer_radius=radius)
        grid, law = cfg.grid(), cfg.law()
        rng = np.random.default_rng(7)
        for _ in range(10):
            state = smooth_state(grid, rng)
            for got, want in zip(nonlinear_rhs(state, law, cfg),
                                 reference_rhs(state, law, cfg)):
                scale = np.max(np.abs(want))
                assert np.max(np.abs(got - want)) <= tol * scale


def gaussian_state_calculus(r, amp, gamma):
    """Closed forms for a = amp e^{-r^2} and v_hat = rho e^{-rho^2}.

    Then q = |D|^{-1} v = 2^{-3/2} e^{-r^2/4}, U = -q' and w = |D| v = -Lap q
    are Gaussians times polynomials.  Returns f = -(a' U + a w), the forcing
    profile G = -U U' - a/(1+a) w' - beta(a) a' and G', each derivative by
    hand.
    """
    e, ea = np.exp(-r ** 2 / 4), np.exp(-r ** 2)
    u = 2 ** -2.5 * r * e
    u1 = 2 ** -2.5 * (1 - r ** 2 / 2) * e
    u2 = 2 ** -2.5 * (r ** 3 / 4 - 1.5 * r) * e
    w = 2 ** -1.5 * (1.5 - r ** 2 / 4) * e
    w1 = 2 ** -1.5 * (r ** 3 / 8 - 1.25 * r) * e
    w2 = 2 ** -1.5 * (-1.25 + r ** 2 - r ** 4 / 16) * e
    a, a1, a2 = amp * ea, -2 * amp * r * ea, amp * (4 * r ** 2 - 2) * ea
    beta = (1 + a) ** (gamma - 2) - 1
    beta1 = (gamma - 2) * (1 + a) ** (gamma - 3)        # d beta / d a
    f = -(a1 * u + a * w)
    g = -u * u1 - a / (1 + a) * w1 - beta * a1
    g1 = (-(u1 ** 2 + u * u2) - a1 / (1 + a) ** 2 * w1 - a / (1 + a) * w2
          - beta1 * a1 ** 2 - beta * a2)
    return f, g, g1


class TestAnalyticState:
    """Manufactured state with closed-form radial calculus: catches a wrong
    sign or factor in any forcing term, which self-convergence cannot."""

    @pytest.mark.parametrize("rhs", [nonlinear_rhs, reference_rhs])
    def test_forcing_pair_matches_closed_form(self, rhs):
        cfg = small_config()          # resolves every product below the 2/3 edge
        grid, amp = cfg.grid(), 0.3
        state = make_state(grid, amp * 2 ** -1.5 * np.exp(-grid.rho ** 2 / 4),
                           grid.rho * np.exp(-grid.rho ** 2))
        f, g, g1 = gaussian_state_calculus(grid.r, amp, cfg.gamma)
        div_g = g1 + 2.0 * g / grid.r             # div(G x/r), so |D| h
        f_hat, h_hat = rhs(state, cfg.law(), cfg)
        assert np.max(np.abs(physical_values(grid, f_hat) - f)) <= 1e-11 * np.max(np.abs(f))
        rho_h = physical_values(grid, grid.rho * h_hat)
        assert np.max(np.abs(rho_h - div_g)) <= 1e-11 * np.max(np.abs(div_g))

    def test_h_path_gaussian_flux(self):
        # v = 0 and beta(a) = 1/(2 amp) turn G into r e^{-r^2}, so
        # h_hat = (rho/2) 2^{-3/2} e^{-rho^2/4}, on the reference grid
        amp = 0.1

        class FluxLaw(PressureLaw):
            def beta(self, a):
                return np.full_like(np.asarray(a, dtype=float), 0.5 / amp)

        cfg = small_config(n_modes=8191, outer_radius=1100.0)
        grid = cfg.grid()
        state = make_state(grid, amp * 2 ** -1.5 * np.exp(-grid.rho ** 2 / 4),
                           np.zeros(grid.n_modes))
        f_hat, h_hat = nonlinear_rhs(state, FluxLaw(), cfg)
        exact = grid.rho / 2 * 2 ** -1.5 * np.exp(-grid.rho ** 2 / 4)
        assert np.all(f_hat == 0.0)
        assert np.max(np.abs(h_hat - exact)) <= 1e-10 * np.max(exact)


def zero_forcing(state, law, config):
    """A nonlinear_rhs stand-in that switches the forcing off."""
    return np.zeros_like(state.pair)


class TestStepEtd2:
    def test_linear_only_step_equals_propagator(self, monkeypatch):
        # with the forcing switched off, a step is the exact linear flow
        monkeypatch.setattr("radns.solver.nonlinear_rhs", zero_forcing)
        cfg = small_config()
        state = initial_state(cfg)
        tables = make_etd_tables(state.grid, cfg.dt)
        stepped = step_etd2(state, cfg.law(), cfg, tables)
        exact = apply_semigroup(state.grid, state.pair, cfg.dt)
        assert np.max(np.abs(stepped.pair - exact)) <= 1e-12

    def test_zero_data_stays_zero(self):
        cfg = small_config(amplitude=0.0)
        state = initial_state(cfg)
        tables = make_etd_tables(state.grid, cfg.dt)
        stepped = step_etd2(state, cfg.law(), cfg, tables)
        assert np.all(stepped.pair == 0.0)

    def test_non_finite_step_names_its_mode(self, monkeypatch):
        # forcing poisoned at mode 7 of h and mode 30 of f; the step couples
        # a and v per mode, and the abort names the first non-finite mode
        def poisoned(state, law, config):
            rows = np.zeros_like(state.pair)
            rows[1, 7] = rows[0, 30] = np.inf
            return rows

        monkeypatch.setattr("radns.solver.nonlinear_rhs", poisoned)
        cfg = small_config()
        state = initial_state(cfg)
        with np.errstate(invalid="ignore"), \
                pytest.raises(SolverAbort, match="non-finite spectral value") as err:
            step_etd2(state, cfg.law(), cfg, make_etd_tables(state.grid, cfg.dt))
        assert err.value.mode_index == 7 and err.value.time == cfg.dt

    @staticmethod
    def _advance(cfg, dt, t_end):
        state = initial_state(cfg)
        tables = make_etd_tables(state.grid, dt)
        law = cfg.law()
        for _ in range(int(round(t_end / dt))):
            state = step_etd2(state, law, cfg, tables)
        return state.pair

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


def rough_state(grid, rng, amplitude=0.01):
    """Gaussian white noise on every mode of a and v, each scaled to a
    physical sup of `amplitude`: the forcing of such a state is non-zero
    on every mode of its kept band."""
    fields = rng.standard_normal((2, grid.n_modes))
    return make_state(grid, *(amplitude * hat / np.max(np.abs(physical_values(grid, hat)))
                              for hat in fields))


class TestKeptBand:
    """The forcing lives on the lowest floor(2N/3) modes: it is exactly 0
    from that edge up, so a step moves every mode above the edge by the
    exact linear step e^{dt M} alone."""

    GRIDS = [(255, 30.0), (256, 30.0), (8191, 1100.0)]

    @pytest.mark.parametrize("n_modes, radius", GRIDS)
    def test_forcing_is_zero_from_the_edge_up(self, n_modes, radius):
        cfg = small_config(n_modes=n_modes, outer_radius=radius)
        state = rough_state(cfg.grid(), np.random.default_rng(n_modes))
        rows = nonlinear_rhs(state, cfg.law(), cfg)
        edge = 2 * n_modes // 3
        assert np.all(rows[:, edge:] == 0.0)
        assert np.all(rows[:, edge - 1] != 0.0)

    @pytest.mark.parametrize("n_modes, radius", GRIDS)
    def test_step_above_the_edge_is_the_linear_step(self, n_modes, radius):
        cfg = small_config(n_modes=n_modes, outer_radius=radius)
        state = rough_state(cfg.grid(), np.random.default_rng(n_modes))
        tables = make_etd_tables(state.grid, cfg.dt)
        new = step_etd2(state, cfg.law(), cfg, tables).pair
        linear = mode_product(tables.exp_entries, state.pair)
        edge = 2 * n_modes // 3
        assert np.array_equal(new[:, edge:], linear[:, edge:])
        assert np.all(new[:, edge - 1] != linear[:, edge - 1])


def per_pair_rhs(state, law, config):
    """The forcing with one transform call per sine/cosine pair, as
    nonlinear_rhs made it before its calls were batched: three one-row
    syntheses, a DST for f and one FFT for h's (S, C) pair, with the forcing
    table's weights written out.  The batched rows must match it bit for bit."""
    grid = state.grid
    n = grid.n_modes
    keep = 2 * n // 3
    rho = grid.rho[:keep]
    scale = math.sqrt(2.0 / math.pi) * grid.drho / 2.0
    out = math.sqrt(2.0 / math.pi) * grid.dr / 2.0 / rho
    a_plus, a_minus = scale * (rho * rho - rho), scale * (rho * rho + rho)
    inv_r = 1.0 / grid.r

    def synthesis(plus, minus, hat):
        z = np.zeros(2 * (n + 1))
        np.multiply(plus, hat, out=z[1:keep + 1])
        np.multiply(minus, hat, out=z[:-keep - 1:-1])
        bins = np.fft.rfft(z)[1:n + 1]
        value = bins.imag * inv_r
        slope = bins.real - value
        slope *= inv_r
        return value, slope

    a_hat, v_hat = state.pair[:, :keep]
    a, a_r = synthesis(a_plus, a_minus, a_hat)
    w, w_r = synthesis(a_plus, a_minus, rho * v_hat)
    u = synthesis(scale * (1.0 - rho), -scale * (1.0 + rho), v_hat)[1]
    u_r = u * inv_r
    u_r *= -2.0
    u_r += w

    rows = np.zeros((2, n))
    flux = a_r * u
    flux += a * w
    flux *= grid.r
    np.multiply(dst(flux)[:keep], -out, out=rows[0, :keep])

    minus_g = u * u_r
    minus_g += (a / (1.0 + a)) * w_r
    minus_g += law.beta(a) * a_r
    r_minus_g = grid.r * minus_g
    z = np.zeros(2 * (n + 1))
    np.add(r_minus_g, minus_g, out=z[1:n + 1])
    np.subtract(r_minus_g, minus_g, out=z[:n + 1:-1])
    bins = np.fft.rfft(z)[1:keep + 1]
    np.multiply(bins.imag, out / rho, out=rows[1, :keep])
    rows[1, :keep] -= bins.real * -out
    return rows


class TestPerPairOracle:
    """numpy's batched real FFT transforms each row as a one-row call does,
    so the two batched calls of nonlinear_rhs reproduce the per-pair calls
    exactly."""

    @pytest.mark.parametrize("n_modes, radius", [(255, 30.0), (256, 30.0), (8191, 1100.0)])
    @pytest.mark.parametrize("make", [smooth_state, rough_state])
    def test_bit_identical(self, n_modes, radius, make):
        cfg = small_config(n_modes=n_modes, outer_radius=radius)
        law = cfg.law()
        rng = np.random.default_rng(n_modes)
        for _ in range(3):
            state = make(cfg.grid(), rng)
            assert np.array_equal(nonlinear_rhs(state, law, cfg),
                                  per_pair_rhs(state, law, cfg))


class TestTransformCalls:
    """A forcing makes its 5 transforms in 2 calls, one real FFT for the three
    syntheses and one for the two analyses; a step adds the full-band density
    synthesis only when the sup bound of its a allows a trigger."""

    def test_forcing(self, transform_counter):
        cfg = small_config()
        state = initial_state(cfg)
        transform_counter[:] = [0, 0]
        nonlinear_rhs(state, cfg.law(), cfg)
        assert transform_counter == [5, 2]

    @pytest.mark.parametrize("margin, counts", [(1e-9, [10, 4]), (-1e-9, [11, 5])])
    def test_step_either_side_of_the_bound(self, transform_counter, margin, counts):
        # guard = 1 - 2 B (1 + margin) puts (1 - guard)/2 just above the sup
        # bound B of the step's a, which settles the check, or just below it,
        # where the step synthesises a; a clears both guards either way
        cfg = small_config()
        state, law = initial_state(cfg), cfg.law()
        tables = make_etd_tables(state.grid, cfg.dt)
        new = step_etd2(state, law, cfg, tables).pair
        bound = float(np.sum(_sup_bound_weights(state.grid, new[:1])))
        edge = small_config(density_guard=1.0 - 2.0 * bound * (1.0 + margin))
        assert (bound < (1.0 - edge.density_guard) / 2.0) == (margin > 0)
        transform_counter[:] = [0, 0]
        assert np.array_equal(step_etd2(state, law, edge, tables).pair, new)
        assert transform_counter == counts


class TestDensityCheck:
    """The density guards: _check_density's triggers and nodes, and the full
    band's check at the end of a step, which the sup bound may settle but
    never hide."""

    @staticmethod
    def values(rng, node, value):
        a = rng.uniform(-0.3, 0.3, 600)
        a[node] = value
        return a

    @pytest.mark.parametrize("value, message", [
        (math.nan, "non-finite density perturbation"),
        (math.inf, "non-finite density perturbation"),
        (-math.inf, "non-finite density perturbation"),
        (-0.6, "density floor breached: min(1+a) = 0.4000 <= guard 0.5"),
        (-0.5, "density floor breached: min(1+a) = 0.5000 <= guard 0.5"),
        (-1.5, "density floor breached: min(1+a) = -0.5000 <= guard 0.5"),
        (1.5, "density perturbation too large: max|a| = 1.5000 >= 1"),
        (1.0, "density perturbation too large: max|a| = 1.0000 >= 1"),
    ])
    def test_failing_check_names_trigger_and_node(self, value, message):
        a = self.values(np.random.default_rng(3), 417, value)
        with pytest.raises(SolverAbort) as err:
            _check_density(a, 0.5, 2.5)
        assert str(err.value) == message
        assert (err.value.mode_index, err.value.time) == (417, 2.5)

    @pytest.mark.parametrize("faults, trigger, node", [
        ({417: -0.6, 12: math.nan}, "non-finite", 12),
        ({417: math.nan, 12: -math.inf}, "non-finite", 12),
        ({417: 1.5, 12: -0.6}, "floor", 12),
        ({417: -0.7, 12: -0.6}, "floor", 417),
        ({417: 1.5, 12: -1.2}, "floor", 12),
    ])
    def test_first_trigger_wins(self, faults, trigger, node):
        a = np.random.default_rng(3).uniform(-0.3, 0.3, 600)
        for where, value in faults.items():
            a[where] = value
        with pytest.raises(SolverAbort, match=trigger) as err:
            _check_density(a, 0.5, 2.5)
        assert err.value.mode_index == node

    def test_passing_check(self):
        a = self.values(np.random.default_rng(3), 417, -0.4999)
        a[12] = 0.9999
        assert _check_density(a, 0.5, 2.5) is None

    @pytest.mark.parametrize("depth, guard, trigger", [(-2.0, 0.5, "floor"),
                                                       (-2.5, 0.1, "too large")])
    def test_breach_above_the_kept_band_aborts(self, monkeypatch, depth, guard, trigger):
        # a small Gaussian on the kept band, and above it the modes of a
        # one-node dip: the forcing's checks read the kept band alone and
        # pass, while the full-band a crosses a guard
        cfg = small_config(density_guard=guard)
        grid, law = cfg.grid(), cfg.law()
        keep = 2 * grid.n_modes // 3
        spike = np.zeros(grid.n_modes)
        spike[100] = depth
        a_hat = to_spectral(grid, initial_data_gaussian(0.01, 1.0, grid))
        a_hat[keep:] = to_spectral(grid, spike)[keep:]
        state = make_state(grid, a_hat, np.zeros(grid.n_modes))
        tables = make_etd_tables(grid, cfg.dt)
        with monkeypatch.context() as patch:
            patch.setattr(radns.solver, "_check_density", lambda *args: None)
            new = step_etd2(state, law, cfg, tables).pair
        kept = slice(0, keep)
        for pair in (state.pair, new):
            _check_density(physical_values(grid, pair[0, kept], kept), cfg.density_guard, 0.0)
        with pytest.raises(SolverAbort) as want:
            _check_density(physical_values(grid, new[0]), cfg.density_guard, cfg.dt)
        assert trigger in str(want.value)
        with pytest.raises(SolverAbort) as got:
            step_etd2(state, law, cfg, tables)
        assert (str(got.value), got.value.mode_index, got.value.time) == \
            (str(want.value), want.value.mode_index, want.value.time)


class TestNonlinearPart:
    def test_zero_at_start(self):
        rows, _ = simulate(small_config())
        assert rows[0].t == 0.0
        assert rows[0].nl_l2 == rows[0].nl_besov_inf1 == 0.0

    def test_zero_data_zero_for_all_time(self):
        cfg = small_config(amplitude=0.0, t_final=1.0)
        rows, state = simulate(cfg)
        assert np.all(state.pair == 0.0)
        for row in rows:
            assert row.nl_l2 == row.nl_besov_inf1 == 0.0

    def test_quadratic_in_amplitude(self):
        # the Duhamel remainder is quadratic in the data, so doubling c must
        # scale its norms by 4; a linear flow off by one step in time would
        # leave an O(c) residue and scale them by about 2
        cfg = small_config(t_final=2.0, output_interval=1.0)
        once, _ = simulate(cfg)
        twice, _ = simulate(small_config(t_final=2.0, output_interval=1.0,
                                         amplitude=2.0 * cfg.amplitude))
        for one, two in zip(once[1:], twice[1:]):
            assert two.nl_l2 / one.nl_l2 == pytest.approx(4.0, abs=0.05)
            assert two.nl_besov_inf1 / one.nl_besov_inf1 == pytest.approx(4.0, abs=0.05)

        # to T = 10 the cubic term moves the ratio by O(c): the largest
        # |4 - nl(c)/nl(c/2)| is 0.0433 / 0.0219 / 0.0110 / 0.0055 at c = 0.02 /
        # 0.01 / 0.005 / 0.0025, halving with c. Linear-flow error leaking into
        # the remainder is O(c) against its O(c^2), so it grows as c falls: the
        # ETD propagator's m11 off by 1e-7 relative, or the linear-flow time
        # off by 1e-6, stops the halving
        runs = {c: simulate(small_config(t_final=10.0, output_interval=2.0, amplitude=c))[0]
                for c in (0.02, 0.01, 0.005, 0.0025, 0.00125)}
        for column in ("nl_l2", "nl_besov_inf1"):
            gaps = [max(abs(4.0 - getattr(two, column) / getattr(one, column))
                        for one, two in zip(runs[c / 2.0][1:], runs[c][1:]))
                    for c in (0.02, 0.01, 0.005, 0.0025)]
            assert gaps[0] <= 0.05, (column, gaps)
            assert all(big >= 1.8 * small for big, small in zip(gaps, gaps[1:])), (column, gaps)

    def test_much_smaller_than_solution(self):
        cfg = SolverConfig(n_modes=2047, outer_radius=60.0, dt=0.05, t_final=10.0,
                           output_interval=10.0, amplitude=0.01)
        rows, state = simulate(cfg)
        nl = rows[-1].nl_l2
        total = rows[-1].l2_av
        assert nl < total / 10.0


def oracle_row(state, linear):
    """The row as the physical-space formulas give it: each field synthesised
    alone, L^p norms by the rectangle rule of the pointwise modulus, and Besov
    norms from the one-block-at-a-time loop."""
    grid, pair, nl_pair = state.grid, state.pair, state.pair - linear
    modulus = np.hypot(*(physical_values(grid, row) for row in pair))
    nl_modulus = np.hypot(*(physical_values(grid, row) for row in nl_pair))
    spec21, spec_inf1 = BesovSpec(0.0, 2.0, 1.0), BesovSpec(0.0, math.inf, 1.0)
    return (state.t, lp_norm(grid, modulus, 2.0), lp_norm(grid, modulus, math.inf),
            oracle_pair_besov_norm(grid, *pair, spec21),
            oracle_pair_besov_norm(grid, *pair, spec_inf1),
            lp_norm(grid, nl_modulus, 2.0),
            oracle_pair_besov_norm(grid, *nl_pair, spec_inf1),
            weighted_sup_norm(grid, modulus))


def fourth_order_derivative(values, dr, parity, outside):
    """f' at r_m = m dr, m = 0..n, by fourth-order central differences of
    the samples f(r_m) of a function of the given parity in r (+1 even,
    -1 odd), equal to `outside` past r_n; the ghosts at r < 0 mirror it."""
    ext = np.concatenate((parity * values[2:0:-1], values, [outside, outside]))
    return (8.0 * (ext[3:-1] - ext[1:-3]) - (ext[4:] - ext[:-4])) / (12.0 * dr)


def radial_divergence(profile, slope, r):
    """div(F x/r) = F' + 2F/r of the odd profile F at r_m, m = 0..n, given
    F' there; at r = 0 the limit is 3 F'(0)."""
    div = slope.copy()
    div[1:] += 2.0 * profile[1:] / r[1:]
    div[0] *= 3.0
    return div


def primitive_rhs(dr, n_nodes, gamma):
    """Right side of the radial compressible Navier-Stokes system in the
    primitive variables, density rho = 1 + a and velocity profile U:

        rho_t = -div(rho U x/r),
        U_t = -U U' + D'/rho - P'(rho) rho'/rho,   D = div(U x/r),

    with unit sound speed, unit combined viscosity and P = rho^gamma/gamma.
    The unknowns are rho at r_m = m dr, m = 0..n_nodes, and U at m >= 1
    (U(0) = 0).  rho and D are even in r, U and rho U odd; past the last
    node the fluid is at rest, rho = 1 and U = 0."""
    r = dr * np.arange(n_nodes + 1)

    def rhs(t, y):
        rho, u = y[:n_nodes + 1], np.concatenate(([0.0], y[n_nodes + 1:]))
        u_r = fourth_order_derivative(u, dr, -1.0, 0.0)
        div_u = radial_divergence(u, u_r, r)
        flux = rho * u
        d_rho = -radial_divergence(flux, fourth_order_derivative(flux, dr, -1.0, 0.0), r)
        d_u = (-u * u_r + fourth_order_derivative(div_u, dr, 1.0, 0.0) / rho
               - rho ** (gamma - 2.0) * fourth_order_derivative(rho, dr, 1.0, 1.0))
        return np.concatenate((d_rho, d_u[1:]))

    return rhs


class TestPrimitiveVariableOracle:
    """The stepped (a, v) solution against the same flow computed in the
    primitive variables (rho, U) on the nodes: fourth-order differences,
    parity ghosts and scipy's RK45 at rtol 1e-10.  It shares no code with
    the forcing, so a wrong sign or factor in any term shows as a gap of
    the order of the nonlinear part itself (measured: 1.5e-4 of its sup
    here, 0.40 with beta's sign flipped and 0.047 with a/(1+a) replaced
    by a)."""

    def test_stepped_solution_matches(self):
        cfg = small_config(amplitude=0.2, dt=0.01, t_final=1.0, output_interval=1.0)
        _, state = simulate(cfg)
        grid = state.grid
        a = physical_values(grid, state.pair[0])
        u = reconstruct_velocity(grid, state.pair[1]).samples
        linear = apply_semigroup(grid, initial_state(cfg).pair, cfg.t_final)
        nl_sup = max(np.max(np.abs(a - physical_values(grid, linear[0]))),
                     np.max(np.abs(u - reconstruct_velocity(grid, linear[1]).samples)))

        n_nodes = 256                   # r <= 15: the flow is at rest past it
        r = grid.dr * np.arange(n_nodes + 1)
        start = np.concatenate((1.0 + cfg.amplitude * np.exp(-(r / cfg.width) ** 2),
                                np.zeros(n_nodes)))
        solution = solve_ivp(primitive_rhs(grid.dr, n_nodes, cfg.gamma),
                             (0.0, cfg.t_final), start, method="RK45",
                             rtol=1e-10, atol=1e-13)
        assert solution.success
        rho, u_fd = np.split(solution.y[:, -1], [n_nodes + 1])
        gap = max(np.max(np.abs(rho[1:] - 1.0 - a[:n_nodes])),
                  np.max(np.abs(u_fd - u[:n_nodes])))
        at_rest = max(np.max(np.abs(a[n_nodes:])), np.max(np.abs(u[n_nodes:])))
        assert at_rest <= 1e-3 * nl_sup
        assert gap <= 1e-3 * nl_sup


class TestDiagnosticsRow:
    """Transforms per row: one two-row transform per wide block that
    screening keeps for each p = inf pair norm (a narrow block is the
    two-level product, and the sup norms sum the blocks of the pair's norm);
    every p = 2 norm is Parseval, and an identically zero nonlinear part costs
    nothing."""

    def snapshot(self, linear):
        """A state at t = 3 and its linear flow."""
        grid = make_grid(1023, 40.0)
        rng = np.random.default_rng(3)
        decay = np.exp(-0.05 * grid.rho ** 2)
        a, v, da, dv = (rng.standard_normal(grid.n_modes) * decay for _ in range(4))
        state = make_state(grid, a, v, t=3.0)
        if linear:        # as a linear-only run has it: the pair is its own linear flow
            return state, state.pair
        return state, make_state(grid, a - 1e-3 * da, v - 1e-3 * dv).pair

    @pytest.mark.parametrize("linear", [True, False])
    def test_transform_count(self, transform_counter, linear):
        state, flow = self.snapshot(linear)
        grid, spec = state.grid, BesovSpec(0.0, math.inf, 1.0)
        kept = screened_kept_blocks(grid, *state.pair, spec)
        j_min, j_max = resolved_range(grid)
        assert 0 < len(kept) < j_max - j_min + 1
        nl_kept = [] if linear else screened_kept_blocks(
            grid, *(state.pair - flow), spec)
        wide = [j for j in kept + nl_kept if is_wide(grid, j)]
        assert 0 < len(wide) < len(kept + nl_kept)
        start = transform_counter[0]
        diagnostics_row(state, flow)
        assert transform_counter[0] - start == 2 * len(wide)

    @pytest.mark.parametrize("linear", [True, False])
    def test_matches_physical_space_formulas(self, linear):
        state, flow = self.snapshot(linear)
        row = diagnostics_row(state, flow).as_tuple()
        for got, want in zip(row, oracle_row(state, flow)):
            assert got == pytest.approx(want, rel=1e-12)
        if linear:
            assert row[5] == 0.0 and row[6] == 0.0

    def test_stepped_state_matches(self):
        cfg = small_config(t_final=2.0, output_interval=1.0)
        rows, state = simulate(cfg)
        start = initial_state(cfg)
        flow = apply_semigroup(start.grid, start.pair, state.t)
        for got, want in zip(rows[-1].as_tuple(), oracle_row(state, flow)):
            assert got == pytest.approx(want, rel=1e-12)


class TestLinearOnlyRows:
    """A row whose state is its own linear flow writes nl_l2 = nl_besov_inf1
    = 0.0 with no subtraction and no third Besov pass; a stepped row still
    measures state - linear."""

    @staticmethod
    def record(monkeypatch):
        """Count the solver's pair_besov_norm calls and record each row's
        (state, linear) arguments."""
        calls, seen = [0], []

        def counting(*args, **kwargs):
            calls[0] += 1
            return pair_besov_norm(*args, **kwargs)

        def recording(state, linear):
            seen.append((state, linear))
            return diagnostics_row(state, linear)

        monkeypatch.setattr(radns.solver, "pair_besov_norm", counting)
        monkeypatch.setattr(radns.solver, "diagnostics_row", recording)
        return calls, seen

    def test_linear_rows_skip_the_nonlinear_pass(self, monkeypatch):
        calls, seen = self.record(monkeypatch)
        rows = linear_rows(small_config(t_final=2.0, output_interval=0.5))
        assert len(rows) == 5
        assert all(row.nl_l2 == 0.0 and row.nl_besov_inf1 == 0.0 for row in rows)
        assert calls[0] == 2 * len(rows)        # a stepped row makes 3
        monkeypatch.undo()
        for row, (state, linear) in zip(rows, seen):
            assert state.pair is linear
            # the subtraction's path reads the same bits on a copy of the flow
            assert row.as_tuple() == diagnostics_row(state, linear.copy()).as_tuple()

    def test_stepped_rows_measure_the_subtraction(self, monkeypatch):
        calls, seen = self.record(monkeypatch)
        rows, _ = simulate(small_config(t_final=1.0, output_interval=0.5))
        assert len(rows) == 3
        assert calls[0] == 3 * len(rows) - 1    # row 0 is its own linear flow
        monkeypatch.undo()
        spec = BesovSpec(0.0, math.inf, 1.0)
        for row, (state, linear) in zip(rows[1:], seen[1:]):
            nl = state.pair - linear
            assert row.nl_l2 == spectral_l2_norm(state.grid, nl) > 0.0
            assert row.nl_besov_inf1 == pair_besov_norm(state.grid, nl, spec) > 0.0


class TestOutputPropagation:
    """simulate carries the linear flow from one output to the next with the
    propagator of the gap between them, cached per gap."""

    def test_rows_follow_the_direct_propagator(self, monkeypatch):
        # rho_k = k / 16 puts mode 32 at rho = 2, where the eigenvalues
        # coalesce; T = 1.3 ends on a gap of 6 steps after two of 10
        cfg = small_config(n_modes=255, outer_radius=16.0 * math.pi, dt=0.05,
                           t_final=1.3, output_interval=0.5, linear_only=True)
        seen = []

        def recording(state, linear):
            seen.append((state.t, state.pair, linear))
            return diagnostics_row(state, linear)

        built, mode_matrices = [0], radns.semigroup.mode_matrices

        def counting(rho, t):
            built[0] += 1
            return mode_matrices(rho, t)

        monkeypatch.setattr(radns.solver, "diagnostics_row", recording)
        monkeypatch.setattr(radns.semigroup, "mode_matrices", counting)
        _propagator.cache_clear()
        simulate(cfg)
        run_built = built[0]
        assert [t for t, _, _ in seen] == pytest.approx([0.0, 0.5, 1.0, 1.3], abs=1e-12)
        pair0 = initial_state(cfg).pair
        for t, pair, linear in seen:
            assert pair is linear
            direct = apply_semigroup(cfg.grid(), pair0, t)
            assert np.max(np.abs(pair - direct)) <= 1e-13 * np.max(np.abs(direct))
        assert run_built == 2                     # one propagator per distinct gap


class TestSupColumns:
    """linf_av and weighted_sup come from the sum of the blocks that the
    pair's B^0_{inf,1} norm synthesises; they match the node maxima of the
    one-transform synthesis of the pair."""

    GRID = (1023, 40.0)     # block j_min holds the one mode rho_1

    @staticmethod
    def node_maxima(grid, pair):
        values = modulus(physical_values(grid, pair))
        return np.max(values), np.max(grid.r * values)

    def check(self, grid, pair):
        row = diagnostics_row(SolverState(0.0, grid, pair), pair)
        linf, weighted = self.node_maxima(grid, pair)
        assert abs(row.linf_av - linf) <= 1e-14 * linf
        assert abs(row.weighted_sup - weighted) <= 1e-14 * weighted

    @staticmethod
    def screened(grid, pair):
        """Blocks with content that screening skips."""
        spec = BesovSpec(0.0, math.inf, 1.0)
        kept = screened_kept_blocks(grid, *pair, spec)
        j_min, j_max = resolved_range(grid)
        return [j for j in range(j_min, j_max + 1)
                if j not in kept and np.any(pair[:, block_support(grid, j)])]

    def test_one_mode_block(self):
        grid = make_grid(*self.GRID)
        support = block_support(grid, resolved_range(grid)[0])
        assert (support.start, support.stop) == (0, 1)
        pair = np.zeros((2, grid.n_modes))
        pair[:, 0] = (1.0, -0.5)
        assert not self.screened(grid, pair)
        self.check(grid, pair)

    @pytest.mark.parametrize("t, screens", [(0.0, False), (2.0, False),
                                            (8.0, True), (30.0, True)])
    def test_linear_flow_rows(self, t, screens):
        grid = make_grid(*self.GRID)
        pair0 = np.zeros((2, grid.n_modes))
        pair0[0] = to_spectral(grid, initial_data_gaussian(0.01, 1.0, grid))
        pair = apply_semigroup(grid, pair0, t)
        assert bool(self.screened(grid, pair)) == screens
        self.check(grid, pair)

    def test_rough_data_keeps_every_block(self):
        grid = make_grid(*self.GRID)
        rng = np.random.default_rng(24)
        for _ in range(3):
            pair = rng.standard_normal((2, grid.n_modes)) / (1.0 + grid.rho ** 2)
            assert not self.screened(grid, pair)
            self.check(grid, pair)

    def test_zero_data(self):
        grid = make_grid(*self.GRID)
        row = diagnostics_row(SolverState(0.0, grid, np.zeros((2, grid.n_modes))),
                              np.zeros((2, grid.n_modes)))
        assert row.linf_av == row.weighted_sup == 0.0


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
        assert np.array_equal(state_a.pair, state_b.pair)
        assert [r.as_tuple() for r in rows_a] == [r.as_tuple() for r in rows_b]

    def test_decaying_l2_after_transient(self):
        cfg = SolverConfig(n_modes=2047, outer_radius=80.0, dt=0.05, t_final=30.0,
                           output_interval=1.0, amplitude=0.01)
        rows, _ = simulate(cfg)
        tail = [r.l2_av for r in rows if r.t >= 5.0]
        assert all(b < a for a, b in zip(tail, tail[1:]))

    @pytest.mark.parametrize("field, value", [
        ("gamma", math.nan), ("gamma", math.inf), ("amplitude", math.nan),
        ("amplitude", math.inf), ("width", math.nan),
    ])
    def test_non_finite_physics_rejected(self, field, value):
        # NaN slipped through the <= and < checks, and gamma went unchecked
        with pytest.raises(ConfigurationError, match="finite"):
            small_config(**{field: value}).validate()

    @pytest.mark.parametrize("field", ["t_final", "output_interval"])
    def test_infinite_time_has_no_whole_steps(self, field):
        # the config schema rejects both first; a SolverConfig built in code
        # still meets this check, which used to end in OverflowError
        with pytest.raises(ConfigurationError, match="whole multiple of dt"):
            small_config(**{field: math.inf}).validate()

    def test_front_containment_enforced(self):
        with pytest.raises(ConfigurationError):
            small_config(t_final=100.0).validate()

    def test_abort_propagates_time(self):
        cfg = small_config(amplitude=0.01, density_guard=0.9999, t_final=5.0)
        with pytest.raises(SolverAbort) as err:
            simulate(cfg)
        assert err.value.time > 0.0


class TestResolution:
    """The same run on N = 511, 1023 and 2047 modes with R fixed.

    drho = pi/R does not depend on N, so the grids share their lowest modes
    and a doubling only extends the band, where the data has no content.
    Norms read from the spectral values (Parseval) therefore agree to
    rounding, while the sup-type norms are node maxima on r_m = m R/(N+1),
    whose sampling error is O(dr^2): their N-to-2N difference must shrink
    about 4x per doubling (the largest relative difference over the output
    times).  A forcing term evaluated O(dr) off its node would break both."""

    SPECTRAL = ("l2_av", "besov0_21", "nl_l2")
    SAMPLED = ("linf_av", "besov0_inf1", "weighted_sup", "nl_besov_inf1")

    def test_diagnostics_converge_with_n(self):
        runs = []
        for n_modes in (511, 1023, 2047):
            rows, _ = simulate(SolverConfig(n_modes=n_modes, outer_radius=30.0, dt=0.05,
                                            t_final=2.0, output_interval=0.5))
            runs.append(np.array([row.as_tuple() for row in rows]))
        coarse, mid, fine = runs
        assert np.array_equal(fine[:, 0], [0.0, 0.5, 1.0, 1.5, 2.0])
        for name in self.SPECTRAL:
            i = CSV_COLUMNS.index(name)
            for run in (coarse, mid):
                assert np.all(np.abs(run[:, i] - fine[:, i]) <= 1e-13 * fine[:, i]), name
        for name in self.SAMPLED:
            i = CSV_COLUMNS.index(name)
            scale = fine[1:, i]             # the nonlinear part is 0 at t = 0
            first = np.max(np.abs(coarse[1:, i] - mid[1:, i]) / scale)
            second = np.max(np.abs(mid[1:, i] - fine[1:, i]) / scale)
            assert 0.0 < first < 1e-2, name
            assert first >= 3.5 * second, name
