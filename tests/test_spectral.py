"""Grid, transform, multiplier, derivative, and norm tests.

Derived expectations are computed by independent oracles: direct O(N^2)
summation for the transforms, finite differences for the Laplacian,
quadrature for integrals, and scalar minimisation for sup-type norms.
"""

import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.optimize import minimize_scalar

from radns.errors import ConfigurationError, NumericDomainError, UsageError
from radns.spectral import (
    RadialGrid,
    _cosine_sum,
    _sine_sum,
    apply_multiplier,
    as_spectral,
    dealias_mask,
    derivative_filter,
    field_from_samples,
    lp_norm,
    make_grid,
    physical_and_gradient,
    spectral_lp_norm,
    to_physical,
    to_spectral,
    weighted_sup_norm,
)


def zero_field(grid, space="physical"):
    """The identically zero field."""
    return field_from_samples(grid, np.zeros(grid.n_modes), space)


def field_from_profile_function(grid, fn, space="physical"):
    """Samples of fn at the grid's r nodes (physical) or rho nodes (spectral)."""
    return field_from_samples(grid, fn(grid.r if space == "physical" else grid.rho), space)


# The vector-profile layer the nonlinear RHS once went through (a radial
# vector field U(r) x/r stored as its profile U), kept as an oracle for the
# derivatives and for test_solver.reference_rhs.

@dataclass
class RadialVectorProfile:
    """Profile U of the 3D radial vector field U(r) x/r, sampled at r_m."""

    grid: RadialGrid
    samples: np.ndarray


def gradient_profile(field):
    """Profile U = w'(r) of the gradient of a radial scalar w."""
    return RadialVectorProfile(field.grid, physical_and_gradient(as_spectral(field))[1])


def divergence_of_profile(vec, dealias_fraction=None):
    """div(G(r) x/r) = G'(r) + 2 G(r)/r as a physical-space field.

    G' comes from differentiating the sine expansion of G itself; when a
    dealias fraction is given the top modes of that expansion are zeroed and
    the 2G/r term uses the truncated profile for consistency.
    """
    grid = vec.grid
    if not np.all(np.isfinite(vec.samples)):
        raise NumericDomainError("profile contains non-finite samples")
    coeffs = _sine_sum(vec.samples, grid.dr)      # of the odd extension of G
    g = vec.samples
    if dealias_fraction is not None:
        coeffs = coeffs * dealias_mask(grid, dealias_fraction)
        g = _sine_sum(coeffs, grid.drho)
    coeffs = coeffs * derivative_filter(grid)
    g_prime = _cosine_sum(grid.rho * coeffs, grid.drho)
    return field_from_samples(grid, g_prime + 2.0 * g / grid.r)


def direct_sine_transform(grid, samples):
    """O(N^2) summation oracle for the weighted sine transform."""
    kernel = np.sin(np.outer(grid.rho, grid.r))
    ghat = math.sqrt(2.0 / math.pi) * grid.dr * kernel @ (grid.r * samples)
    return ghat / grid.rho


class TestGrid:
    def test_rejects_small_n(self):
        with pytest.raises(ConfigurationError):
            make_grid(3, 10.0)

    def test_rejects_bad_radius(self):
        with pytest.raises(ConfigurationError):
            make_grid(64, 0.0)
        with pytest.raises(ConfigurationError):
            make_grid(64, -2.0)

    def test_spacing_255(self):
        grid = make_grid(255, math.pi * 256)
        assert grid.dr == pytest.approx(math.pi, rel=1e-15)
        assert grid.drho == pytest.approx(1.0 / 256.0, rel=1e-15)
        assert grid.dr * grid.drho == pytest.approx(math.pi / 256.0, rel=1e-14)

    def test_spacing_8191(self):
        grid = make_grid(8191, 500.0)
        assert grid.dr == pytest.approx(500.0 / 8192.0, rel=1e-15)
        assert grid.drho == pytest.approx(math.pi / 500.0, rel=1e-15)

    def test_duality_condition(self):
        for n, radius in [(8, 1.0), (100, 7.3), (4096, 500.0)]:
            grid = make_grid(n, radius)
            assert grid.dr * grid.drho == pytest.approx(math.pi / (n + 1), rel=1e-14)

    def test_nodes_strictly_positive(self):
        grid = make_grid(32, 5.0)
        assert grid.r.min() > 0
        assert grid.rho.min() > 0


class TestTransforms:
    def test_zero_maps_to_zero(self):
        grid = make_grid(64, 10.0)
        assert np.all(to_spectral(zero_field(grid)).values == 0.0)
        assert np.all(to_physical(zero_field(grid, "spectral")).values == 0.0)

    def test_gaussian_self_transform(self):
        grid = make_grid(4096, 40.0)
        f = field_from_profile_function(grid, lambda r: np.exp(-r ** 2 / 2))
        fhat = to_spectral(f)
        assert np.max(np.abs(fhat.values - np.exp(-grid.rho ** 2 / 2))) < 1e-12

    def test_gaussian_inverse(self):
        grid = make_grid(4096, 40.0)
        fhat = field_from_profile_function(grid, lambda r: np.exp(-r ** 2 / 2), "spectral")
        f = to_physical(fhat)
        assert np.max(np.abs(f.values - np.exp(-grid.r ** 2 / 2))) < 1e-12

    def test_single_basis_vector_direct_sum(self):
        grid = make_grid(256, 17.0)
        k0 = 31
        ghat = np.zeros(256)
        ghat[k0] = 1.0
        fhat = field_from_samples(grid, ghat / grid.rho, "spectral")
        f = to_physical(fhat)
        expected = (math.sqrt(2 / math.pi) * grid.drho
                    * np.sin(grid.r * grid.rho[k0]) / grid.r)
        assert np.max(np.abs(f.values - expected)) < 1e-14

    def test_forward_matches_direct_summation(self):
        grid = make_grid(256, 11.0)
        rng = np.random.default_rng(7)
        f = field_from_samples(grid, rng.standard_normal(256))
        fhat = to_spectral(f)
        oracle = direct_sine_transform(grid, f.values)
        assert np.max(np.abs(fhat.values - oracle)) < 1e-11

    def test_round_trip_random(self):
        grid = make_grid(512, 25.0)
        rng = np.random.default_rng(3)
        f = field_from_samples(grid, rng.standard_normal(512))
        back = to_physical(to_spectral(f))
        rel = np.max(np.abs(back.values - f.values)) / np.max(np.abs(f.values))
        assert rel < 1e-12

    def test_wrong_space_rejected(self):
        grid = make_grid(32, 4.0)
        with pytest.raises(UsageError):
            to_spectral(zero_field(grid, "spectral"))
        with pytest.raises(UsageError):
            to_physical(zero_field(grid, "physical"))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=10))
    def test_involution_property(self, seed):
        grid = make_grid(128, 9.0)
        rng = np.random.default_rng(seed)
        f = field_from_samples(grid, rng.standard_normal(128) * 10.0 ** rng.integers(-3, 4))
        back = to_physical(to_spectral(f))
        scale = np.max(np.abs(f.values))
        assert np.max(np.abs(back.values - f.values)) <= 1e-12 * scale

    def test_parseval(self):
        for n in (256, 4096):
            grid = make_grid(n, 30.0)
            rng = np.random.default_rng(n)
            f = field_from_samples(grid, rng.standard_normal(n))
            fhat = to_spectral(f)
            phys = grid.dr * np.sum(grid.r ** 2 * f.values ** 2)
            spect = grid.drho * np.sum(grid.rho ** 2 * fhat.values ** 2)
            assert abs(phys - spect) / phys < 1e-10


class TestMultipliers:
    def test_identity(self):
        grid = make_grid(64, 8.0)
        rng = np.random.default_rng(0)
        f = field_from_samples(grid, rng.standard_normal(64), "spectral")
        out = apply_multiplier(f, lambda rho: np.ones_like(rho))
        assert np.array_equal(out.values, f.values)

    def test_inverse_pair(self):
        grid = make_grid(64, 8.0)
        rng = np.random.default_rng(1)
        f = field_from_samples(grid, rng.standard_normal(64), "spectral")
        out = apply_multiplier(apply_multiplier(f, lambda rho: rho),
                               lambda rho: 1.0 / rho)
        assert np.max(np.abs(out.values - f.values)) < 1e-15

    def test_composition_exact(self):
        grid = make_grid(64, 8.0)
        rng = np.random.default_rng(2)
        f = field_from_samples(grid, rng.standard_normal(64), "spectral")
        m1 = lambda rho: np.sin(rho) + 2.0
        m2 = lambda rho: rho ** 0.5
        a = apply_multiplier(apply_multiplier(f, m1), m2)
        b = apply_multiplier(f, lambda rho: m1(rho) * m2(rho))
        # float products reassociate: agreement is to the last ulp, not bitwise
        assert np.allclose(a.values, b.values, rtol=4e-16, atol=0)

    def test_laplacian_vs_finite_differences(self):
        grid = make_grid(2048, 30.0)
        f = field_from_profile_function(grid, lambda r: np.exp(-r ** 2 / 2))
        lap = to_physical(apply_multiplier(to_spectral(f), lambda rho: -rho ** 2))
        vals = f.values
        d1 = np.gradient(vals, grid.dr)
        d2 = np.gradient(d1, grid.dr)
        oracle = d2 + 2.0 * d1 / grid.r
        interior = (grid.r > 0.5) & (grid.r < 10.0)
        err = np.max(np.abs(lap.values[interior] - oracle[interior]))
        assert err < 5e-3  # second-order FD oracle limits the comparison

    def test_gaussian_rho_squared_values(self):
        grid = make_grid(4096, 40.0)
        fhat = field_from_profile_function(grid, lambda r: np.exp(-r ** 2 / 2), "spectral")
        out = apply_multiplier(fhat, lambda rho: rho ** 2)
        assert np.allclose(out.values, grid.rho ** 2 * np.exp(-grid.rho ** 2 / 2),
                           rtol=0, atol=1e-15)

    def test_nonfinite_multiplier_rejected(self):
        grid = make_grid(32, 4.0)
        f = zero_field(grid, "spectral")
        with pytest.raises(NumericDomainError):
            apply_multiplier(f, lambda rho: 1.0 / (rho - rho[0]))


class TestDerivatives:
    def test_gradient_gaussian(self):
        grid = make_grid(4096, 40.0)
        f = field_from_profile_function(grid, lambda r: np.exp(-r ** 2 / 2))
        values, grad = physical_and_gradient(to_spectral(f))
        exact = -grid.r * np.exp(-grid.r ** 2 / 2)
        assert np.max(np.abs(grad - exact)) < 1e-10
        assert np.max(np.abs(values - f.values)) < 1e-14

    def test_gradient_zero(self):
        grid = make_grid(64, 8.0)
        assert np.all(physical_and_gradient(zero_field(grid, "spectral"))[1] == 0.0)

    def test_gradient_single_mode(self):
        grid = make_grid(1024, 20.0)
        k0 = 4
        rho0 = grid.rho[k0]
        f = field_from_profile_function(grid, lambda r: np.sin(rho0 * r) / r)
        grad = physical_and_gradient(to_spectral(f))[1]
        exact = rho0 * np.cos(rho0 * grid.r) / grid.r - np.sin(rho0 * grid.r) / grid.r ** 2
        assert np.max(np.abs(grad - exact)) < 1e-11

    def test_gradient_accepts_spectral_input(self):
        grid = make_grid(512, 20.0)
        f = field_from_profile_function(grid, lambda r: np.exp(-r ** 2))
        a = gradient_profile(f)
        b = gradient_profile(to_spectral(f))
        assert np.max(np.abs(a.samples - b.samples)) < 1e-13

    def test_divergence_of_identity_field(self):
        grid = make_grid(4096, 40.0)
        vec = RadialVectorProfile(grid, grid.r.copy())
        div = divergence_of_profile(vec)
        interior = grid.r < 20.0
        assert np.max(np.abs(div.values[interior] - 3.0)) < 1e-9

    def test_divergence_zero(self):
        grid = make_grid(64, 8.0)
        vec = RadialVectorProfile(grid, np.zeros(64))
        assert np.all(divergence_of_profile(vec).values == 0.0)

    def test_divergence_symbolic(self):
        grid = make_grid(2048, 30.0)
        vec = RadialVectorProfile(grid, grid.r * np.exp(-grid.r ** 2))
        div = divergence_of_profile(vec)
        exact = 3.0 * np.exp(-grid.r ** 2) - 2.0 * grid.r ** 2 * np.exp(-grid.r ** 2)
        assert np.max(np.abs(div.values - exact)) < 1e-11

    def test_divergence_of_gradient_is_laplacian(self):
        grid = make_grid(2048, 30.0)
        f = field_from_profile_function(grid, lambda r: np.exp(-r ** 2 / 2))
        lap_a = divergence_of_profile(gradient_profile(f))
        lap_b = to_physical(apply_multiplier(to_spectral(f), lambda rho: -rho ** 2))
        assert np.max(np.abs(lap_a.values - lap_b.values)) < 1e-9


class TestNorms:
    def test_l2_gaussian_quadrature_oracle(self):
        grid = make_grid(4096, 40.0)
        f = field_from_profile_function(grid, lambda r: np.exp(-r ** 2))
        oracle = (4.0 * math.pi * quad(lambda r: np.exp(-2 * r ** 2) * r ** 2,
                                       0, np.inf)[0]) ** 0.5
        assert lp_norm(f, 2) == pytest.approx(oracle, rel=1e-10)
        assert lp_norm(f, 2) == pytest.approx((math.pi / 2) ** 0.75, rel=1e-10)

    def test_zero_for_all_p(self):
        grid = make_grid(64, 8.0)
        for p in (1, 2, 3.5, math.inf):
            assert lp_norm(zero_field(grid), p) == 0.0

    def test_linf_monotone_profile(self):
        grid = make_grid(512, 20.0)
        f = field_from_profile_function(grid, lambda r: np.exp(-r ** 2))
        assert lp_norm(f, math.inf) == pytest.approx(np.exp(-grid.r[0] ** 2))

    def test_p_below_one_rejected(self):
        grid = make_grid(64, 8.0)
        with pytest.raises(ConfigurationError):
            lp_norm(zero_field(grid), 0.5)

    def test_weighted_sup_gaussian(self):
        grid = make_grid(16384, 40.0)
        f = field_from_profile_function(grid, lambda r: np.exp(-r ** 2 / 2))
        assert weighted_sup_norm(f) == pytest.approx(math.exp(-0.5), abs=1e-6)

    def test_weighted_sup_zero(self):
        grid = make_grid(64, 8.0)
        assert weighted_sup_norm(zero_field(grid)) == 0.0

    def test_weighted_sup_rational_profile(self):
        grid = make_grid(16384, 30.0)
        f = field_from_profile_function(grid, lambda r: 1.0 / (1.0 + r ** 2) ** 2)
        res = minimize_scalar(lambda r: -r / (1 + r * r) ** 2, bounds=(0.1, 3.0),
                              method="bounded")
        oracle = -res.fun
        assert weighted_sup_norm(f) == pytest.approx(oracle, abs=1e-6)
        assert weighted_sup_norm(f) == pytest.approx(3 * math.sqrt(3) / 16, abs=1e-6)

    def test_profile_norm_matches_scalar(self):
        # |U(r) x/r| = |U(r)| pointwise, so the vector field's L^p norm is the
        # rectangle rule (4 pi dr sum |U|^p r^2)^(1/p) of the profile modulus
        grid = make_grid(256, 10.0)
        vals = np.exp(-grid.r) * np.cos(3.0 * grid.r)
        vec = RadialVectorProfile(grid, vals)
        f = field_from_samples(grid, vec.samples)
        for p in (1, 2):
            oracle = (4.0 * math.pi * grid.dr
                      * np.sum(np.abs(vals) ** p * grid.r ** 2)) ** (1.0 / p)
            assert lp_norm(f, p) == pytest.approx(oracle, rel=1e-14)
        assert lp_norm(f, math.inf) == np.max(np.abs(vals))

    def test_pair_norms(self):
        # spectral_lp_norm of a stack is the L^p norm of the pointwise modulus
        # of the synthesised rows: a zero second row changes nothing, and two
        # equal rows scale every norm by sqrt(2)
        grid = make_grid(256, 10.0)
        a = field_from_profile_function(grid, lambda r: np.exp(-r ** 2))
        a_hat = to_spectral(a).values
        zero = np.zeros(grid.n_modes)
        for p in (1, 2, 3, math.inf):
            single = spectral_lp_norm(grid, a_hat, p)
            assert spectral_lp_norm(grid, (a_hat, zero), p) == single
            assert spectral_lp_norm(grid, (zero, a_hat), p) == single
            assert single == pytest.approx(lp_norm(a, p), rel=1e-12)
            assert spectral_lp_norm(grid, (a_hat, a_hat), p) == pytest.approx(
                math.sqrt(2.0) * lp_norm(a, p), rel=1e-12)

    def test_pair_norm_matches_physical_modulus(self):
        # rectangle rule of the pointwise modulus hypot(a, b) of the
        # synthesised pair, for a pair that is not a multiple of one field
        grid = make_grid(512, 20.0)
        a = field_from_profile_function(grid, lambda r: np.exp(-r ** 2))
        b = field_from_profile_function(grid, lambda r: np.cos(2.0 * r) * np.exp(-r ** 2 / 3))
        stack = np.stack((to_spectral(a).values, to_spectral(b).values))
        modulus = field_from_samples(grid, np.hypot(a.values, b.values))
        for p in (1, 2, 3, math.inf):
            assert spectral_lp_norm(grid, stack, p) == pytest.approx(
                lp_norm(modulus, p), rel=1e-12)

    def test_zero_stack(self):
        grid = make_grid(64, 8.0)
        zeros = np.zeros((2, grid.n_modes))
        for p in (1, 2, math.inf):
            assert spectral_lp_norm(grid, zeros, p) == 0.0
        with pytest.raises(ConfigurationError):
            spectral_lp_norm(grid, zeros, 0.5)


class TestWeightedFourierBound:
    def test_lemma_bound_on_random_band_limited_fields(self):
        # sup_r r|f| <= 4 pi int |fhat| rho drho for radial f (discrete form)
        grid = make_grid(1024, 40.0)
        rng = np.random.default_rng(11)
        margins = []
        for _ in range(20):
            coeffs = np.zeros(1024)
            lo, hi = 10, 300
            coeffs[lo:hi] = rng.standard_normal(hi - lo) * np.exp(
                -np.linspace(0, 6, hi - lo))
            fhat = field_from_samples(grid, coeffs, "spectral")
            f = to_physical(fhat)
            lhs = weighted_sup_norm(f)
            rhs = 4.0 * math.pi * grid.drho * np.sum(np.abs(coeffs) * grid.rho)
            margins.append(rhs - lhs)
        assert min(margins) >= 0.0
