"""Grid, transform, multiplier, derivative, and norm tests.

Derived expectations are computed by independent oracles: direct O(N^2)
summation for the transforms, finite differences for the Laplacian,
quadrature for integrals, and scalar minimisation for sup-type norms.
"""

import math
from dataclasses import dataclass

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.optimize import minimize_scalar

from radns.errors import ConfigurationError, NumericDomainError
from radns.spectral import (
    RadialGrid,
    _sine_sum,
    dst,
    lp_norm,
    make_grid,
    modulus,
    physical_values,
    spectral_l2_norm,
    to_spectral,
)
from test_sup_modulus import weighted_sup_norm


def synthesised_lp_norm(grid, hat, p, support=slice(None)):
    """L^p norm of the pointwise modulus of the one or two fields whose
    spectral values are the rows of `hat` on the modes `support`: the rows
    synthesised at every node, then the rectangle rule.  The closed form the
    library's spectral norm once used for p != 2, kept as the oracle of
    spectral_l2_norm and of the Besov blocks."""
    return lp_norm(grid, modulus(physical_values(grid, np.atleast_2d(hat), support)), p)


# The synthesis helpers the nonlinear forcing once went through, kept as
# oracles: the forcing now writes the same symmetric extension from its
# per-grid table, on the kept 2/3 band alone.

def sine_cosine_sums(sine_coeffs, cosine_coeffs, step):
    """The sine sum of `sine_coeffs` and the cosine sum of `cosine_coeffs`,
    sqrt(2/pi) * step * sum_k coeffs_k {sin, cos}(node_m * dual_node_k),
    from one real FFT of length 2(N+1) of their odd-plus-even extension
    (Martucci, IEEE Trans. Signal Process. 42, 1994)."""
    n = len(sine_coeffs)
    z = np.zeros(2 * (n + 1))
    z[1:n + 1] = cosine_coeffs + sine_coeffs
    z[:n + 1:-1] = cosine_coeffs - sine_coeffs
    bins = np.fft.rfft(z)[1:n + 1] * (math.sqrt(2.0 / math.pi) * step * 0.5)
    return -bins.imag, bins.real


def physical_and_gradient(grid, hat):
    """w(r_m) and w'(r_m) of the field w with spectral values `hat`, through
    g(r) = r w(r): the derivative is the matching cosine sum, and
    w' = g'/r - g/r^2."""
    ghat = grid.rho * hat
    g, g_prime = sine_cosine_sums(ghat, grid.rho * ghat, grid.drho)
    return g / grid.r, g_prime / grid.r - g / grid.r ** 2


def dealias_mask(grid):
    """Mask keeping the lowest 2/3 of the spectral band (the 2/3 rule)."""
    keep = int(np.floor(2.0 / 3.0 * grid.n_modes))
    mask = np.zeros(grid.n_modes)
    mask[:keep] = 1.0
    return mask


# The vector-profile layer the nonlinear RHS once went through (a radial
# vector field U(r) x/r stored as its profile U), kept as an oracle for the
# derivatives and for test_solver.reference_rhs.

@dataclass
class RadialVectorProfile:
    """Profile U of the 3D radial vector field U(r) x/r, sampled at r_m."""

    grid: RadialGrid
    samples: np.ndarray


def gradient_profile(grid, hat):
    """Profile U = w'(r) of the gradient of the radial scalar w with spectral
    values `hat`."""
    return RadialVectorProfile(grid, physical_and_gradient(grid, hat)[1])


def band_edge_taper(grid):
    """sigma(k/(N+1)) with sigma(x) = exp(-36 x^36): ~1 below two thirds of the
    band and machine epsilon at its edge.  It damps the derivative ringing of
    a profile whose odd extension jumps at r = R, such as G(r) = r."""
    x = np.arange(1, grid.n_modes + 1, dtype=float) / (grid.n_modes + 1)
    return np.exp(-36.0 * x ** 36)


def divergence_of_profile(vec, dealias=False):
    """Samples of div(G(r) x/r) = G'(r) + 2 G(r)/r at the grid nodes.

    G' comes from differentiating the band-edge tapered sine expansion of G
    itself; with `dealias` the modes above the 2/3 edge of that expansion
    are zeroed and the 2G/r term uses the truncated profile for consistency.
    """
    grid = vec.grid
    if not np.all(np.isfinite(vec.samples)):
        raise NumericDomainError("profile contains non-finite samples")
    coeffs = _sine_sum(vec.samples, grid.dr)      # of the odd extension of G
    if dealias:
        coeffs = coeffs * dealias_mask(grid)
    g, g_prime = sine_cosine_sums(coeffs, grid.rho * coeffs * band_edge_taper(grid),
                                  grid.drho)
    if not dealias:
        g = vec.samples
    return g_prime + 2.0 * g / grid.r


def direct_sine_transform(grid, samples):
    """O(N^2) summation oracle for the weighted sine transform."""
    kernel = np.sin(np.outer(grid.rho, grid.r))
    ghat = math.sqrt(2.0 / math.pi) * grid.dr * kernel @ (grid.r * samples)
    return ghat / grid.rho


def direct_sine_cosine_sums(grid, sine_coeffs, cosine_coeffs):
    """O(N^2) summation oracle for sine_cosine_sums with step drho.  The
    phase r_m rho_k = pi m k/(N+1) is reduced in integers first, so the
    oracle's own argument rounding stays far below the tolerance."""
    k = np.arange(1, grid.n_modes + 1)
    phase = np.pi * (np.outer(k, k) % (2 * (grid.n_modes + 1))) / (grid.n_modes + 1)
    scale = math.sqrt(2.0 / math.pi) * grid.drho
    return scale * np.sin(phase) @ sine_coeffs, scale * np.cos(phase) @ cosine_coeffs


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
        assert np.all(to_spectral(grid, np.zeros(grid.n_modes)) == 0.0)
        assert np.all(physical_values(grid, np.zeros(grid.n_modes)) == 0.0)

    def test_gaussian_self_transform(self):
        grid = make_grid(4096, 40.0)
        fhat = to_spectral(grid, np.exp(-grid.r ** 2 / 2))
        assert np.max(np.abs(fhat - np.exp(-grid.rho ** 2 / 2))) < 1e-12

    def test_gaussian_inverse(self):
        grid = make_grid(4096, 40.0)
        f = physical_values(grid, np.exp(-grid.rho ** 2 / 2))
        assert np.max(np.abs(f - np.exp(-grid.r ** 2 / 2))) < 1e-12

    def test_single_basis_vector_direct_sum(self):
        grid = make_grid(256, 17.0)
        k0 = 31
        ghat = np.zeros(256)
        ghat[k0] = 1.0
        f = physical_values(grid, ghat / grid.rho)
        expected = (math.sqrt(2 / math.pi) * grid.drho
                    * np.sin(grid.r * grid.rho[k0]) / grid.r)
        assert np.max(np.abs(f - expected)) < 1e-14

    def test_forward_matches_direct_summation(self):
        grid = make_grid(256, 11.0)
        rng = np.random.default_rng(7)
        f = rng.standard_normal(256)
        oracle = direct_sine_transform(grid, f)
        assert np.max(np.abs(to_spectral(grid, f) - oracle)) < 1e-11

    @pytest.mark.parametrize("n", [8, 255, 256, 1023])
    def test_sine_cosine_pair_matches_direct_summation(self, n):
        grid = make_grid(n, 13.0)
        x, y = np.random.default_rng(n).standard_normal((2, n))
        for got, want in zip(sine_cosine_sums(x, y, grid.drho),
                             direct_sine_cosine_sums(grid, x, y)):
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_round_trip_random(self):
        grid = make_grid(512, 25.0)
        rng = np.random.default_rng(3)
        f = rng.standard_normal(512)
        back = physical_values(grid, to_spectral(grid, f))
        rel = np.max(np.abs(back - f)) / np.max(np.abs(f))
        assert rel < 1e-12

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=10))
    def test_involution_property(self, seed):
        grid = make_grid(128, 9.0)
        rng = np.random.default_rng(seed)
        f = rng.standard_normal(128) * 10.0 ** rng.integers(-3, 4)
        back = physical_values(grid, to_spectral(grid, f))
        scale = np.max(np.abs(f))
        assert np.max(np.abs(back - f)) <= 1e-12 * scale

    def test_parseval(self):
        for n in (256, 4096):
            grid = make_grid(n, 30.0)
            rng = np.random.default_rng(n)
            f = rng.standard_normal(n)
            fhat = to_spectral(grid, f)
            phys = grid.dr * np.sum(grid.r ** 2 * f ** 2)
            spect = grid.drho * np.sum(grid.rho ** 2 * fhat ** 2)
            assert abs(phys - spect) / phys < 1e-10


class TestDst:
    """spectral.dst is numpy's real FFT of the odd extension; hold it to the
    DST-I sum itself and to scipy's DST-I, which it replaced bit for bit."""

    @pytest.mark.parametrize("n", [8, 9, 16, 31])
    @pytest.mark.parametrize("rows", [(), (2,), (3,)])
    def test_matches_direct_summation(self, n, rows):
        x = np.random.default_rng(n).standard_normal(rows + (n,))
        k = np.arange(1, n + 1)
        # the phase pi m k/(N+1), reduced in integers first
        phase = np.pi * (np.outer(k, k) % (2 * (n + 1))) / (n + 1)
        oracle = 2.0 * x @ np.sin(phase)
        got = dst(x)
        assert got.shape == x.shape
        np.testing.assert_allclose(got, oracle, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("n", [255, 8191, 8192, 16384])
    @pytest.mark.parametrize("rows", [(), (2,)])
    def test_bit_identical_to_scipy(self, n, rows):
        x = np.random.default_rng(n).standard_normal(rows + (n,))
        assert np.array_equal(dst(x), scipy.fft.dst(x, type=1))


class TestMultipliers:
    """Fourier multipliers m(rho_k) fhat(rho_k) as products with grid.rho
    arrays; the grid excludes rho = 0, so 1/rho is finite."""

    def test_identity(self):
        grid = make_grid(64, 8.0)
        rng = np.random.default_rng(0)
        f = rng.standard_normal(64)
        assert np.array_equal(np.ones_like(grid.rho) * f, f)

    def test_inverse_pair(self):
        grid = make_grid(64, 8.0)
        rng = np.random.default_rng(1)
        f = rng.standard_normal(64)
        out = (1.0 / grid.rho) * (grid.rho * f)
        assert np.all(np.isfinite(1.0 / grid.rho))
        assert np.max(np.abs(out - f)) < 1e-15

    def test_composition_exact(self):
        grid = make_grid(64, 8.0)
        rng = np.random.default_rng(2)
        f = rng.standard_normal(64)
        m1 = np.sin(grid.rho) + 2.0
        m2 = grid.rho ** 0.5
        # float products reassociate: agreement is to the last ulp, not bitwise
        assert np.allclose(m2 * (m1 * f), (m1 * m2) * f, rtol=4e-16, atol=0)

    def test_laplacian_vs_finite_differences(self):
        grid = make_grid(2048, 30.0)
        vals = np.exp(-grid.r ** 2 / 2)
        lap = physical_values(grid, -grid.rho ** 2 * to_spectral(grid, vals))
        d1 = np.gradient(vals, grid.dr)
        d2 = np.gradient(d1, grid.dr)
        oracle = d2 + 2.0 * d1 / grid.r
        interior = (grid.r > 0.5) & (grid.r < 10.0)
        err = np.max(np.abs(lap[interior] - oracle[interior]))
        assert err < 5e-3  # second-order FD oracle limits the comparison


class TestDerivatives:
    def test_gradient_gaussian(self):
        grid = make_grid(4096, 40.0)
        f = np.exp(-grid.r ** 2 / 2)
        values, grad = physical_and_gradient(grid, to_spectral(grid, f))
        exact = -grid.r * np.exp(-grid.r ** 2 / 2)
        assert np.max(np.abs(grad - exact)) < 1e-10
        assert np.max(np.abs(values - f)) < 1e-14

    def test_gradient_zero(self):
        grid = make_grid(64, 8.0)
        assert np.all(physical_and_gradient(grid, np.zeros(grid.n_modes))[1] == 0.0)

    def test_gradient_single_mode(self):
        grid = make_grid(1024, 20.0)
        k0 = 4
        rho0 = grid.rho[k0]
        f = np.sin(rho0 * grid.r) / grid.r
        grad = physical_and_gradient(grid, to_spectral(grid, f))[1]
        exact = rho0 * np.cos(rho0 * grid.r) / grid.r - np.sin(rho0 * grid.r) / grid.r ** 2
        assert np.max(np.abs(grad - exact)) < 1e-11

    def test_gradient_accepts_spectral_input(self):
        # the analytic spectral values of exp(-r^2) give the gradient of its
        # sampled transform
        grid = make_grid(512, 20.0)
        exact_hat = np.exp(-grid.rho ** 2 / 4.0) / 2.0 ** 1.5
        a = gradient_profile(grid, to_spectral(grid, np.exp(-grid.r ** 2)))
        b = gradient_profile(grid, exact_hat)
        assert np.max(np.abs(a.samples - b.samples)) < 1e-13

    def test_divergence_of_identity_field(self):
        grid = make_grid(4096, 40.0)
        vec = RadialVectorProfile(grid, grid.r.copy())
        div = divergence_of_profile(vec)
        interior = grid.r < 20.0
        assert np.max(np.abs(div[interior] - 3.0)) < 1e-9

    def test_divergence_zero(self):
        grid = make_grid(64, 8.0)
        vec = RadialVectorProfile(grid, np.zeros(64))
        assert np.all(divergence_of_profile(vec) == 0.0)

    def test_divergence_symbolic(self):
        grid = make_grid(2048, 30.0)
        vec = RadialVectorProfile(grid, grid.r * np.exp(-grid.r ** 2))
        div = divergence_of_profile(vec)
        exact = 3.0 * np.exp(-grid.r ** 2) - 2.0 * grid.r ** 2 * np.exp(-grid.r ** 2)
        assert np.max(np.abs(div - exact)) < 1e-11

    def test_divergence_of_gradient_is_laplacian(self):
        grid = make_grid(2048, 30.0)
        f_hat = to_spectral(grid, np.exp(-grid.r ** 2 / 2))
        lap_a = divergence_of_profile(gradient_profile(grid, f_hat))
        lap_b = physical_values(grid, -grid.rho ** 2 * f_hat)
        assert np.max(np.abs(lap_a - lap_b)) < 1e-9


class TestNorms:
    def test_l2_gaussian_quadrature_oracle(self):
        grid = make_grid(4096, 40.0)
        f = np.exp(-grid.r ** 2)
        oracle = (4.0 * math.pi * quad(lambda r: np.exp(-2 * r ** 2) * r ** 2,
                                       0, np.inf)[0]) ** 0.5
        assert lp_norm(grid, f, 2) == pytest.approx(oracle, rel=1e-10)
        assert lp_norm(grid, f, 2) == pytest.approx((math.pi / 2) ** 0.75, rel=1e-10)

    def test_zero_for_all_p(self):
        grid = make_grid(64, 8.0)
        for p in (1, 2, 3.5, math.inf):
            assert lp_norm(grid, np.zeros(grid.n_modes), p) == 0.0

    def test_linf_monotone_profile(self):
        grid = make_grid(512, 20.0)
        f = np.exp(-grid.r ** 2)
        assert lp_norm(grid, f, math.inf) == pytest.approx(np.exp(-grid.r[0] ** 2))

    def test_p_below_one_rejected(self):
        grid = make_grid(64, 8.0)
        with pytest.raises(ConfigurationError):
            lp_norm(grid, np.zeros(grid.n_modes), 0.5)

    def test_weighted_sup_gaussian(self):
        grid = make_grid(16384, 40.0)
        f = np.exp(-grid.r ** 2 / 2)
        assert weighted_sup_norm(grid, f) == pytest.approx(math.exp(-0.5), abs=1e-6)

    def test_weighted_sup_zero(self):
        grid = make_grid(64, 8.0)
        assert weighted_sup_norm(grid, np.zeros(grid.n_modes)) == 0.0

    def test_weighted_sup_rational_profile(self):
        grid = make_grid(16384, 30.0)
        f = 1.0 / (1.0 + grid.r ** 2) ** 2
        res = minimize_scalar(lambda r: -r / (1 + r * r) ** 2, bounds=(0.1, 3.0),
                              method="bounded")
        oracle = -res.fun
        assert weighted_sup_norm(grid, f) == pytest.approx(oracle, abs=1e-6)
        assert weighted_sup_norm(grid, f) == pytest.approx(3 * math.sqrt(3) / 16, abs=1e-6)

    def test_profile_norm_matches_scalar(self):
        # |U(r) x/r| = |U(r)| pointwise, so the vector field's L^p norm is the
        # rectangle rule (4 pi dr sum |U|^p r^2)^(1/p) of the profile modulus
        grid = make_grid(256, 10.0)
        vals = np.exp(-grid.r) * np.cos(3.0 * grid.r)
        vec = RadialVectorProfile(grid, vals)
        for p in (1, 2):
            oracle = (4.0 * math.pi * grid.dr
                      * np.sum(np.abs(vals) ** p * grid.r ** 2)) ** (1.0 / p)
            assert lp_norm(grid, vec.samples, p) == pytest.approx(oracle, rel=1e-14)
        assert lp_norm(grid, vec.samples, math.inf) == np.max(np.abs(vals))

    def test_pair_norms(self):
        # the L^p norm of a stack is the L^p norm of the pointwise modulus of
        # the synthesised rows: a zero second row changes nothing, and two
        # equal rows scale every norm by sqrt(2); Parseval gives the same
        # for p = 2 with no transform
        grid = make_grid(256, 10.0)
        a = np.exp(-grid.r ** 2)
        a_hat = to_spectral(grid, a)
        zero = np.zeros(grid.n_modes)
        for p in (1, 2, 3, math.inf):
            single = synthesised_lp_norm(grid, a_hat, p)
            assert synthesised_lp_norm(grid, (a_hat, zero), p) == single
            assert synthesised_lp_norm(grid, (zero, a_hat), p) == single
            assert single == pytest.approx(lp_norm(grid, a, p), rel=1e-12)
            assert synthesised_lp_norm(grid, (a_hat, a_hat), p) == pytest.approx(
                math.sqrt(2.0) * lp_norm(grid, a, p), rel=1e-12)
        single = spectral_l2_norm(grid, a_hat)
        assert spectral_l2_norm(grid, np.stack((a_hat, zero))) == single
        assert spectral_l2_norm(grid, np.stack((zero, a_hat))) == single
        assert single == pytest.approx(synthesised_lp_norm(grid, a_hat, 2), rel=1e-12)
        assert spectral_l2_norm(grid, np.stack((a_hat, a_hat))) == pytest.approx(
            math.sqrt(2.0) * single, rel=1e-15)

    def test_pair_norm_matches_physical_modulus(self):
        # rectangle rule of the pointwise modulus hypot(a, b) of the
        # synthesised pair, for a pair that is not a multiple of one field
        grid = make_grid(512, 20.0)
        a = np.exp(-grid.r ** 2)
        b = np.cos(2.0 * grid.r) * np.exp(-grid.r ** 2 / 3)
        stack = np.stack((to_spectral(grid, a), to_spectral(grid, b)))
        for p in (1, 2, 3, math.inf):
            assert synthesised_lp_norm(grid, stack, p) == pytest.approx(
                lp_norm(grid, np.hypot(a, b), p), rel=1e-12)
        assert spectral_l2_norm(grid, stack) == pytest.approx(
            lp_norm(grid, np.hypot(a, b), 2), rel=1e-12)

    def test_l2_norm_on_a_support(self):
        # rows that are 0 outside the modes `support`: Parseval against
        # synthesis of the band alone
        grid = make_grid(512, 20.0)
        hat = np.stack((to_spectral(grid, np.exp(-grid.r ** 2)),
                        to_spectral(grid, np.exp(-grid.r ** 2 / 3))))
        support = slice(40, 90)
        band = np.zeros_like(hat)
        band[:, support] = hat[:, support]
        assert spectral_l2_norm(grid, band) == pytest.approx(
            synthesised_lp_norm(grid, hat[:, support], 2, support), rel=1e-12)

    def test_zero_stack(self):
        grid = make_grid(64, 8.0)
        zeros = np.zeros((2, grid.n_modes))
        assert spectral_l2_norm(grid, zeros) == 0.0
        for p in (1, 2, math.inf):
            assert synthesised_lp_norm(grid, zeros, p) == 0.0
        with pytest.raises(ConfigurationError):
            synthesised_lp_norm(grid, zeros, 0.5)


class TestModulus:
    """modulus against numpy.hypot as the oracle: glibc's hypot scales its
    arguments and is off the exactly rounded modulus on under 1 % of pairs."""

    def test_pair_within_two_ulp_of_hypot(self):
        rng = np.random.default_rng(7)
        for scale in (1e-300, 1e-150, 1e-8, 1.0, 1e8, 1e150, 1e300):
            rows = scale * rng.standard_normal((2, 4096)) * np.exp(rng.uniform(-8, 8, (2, 4096)))
            oracle = np.hypot(*rows)
            assert np.all(np.abs(modulus(rows) - oracle) <= 2 * np.spacing(oracle))

    @pytest.mark.parametrize("scale", [1e-310, 1e-300, 1e300])
    def test_pair_exact_where_squares_under_or_overflow(self, scale):
        rows = scale * np.array([[3.0, -3.0, 0.0, 5.0], [4.0, 4.0, -2.0, 0.0]])
        assert np.array_equal(modulus(rows), np.hypot(*rows))
        assert np.array_equal(modulus(rows), scale * np.array([5.0, 5.0, 2.0, 5.0]))

    def test_one_row_is_its_absolute_value(self):
        row = np.random.default_rng(8).standard_normal(257)
        assert np.array_equal(modulus(row[None]), np.abs(row))
        assert np.array_equal(modulus(np.stack((row, np.zeros_like(row)))), np.abs(row))


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
            lhs = weighted_sup_norm(grid, physical_values(grid, coeffs))
            rhs = 4.0 * math.pi * grid.drho * np.sum(np.abs(coeffs) * grid.rho)
            margins.append(rhs - lhs)
        assert min(margins) >= 0.0
