"""Dyadic partition, Besov norm, banded norm, and cutoff-index tests."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from radns.besov import (
    BesovSpec,
    DyadicPartition,
    besov_norm,
    block,
    block_norms,
    j0_for_time,
    pair_besov_norm,
    weighted_besov_norm_p2,
    weighted_block_integral,
)
from radns.errors import (
    BandRangeError,
    NumericDomainError,
    UnsupportedParameterError,
    UsageError,
)
from radns.spectral import (
    apply_multiplier,
    field_from_profile_function,
    field_from_samples,
    lp_norm,
    make_grid,
    to_physical,
    to_spectral,
    zero_field,
)


@pytest.fixture(scope="module")
def partition():
    return DyadicPartition()


def low_cutoff(field, j, partition):
    """Smooth low-pass theta(2^{-j} rho) of a spectral field, retaining
    frequencies below ~2^{j+1}."""
    return apply_multiplier(field, lambda rho: partition.theta(rho * 2.0 ** (-j)))


def oracle_block_norms(a, v, p, indices, partition):
    """One block at a time, one field at a time, in physical space: each block
    synthesised alone, then the pointwise modulus and the rectangle-rule L^p
    norm.  v = None is the one-field case."""
    fields = [f if f.space == "spectral" else to_spectral(f)
              for f in (a, v) if f is not None]
    norms = {}
    for j in indices:
        mult = partition.block_multiplier(a.grid, j)
        blocks = [to_physical(apply_multiplier(f, lambda rho: mult)).values for f in fields]
        modulus = np.hypot(*blocks) if len(blocks) == 2 else blocks[0]
        norms[j] = lp_norm(field_from_samples(a.grid, modulus), p)
    return norms


def oracle_pair_besov_norm(a, v, spec, partition):
    """l^q sum of 2^{sj} times the oracle block norms over the spec's band."""
    j_min, j_max = partition.resolved_range(a.grid)
    lo = max(spec.j0, j_min) if spec.band == "high" else j_min
    hi = min(spec.j0, j_max) if spec.band == "low" else j_max
    norms = oracle_block_norms(a, v, spec.p, range(lo, hi + 1), partition)
    terms = [2.0 ** (spec.s * j) * n for j, n in norms.items()]
    if not terms:
        return 0.0
    if math.isinf(spec.q):
        return max(terms)
    return sum(t ** spec.q for t in terms) ** (1.0 / spec.q)


def band_limited_field(grid, rng, lo_mode=20, hi_mode=400):
    """Random spectral content strictly inside the telescoping-exact band."""
    coeffs = np.zeros(grid.n_modes)
    coeffs[lo_mode:hi_mode] = rng.standard_normal(hi_mode - lo_mode)
    return field_from_samples(grid, coeffs, "spectral")


class TestPartition:
    def test_theta_profile(self, partition):
        rho = np.linspace(0.0, 3.0, 301)
        theta = partition.theta(rho)
        assert np.all(theta[rho <= 1.0] == 1.0)
        assert np.all(theta[rho >= 2.0] == 0.0)
        assert np.all((theta >= 0.0) & (theta <= 1.0))
        assert np.all(np.diff(theta) <= 1e-12)

    def test_block_support(self, partition):
        rho = np.linspace(0.001, 10.0, 4000)
        for j in (-2, 0, 1):
            phi = partition.phi_hat(j, rho)
            outside = (rho < 2.0 ** (j - 1)) | (rho > 2.0 ** (j + 1))
            assert np.all(phi[outside] == 0.0)
            assert phi.max() > 0.5

    def test_scaling_exact(self, partition):
        rho = np.linspace(0.01, 50.0, 1000)
        assert np.array_equal(partition.phi_hat(3, rho),
                              partition.phi_hat(0, rho / 8.0))

    def test_telescoping(self, partition):
        rho = np.linspace(0.05, 30.0, 2000)
        total = sum(partition.phi_hat(j, rho) for j in range(-5, 7))
        exact = (rho >= 2.0 ** -4) & (rho <= 2.0 ** 6)
        assert np.max(np.abs(total[exact] - 1.0)) < 1e-14

    def test_resolved_range(self, partition):
        grid = make_grid(16384, 500.0)
        j_min, j_max = partition.resolved_range(grid)
        assert 2.0 ** (j_min + 1) >= grid.drho
        assert 2.0 ** j_max >= grid.rho[-1] / 2.0
        # the resolved blocks sum exactly to 1 on [2^(j_min+1), 2^j_max]
        lo, hi = 2.0 ** (j_min + 1), 2.0 ** j_max
        assert lo < 1.0 < hi
        inside = (grid.rho >= lo) & (grid.rho <= hi)
        total = sum(partition.block_multiplier(grid, j) for j in range(j_min, j_max + 1))
        assert np.max(np.abs(total[inside] - 1.0)) < 1e-14


class TestBlocks:
    def test_disjoint_supports(self, partition):
        grid = make_grid(1024, 50.0)
        f = apply_multiplier(
            band_limited_field(grid, np.random.default_rng(0), 1, 1024),
            lambda rho: partition.phi_hat(2, rho))
        for j_other in (-2, -1, 0, 4, 5):
            far = block(f, j_other, partition)
            assert np.max(np.abs(far.values)) == 0.0

    def test_partition_of_unity_reconstruction(self, partition):
        grid = make_grid(1024, 50.0)
        rng = np.random.default_rng(1)
        f = band_limited_field(grid, rng, 30, 700)
        j_min, j_max = partition.resolved_range(grid)
        total = np.zeros(grid.n_modes)
        for j in range(j_min, j_max + 1):
            total += block(f, j, partition).values
        rel = np.max(np.abs(total - f.values)) / np.max(np.abs(f.values))
        assert rel < 1e-10

    def test_zero_field(self, partition):
        grid = make_grid(256, 20.0)
        assert np.all(block(zero_field(grid), 0, partition).values == 0.0)

    def test_out_of_range_rejected(self, partition):
        grid = make_grid(256, 20.0)
        j_min, j_max = partition.resolved_range(grid)
        with pytest.raises(BandRangeError):
            block(zero_field(grid), j_max + 1, partition)
        with pytest.raises(BandRangeError):
            block(zero_field(grid), j_min - 1, partition)

    def test_physical_input_round_trips(self, partition):
        grid = make_grid(512, 30.0)
        f = field_from_profile_function(grid, lambda r: np.exp(-r ** 2))
        out = block(f, 0, partition)
        assert out.space == "physical"


class TestBesovNorm:
    def test_zero(self, partition):
        grid = make_grid(256, 20.0)
        for spec in (BesovSpec(0.0, 2.0, 1.0), BesovSpec(1.5, math.inf, math.inf),
                     BesovSpec(-0.5, 2.0, 2.0, band="low", j0=0)):
            assert besov_norm(zero_field(grid), spec, partition) == 0.0

    def test_single_annulus_three_block_oracle(self, partition):
        grid = make_grid(2048, 100.0)
        f = field_from_samples(grid, partition.phi_hat(0, grid.rho), "spectral")
        s = 0.7
        for p in (2.0, math.inf):
            mine = besov_norm(f, BesovSpec(s, p, 1.0), partition)
            oracle = 0.0
            for j in (-1, 0, 1):   # only neighbours of the annulus contribute
                blocked = apply_multiplier(f, lambda rho: partition.phi_hat(j, rho))
                oracle += 2.0 ** (s * j) * lp_norm(to_physical(blocked), p)
            assert mine == pytest.approx(oracle, rel=1e-10)
            far = sum(lp_norm(to_physical(apply_multiplier(
                f, lambda rho: partition.phi_hat(j, rho))), p)
                for j in (-3, 3))
            assert far == 0.0

    def test_dilation_covariance(self, partition):
        outer = 80.0
        grid = make_grid(8191, outer)
        f = field_from_profile_function(
            grid, lambda r: np.exp(-r ** 2) * np.cos(2.5 * r))
        half_grid = make_grid(8191, outer / 2.0)
        dilated = field_from_samples(half_grid, f.values.copy())
        for s, p, q in [(0.5, 2.0, 1.0), (0.0, math.inf, 1.0), (1.0, 2.0, 2.0)]:
            n_f = besov_norm(f, BesovSpec(s, p, q), partition)
            n_d = besov_norm(dilated, BesovSpec(s, p, q), partition)
            assert n_d == pytest.approx(2.0 ** (s - 3.0 / p) * n_f, rel=0.01)

    def test_triangle_embedding(self, partition):
        grid = make_grid(1024, 50.0)
        rng = np.random.default_rng(4)
        for p in (2.0, math.inf):
            for _ in range(20):
                f = band_limited_field(grid, rng, 25, 600)
                phys = to_physical(f)
                lhs = lp_norm(phys, p)
                rhs = besov_norm(f, BesovSpec(0.0, p, 1.0), partition)
                assert lhs <= rhs + 1e-9

    def test_almost_orthogonality(self, partition):
        grid = make_grid(2048, 60.0)
        rng = np.random.default_rng(5)
        for _ in range(5):
            f = field_from_samples(grid, rng.standard_normal(2048))
            norms = block_norms(f, 2.0, partition)
            total = sum(v ** 2 for v in norms.values())
            assert total <= 3.0 * lp_norm(f, 2.0) ** 2

    def test_band_additivity(self, partition):
        grid = make_grid(1024, 50.0)
        rng = np.random.default_rng(6)
        f = band_limited_field(grid, rng, 10, 800)
        for q in (1.0, 2.0):
            for j0 in (-1, 1, 3):
                low = besov_norm(f, BesovSpec(0.3, 2.0, q, band="low", j0=j0),
                                 partition)
                high = besov_norm(f, BesovSpec(0.3, 2.0, q, band="high", j0=j0 + 1),
                                  partition)
                full = besov_norm(f, BesovSpec(0.3, 2.0, q), partition)
                assert low ** q + high ** q == pytest.approx(full ** q, rel=1e-12)

    def test_pair_norm_reduces_to_scalar(self, partition):
        grid = make_grid(512, 30.0)
        f = field_from_profile_function(grid, lambda r: np.exp(-r ** 2))
        spec = BesovSpec(0.0, 2.0, 1.0)
        assert pair_besov_norm(f, zero_field(grid), spec, partition) == \
            pytest.approx(besov_norm(f, spec, partition), rel=1e-14)


def oracle_fields(grid):
    """A physical Gaussian, a spectral oscillating profile and a band-limited
    field whose top blocks are exactly zero."""
    a = field_from_profile_function(grid, lambda r: np.exp(-r ** 2))
    v = to_spectral(field_from_profile_function(
        grid, lambda r: np.cos(3.0 * r) * np.exp(-r ** 2 / 4.0)))
    return a, v, band_limited_field(grid, np.random.default_rng(5), 20, 400)


def _inclusive(partition, grid):
    """(j_min, j_max + 1): the resolved block indices as range() bounds."""
    j_min, j_max = partition.resolved_range(grid)
    return j_min, j_max + 1


class TestBlockPathOracle:
    """block_norms, besov_norm and pair_besov_norm against the physical-space
    block loop, for p in {1, 2, 3, inf} and full, low and high bands."""

    GRID = (1023, 40.0)
    SPECS = [("full", None), ("low", 0), ("high", 1)]

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0, math.inf])
    def test_block_norms(self, partition, p):
        grid = make_grid(*self.GRID)
        for f in oracle_fields(grid):
            oracle = oracle_block_norms(f, None, p, range(*_inclusive(partition, grid)),
                                        partition)
            norms = block_norms(f, p, partition)
            assert norms.keys() == oracle.keys()
            for j, n in oracle.items():
                assert norms[j] == pytest.approx(n, rel=1e-12)

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0, math.inf])
    @pytest.mark.parametrize("band,j0", SPECS)
    def test_besov_norms(self, partition, p, band, j0):
        grid = make_grid(*self.GRID)
        a, v, banded = oracle_fields(grid)
        zero = zero_field(grid, "spectral")
        for q in (1.0, 2.0, math.inf):
            spec = BesovSpec(0.5, p, q, band=band, j0=j0)
            for f in (a, v, banded):
                assert besov_norm(f, spec, partition) == pytest.approx(
                    oracle_pair_besov_norm(f, None, spec, partition), rel=1e-12)
            for x, y in ((a, v), (v, banded), (banded, zero), (zero, a)):
                assert pair_besov_norm(x, y, spec, partition) == pytest.approx(
                    oracle_pair_besov_norm(x, y, spec, partition), rel=1e-12)

    def test_zero_blocks_skip_the_transform(self, partition, transform_counter):
        grid = make_grid(*self.GRID)
        _, _, banded = oracle_fields(grid)
        zero = zero_field(grid, "spectral")
        indices = range(*_inclusive(partition, grid))
        empty = [j for j in indices
                 if not np.any(partition.block_multiplier(grid, j) * banded.values)]
        assert len(empty) >= 2
        n_full = len(indices) - len(empty)
        for p in (1.0, 2.0, math.inf):
            oracle = oracle_block_norms(banded, None, p, indices, partition)
            start = transform_counter[0]
            norms = block_norms(banded, p, partition)
            # one row per block with content; p = 2 is Parseval, no transform
            assert transform_counter[0] - start == (0 if p == 2.0 else n_full)
            assert all(norms[j] == 0.0 for j in empty)
            for j, n in oracle.items():
                assert norms[j] == pytest.approx(n, rel=1e-12)
            start = transform_counter[0]
            pair = pair_besov_norm(banded, zero, BesovSpec(0.0, p, 1.0), partition)
            assert transform_counter[0] - start == (0 if p == 2.0 else 2 * n_full)
            assert pair == pytest.approx(sum(oracle.values()), rel=1e-12)
        start = transform_counter[0]
        assert pair_besov_norm(zero, zero, BesovSpec(0.0, math.inf, 1.0), partition) == 0.0
        assert transform_counter[0] == start

    def test_mismatched_grids_rejected(self, partition):
        a = zero_field(make_grid(256, 20.0))
        with pytest.raises(UsageError):
            pair_besov_norm(a, zero_field(make_grid(256, 30.0)),
                            BesovSpec(0.0, 2.0, 1.0), partition)


class TestLowCutoff:
    def test_full_band_pass(self, partition):
        grid = make_grid(1024, 50.0)
        rng = np.random.default_rng(7)
        f = band_limited_field(grid, rng, 10, 900)
        _, j_max = partition.resolved_range(grid)
        out = low_cutoff(f, j_max, partition)
        rel = np.max(np.abs(out.values - f.values)) / np.max(np.abs(f.values))
        assert rel < 1e-10

    def test_disjoint_support_killed(self, partition):
        grid = make_grid(1024, 50.0)
        j = 2
        coeffs = np.zeros(grid.n_modes)
        coeffs[grid.rho > 2.0 ** (j + 1)] = 1.0
        f = field_from_samples(grid, coeffs, "spectral")
        assert np.max(np.abs(low_cutoff(f, j, partition).values)) == 0.0

    def test_partition_identity(self, partition):
        grid = make_grid(1024, 50.0)
        rng = np.random.default_rng(8)
        f = band_limited_field(grid, rng, 10, 800)
        j0 = 1
        _, j_max = partition.resolved_range(grid)
        total = low_cutoff(f, j0, partition).values.copy()
        for j in range(j0 + 1, j_max + 1):
            total += block(f, j, partition).values
        rel = np.max(np.abs(total - f.values)) / np.max(np.abs(f.values))
        assert rel < 1e-10


class TestWeightedBesov:
    def test_constant_block_contributes_zero(self, partition):
        grid = make_grid(2048, 200.0)
        coeffs = np.ones(grid.n_modes)
        f = field_from_samples(grid, coeffs, "spectral")
        assert weighted_block_integral(f, 0, partition) == pytest.approx(0.0, abs=1e-20)

    def test_gaussian_blocks_match_quadrature_oracle(self, partition):
        grid = make_grid(32767, 5000.0)
        f = field_from_samples(grid, np.exp(-grid.rho ** 2 / 2), "spectral")
        for j in (-1, 0, 1, 2):
            mine = weighted_block_integral(f, j, partition)
            oracle = (4.0 * math.pi / 3.0) * quad(
                lambda rho: partition.phi_hat(j, np.array([rho]))[0] ** 2
                * rho ** 4 * math.exp(-rho ** 2),
                max(2.0 ** (j - 1) - 1e-9, 0.0), 2.0 ** (j + 1), limit=200)[0]
            assert mine == pytest.approx(oracle, rel=1e-6)

    def test_zero_field(self, partition):
        grid = make_grid(256, 20.0)
        spec = BesovSpec(0.5, 2.0, 1.0)
        for k in (0, 1, 2):
            assert weighted_besov_norm_p2(zero_field(grid), k, spec, partition) == 0.0

    def test_axis_independence(self, partition):
        grid = make_grid(1024, 100.0)
        f = field_from_samples(grid, np.exp(-grid.rho ** 2), "spectral")
        spec = BesovSpec(0.0, 2.0, 1.0)
        vals = [weighted_besov_norm_p2(f, k, spec, partition) for k in (0, 1, 2)]
        assert vals[0] == vals[1] == vals[2] > 0.0

    def test_p_not_two_rejected(self, partition):
        grid = make_grid(256, 20.0)
        with pytest.raises(UnsupportedParameterError):
            weighted_besov_norm_p2(zero_field(grid), 0,
                                   BesovSpec(0.0, 4.0, 1.0), partition)


class TestCutoffIndex:
    @pytest.mark.parametrize("t,expected", [(1.0, 1), (4.0, 0), (16.0, -1)])
    def test_reference_values(self, t, expected):
        assert j0_for_time(t) == expected

    def test_domain(self):
        with pytest.raises(NumericDomainError):
            j0_for_time(0.5)

    def test_containment(self):
        # interval (t^{-1/2}/2, t^{-1/2}) against the five-block frame at j0;
        # the stated radius-4 enclosure (2^{j0-2}, 2^{j0+2}) holds at even
        # powers of 4 and needs one extra dyadic step at odd powers
        for k in range(0, 21):
            t = float(2 ** k)
            j0 = j0_for_time(t)
            lo, hi = t ** -0.5 / 2.0, t ** -0.5
            assert 2.0 ** (j0 - 3) <= lo and hi <= 2.0 ** (j0 + 2)
            if k % 2 == 0:
                assert 2.0 ** (j0 - 2) <= lo
