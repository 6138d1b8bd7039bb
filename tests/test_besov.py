"""Dyadic partition, Besov norm, banded norm, and cutoff-index tests."""

import itertools
import math

import numpy as np
import pytest

from radns.besov import (
    BesovSpec,
    _block_lq_norm,
    _sup_bound_weights,
    block_multiplier,
    j0_for_time,
    pair_besov_norm,
    phi_hat,
    resolved_range,
    theta,
)
from radns.errors import NumericDomainError, UnsupportedParameterError
from radns.semigroup import apply_semigroup
from radns.solver import initial_data_gaussian
from radns.spectral import lp_norm, make_grid, physical_values, to_spectral


def block(grid, hat, j):
    """Spectral values of the field `hat` localised to the dyadic annulus
    |rho| ~ 2^j."""
    return block_multiplier(grid, j) * hat


def low_cutoff(grid, hat, j):
    """Smooth low-pass theta(2^{-j} rho) of a spectral field, retaining
    frequencies below ~2^{j+1}."""
    return theta(grid.rho * 2.0 ** (-j)) * hat


def stacked(a, v):
    """The spectral field a alone (v = None), else the pair [a; v] as one
    two-row array."""
    return a if v is None else np.array([a, v])


def block_norms(grid, a, v, p, indices):
    """{j: L^p norm of block j} from `_block_lq_norm` one block at a time; a
    lone block is never screened, since nothing is kept before it."""
    return {j: _block_lq_norm(grid, stacked(a, v), 0.0, p, 1.0, [j]) for j in indices}


def oracle_block_norms(grid, a, v, p, indices):
    """One block at a time, one field at a time, in physical space: each block
    synthesised alone, then the pointwise modulus and the rectangle-rule L^p
    norm.  v = None is the one-field case."""
    fields = [f for f in (a, v) if f is not None]
    norms = {}
    for j in indices:
        blocks = [physical_values(grid, block(grid, f, j)) for f in fields]
        modulus = np.hypot(*blocks) if len(blocks) == 2 else blocks[0]
        norms[j] = lp_norm(grid, modulus, p)
    return norms


def band_indices(grid, spec):
    """The resolved block indices of the spec's band."""
    j_min, j_max = resolved_range(grid)
    lo = max(spec.j0, j_min) if spec.band == "high" else j_min
    hi = min(spec.j0, j_max) if spec.band == "low" else j_max
    return range(lo, hi + 1)


def oracle_lq(terms, q):
    if not terms:
        return 0.0
    if math.isinf(q):
        return max(terms)
    return sum(t ** q for t in terms) ** (1.0 / q)


def oracle_pair_besov_norm(grid, a, v, spec):
    """l^q sum of 2^{sj} times the oracle block norms over the spec's band."""
    norms = oracle_block_norms(grid, a, v, spec.p, band_indices(grid, spec))
    return oracle_lq([2.0 ** (spec.s * j) * n for j, n in norms.items()], spec.q)


def sup_bound(grid, a, v, j):
    """sqrt(2/pi) drho sum_k rho_k^2 |phi_hat_j(rho_k)| |(ahat_k, vhat_k)|, which
    bounds the sup of block j because |sin(r rho) / r| <= rho."""
    hat = np.stack([f for f in (a, v) if f is not None])
    return (math.sqrt(2.0 / math.pi) * grid.drho
            * np.sum(grid.rho ** 2 * np.abs(block_multiplier(grid, j))
                     * np.sqrt(np.sum(hat ** 2, axis=0))))


def screened_kept_blocks(grid, a, v, spec):
    """The p = inf blocks of the spec's band that screening keeps: walking up
    in j, block j is skipped while the bounds 2^{sj} sup_bound of the blocks
    skipped so far plus its own stay at or below 1e-17 times the l^q sum of
    the oracle terms kept so far.  Checks each bound on the way."""
    norms = oracle_block_norms(grid, a, v, math.inf, band_indices(grid, spec))
    kept, terms, skipped = [], [], 0.0
    for j, n in norms.items():
        weight = 2.0 ** (spec.s * j)
        bound = weight * sup_bound(grid, a, v, j)
        assert bound >= weight * n
        if skipped + bound <= 1e-17 * oracle_lq(terms, spec.q):
            skipped += bound
        else:
            kept.append(j)
            terms.append(weight * n)
    return kept


def band_limited_field(grid, rng, lo_mode=20, hi_mode=400):
    """Random spectral values strictly inside the telescoping-exact band."""
    coeffs = np.zeros(grid.n_modes)
    coeffs[lo_mode:hi_mode] = rng.standard_normal(hi_mode - lo_mode)
    return coeffs


class TestPartition:
    def test_theta_profile(self):
        rho = np.linspace(0.0, 3.0, 301)
        profile = theta(rho)
        assert np.all(profile[rho <= 1.0] == 1.0)
        assert np.all(profile[rho >= 2.0] == 0.0)
        assert np.all((profile >= 0.0) & (profile <= 1.0))
        assert np.all(np.diff(profile) <= 1e-12)

    def test_block_support(self):
        rho = np.linspace(0.001, 10.0, 4000)
        for j in (-2, 0, 1):
            phi = phi_hat(j, rho)
            outside = (rho < 2.0 ** (j - 1)) | (rho > 2.0 ** (j + 1))
            assert np.all(phi[outside] == 0.0)
            assert phi.max() > 0.5

    def test_scaling_exact(self):
        rho = np.linspace(0.01, 50.0, 1000)
        assert np.array_equal(phi_hat(3, rho),
                              phi_hat(0, rho / 8.0))

    def test_telescoping(self):
        rho = np.linspace(0.05, 30.0, 2000)
        total = sum(phi_hat(j, rho) for j in range(-5, 7))
        exact = (rho >= 2.0 ** -4) & (rho <= 2.0 ** 6)
        assert np.max(np.abs(total[exact] - 1.0)) < 1e-14

    def test_resolved_range(self):
        grid = make_grid(16384, 500.0)
        j_min, j_max = resolved_range(grid)
        assert 2.0 ** (j_min + 1) >= grid.drho
        assert 2.0 ** j_max >= grid.rho[-1] / 2.0
        # the resolved blocks sum exactly to 1 on [2^(j_min+1), 2^j_max]
        lo, hi = 2.0 ** (j_min + 1), 2.0 ** j_max
        assert lo < 1.0 < hi
        inside = (grid.rho >= lo) & (grid.rho <= hi)
        total = sum(block_multiplier(grid, j) for j in range(j_min, j_max + 1))
        assert np.max(np.abs(total[inside] - 1.0)) < 1e-14


class TestBlocks:
    def test_disjoint_supports(self):
        grid = make_grid(1024, 50.0)
        f = phi_hat(2, grid.rho) * band_limited_field(grid, np.random.default_rng(0), 1, 1024)
        for j_other in (-2, -1, 0, 4, 5):
            far = block(grid, f, j_other)
            assert np.max(np.abs(far)) == 0.0

    def test_partition_of_unity_reconstruction(self):
        grid = make_grid(1024, 50.0)
        rng = np.random.default_rng(1)
        f = band_limited_field(grid, rng, 30, 700)
        j_min, j_max = resolved_range(grid)
        total = np.zeros(grid.n_modes)
        for j in range(j_min, j_max + 1):
            total += block(grid, f, j)
        rel = np.max(np.abs(total - f)) / np.max(np.abs(f))
        assert rel < 1e-10

    def test_zero_field(self):
        grid = make_grid(256, 20.0)
        assert np.all(block(grid, np.zeros(grid.n_modes), 0) == 0.0)

    def test_blocks_outside_resolved_range_vanish(self):
        # the Besov sums stop at the resolved range because the next block on
        # either side has no support on the grid
        for grid in (make_grid(256, 20.0), make_grid(16384, 500.0)):
            j_min, j_max = resolved_range(grid)
            assert not np.any(block_multiplier(grid, j_min - 1))
            assert not np.any(block_multiplier(grid, j_max + 1))
            assert np.any(block_multiplier(grid, j_max))


class TestBesovNorm:
    def test_zero(self):
        grid = make_grid(256, 20.0)
        for spec in (BesovSpec(0.0, 2.0, 1.0), BesovSpec(1.5, math.inf, math.inf),
                     BesovSpec(-0.5, 2.0, 2.0, band="low", j0=0)):
            assert pair_besov_norm(grid, np.zeros(grid.n_modes), spec) == 0.0

    def test_single_annulus_three_block_oracle(self):
        grid = make_grid(2048, 100.0)
        f = phi_hat(0, grid.rho)
        s = 0.7
        for p in (2.0, math.inf):
            mine = pair_besov_norm(grid, f, BesovSpec(s, p, 1.0))
            oracle = 0.0
            for j in (-1, 0, 1):   # only neighbours of the annulus contribute
                blocked = phi_hat(j, grid.rho) * f
                oracle += 2.0 ** (s * j) * lp_norm(grid, physical_values(grid, blocked), p)
            assert mine == pytest.approx(oracle, rel=1e-10)
            far = sum(lp_norm(grid, physical_values(grid, phi_hat(j, grid.rho) * f), p)
                      for j in (-3, 3))
            assert far == 0.0

    def test_dilation_covariance(self):
        outer = 80.0
        grid = make_grid(8191, outer)
        samples = np.exp(-grid.r ** 2) * np.cos(2.5 * grid.r)
        half_grid = make_grid(8191, outer / 2.0)
        f, dilated = to_spectral(grid, samples), to_spectral(half_grid, samples)
        for s, p, q in [(0.5, 2.0, 1.0), (0.0, math.inf, 1.0), (1.0, 2.0, 2.0)]:
            n_f = pair_besov_norm(grid, f, BesovSpec(s, p, q))
            n_d = pair_besov_norm(half_grid, dilated, BesovSpec(s, p, q))
            assert n_d == pytest.approx(2.0 ** (s - 3.0 / p) * n_f, rel=0.01)

    def test_triangle_embedding(self):
        grid = make_grid(1024, 50.0)
        rng = np.random.default_rng(4)
        for p in (2.0, math.inf):
            for _ in range(20):
                f = band_limited_field(grid, rng, 25, 600)
                lhs = lp_norm(grid, physical_values(grid, f), p)
                rhs = pair_besov_norm(grid, f, BesovSpec(0.0, p, 1.0))
                assert lhs <= rhs + 1e-9

    def test_almost_orthogonality(self):
        grid = make_grid(2048, 60.0)
        rng = np.random.default_rng(5)
        for _ in range(5):
            samples = rng.standard_normal(2048)
            norms = block_norms(grid, to_spectral(grid, samples), None, 2.0,
                                range(*_inclusive(grid)))
            total = sum(v ** 2 for v in norms.values())
            assert total <= 3.0 * lp_norm(grid, samples, 2.0) ** 2

    def test_band_additivity(self):
        grid = make_grid(1024, 50.0)
        rng = np.random.default_rng(6)
        f = band_limited_field(grid, rng, 10, 800)
        for q in (1.0, 2.0):
            for j0 in (-1, 1, 3):
                low = pair_besov_norm(grid, f, BesovSpec(0.3, 2.0, q, band="low", j0=j0))
                high = pair_besov_norm(grid, f, BesovSpec(0.3, 2.0, q, band="high", j0=j0 + 1))
                full = pair_besov_norm(grid, f, BesovSpec(0.3, 2.0, q))
                assert low ** q + high ** q == pytest.approx(full ** q, rel=1e-12)

    def test_pair_norm_reduces_to_scalar(self):
        # a one-row field and the two-row field with a zero second row take
        # one path.  For p = inf, hypot(a, 0) = |a| makes them agree exactly.
        # For p = 2 the Parseval sum runs over the flattened pair, which
        # numpy's pairwise summation splits at the row boundary when N is a
        # multiple of 8; on other grids the two sums may differ in the last bit
        for n_modes, radius in ((512, 30.0), (1021, 33.0)):
            grid = make_grid(n_modes, radius)
            gauss = to_spectral(grid, np.exp(-grid.r ** 2))
            for f in (gauss, band_limited_field(grid, np.random.default_rng(8), 10, 300)):
                pair = stacked(f, np.zeros(n_modes))
                assert pair.shape == (2, n_modes)
                for p, q in itertools.product((2.0, math.inf), (1.0, 2.0, math.inf)):
                    for band, j0 in (("full", None), ("low", 0), ("high", 1)):
                        spec = BesovSpec(0.5, p, q, band=band, j0=j0)
                        one = pair_besov_norm(grid, f, spec)
                        two = pair_besov_norm(grid, pair, spec)
                        assert one > 0.0
                        if p == math.inf or n_modes % 8 == 0:
                            assert one == two
                        else:
                            assert one == pytest.approx(two, rel=1e-15)


def oracle_fields(grid):
    """Spectral values of a Gaussian, of an oscillating profile and of a
    band-limited field whose top blocks are exactly zero."""
    a = to_spectral(grid, np.exp(-grid.r ** 2))
    v = to_spectral(grid, np.cos(3.0 * grid.r) * np.exp(-grid.r ** 2 / 4.0))
    return a, v, band_limited_field(grid, np.random.default_rng(5), 20, 400)


def _inclusive(grid):
    """(j_min, j_max + 1): the resolved block indices as range() bounds."""
    j_min, j_max = resolved_range(grid)
    return j_min, j_max + 1


class TestBlockPathOracle:
    """_block_lq_norm and pair_besov_norm, on fields and pairs, against the
    physical-space block loop, for p in {1, 2, 3, inf} and full, low and high
    bands."""

    GRID = (1023, 40.0)
    SPECS = [("full", None), ("low", 0), ("high", 1)]

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0, math.inf])
    def test_block_norms(self, p):
        grid = make_grid(*self.GRID)
        for f in oracle_fields(grid):
            oracle = oracle_block_norms(grid, f, None, p, range(*_inclusive(grid)))
            norms = block_norms(grid, f, None, p, range(*_inclusive(grid)))
            assert norms.keys() == oracle.keys()
            for j, n in oracle.items():
                assert norms[j] == pytest.approx(n, rel=1e-12)

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0, math.inf])
    @pytest.mark.parametrize("band,j0", SPECS)
    def test_besov_norms(self, p, band, j0):
        grid = make_grid(*self.GRID)
        a, v, banded = oracle_fields(grid)
        zero = np.zeros(grid.n_modes)
        for q in (1.0, 2.0, math.inf):
            spec = BesovSpec(0.5, p, q, band=band, j0=j0)
            for f in (a, v, banded):
                assert pair_besov_norm(grid, f, spec) == pytest.approx(
                    oracle_pair_besov_norm(grid, f, None, spec), rel=1e-12)
            for x, y in ((a, v), (v, banded), (banded, zero), (zero, a)):
                assert pair_besov_norm(grid, stacked(x, y), spec) == pytest.approx(
                    oracle_pair_besov_norm(grid, x, y, spec), rel=1e-12)

    def test_zero_blocks_skip_the_transform(self, transform_counter):
        grid = make_grid(*self.GRID)
        _, _, banded = oracle_fields(grid)
        zero = np.zeros(grid.n_modes)
        indices = range(*_inclusive(grid))
        empty = [j for j in indices if not np.any(block(grid, banded, j))]
        assert len(empty) >= 2
        n_full = len(indices) - len(empty)
        for p in (1.0, 2.0, math.inf):
            oracle = oracle_block_norms(grid, banded, None, p, indices)
            start = transform_counter[0]
            norms = block_norms(grid, banded, None, p, indices)
            # one row per block with content; p = 2 is Parseval, no transform
            assert transform_counter[0] - start == (0 if p == 2.0 else n_full)
            assert all(norms[j] == 0.0 for j in empty)
            for j, n in oracle.items():
                assert norms[j] == pytest.approx(n, rel=1e-12)
            start = transform_counter[0]
            pair = pair_besov_norm(grid, stacked(banded, zero), BesovSpec(0.0, p, 1.0))
            assert transform_counter[0] - start == (0 if p == 2.0 else 2 * n_full)
            assert pair == pytest.approx(sum(oracle.values()), rel=1e-12)
        start = transform_counter[0]
        assert pair_besov_norm(grid, stacked(zero, zero), BesovSpec(0.0, math.inf, 1.0)) == 0.0
        assert transform_counter[0] == start


class TestScreening:
    """The transform-free bound B_j and the p = inf blocks it lets
    `_block_lq_norm` skip."""

    @pytest.mark.parametrize("shape", [(1023, 40.0), (4096, 150.0)])
    def test_bound_dominates_block_sup(self, shape):
        grid = make_grid(*shape)
        rng = np.random.default_rng(11)
        indices = range(*_inclusive(grid))
        for _ in range(4):
            lo = int(rng.integers(1, grid.n_modes // 2))
            hi = int(rng.integers(lo + 1, grid.n_modes + 1))
            a = band_limited_field(grid, rng, lo, hi)
            v = band_limited_field(grid, rng, lo, hi)
            hat = np.stack((a, v))
            for x, y in ((a, None), (a, v)):
                sups = oracle_block_norms(grid, x, y, math.inf, indices)
                weights = _sup_bound_weights(grid, hat[:1] if y is None else hat)
                for j, sup in sups.items():
                    code_bound = float(block_multiplier(grid, j) @ weights)
                    assert code_bound >= sup
                    assert code_bound == pytest.approx(sup_bound(grid, x, y, j), rel=1e-13)

    @pytest.mark.parametrize("t", [20.0, 60.0])
    def test_late_time_linear_states_match_oracle(self, t, transform_counter):
        grid = make_grid(2047, 150.0)
        a0 = to_spectral(grid, initial_data_gaussian(0.01, 1.0, grid))
        pair = apply_semigroup(grid, stacked(a0, np.zeros(grid.n_modes)), t)
        a, v = pair
        j0 = j0_for_time(t)
        skips = 0
        for s, q in ((0.0, 1.0), (0.5, 2.0), (0.0, math.inf)):
            for band in ("full", "low", "high"):
                spec = BesovSpec(s, math.inf, q, band=band,
                                 j0=None if band == "full" else j0)
                start = transform_counter[0]
                mine = pair_besov_norm(grid, pair, spec)
                transforms = transform_counter[0] - start
                oracle = oracle_pair_besov_norm(grid, a, v, spec)
                assert abs(mine - oracle) <= 1e-15 * oracle
                kept = screened_kept_blocks(grid, a, v, spec)
                assert transforms == 2 * len(kept)
                skips += len(band_indices(grid, spec)) - len(kept)
        assert skips > 0

    def test_skipped_bounds_accumulate(self, transform_counter):
        # one mode at each rho = 2^j lies in block j alone; block 0 carries
        # the field, and blocks 1-3 each get a bound of 0.6e-17 of its sup,
        # so block 1 is skipped and the running skipped sum keeps 2 and 3
        grid = make_grid(255, 16.0 * math.pi)        # rho_k = k / 16
        hat = np.zeros(grid.n_modes)
        hat[16 - 1] = 1.0
        main = _block_lq_norm(grid, hat, 0.0, math.inf, 1.0, [0])
        per_mode = math.sqrt(2.0 / math.pi) * grid.drho * grid.rho ** 2
        for j in (1, 2, 3):
            k = 16 * 2 ** j
            hat[k - 1] = 0.6e-17 * main / per_mode[k - 1]
        spec = BesovSpec(0.0, math.inf, 1.0)
        assert screened_kept_blocks(grid, hat, None, spec) == [0, 2, 3]
        start = transform_counter[0]
        mine = pair_besov_norm(grid, hat, spec)
        assert transform_counter[0] - start == 3
        oracle = oracle_pair_besov_norm(grid, hat, None, spec)
        assert abs(mine - oracle) <= 1e-15 * oracle


class TestSpecValidation:
    @pytest.mark.parametrize("s", [math.inf, -math.inf, math.nan])
    def test_non_finite_s_rejected(self, s):
        with pytest.raises(UnsupportedParameterError, match="s must be finite"):
            BesovSpec(s, 2.0, 1.0)

    @pytest.mark.parametrize("p,q", [(math.nan, 1.0), (2.0, math.nan), (math.nan, math.nan)])
    def test_nan_p_or_q_rejected(self, p, q):
        with pytest.raises(UnsupportedParameterError, match="p and q"):
            BesovSpec(0.0, p, q)

    @pytest.mark.parametrize("s", [2000.0, -2000.0])
    def test_overflowing_weight_is_typed(self, s):
        grid = make_grid(1023, 50.0)
        f = band_limited_field(grid, np.random.default_rng(2))
        for p in (2.0, math.inf):
            with pytest.raises(NumericDomainError, match="overflows"):
                pair_besov_norm(grid, f, BesovSpec(s, p, 1.0))


class TestLowCutoff:
    def test_full_band_pass(self):
        grid = make_grid(1024, 50.0)
        rng = np.random.default_rng(7)
        f = band_limited_field(grid, rng, 10, 900)
        _, j_max = resolved_range(grid)
        out = low_cutoff(grid, f, j_max)
        rel = np.max(np.abs(out - f)) / np.max(np.abs(f))
        assert rel < 1e-10

    def test_disjoint_support_killed(self):
        grid = make_grid(1024, 50.0)
        j = 2
        coeffs = np.zeros(grid.n_modes)
        coeffs[grid.rho > 2.0 ** (j + 1)] = 1.0
        assert np.max(np.abs(low_cutoff(grid, coeffs, j))) == 0.0

    def test_partition_identity(self):
        grid = make_grid(1024, 50.0)
        rng = np.random.default_rng(8)
        f = band_limited_field(grid, rng, 10, 800)
        j0 = 1
        _, j_max = resolved_range(grid)
        total = low_cutoff(grid, f, j0)
        for j in range(j0 + 1, j_max + 1):
            total += block(grid, f, j)
        rel = np.max(np.abs(total - f)) / np.max(np.abs(f))
        assert rel < 1e-10


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
