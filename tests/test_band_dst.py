"""The band-pruned and chirp-z DST-I: wide dyadic blocks on grids whose
transform length 2(N+1) has a large prime factor, against long-double direct
sums, and the rule that selects each path.

Imports numpy and radns only, so it also runs where scipy is not installed.
"""

import math

import numpy as np
import pytest

import radns.spectral as spectral
from radns.besov import _block_lq_norm, _narrow_width, block_support, resolved_range
from radns.spectral import dst, make_grid, physical_values
from test_narrow_blocks import block_pair, direct_values

#: node values, and r f, of a wide block against their own sups: the split
#: and the full real FFT both stay within 2e-15; two rows packed as a + i v
#: into one complex split reach 8e-15 to 4e-14 near r = 0
BAND_RTOL = 5e-15

#: r f of a wide block by the chirp-z path against its sup: the worst
#: measured is 9.1e-16 (the real FFT's 9.0e-16), and the bound is 2x that
CHIRP_RTOL = 1.8e-15

#: f = (r f)/r by the chirp-z path, beyond twice the real FFT's own miss at
#: the same nodes, against its sup.  Dividing by r amplifies the rounding of
#: r f near r = 0: on the lowest block at R = 600 f misses by 1.3e-14 of its
#: sup (the real FFT by 5.6e-15), and on the top block at R = 1500, whose sup
#: sits at r_1 where sin(r_1 rho) is near sin(pi), by 6.3e-14 (the real FFT
#: by 4.7e-14).  The largest excess over twice the real FFT's miss is
#: 2.9e-15, and the bound is under 2x that.
CHIRP_F_RTOL = 4e-15

#: (N, R): the linear-decay grid, the grid on which block 0 is the narrowest
#: wide block, and a small grid where the rule holds (2368 = 2^6 37)
GRIDS = [(16384, 500.0), (16384, 271.96), (1183, 40.0)]

#: (N, R) on the chirp-z path: the probe frame's grid (16386 = 2 3 2731), and
#: 18002 = 2 9001, where every wide block, the widest of 5945 modes included,
#: fits an FFT of size 16384
CHIRP_GRIDS = [(8192, 1500.0), (9000, 600.0)]


@pytest.fixture
def path_calls(monkeypatch):
    """Count the calls that take the band-pruned and the chirp-z paths."""
    calls = {"band": 0, "chirp": 0}
    for path in calls:
        def counting(*args, path=path, fn=getattr(spectral, f"_{path}_dst")):
            calls[path] += 1
            return fn(*args)
        monkeypatch.setattr(spectral, f"_{path}_dst", counting)
    return calls


def wide_blocks(grid):
    j_min, j_max = resolved_range(grid)
    return [j for j in range(j_min, j_max + 1)
            if block_support(grid, j).stop - block_support(grid, j).start > _narrow_width(grid)]


def sampled_nodes(n_modes):
    """Every node of a small grid; on a large one, the first 128 (where 1/r
    amplifies an error) and every 37th, a stride prime to the split's p and
    M, with the last node."""
    if n_modes < 2048:
        return np.arange(1, n_modes + 1)
    return np.union1d(np.arange(1, 129), np.append(np.arange(1, n_modes + 1, 37), n_modes))


def odd_extension_dst(x):
    """The real FFT of the odd extension (0, x, 0, -reversed x): the full-band path."""
    n = x.shape[-1]
    z = np.zeros(x.shape[:-1] + (2 * (n + 1),))
    z[..., 1:n + 1] = x
    z[..., n + 2:] = -x[..., ::-1]
    return -np.fft.rfft(z).imag[..., 1:n + 1]


@pytest.mark.parametrize("n_modes,radius", GRIDS)
def test_wide_blocks_match_direct_sums(n_modes, radius, path_calls):
    grid = make_grid(n_modes, radius)
    nodes = sampled_nodes(n_modes)
    r = grid.r[nodes - 1].astype(np.longdouble)
    rng = np.random.default_rng(n_modes)
    wide = wide_blocks(grid)
    assert len(wide) >= 7
    for j in wide:
        support = block_support(grid, j)
        _, coeffs = block_pair(grid, j, rng)
        calls = path_calls["band"]
        values = physical_values(grid, coeffs, support)
        assert path_calls["band"] == calls + 1
        exact = direct_values(grid, coeffs, support, nodes)
        sampled = values[:, nodes - 1]
        assert np.max(np.abs(sampled - exact)) <= BAND_RTOL * float(np.max(np.hypot(*exact)))
        # r f, the sine sums themselves: 1/r hides an error that grows with r
        assert (np.max(np.abs(grid.r[nodes - 1] * sampled - r * exact))
                <= BAND_RTOL * float(np.max(np.hypot(*(r * exact)))))
        # a single field goes in as the real part alone
        alone = physical_values(grid, coeffs[1], support)[nodes - 1]
        assert path_calls["band"] == calls + 2
        assert np.max(np.abs(alone - exact[1])) <= BAND_RTOL * float(np.max(np.abs(exact[1])))
        # and at every node, against the full-band transform
        full = np.zeros((2, n_modes))
        full[:, support] = coeffs
        r_f = grid.r * values
        assert (np.max(np.abs(r_f - grid.r * physical_values(grid, full)))
                <= BAND_RTOL * float(np.max(np.hypot(*r_f))))


@pytest.mark.parametrize("n_modes,radius", CHIRP_GRIDS)
def test_chirp_blocks_match_direct_sums(n_modes, radius, path_calls, transform_counter):
    grid = make_grid(n_modes, radius)
    nodes = sampled_nodes(n_modes)
    r = grid.r[nodes - 1].astype(np.longdouble)
    rng = np.random.default_rng(n_modes)
    wide = wide_blocks(grid)
    assert len(wide) >= 8
    for j in wide:
        support = block_support(grid, j)
        _, coeffs = block_pair(grid, j, rng)
        # one counted dst call of two rows, and no rfft call
        calls, counts = path_calls["chirp"], list(transform_counter)
        values = physical_values(grid, coeffs, support)
        assert path_calls["chirp"] == calls + 1 and path_calls["band"] == 0
        assert [now - before for now, before in zip(transform_counter, counts)] == [2, 1]
        exact = direct_values(grid, coeffs, support, nodes)
        sampled = values[:, nodes - 1]
        assert (np.max(np.abs(grid.r[nodes - 1] * sampled - r * exact))
                <= CHIRP_RTOL * float(np.max(np.hypot(*(r * exact)))))
        full = np.zeros((2, n_modes))
        full[:, support] = coeffs
        real = physical_values(grid, full)
        real_miss = float(np.max(np.abs(real[:, nodes - 1] - exact)))
        assert (np.max(np.abs(sampled - exact))
                <= CHIRP_F_RTOL * float(np.max(np.hypot(*exact))) + 2.0 * real_miss)
        # each row goes in on its own
        assert np.array_equal(physical_values(grid, coeffs[1], support), values[1])


@pytest.mark.parametrize("n_modes", [255, 256, 1183, 4096, 8191, 8192, 16383, 16384])
def test_rule_and_transform_counts(n_modes, path_calls, transform_counter):
    # 2(N+1) = 2368 = 2^6 37 and 32770 = 2 5 29 113 have a prime factor p
    # with 32 < p and p^2 <= 2(N+1): the split; 16386 = 2 3 2731 has p > 1000
    # with p^2 > 2(N+1): the chirp-z; 512, 514 = 2 257, 8194 = 2 17 241,
    # 16384 and 32768 keep the real FFT
    split = {1183: (37, 64), 16384: (113, 290)}.get(n_modes)
    assert spectral._band_split(2 * (n_modes + 1)) == split
    grid = make_grid(n_modes, 1.1 * n_modes)
    j = resolved_range(grid)[1] - 1
    support = block_support(grid, j)
    assert support.stop - support.start > _narrow_width(grid)
    hat, _ = block_pair(grid, j, np.random.default_rng(n_modes))
    start = transform_counter[0]
    assert _block_lq_norm(grid, hat, 0.0, math.inf, 1.0, [j]) > 0
    assert transform_counter[0] - start == 2
    assert path_calls == {"band": split is not None, "chirp": n_modes == 8192}


def test_chirp_rule_from_measured_times():
    # (N, W) of the measured table (README, BENCH_30.json): the chirp-z path
    # is taken where it was faster than the real FFT, and not where it was
    # slower, with p <= 1000 or with an FFT size of 2^ceil(log2(N+W-1)) > 2(N+1)
    assert [spectral._chirp_size(n, width) for n, width in
            [(8192, 179), (8192, 8191), (12000, 2000), (1128, 28), (1008, 8), (16385, 16384)]] == [
                16384, 16384, 16384, 2048, 1024, 32768]
    assert [spectral._chirp_size(n, width) for n, width in
            [(100, 16), (256, 40), (4096, 682), (508, 8), (8196, 8195), (4098, 4097)]] == [None] * 6


def test_full_band_keeps_the_real_fft(path_calls):
    # every full-band call is the odd extension's real FFT bit for bit
    grid = make_grid(16384, 500.0)
    x = np.random.default_rng(0).standard_normal((2, grid.n_modes))
    assert np.array_equal(dst(x[0]), odd_extension_dst(x[0]))
    assert np.array_equal(dst(x), odd_extension_dst(x))
    assert np.array_equal(dst(x, slice(0, grid.n_modes)), odd_extension_dst(x))
    grid = make_grid(8192, 1500.0)
    x = x[:, :grid.n_modes]
    assert np.array_equal(dst(x), odd_extension_dst(x))
    assert path_calls == {"band": 0, "chirp": 0}


def test_stacked_band_is_its_rows():
    # rows go through the split one by one: a stack of three, and a (2, 2, N)
    # stack, give each row's own result bit for bit
    grid = make_grid(16384, 500.0)
    support = block_support(grid, 3)
    band = np.zeros((3, grid.n_modes))
    band[:, support] = np.random.default_rng(3).standard_normal((3, support.stop - support.start))
    stacked = dst(band, support)
    for row in range(3):
        assert np.array_equal(stacked[row], dst(band[row], support))
    assert np.max(np.abs(stacked - odd_extension_dst(band))) <= 2e-15 * np.max(np.abs(stacked))
    assert np.array_equal(dst(band[[0, 1, 2, 0]].reshape(2, 2, -1), support).reshape(4, -1),
                          stacked[[0, 1, 2, 0]])
