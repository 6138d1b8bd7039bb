"""Narrow dyadic blocks, synthesised by the two-level sine product, against
long-double direct sums."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from radns.besov import (
    _block_lq_norm,
    _narrow_physical_values,
    _product_tables,
    block_multiplier,
    block_support,
    phi_hat,
    resolved_range,
)
from radns.spectral import make_grid

#: N, then the radii at which block 0 spans exactly B = ceil(sqrt(N+1)) modes
#: (the widest narrow block) and B + 1 modes (the narrowest transform block)
GRIDS = [
    (1023, 66.08, 67.86),
    (8191, 190.28, 191.74),
    (8192, 190.28, 191.74),
    (16384, 268.61, 271.96),
]

PI = np.longdouble("3.14159265358979323846264338327950288")

#: node values and sups of a narrow block, relative to its sup
NARROW_RTOL = 2e-15


def width_limit(n_modes):
    return math.ceil(math.sqrt(n_modes + 1))


def direct_values(grid, coeffs, support, nodes=None):
    """The physical values sqrt(2/pi) drho sum_k rho_k c_k sin(pi m k/(N+1)) / r_m
    of the rows `coeffs`, spectral values on the modes `support`, at the
    nodes m of `nodes` (default 1..N), summed directly in long double with
    every angle reduced from the exact integer m k mod 2(N+1): one long-double
    sine per residue, gathered, so the same sines as np.sin at each angle."""
    period = grid.n_modes + 1
    m = np.arange(1, period) if nodes is None else np.asarray(nodes)
    sines = np.sin(PI / period * np.arange(2 * period))
    weights = (np.sqrt(2 / PI) * np.longdouble(grid.drho)
               * grid.rho[support].astype(np.longdouble) * coeffs.astype(np.longdouble))
    total = np.zeros((len(coeffs), len(m)), dtype=np.longdouble)
    chunk = max(1, 2 ** 21 // len(m))     # modes per (chunk, nodes) gather
    for lo in range(0, support.stop - support.start, chunk):
        k = np.arange(support.start + 1 + lo, min(support.start + lo + chunk, support.stop) + 1)
        total += weights[:, lo:lo + chunk] @ sines[np.outer(k, m) % (2 * period)]
    return total / grid.r[m - 1].astype(np.longdouble)


def block_pair(grid, j, rng):
    """A random pair on block j's support, (2, N), and the block's spectral
    values: that pair times the multiplier, on the support alone."""
    support = block_support(grid, j)
    hat = np.zeros((2, grid.n_modes))
    hat[:, support] = rng.standard_normal((2, support.stop - support.start))
    return hat, block_multiplier(grid, j) * hat[:, support]


@pytest.mark.parametrize("n_modes,radius,_", GRIDS)
def test_multiplier_vanishes_off_the_support(n_modes, radius, _):
    grid = make_grid(n_modes, radius)
    j_min, j_max = resolved_range(grid)
    for j in range(j_min - 1, j_max + 2):
        support = block_support(grid, j)
        full = phi_hat(j, grid.rho)
        assert np.array_equal(block_multiplier(grid, j), full[support])
        assert not np.any(full[:support.start]) and not np.any(full[support.stop:])


@pytest.mark.parametrize("n_modes,radius,_", GRIDS)
def test_narrow_blocks_match_direct_sums(n_modes, radius, _, transform_counter):
    grid = make_grid(n_modes, radius)
    limit = width_limit(n_modes)
    j_min, _j_max = resolved_range(grid)
    widths = {j: block_support(grid, j).stop - block_support(grid, j).start
              for j in range(j_min, 1)}
    assert widths[j_min] == 1 and widths[0] == limit
    # the product's last row of nodes runs past m = N on every grid but N = 1023
    rows = -(-(n_modes + 1) // limit)
    assert (rows * limit > n_modes + 1) == (n_modes != 1023)
    rng = np.random.default_rng(n_modes)
    for j in range(j_min, 1):
        support = block_support(grid, j)
        hat, coeffs = block_pair(grid, j, rng)
        exact = direct_values(grid, coeffs, support)
        exact_sup = float(np.max(np.hypot(*exact)))
        values = _narrow_physical_values(grid, coeffs, support)
        assert values.shape == (2, n_modes)
        assert np.max(np.abs(values - exact)) <= NARROW_RTOL * exact_sup
        # r f, the sine sums themselves, against their own sup: 1/r hides an
        # angle error that grows with r (angles not reduced mod 2(N+1) pass
        # the check above and fail this one)
        weighted = grid.r.astype(np.longdouble) * exact
        assert (np.max(np.abs(grid.r * values - weighted))
                <= NARROW_RTOL * float(np.max(np.hypot(*weighted))))
        start = transform_counter[0]
        sup = _block_lq_norm(grid, hat, 0.0, math.inf, 1.0, [j])
        assert transform_counter[0] == start
        assert abs(sup - exact_sup) <= NARROW_RTOL * exact_sup


@pytest.mark.parametrize("n_modes,radius,_", GRIDS)
def test_one_mode_block_is_the_single_mode_product(n_modes, radius, _):
    # the j_min block takes in its neighbour at coefficient 0, so that matmul
    # has an inner dimension of 2: its node values keep every bit of the
    # product over its one mode
    grid = make_grid(n_modes, radius)
    j_min = resolved_range(grid)[0]
    support = block_support(grid, j_min)
    _, coeffs = block_pair(grid, j_min, np.random.default_rng(n_modes))
    (sin_p, cos_p), (cos_d, sin_d) = _product_tables(grid)
    c = (math.sqrt(2.0 / math.pi) * grid.drho * grid.rho[support] * coeffs)[:, :, None]
    sums = sin_p[:, support] @ (c * cos_d[support]) + cos_p[:, support] @ (c * sin_d[support])
    single = sums.reshape(2, -1)[:, 1:n_modes + 1] / grid.r
    assert np.array_equal(_narrow_physical_values(grid, coeffs, support), single)


def test_one_mode_top_block_has_no_mode_above():
    # rho_N = 1.05 * 2^{j_max - 1}: the top block holds mode N alone, at a
    # multiplier of about 1e-9, and there is no next mode to take in, so it
    # keeps the one-mode product
    grid = make_grid(16, 16 * math.pi / 4.2)
    j_max = resolved_range(grid)[1]
    support = block_support(grid, j_max)
    assert (support.start, support.stop) == (15, 16)
    _, coeffs = block_pair(grid, j_max, np.random.default_rng(16))
    assert coeffs.any()
    exact = direct_values(grid, coeffs, support)
    values = _narrow_physical_values(grid, coeffs, support)
    assert np.max(np.abs(values - exact)) <= NARROW_RTOL * float(np.max(np.hypot(*exact)))


@pytest.mark.parametrize("n_modes,_,radius", GRIDS)
def test_one_mode_past_the_limit_takes_the_transform(n_modes, _, radius, transform_counter):
    grid = make_grid(n_modes, radius)
    support = block_support(grid, 0)
    assert support.stop - support.start == width_limit(n_modes) + 1
    hat, coeffs = block_pair(grid, 0, np.random.default_rng(n_modes))
    exact = direct_values(grid, coeffs, support)
    exact_sup = float(np.max(np.hypot(*exact)))
    start = transform_counter[0]
    sup = _block_lq_norm(grid, hat, 0.0, math.inf, 1.0, [0])
    assert transform_counter[0] - start == 2
    # the transform's own accuracy, not the product's
    assert abs(sup - exact_sup) <= 1e-13 * exact_sup


SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.mark.slow
def test_csv_bytes_do_not_depend_on_blas_threads(tmp_path):
    # the narrow blocks go through BLAS matrix products; the benchmark pins
    # one BLAS thread, CI and users do not.  The `linear_decay` benchmark grid
    # makes the largest products of the reference runs
    config = tmp_path / "run.cfg"
    config.write_text("N = 16384\nR = 500.0\nT = 140.0\noutput_interval = 2.0\n"
                      "c = 0.01\nw = 1.0\n")
    csv = {}
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        out = tmp_path / threads
        proc = subprocess.run([sys.executable, "-m", "radns.cli", "linear-decay",
                               "--config", str(config), "--out", str(out), "--quiet"],
                              env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        csv[threads] = (out / "linear-decay.csv").read_bytes()
    assert csv["1"] == csv["2"]
