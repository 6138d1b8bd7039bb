"""Radial grids, sine-transform pairs, Fourier multipliers, and norms.

A radially symmetric function f(x) = f(|x|) on R^3 is stored as its profile
sampled on a uniform radial grid.  With the unitary Fourier convention
(prefactor (2*pi)^(-3/2)) the 3D transform of a radial function reduces to a
weighted sine transform,

    rho * fhat(rho) = sqrt(2/pi) * int_0^inf  r f(r) sin(r rho) dr,

so the map g(r) = r f(r)  ->  ghat(rho) = rho fhat(rho) is the Fourier sine
transform, which is its own inverse.  On the paired grids

    r_m = m dr,  rho_k = k drho,    dr = R/(N+1),  drho = pi/R,

the discretised map is the type-I discrete sine transform and the duality
condition dr*drho = pi/(N+1) makes the discrete round trip exact.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.fft import rfft

from .errors import ConfigurationError


@dataclass(frozen=True)
class RadialGrid:
    """Paired physical/spectral node sets for radial fields.

    Nodes exclude both r = 0 and rho = 0, so pointwise division by either
    coordinate is always defined.
    """

    n_modes: int
    outer_radius: float
    dr: float
    drho: float
    r: np.ndarray
    rho: np.ndarray

    def __eq__(self, other):
        if not isinstance(other, RadialGrid):
            return NotImplemented
        return (self.n_modes == other.n_modes
                and self.outer_radius == other.outer_radius)

    def __hash__(self):
        return hash((self.n_modes, self.outer_radius))


def make_grid(n_modes: int, outer_radius: float) -> RadialGrid:
    """Build the paired radial/spectral grid with DST-I duality."""
    if not isinstance(n_modes, (int, np.integer)) or n_modes < 8:
        raise ConfigurationError(f"n_modes must be an integer >= 8, got {n_modes!r}")
    if not np.isfinite(outer_radius) or outer_radius <= 0:
        raise ConfigurationError(f"outer_radius must be finite and positive, got {outer_radius!r}")
    n = int(n_modes)
    radius = float(outer_radius)
    dr = radius / (n + 1)
    drho = np.pi / radius
    idx = np.arange(1, n + 1, dtype=float)
    return RadialGrid(n, radius, dr, drho, idx * dr, idx * drho)


# -- sine/cosine kernels ------------------------------------------------------
#
# A sine sum alone is a DST-I of length N.  A sine sum of x paired with a
# cosine sum of y is one real FFT of length 2(N+1) (Martucci, IEEE Trans.
# Signal Process. 42, 1994): put the odd extension of x plus the even
# extension of y in z, z_j = y_j + x_j and z_{2(N+1)-j} = y_j - x_j for
# j = 1..N, z_0 = z_{N+1} = 0; then bin m of its transform is
# 2 sum_k y_k cos(pi m k/(N+1)) - 2i sum_k x_k sin(pi m k/(N+1)).  The
# forcing (solver.nonlinear_rhs) writes z from its own weights, its three
# syntheses as the rows of one array and f's sine sum and h's pair as the
# rows of another, and transforms each with this module's `rfft`, so one
# counter that wraps `rfft` and `dst` sees its 5 transforms in 2 calls, and
# an ETD2 step's 10 in 4.

def dst(x: np.ndarray) -> np.ndarray:
    """Type-I DST along the last axis, 2 sum_k x_k sin(pi m k/(N+1)) for
    m = 1..N: minus the imaginary part of bins 1..N of the real FFT of the
    odd extension (0, x, 0, -reversed x) of length 2(N+1)."""
    n = x.shape[-1]
    z = np.zeros(x.shape[:-1] + (2 * (n + 1),))
    z[..., 1:n + 1] = x
    np.negative(x[..., ::-1], out=z[..., n + 2:])
    # np.fft.rfft, not the module's rfft: a counter that wraps `rfft` sees
    # each sine-only sum once, through `dst`
    return -np.fft.rfft(z).imag[..., 1:n + 1]


def _no_dct(x: np.ndarray) -> np.ndarray:
    raise NotImplementedError("radns makes no DCT; cosine sums go through rfft")


# Never called: perfbench/tracing.py still resolves and wraps `spectral.dct`
# by name, so the name stays bound until the tracer's LAYERS drop it.
dct = _no_dct


def _sine_sum(coeffs: np.ndarray, step: float) -> np.ndarray:
    """sqrt(2/pi) * step * sum_k coeffs_k sin(node_m * dual_node_k)."""
    return np.sqrt(2.0 / np.pi) * step * 0.5 * dst(coeffs)


def per_grid_cache(fn):
    """Memoise an array computed from a grid plus a few hashable scalars, or
    from the scalars alone.

    Bounded LRU, so a process that visits many grids does not grow without
    limit; the cached array, or each array of a cached tuple, is made
    read-only because every caller shares it (other values, such as a slice,
    are immutable already).
    """
    @functools.lru_cache(maxsize=64)
    @functools.wraps(fn)
    def cached(*args, **kwargs):
        table = fn(*args, **kwargs)
        for array in table if isinstance(table, tuple) else (table,):
            if isinstance(array, np.ndarray):
                array.flags.writeable = False
        return table
    return cached


# -- transforms ---------------------------------------------------------------

def to_spectral(grid: RadialGrid, samples: np.ndarray) -> np.ndarray:
    """Weighted DST-I: physical samples f(r_m) -> transform values fhat(rho_k)."""
    return _sine_sum(grid.r * samples, grid.dr) / grid.rho


def physical_values(grid: RadialGrid, hat: np.ndarray,
                    support: slice = slice(None)) -> np.ndarray:
    """Inverse weighted DST-I fhat(rho_k) -> f(r_m), an exact involution, for
    one field or for a stack of fields (one row each) in one transform call;
    `hat` holds the spectral values on the modes `support`, 0 on the others."""
    # rho * hat, written straight into the zero-padded rows: a second (rows, N)
    # array would add 0.45 MiB to a linear-decay run's peak RSS
    ghat = np.zeros(np.shape(hat)[:-1] + (grid.n_modes,))
    np.multiply(grid.rho[support], hat, out=ghat[..., support])
    return _sine_sum(ghat, grid.drho) / grid.r


# -- norms --------------------------------------------------------------------

def modulus(rows: np.ndarray) -> np.ndarray:
    """Pointwise modulus of a stack of one or two rows: |row| for one, and
    |a + i v| of the pair (a, v) for two.

    The pair goes through numpy's complex abs, which scales before it
    squares, as C99 cabs does: no square under- or overflows, and the
    result lies within 2 ulp of hypot(a, v), six or more times faster than
    the scalar libm hypot.
    """
    if len(rows) == 1:
        return np.abs(rows[0])
    a, v = rows
    pair = np.empty(np.shape(a), dtype=complex)
    pair.real, pair.imag = a, v
    return np.abs(pair)


def lp_norm(grid: RadialGrid, values: np.ndarray, p: float) -> float:
    """L^p norm of the 3D radial function with samples `values` at r_m:
    (4 pi int |f|^p r^2 dr)^(1/p).

    Rectangle rule on the uniform grid; for p = inf the node maximum.
    """
    if p < 1:
        raise ConfigurationError(f"p must lie in [1, inf], got {p}")
    vals = np.abs(values)
    if np.isinf(p):
        return float(vals.max(initial=0.0))
    return float((4.0 * np.pi * grid.dr * np.sum(vals ** p * grid.r ** 2)) ** (1.0 / p))


def spectral_l2_norm(grid: RadialGrid, hat: np.ndarray,
                     support: slice = slice(None)) -> float:
    """L^2 norm of the pointwise modulus of the one or two fields whose
    spectral values are the rows of `hat` on the modes `support`, and 0 on
    every other mode, with no transform: by exact discrete Parseval
    (dr drho = pi/(N+1)) 4 pi drho sum rho^2 |hat|^2 equals the rectangle
    rule of lp_norm."""
    return math.sqrt(4.0 * np.pi * grid.drho
                     * np.sum(np.sum(grid.rho[support] ** 2 * hat ** 2, axis=-1)))


def weighted_sup_norm(grid: RadialGrid, values: np.ndarray) -> float:
    """sup_r r |f(r)| of the samples `values` at r_m, the radial form of
    || |x| f ||_inf."""
    return float(np.max(grid.r * np.abs(values), initial=0.0))
