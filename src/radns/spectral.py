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
#
# A DST of rows that are zero outside a band of W < N modes skips the long
# FFT when L = 2(N+1) has a large prime factor p (32 < p, p^2 <= L: at
# N = 16384, L = 32770 = 2 5 29 113, where numpy's FFT runs generic radix-29
# and radix-113 passes and plans afresh on every call).  With L = p M, modes
# k = alpha + M beta (0 <= alpha < M) and bins m = p q + r (0 <= r < p), the
# sum g(m) = sum_k x_k w^{k m}, w = e^{2 pi i/L}, of a real row x is
#
#     g(p q + r) = sum_alpha e^{2 pi i q alpha/M} w^{r alpha} sum_beta x_{alpha+M beta} e^{2 pi i r beta/p}:
#
# the radix-p stage over the band's F <= ceil(W/M) + 1 folds is a product
# (M x F) @ (F x p), the twiddles w^{r alpha} are two small tables
# (alpha = d2 i + j), and one batched length-M FFT remains (FFT pruning:
# Sorensen & Burrus, IEEE Trans. Signal Process. 41, 1993).  Since
# g(L - m) = conj g(m), the columns r <= (p-1)/2 give every bin, and the DST
# is 2 Im g(m).  Each row goes in on its own: packed as a + i v, v's cosine
# sum would share a's sine sum near m = 0, where that sine sum is small, and
# a's node values near r = 0 would carry up to 4e-14 of their sup instead of
# 2e-15.  Every angle is reduced from its exact integer first, so each factor
# is correct to rounding.
#
# Where p^2 > L and p > 1000 (16386 = 2 3 2731, the probe frame's grid) the
# band takes Bluestein's chirp-z (IEEE Trans. Audio Electroacoust. 18, 1970)
# instead: with m k = (m^2 + k^2 - (m-k)^2)/2 and c_n = e^{i pi n^2/L},
#
#     g(m) = c_m sum_k (x_k c_k) conj(c_{m-k}),
#
# a linear convolution of the band's W modes, each row on its own, by FFTs of
# one size F = 2^ceil(log2(N+W-1)), taken only where F <= L: it was measured
# slower at smaller p or larger F (README).  Each chirp angle
# pi (n^2 mod 2L)/L is reduced from its exact integer.

def dst(x: np.ndarray, support: slice = slice(None)) -> np.ndarray:
    """Type-I DST along the last axis, 2 sum_k x_k sin(pi m k/(N+1)) for
    m = 1..N, of rows that are zero outside the modes `support`: minus the
    imaginary part of bins 1..N of the real FFT of the odd extension
    (0, x, 0, -reversed x) of length 2(N+1), or, for a band narrower than
    the grid when 2(N+1) has a large prime factor, the band-pruned split or
    the chirp-z convolution of the kernel comment above."""
    n = x.shape[-1]
    start, stop, _ = support.indices(n)
    if stop - start < n:
        if split := _band_split(2 * (n + 1)):
            return _band_dst(x, start, stop, *split)
        if size := _chirp_size(n, stop - start):
            return _chirp_dst(x, start, stop, size)
    z = np.zeros(x.shape[:-1] + (2 * (n + 1),))
    z[..., 1:n + 1] = x
    np.negative(x[..., ::-1], out=z[..., n + 2:])
    # np.fft.rfft, not the module's rfft: a counter that wraps `rfft` sees
    # each sine-only sum once, through `dst`
    return -np.fft.rfft(z).imag[..., 1:n + 1]


@per_grid_cache
def _largest_prime_factor(length: int) -> int:
    rest, factor, p = length, 2, 1
    while factor * factor <= rest:
        if rest % factor:
            factor += 1
        else:
            rest //= factor
            p = factor
    return max(p, rest)


def _band_split(length: int) -> tuple[int, int] | None:
    """(p, M) with p the largest prime factor of `length` = p M, when
    32 < p and p^2 <= length; None otherwise."""
    p = _largest_prime_factor(length)
    return (p, length // p) if 32 < p and p * p <= length else None


def _chirp_size(n: int, width: int) -> int | None:
    """The FFT size F = 2^ceil(log2(N+W-1)) of the chirp-z path for a band of
    W modes on N, when the largest prime factor of L = 2(N+1) exceeds 1000
    and F <= L; None otherwise."""
    length = 2 * (n + 1)
    size = 1 << (n + width - 2).bit_length()
    return size if _largest_prime_factor(length) > 1000 and size <= length else None


@per_grid_cache
def _band_twiddles(length: int) -> tuple[np.ndarray, np.ndarray]:
    """w^{r alpha}, w = e^{2 pi i/length}, for r <= (p-1)/2 and
    alpha = d2 i + j < M (d1 d2 = M, d1 the largest divisor <= sqrt(M)), as
    the factors w^{r d2 i} of shape (d1, 1, h) and w^{r j} of shape (d2, h),
    h = (p+1)/2."""
    p, m = _band_split(length)
    d1 = max(d for d in range(1, math.isqrt(m) + 1) if m % d == 0)
    d2 = m // d1
    r = np.arange(p // 2 + 1)
    outer = np.exp(2j * np.pi / length * (np.outer(d2 * np.arange(d1), r) % length))
    inner = np.exp(2j * np.pi / length * (np.outer(np.arange(d2), r) % length))
    return outer[:, None, :], inner


def _band_dst(x: np.ndarray, start: int, stop: int, p: int, m: int) -> np.ndarray:
    """`dst` of the rows of `x`, zero outside the modes start+1..stop, by
    the band-pruned split L = p M."""
    n = x.shape[-1]
    rows = x.reshape(-1, n)
    half = p // 2
    # the folds of M modes that hold modes start+1..stop
    first, last = (start + 1) // m, stop // m
    z = np.zeros((len(rows), (last - first + 1) * m))
    z[:, start + 1 - first * m:stop + 1 - first * m] = rows[:, start:stop]
    z = z.reshape(len(rows), -1, m).transpose(0, 2, 1)
    # 2 e^{2 pi i r beta/p} as interleaved (re, im) columns, so that a real
    # product gives the complex sums: half the work of a complex product
    folds = 2 * np.exp(2j * np.pi / p * (np.outer(np.arange(first, last + 1),
                                                  np.arange(half + 1)) % p))
    folds = folds.view(float)
    # matmul is several times slower at an inner dimension of 1
    g = (z * folds if len(folds) == 1 else z @ folds).view(complex)   # [row, alpha, r]
    outer, inner = _band_twiddles(2 * (n + 1))
    g4 = g.reshape(len(rows), len(outer), len(inner), half + 1)
    g4 *= outer
    g4 *= inner
    np.fft.ifft(g, axis=1, norm="forward", out=g)                     # [row, q, r]
    # bins 0..N are q < M/2; columns r > half are conj g at p(M-1-q) + p-r
    out = np.empty((len(rows), m // 2, p))
    out[..., :half + 1] = g.imag[:, :m // 2]
    np.negative(g.imag[:, :m // 2 - 1:-1, half:0:-1], out=out[..., half + 1:])
    return out.reshape(len(rows), n + 1)[:, 1:].reshape(x.shape)


def _chirp_dst(x: np.ndarray, start: int, stop: int, size: int) -> np.ndarray:
    """`dst` of the rows of `x`, zero outside the modes start+1..stop, by the
    chirp-z convolution at FFT size `size`."""
    n = x.shape[-1]
    rows = x.reshape(-1, n)
    length = 2 * (n + 1)
    width = stop - start
    lag = np.arange(n + 1)
    angle = np.pi / length * (lag * lag % (2 * length))
    chirp = np.empty(n + 1, dtype=complex)                              # c_0 .. c_N
    np.cos(angle, out=chirp.real)
    np.sin(angle, out=chirp.imag)
    # slot d holds conj c at the lag m - k = d - start: the first N slots the
    # lags -start..N-1-start, the last W-1 the lags 1-stop..-1-start
    kernel = np.zeros(size, dtype=complex)
    kernel[:n] = chirp[np.abs(lag[:n] - start)]
    kernel[size - width + 1:] = chirp[stop - 1:start:-1]
    np.conjugate(kernel, out=kernel)
    z = np.zeros((len(rows), size), dtype=complex)
    np.multiply(rows[:, start:stop], chirp[start + 1:stop + 1], out=z[:, :width])
    np.fft.fft(z, axis=-1, out=z)
    z *= np.fft.fft(kernel)
    np.fft.ifft(z, axis=-1, out=z)
    g = z[:, :n]
    g *= chirp[1:]
    return 2.0 * g.imag.reshape(x.shape)


def _no_dct(x: np.ndarray) -> np.ndarray:
    raise NotImplementedError("radns makes no DCT; cosine sums go through rfft")


# Never called: perfbench/tracing.py still resolves and wraps `spectral.dct`
# by name, so the name stays bound until the tracer's LAYERS drop it.
dct = _no_dct


def _sine_sum(coeffs: np.ndarray, step: float, support: slice = slice(None)) -> np.ndarray:
    """sqrt(2/pi) * step * sum_k coeffs_k sin(node_m * dual_node_k), of
    coefficients that are zero outside the modes `support`."""
    return np.sqrt(2.0 / np.pi) * step * 0.5 * dst(coeffs, support)


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
    return _sine_sum(ghat, grid.drho, support) / grid.r


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


def spectral_l2_norm(grid: RadialGrid, hat: np.ndarray) -> float:
    """L^2 norm of the pointwise modulus of the one or two fields whose
    spectral values are the rows of `hat`, with no transform: by exact
    discrete Parseval (dr drho = pi/(N+1)) 4 pi drho sum rho^2 |hat|^2
    equals the rectangle rule of lp_norm."""
    return math.sqrt(4.0 * np.pi * grid.drho
                     * np.sum(np.sum(grid.rho ** 2 * hat ** 2, axis=-1)))


#: Squared sups in this range are formed without a harmful under- or overflow.
_SQUARE_RANGE = (2.0 ** -960, 2.0 ** 1000)


def sup_modulus(rows: np.ndarray, weight: np.ndarray | None = None) -> float:
    """max of modulus(rows), or of weight * modulus(rows), bit for bit, with
    the modulus evaluated only at the nodes where a^2 + v^2 (weighted:
    (w a)^2 + (w v)^2) is within 1e-12 relative of its max.  With that max
    in _SQUARE_RANGE each square is within a few ulp of the squared modulus,
    so the largest modulus is among them; any other max reads them all."""
    with np.errstate(over="ignore"):           # an overflow reads the full modulus
        scaled = rows if weight is None else rows * weight
        squares = np.square(scaled[0])
        for row in scaled[1:]:
            squares += row * row
    top = squares.max(initial=0.0)
    nodes = (np.flatnonzero(squares >= (1.0 - 1e-12) * top)
             if _SQUARE_RANGE[0] <= top <= _SQUARE_RANGE[1] else slice(None))
    values = modulus(rows[:, nodes])
    if weight is not None:
        values = weight[nodes] * values
    return float(values.max(initial=0.0))
