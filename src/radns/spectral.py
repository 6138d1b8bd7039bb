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
from typing import Callable, Literal

import numpy as np
from scipy.fft import dst, dct

from .errors import ConfigurationError, NumericDomainError, UsageError

Space = Literal["physical", "spectral"]

#: Exponent and strength of the C^inf spectral filter used when differentiating.
#: sigma(x) = exp(-36 x^36) is ~1 below two thirds of the band and drops to
#: machine epsilon at the band edge; it suppresses the derivative ringing of
#: profiles whose odd extension jumps at r = R while leaving well-resolved
#: fields untouched to machine precision.
_FILTER_STRENGTH = 36.0
_FILTER_ORDER = 36


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


@dataclass
class RadialScalarField:
    """A radial scalar in physical (samples at r_m) or spectral (fhat at rho_k)
    representation; `values` holds one field (N,) or a stack of fields, one
    per row, such as the (a, v) pair (2, N)."""

    grid: RadialGrid
    values: np.ndarray
    space: Space


def make_grid(n_modes: int, outer_radius: float) -> RadialGrid:
    """Build the paired radial/spectral grid with DST-I duality."""
    if not isinstance(n_modes, (int, np.integer)) or n_modes < 8:
        raise ConfigurationError(f"n_modes must be an integer >= 8, got {n_modes!r}")
    if not np.isfinite(outer_radius) or outer_radius <= 0:
        raise ConfigurationError(f"outer_radius must be positive, got {outer_radius!r}")
    n = int(n_modes)
    radius = float(outer_radius)
    dr = radius / (n + 1)
    drho = np.pi / radius
    idx = np.arange(1, n + 1, dtype=float)
    return RadialGrid(n, radius, dr, drho, idx * dr, idx * drho)


def field_from_samples(grid: RadialGrid, values, space: Space = "physical") -> RadialScalarField:
    vals = np.asarray(values, dtype=float)
    if vals.shape != (grid.n_modes,):
        raise UsageError(f"expected {grid.n_modes} samples, got shape {vals.shape}")
    return RadialScalarField(grid, vals, space)


# -- sine/cosine kernels ------------------------------------------------------

def _sine_sum(coeffs: np.ndarray, step: float) -> np.ndarray:
    """sqrt(2/pi) * step * sum_k coeffs_k sin(node_m * dual_node_k)."""
    return np.sqrt(2.0 / np.pi) * step * 0.5 * dst(coeffs, type=1)


def _cosine_sum(coeffs: np.ndarray, step: float) -> np.ndarray:
    """sqrt(2/pi) * step * sum_k coeffs_k cos(node_m * dual_node_k), via a
    DCT-I padded with zero end coefficients."""
    padded = np.concatenate(([0.0], coeffs, [0.0]))
    return np.sqrt(2.0 / np.pi) * step * 0.5 * dct(padded, type=1)[1:-1]


def per_grid_cache(fn):
    """Memoise an array computed from a grid plus a few hashable scalars.

    Bounded LRU, so a process that visits many grids does not grow without
    limit; the cached array is made read-only because every caller shares it.
    """
    @functools.lru_cache(maxsize=64)
    @functools.wraps(fn)
    def cached(*args, **kwargs):
        table = fn(*args, **kwargs)
        table.flags.writeable = False
        return table
    return cached


@per_grid_cache
def derivative_filter(grid: RadialGrid) -> np.ndarray:
    """C^inf taper applied to sine coefficients before differentiation."""
    x = np.arange(1, grid.n_modes + 1, dtype=float) / (grid.n_modes + 1)
    return np.exp(-_FILTER_STRENGTH * x ** _FILTER_ORDER)


# -- transforms ---------------------------------------------------------------

def _require_space(field: RadialScalarField, space: Space, op: str) -> None:
    if field.space != space:
        raise UsageError(f"{op} requires a {space}-space field, got {field.space}")


def to_spectral(field: RadialScalarField) -> RadialScalarField:
    """Weighted DST-I: physical samples f(r_m) -> transform values fhat(rho_k)."""
    _require_space(field, "physical", "to_spectral")
    grid = field.grid
    ghat = _sine_sum(grid.r * field.values, grid.dr)
    return RadialScalarField(grid, ghat / grid.rho, "spectral")


def physical_values(grid: RadialGrid, hat: np.ndarray) -> np.ndarray:
    """f(r_m) from fhat(rho_k) for one field, or for a stack of fields (one
    row each) in a single transform call."""
    return _sine_sum(grid.rho * hat, grid.drho) / grid.r


def to_physical(field: RadialScalarField) -> RadialScalarField:
    """Inverse weighted DST-I: fhat(rho_k) -> f(r_m).  Exact involution."""
    _require_space(field, "spectral", "to_physical")
    return RadialScalarField(field.grid, physical_values(field.grid, field.values), "physical")


def as_spectral(field: RadialScalarField) -> RadialScalarField:
    return field if field.space == "spectral" else to_spectral(field)


def apply_multiplier(field: RadialScalarField, multiplier: Callable[[np.ndarray], np.ndarray]
                     ) -> RadialScalarField:
    """Pointwise Fourier multiplier fhat(rho_k) -> m(rho_k) fhat(rho_k)."""
    _require_space(field, "spectral", "apply_multiplier")
    m_vals = np.asarray(multiplier(field.grid.rho), dtype=float)
    m_vals = np.broadcast_to(m_vals, field.values.shape)
    if not np.all(np.isfinite(m_vals)):
        bad = field.grid.rho[~np.isfinite(m_vals)][:3]
        raise NumericDomainError(f"multiplier non-finite at rho = {bad}")
    return RadialScalarField(field.grid, m_vals * field.values, "spectral")


# -- radial differential operators -------------------------------------------

def physical_and_gradient(field: RadialScalarField) -> tuple[np.ndarray, np.ndarray]:
    """w(r_m) and the radial derivative w'(r_m) of a spectral field w from
    one synthesis.

    Works through the sine coefficients of g(r) = r w(r): the derivative is
    the matching cosine sum, and w' = g'/r - g/r^2.
    """
    _require_space(field, "spectral", "physical_and_gradient")
    grid = field.grid
    ghat = grid.rho * field.values
    g = _sine_sum(ghat, grid.drho)
    ghat = ghat * derivative_filter(grid)
    g_prime = _cosine_sum(grid.rho * ghat, grid.drho)
    return g / grid.r, g_prime / grid.r - g / grid.r ** 2


@per_grid_cache
def dealias_mask(grid: RadialGrid, fraction: float) -> np.ndarray:
    """Mask keeping the lowest `fraction` of the spectral band."""
    if not 0.0 < fraction <= 1.0:
        raise ConfigurationError(f"dealias fraction must lie in (0, 1], got {fraction}")
    keep = int(np.floor(fraction * grid.n_modes))
    mask = np.zeros(grid.n_modes)
    mask[:keep] = 1.0
    return mask


# -- norms --------------------------------------------------------------------

def lp_norm(field: RadialScalarField, p: float) -> float:
    """L^p norm of the 3D radial function: (4 pi int |f|^p r^2 dr)^(1/p).

    Rectangle rule on the uniform grid; for p = inf the node maximum.
    """
    _require_space(field, "physical", "lp_norm")
    if p < 1:
        raise ConfigurationError(f"p must lie in [1, inf], got {p}")
    vals = np.abs(field.values)
    if np.isinf(p):
        return float(vals.max(initial=0.0))
    grid = field.grid
    return float((4.0 * np.pi * grid.dr * np.sum(vals ** p * grid.r ** 2)) ** (1.0 / p))


def spectral_lp_norm(grid: RadialGrid, hat: np.ndarray, p: float) -> float:
    """L^p norm of the pointwise modulus of the fields whose spectral values
    are the rows of `hat` (one field: one row).

    p = 2 needs no transform: by exact discrete Parseval (dr drho = pi/(N+1))
    4 pi drho sum rho^2 |hat|^2 equals the rectangle rule of lp_norm.  Other
    p synthesise every row in one transform call, and all-zero rows need none.
    """
    hat = np.atleast_2d(hat)
    if p == 2:
        return math.sqrt(4.0 * np.pi * grid.drho * np.sum(grid.rho ** 2 * hat ** 2))
    modulus = (np.hypot.reduce(physical_values(grid, hat), axis=0) if hat.any()
               else np.zeros(grid.n_modes))
    return lp_norm(RadialScalarField(grid, modulus, "physical"), p)


def weighted_sup_norm(field: RadialScalarField) -> float:
    """sup_r r |f(r)|, the radial form of || |x| f ||_inf."""
    _require_space(field, "physical", "weighted_sup_norm")
    return float(np.max(field.grid.r * np.abs(field.values), initial=0.0))
