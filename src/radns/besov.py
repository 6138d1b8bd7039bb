"""Dyadic frequency blocks and homogeneous Besov norms on the radial grid.

The partition is built from a smooth transition profile theta that equals 1
below rho = 1 and 0 above rho = 2; block j carries the multiplier

    phi_hat_j(rho) = theta(2^{-j} rho) - theta(2^{-j+1} rho),

supported in [2^{j-1}, 2^{j+1}] and summing telescopically to 1 on the band
the grid resolves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import NumericDomainError, UnsupportedParameterError, UsageError
from .spectral import RadialGrid, RadialScalarField, as_spectral, per_grid_cache, spectral_lp_norm


def _ramp(s: np.ndarray) -> np.ndarray:
    """exp(-1/s) for s > 0, zero otherwise (the C^inf glue)."""
    s = np.asarray(s, dtype=float)
    out = np.zeros_like(s)
    pos = s > 0
    out[pos] = np.exp(-1.0 / s[pos])
    return out


def theta(rho) -> np.ndarray:
    """Transition profile: 1 on [0, 1], 0 on [2, inf), smooth in between."""
    rho = np.asarray(rho, dtype=float)
    up = _ramp(2.0 - rho)
    down = _ramp(rho - 1.0)
    with np.errstate(invalid="ignore"):
        mid = np.where(up + down > 0.0, up / (up + down), 0.0)
    return np.where(rho <= 1.0, 1.0, np.where(rho >= 2.0, 0.0, mid))


def phi_hat(j: int, rho) -> np.ndarray:
    """Block multiplier, supported in [2^{j-1}, 2^{j+1}]."""
    rho = np.asarray(rho, dtype=float)
    scale = 2.0 ** (-j)
    return theta(scale * rho) - theta(2.0 * scale * rho)


@per_grid_cache
def block_multiplier(grid: RadialGrid, j: int) -> np.ndarray:
    """phi_hat_j sampled at the grid nodes (cached per grid and j)."""
    return phi_hat(j, grid.rho)


def resolved_range(grid: RadialGrid) -> tuple[int, int]:
    """Smallest/largest block index whose support meets the grid band."""
    j_min = math.ceil(math.log2(grid.drho) - 1.0)
    j_max = math.floor(math.log2(grid.rho[-1]) + 1.0)
    return j_min, j_max


@dataclass(frozen=True)
class BesovSpec:
    """Parameters (s, p, q) plus an optional frequency band selection."""

    s: float
    p: float
    q: float
    band: str = "full"          # 'full' | 'low' | 'high'
    j0: int | None = None

    def __post_init__(self):
        if self.p < 1 or self.q < 1:
            raise UnsupportedParameterError("p and q must lie in [1, inf]")
        if self.band not in ("full", "low", "high"):
            raise UnsupportedParameterError(f"unknown band {self.band!r}")
        if self.band != "full" and self.j0 is None:
            raise UnsupportedParameterError("banded norms need a cutoff index j0")


def _band_indices(spec: BesovSpec, j_min: int, j_max: int) -> range:
    if spec.band == "full":
        return range(j_min, j_max + 1)
    if spec.band == "low":
        return range(j_min, min(spec.j0, j_max) + 1)
    return range(max(spec.j0, j_min), j_max + 1)


def _pair_block_norms(a: RadialScalarField, v: RadialScalarField | None, p: float,
                      indices: Iterable[int]) -> dict[int, float]:
    """L^p norm of the blockwise modulus |(block_j a, block_j v)| for each j.

    v = None is the one-field case.  The fields are read in spectral space and
    each block's stacked (a, v) rows go to `spectral_lp_norm` (Parseval for
    p = 2, else one transform call).  Blocks go one at a time, which keeps the
    extra memory at a few stacks whatever the number of blocks.
    """
    if v is not None and v.grid != a.grid:
        raise UsageError("pair fields live on different grids")
    hat = np.stack([as_spectral(f).values for f in (a, v) if f is not None])
    return {j: spectral_lp_norm(a.grid, block_multiplier(a.grid, j) * hat, p)
            for j in indices}


def lq_sum(terms: Iterable[float], q: float) -> float:
    """l^q sum over blocks (the maximum for q = inf); 0 for no blocks."""
    terms = np.asarray(list(terms), dtype=float)
    if terms.size == 0:
        return 0.0
    if np.isinf(q):
        return float(terms.max())
    return float(np.sum(terms ** q) ** (1.0 / q))


def pair_besov_norm(a: RadialScalarField, v: RadialScalarField | None, spec: BesovSpec
                    ) -> float:
    """Besov norm of the pair [a; v]: blockwise Euclidean modulus before L^p.

    v = None gives the norm of a alone.
    """
    indices = _band_indices(spec, *resolved_range(a.grid))
    norms = _pair_block_norms(a, v, spec.p, indices)
    return lq_sum((2.0 ** (spec.s * j) * n for j, n in norms.items()), spec.q)


def besov_norm(field: RadialScalarField, spec: BesovSpec) -> float:
    """Homogeneous Besov norm: l^q sum over blocks of 2^{sj} ||block||_p."""
    return pair_besov_norm(field, None, spec)


def j0_for_time(t: float) -> int:
    """Time-dependent cutoff index 1 - floor(log2(t)/2) for t >= 1."""
    if not np.isfinite(t) or t < 1.0:
        raise NumericDomainError(f"cutoff index defined for t >= 1, got {t}")
    return 1 - math.floor(0.5 * math.log2(t))
