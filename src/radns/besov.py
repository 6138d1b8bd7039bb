"""Dyadic frequency blocks and homogeneous Besov norms on the radial grid.

The partition is built from a smooth transition profile theta that equals 1
below rho = 1 and 0 above rho = 2; block j carries the multiplier

    phi_hat_j(rho) = theta(2^{-j} rho) - theta(2^{-j+1} rho),

supported in [2^{j-1}, 2^{j+1}] and summing telescopically to 1 on the band
the grid resolves.  The low-pass at level j is the multiplier theta(2^{-j} rho)
(a smooth stand-in for the sharp ball indicator, to avoid ringing on the
discrete grid).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import BandRangeError, NumericDomainError, UnsupportedParameterError
from .spectral import (
    RadialGrid,
    RadialScalarField,
    apply_multiplier,
    as_physical,
    as_spectral,
    lp_norm,
    pair_pointwise_modulus,
    per_grid_cache,
)


def _ramp(s: np.ndarray) -> np.ndarray:
    """exp(-1/s) for s > 0, zero otherwise (the C^inf glue)."""
    s = np.asarray(s, dtype=float)
    out = np.zeros_like(s)
    pos = s > 0
    out[pos] = np.exp(-1.0 / s[pos])
    return out


@dataclass(frozen=True)
class DyadicPartition:
    """Smooth dyadic partition of unity on frequency space."""

    def theta(self, rho) -> np.ndarray:
        """Transition profile: 1 on [0, 1], 0 on [2, inf), smooth in between."""
        rho = np.asarray(rho, dtype=float)
        up = _ramp(2.0 - rho)
        down = _ramp(rho - 1.0)
        with np.errstate(invalid="ignore"):
            mid = np.where(up + down > 0.0, up / (up + down), 0.0)
        return np.where(rho <= 1.0, 1.0, np.where(rho >= 2.0, 0.0, mid))

    def phi_hat(self, j: int, rho) -> np.ndarray:
        """Block multiplier, supported in [2^{j-1}, 2^{j+1}]."""
        rho = np.asarray(rho, dtype=float)
        scale = 2.0 ** (-j)
        return self.theta(scale * rho) - self.theta(2.0 * scale * rho)

    def low_pass(self, j: int, rho) -> np.ndarray:
        """Multiplier of the low-frequency cutoff at level j: theta(2^{-j} rho)."""
        return self.theta(np.asarray(rho, dtype=float) * 2.0 ** (-j))

    @per_grid_cache
    def block_multiplier(self, grid: RadialGrid, j: int) -> np.ndarray:
        """phi_hat_j sampled at the grid nodes (cached per grid and j)."""
        return self.phi_hat(j, grid.rho)

    def resolved_range(self, grid: RadialGrid) -> tuple[int, int]:
        """Smallest/largest block index whose support meets the grid band."""
        j_min = math.ceil(math.log2(grid.drho) - 1.0)
        j_max = math.floor(math.log2(grid.rho[-1]) + 1.0)
        return j_min, j_max

    def exact_band(self, grid: RadialGrid) -> tuple[float, float]:
        """Frequency interval on which the resolved blocks sum exactly to 1."""
        j_min, j_max = self.resolved_range(grid)
        return 2.0 ** (j_min + 1), 2.0 ** j_max


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


def block(field: RadialScalarField, j: int, partition: DyadicPartition | None = None
          ) -> RadialScalarField:
    """Frequency-localise a field to the dyadic annulus |rho| ~ 2^j."""
    part = partition if partition is not None else DyadicPartition()
    j_min, j_max = part.resolved_range(field.grid)
    if not j_min <= j <= j_max:
        raise BandRangeError(
            f"block {j} outside resolved range [{j_min}, {j_max}] of the grid")
    mult = part.block_multiplier(field.grid, j)
    out = apply_multiplier(as_spectral(field), lambda rho: mult)
    return as_physical(out) if field.space == "physical" else out


def low_cutoff(field: RadialScalarField, j: int, partition: DyadicPartition | None = None
               ) -> RadialScalarField:
    """Smooth low-pass retaining frequencies below ~2^{j+1}."""
    part = partition if partition is not None else DyadicPartition()
    out = apply_multiplier(as_spectral(field), lambda rho: part.low_pass(j, rho))
    return as_physical(out) if field.space == "physical" else out


def _band_indices(spec: BesovSpec, j_min: int, j_max: int) -> range:
    if spec.band == "full":
        return range(j_min, j_max + 1)
    if spec.band == "low":
        return range(j_min, min(spec.j0, j_max) + 1)
    return range(max(spec.j0, j_min), j_max + 1)


def _pair_block_norms(a: RadialScalarField, v: RadialScalarField | None, p: float,
                      indices: Iterable[int], part: DyadicPartition) -> dict[int, float]:
    """L^p norm of the blockwise modulus |(block_j a, block_j v)| for each j.

    v = None is the one-field case.  Each field goes to spectral space once;
    the blocks are synthesised one at a time rather than stacked, which keeps
    the extra memory at two grid vectors whatever the number of blocks.
    """
    a_s = as_spectral(a)
    v_s = None if v is None else as_spectral(v)
    norms = {}
    for j in indices:
        mult = part.block_multiplier(a.grid, j)
        ab = as_physical(apply_multiplier(a_s, lambda rho: mult))
        if v_s is None:
            norms[j] = lp_norm(ab, p)
        else:
            vb = as_physical(apply_multiplier(v_s, lambda rho: mult))
            norms[j] = lp_norm(pair_pointwise_modulus(ab, vb), p)
    return norms


def lq_sum(terms: Iterable[float], q: float) -> float:
    """l^q sum over blocks (the maximum for q = inf); 0 for no blocks."""
    terms = np.asarray(list(terms), dtype=float)
    if terms.size == 0:
        return 0.0
    if np.isinf(q):
        return float(terms.max())
    return float(np.sum(terms ** q) ** (1.0 / q))


def block_norms(field: RadialScalarField, p: float,
                partition: DyadicPartition | None = None) -> dict[int, float]:
    """L^p norm of every resolved block, keyed by the dyadic index."""
    part = partition if partition is not None else DyadicPartition()
    j_min, j_max = part.resolved_range(field.grid)
    return _pair_block_norms(field, None, p, range(j_min, j_max + 1), part)


def pair_besov_norm(a: RadialScalarField, v: RadialScalarField | None, spec: BesovSpec,
                    partition: DyadicPartition | None = None) -> float:
    """Besov norm of the pair [a; v]: blockwise Euclidean modulus before L^p.

    v = None gives the norm of a alone.
    """
    part = partition if partition is not None else DyadicPartition()
    indices = _band_indices(spec, *part.resolved_range(a.grid))
    norms = _pair_block_norms(a, v, spec.p, indices, part)
    return lq_sum((2.0 ** (spec.s * j) * n for j, n in norms.items()), spec.q)


def besov_norm(field: RadialScalarField, spec: BesovSpec,
               partition: DyadicPartition | None = None) -> float:
    """Homogeneous Besov norm: l^q sum over blocks of 2^{sj} ||block||_p."""
    return pair_besov_norm(field, None, spec, partition)


def weighted_besov_norm_p2(field: RadialScalarField, k_axis: int, spec: BesovSpec,
                           partition: DyadicPartition | None = None) -> float:
    """Besov norm of x_k f at p = 2: l^q sum of 2^{sj} sqrt(weighted_block_integral)."""
    if spec.p != 2:
        raise UnsupportedParameterError("weighted Besov norms are implemented for p = 2 only")
    if k_axis not in (0, 1, 2):
        raise UnsupportedParameterError(f"axis index must be 0, 1 or 2, got {k_axis}")
    part = partition if partition is not None else DyadicPartition()
    spec_field = as_spectral(field)
    indices = _band_indices(spec, *part.resolved_range(field.grid))
    return lq_sum((2.0 ** (spec.s * j)
                   * math.sqrt(max(weighted_block_integral(spec_field, j, part), 0.0))
                   for j in indices), spec.q)


def weighted_block_integral(field: RadialScalarField, j: int,
                            partition: DyadicPartition | None = None) -> float:
    """||block_j(x_k f)||_2^2 via Plancherel on the spectral derivative:

    (4 pi / 3) int phi_hat_j(rho)^2 fhat'(rho)^2 rho^2 drho,

    with fhat' from centred differences (one-sided at the grid ends).
    """
    part = partition if partition is not None else DyadicPartition()
    grid = field.grid
    fhat = as_spectral(field).values
    dfhat = np.gradient(fhat, grid.drho)
    phi2 = part.block_multiplier(grid, j) ** 2
    return float((4.0 * np.pi / 3.0) * grid.drho
                 * np.sum(phi2 * dfhat ** 2 * grid.rho ** 2))


def j0_for_time(t: float) -> int:
    """Time-dependent cutoff index 1 - floor(log2(t)/2) for t >= 1."""
    if not np.isfinite(t) or t < 1.0:
        raise NumericDomainError(f"cutoff index defined for t >= 1, got {t}")
    return 1 - math.floor(0.5 * math.log2(t))
