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
from typing import Iterable, Sequence

import numpy as np

from .errors import NumericDomainError, UnsupportedParameterError
from .spectral import RadialGrid, per_grid_cache, spectral_lp_norm


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
        if not math.isfinite(self.s):
            raise UnsupportedParameterError(f"s must be finite, got {self.s}")
        if not (self.p >= 1 and self.q >= 1):     # also rejects NaN
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


def lq_sum(terms: Iterable[float], q: float) -> float:
    """l^q sum over blocks (the maximum for q = inf); 0 for no blocks."""
    terms = np.asarray(list(terms), dtype=float)
    if terms.size == 0:
        return 0.0
    if np.isinf(q):
        return float(terms.max())
    return float(np.sum(terms ** q) ** (1.0 / q))


#: Screening threshold of `_block_lq_norm`, relative to the l^q sum kept so far.
_SKIP_FRACTION = 1e-17


def _sup_bound_weights(grid: RadialGrid, hat: np.ndarray) -> np.ndarray:
    """w_k = sqrt(2/pi) drho rho_k^2 |(ahat_k, vhat_k)| (one row of `hat` per
    field): sum_k |phi_hat_j| w_k bounds the sup of block j's modulus, since
    |sin(r rho) / r| <= rho."""
    return math.sqrt(2.0 / math.pi) * grid.drho * grid.rho ** 2 * np.linalg.norm(hat, axis=0)


def _block_lq_norm(grid: RadialGrid, hat: np.ndarray, s: float, p: float, q: float,
                   indices: Sequence[int]) -> float:
    """l^q sum over `indices` of 2^{sj} times the L^p norm of the blockwise
    modulus of the fields whose spectral values on `grid` are `hat`, one
    field (N,) or a stack of fields, one per row.

    Blocks go one at a time in j order, each block's spectral rows to
    `spectral_lp_norm` (Parseval for p = 2, else one transform call).
    For p = inf a block counts as 0, with no transform, while its bound
    B_j = 2^{sj} sum_k |phi_hat_j| w_k plus the B of the blocks already
    skipped is at most _SKIP_FRACTION times the l^q sum of the terms kept so
    far; by the triangle inequality in l^q the result moves by at most that
    skipped sum, for every q.  All-zero blocks are always skipped.
    """
    try:
        weights = [2.0 ** (s * j) for j in indices]
    except OverflowError:
        raise NumericDomainError(
            f"the Besov weight 2^(s j) overflows for s = {s:g} on blocks "
            f"{indices[0]}..{indices[-1]}") from None
    hat = np.atleast_2d(hat)
    bound_weights = _sup_bound_weights(grid, hat) if np.isinf(p) else None
    terms, skipped = [], 0.0
    for j, weight in zip(indices, weights):
        mult = block_multiplier(grid, j)
        if bound_weights is not None:
            bound = weight * float(mult @ bound_weights)
            if skipped + bound <= _SKIP_FRACTION * lq_sum(terms, q):
                skipped += bound
                terms.append(0.0)
                continue
        terms.append(weight * spectral_lp_norm(grid, mult * hat, p))
    return lq_sum(terms, q)


def pair_besov_norm(grid: RadialGrid, hat: np.ndarray, spec: BesovSpec) -> float:
    """Besov norm of the field with spectral values `hat` on `grid`, or of a
    pair [a; v] stacked as its rows: the blockwise Euclidean modulus before
    L^p."""
    indices = _band_indices(spec, *resolved_range(grid))
    return _block_lq_norm(grid, hat, spec.s, spec.p, spec.q, indices)


def j0_for_time(t: float) -> int:
    """Time-dependent cutoff index 1 - floor(log2(t)/2) for t >= 1."""
    if not np.isfinite(t) or t < 1.0:
        raise NumericDomainError(f"cutoff index defined for t >= 1, got {t}")
    return 1 - math.floor(0.5 * math.log2(t))
