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
from .spectral import RadialGrid, lp_norm, modulus, per_grid_cache, physical_values, sup_modulus


def _ramp(s: np.ndarray) -> np.ndarray:
    """exp(-1/s) for s > 0, zero otherwise (the C^inf glue), in one array:
    s clipped to +0 where s <= 0 or NaN, so -1/s is -inf there, then
    exponentiated in place.  No masked divide: numpy's masked loop took most
    of a call."""
    out = np.fmax(s, 0.0, out=np.empty_like(s))
    out += 0.0                                  # -0 -> +0
    with np.errstate(divide="ignore", over="ignore"):   # -1/+0, -1/subnormal
        np.divide(-1.0, out, out=out)
    return np.exp(out, out=out)


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
def block_support(grid: RadialGrid, j: int) -> slice:
    """The modes 2^{j-1} < rho_k < 2^{j+1} of block j: phi_hat_j is exactly 0
    at every other node (cached per grid and j)."""
    return slice(int(np.searchsorted(grid.rho, 2.0 ** (j - 1), side="right")),
                 int(np.searchsorted(grid.rho, 2.0 ** (j + 1))))


@per_grid_cache
def block_multiplier(grid: RadialGrid, j: int) -> np.ndarray:
    """phi_hat_j sampled at the nodes of block_support(grid, j) (cached per
    grid and j)."""
    return phi_hat(j, grid.rho[block_support(grid, j)])


def resolved_range(grid: RadialGrid) -> tuple[int, int]:
    """Smallest/largest block index whose support meets the grid band."""
    j_min = math.ceil(math.log2(grid.drho) - 1.0)
    j_max = math.floor(math.log2(grid.rho[-1]) + 1.0)
    return j_min, j_max


# -- narrow blocks -------------------------------------------------------------
#
# A block of W <= B = ceil(sqrt(N+1)) modes is synthesised at all N nodes
# without a transform of length 2(N+1).  With m = B p + d (0 <= d < B),
#
#     sin(pi m k/(N+1)) = sin(pi B p k/(N+1)) cos(pi d k/(N+1))
#                       + cos(pi B p k/(N+1)) sin(pi d k/(N+1)),
#
# so the sums of a row over its W modes are two matrix products
# (P x W) @ (W x B), P = ceil((N+1)/B): 4 P B W <= 4 (N+1+B) B flops per row.
# Every angle is reduced from its exact integer multiple of pi/(N+1) mod
# 2(N+1), so each table entry is correct to rounding, and the node values stay
# within 2e-15 of the block sup (tests/test_narrow_blocks.py), closer than the
# transform's on the lowest blocks.  Wider blocks keep the transform.

def _narrow_width(grid: RadialGrid) -> int:
    """B = ceil(sqrt(N+1)): the widest block the two-level product synthesises."""
    return math.isqrt(grid.n_modes) + 1


@per_grid_cache
def _product_tables(grid: RadialGrid) -> tuple[np.ndarray, np.ndarray]:
    """(sin, cos)(pi B p k/(N+1)) as (2, P, K) and (cos, sin)(pi d k/(N+1))
    as (2, K, B), for k = 1..K, where K is the last mode of the grid's
    narrow blocks: one table serves them all."""
    width, period = _narrow_width(grid), grid.n_modes + 1
    j_min, j_max = resolved_range(grid)
    supports = [block_support(grid, j) for j in range(j_min, j_max + 1)]
    n_rows = max(s.stop for s in supports if s.stop - s.start <= width)
    k = np.arange(1, n_rows + 1)
    outer = np.pi / period * (np.outer(np.arange(0, period, width), k) % (2 * period))
    inner = np.pi / period * (np.outer(k, np.arange(width)) % (2 * period))
    return np.stack((np.sin(outer), np.cos(outer))), np.stack((np.cos(inner), np.sin(inner)))


def _narrow_physical_values(grid: RadialGrid, hat: np.ndarray, support: slice) -> np.ndarray:
    """`physical_values` of the rows of `hat`, spectral values on the modes
    `support` of a narrow block (zero elsewhere), by the two-level product."""
    (sin_p, cos_p), (cos_d, sin_d) = _product_tables(grid)
    if support.stop - support.start == 1 and support.stop < len(cos_d):
        # matmul is several times slower at inner dimension 1: the one-mode
        # block takes in the next mode, outside its support, at coefficient 0
        wide = np.zeros((len(hat), 2))
        wide[:, 0] = hat[:, 0]
        hat, support = wide, slice(support.start, support.stop + 1)
    coeffs = (math.sqrt(2.0 / math.pi) * grid.drho * grid.rho[support] * hat)[:, :, None]
    sums = sin_p[:, support] @ (coeffs * cos_d[support])      # (rows, P, B)
    sums += cos_p[:, support] @ (coeffs * sin_d[support])
    values = sums.reshape(len(hat), -1)[:, 1:grid.n_modes + 1]
    values /= grid.r
    return values


def _block_lp_norm(grid: RadialGrid, coeffs: np.ndarray, support: slice, p: float,
                   total: np.ndarray | None) -> float:
    """L^p norm (p != 2) of the pointwise modulus of a block whose rows
    `coeffs` hold its spectral values on the modes `support`: exactly 0 with
    no synthesis for an all-zero block, and otherwise read from the node
    values, narrow blocks by the two-level product and wider ones by one
    transform call on the block's band (the band-pruned DST of
    `spectral.dst` on grids like N = 16384, where 2(N+1) has a large prime
    factor, else the real FFT of length 2(N+1)), by `sup_modulus` for
    p = inf: the exact modulus at the top nodes of the squared moduli alone.
    The node values of every block synthesised are added into `total`, if
    given.  A call per block frees its temporaries before the next block's:
    held across blocks, they raised the peak RSS of a linear-decay run by
    0.6 MiB."""
    if not coeffs.any():
        return 0.0
    if support.stop - support.start > _narrow_width(grid):
        values = physical_values(grid, coeffs, support)
    else:
        values = _narrow_physical_values(grid, coeffs, support)
    if total is not None:
        total += values
    return sup_modulus(values) if np.isinf(p) else lp_norm(grid, modulus(values), p)


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
    field): sum_k |phi_hat_j| w_k over block j's support bounds the sup of its
    modulus, since |sin(r rho) / r| <= rho."""
    size = np.abs(hat[0]) if len(hat) == 1 else np.linalg.norm(hat, axis=0)
    return math.sqrt(2.0 / math.pi) * grid.drho * grid.rho ** 2 * size


def _block_lq_norm(grid: RadialGrid, hat: np.ndarray, s: float, p: float, q: float,
                   indices: Sequence[int], total: np.ndarray | None = None) -> float:
    """l^q sum over `indices` of 2^{sj} times the L^p norm of the blockwise
    modulus of the fields whose spectral values on `grid` are `hat`, one
    field (N,) or a stack of fields, one per row.

    Blocks go one at a time in j order, each on its support alone.  For
    p = 2, by exact discrete Parseval, a block term is the dot of
    phi_hat_j^2 with the energy row 4 pi drho rho_k^2 (a_k^2 + v_k^2), formed
    once per call, with no synthesis.  Else, unless the block is all zero, a
    narrow block's node values come from the two-level product and a wider
    block's from one transform call, and are added into `total`, if given
    (a p = inf sup by `spectral.sup_modulus`).  For p = inf a block counts
    as 0, with no synthesis, while its bound B_j = 2^{sj} sum_k |phi_hat_j| w_k
    plus the B of the blocks already skipped is at most _SKIP_FRACTION times
    the l^q sum of the terms kept so far (kept as a running sum of their q-th
    powers, or a running maximum for q = inf); by the triangle inequality in
    l^q the result moves by at most that skipped sum, for every q, and so
    does the sup of each row of `total`.  All-zero blocks are always skipped.
    """
    try:
        weights = [2.0 ** (s * j) for j in indices]
    except OverflowError:
        raise NumericDomainError(
            f"the Besov weight 2^(s j) overflows for s = {s:g} on blocks "
            f"{indices[0]}..{indices[-1]}") from None
    hat = np.atleast_2d(hat)
    bound_weights = _sup_bound_weights(grid, hat) if np.isinf(p) else None
    energy = None
    if p == 2:      # in place: (2, N) temporaries raised linear-decay's peak RSS 0.25 MiB
        energy = np.square(hat[0])
        for row in hat[1:]:
            energy += row * row
        energy *= grid.rho
        energy *= grid.rho
        energy *= 4.0 * np.pi * grid.drho
    terms, skipped, kept = [], 0.0, 0.0
    for j, weight in zip(indices, weights):
        support = block_support(grid, j)
        mult = block_multiplier(grid, j)
        if energy is not None:
            terms.append(weight * math.sqrt(mult @ (mult * energy[support])))
            continue
        if bound_weights is not None:
            bound = weight * float(mult @ bound_weights[support])
            if skipped + bound <= _SKIP_FRACTION * (kept if np.isinf(q) else kept ** (1.0 / q)):
                skipped += bound
                terms.append(0.0)
                continue
        term = weight * _block_lp_norm(grid, mult * hat[:, support], support, p, total)
        terms.append(term)
        kept = max(kept, term) if np.isinf(q) else kept + np.power(term, q)
    return lq_sum(terms, q)


def pair_besov_norm(grid: RadialGrid, hat: np.ndarray, spec: BesovSpec,
                    total: np.ndarray | None = None) -> float:
    """Besov norm of the field with spectral values `hat` on `grid`, or of a
    pair [a; v] stacked as its rows: the blockwise Euclidean modulus before
    L^p.  The node values of the blocks it synthesises are added into
    `total`, if given (see _block_lq_norm).  A band that holds no resolved
    block would read 0, so it raises NumericDomainError instead."""
    j_min, j_max = resolved_range(grid)
    indices = _band_indices(spec, j_min, j_max)
    if not indices:
        raise NumericDomainError(
            f"the {spec.band} band with j0 = {spec.j0} holds no block of the "
            f"range [{j_min}, {j_max}] resolved by the grid")
    return _block_lq_norm(grid, hat, spec.s, spec.p, spec.q, indices, total)


def j0_for_time(t: float) -> int:
    """Time-dependent cutoff index 1 - floor(log2(t)/2) for t >= 1."""
    if not np.isfinite(t) or t < 1.0:
        raise NumericDomainError(f"cutoff index defined for t >= 1, got {t}")
    return 1 - math.floor(0.5 * math.log2(t))
