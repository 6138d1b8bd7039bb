"""Exact per-mode propagators for the linearised radial (a, v) system.

Each Fourier mode of the pair (a, v) evolves under the 2x2 generator

    M_rho = [[0, -rho], [rho, -rho^2]],

whose eigenvalues coalesce at rho = 2.  Writing mu = -rho^2/2 for half the
trace and delta^2 = rho^4/4 - rho^2 for the squared spectral gap, every
function f of t M used here (the exponential e^{tM} = phi_0(tM) and the phi_1,
phi_2 of the exponential integrator) has the form

    f(t M) = c0 I + c1 t (M - mu I),

with c0, c1 the mean and divided difference of f over the two eigenvalues
t (mu +/- delta).  They are computed in one place, phi_pair_coefficients;
where |t delta| is small (near rho = 2 and at the lowest frequencies) c1 is
the two-point Gauss mean of f' instead.  Every such function is applied the
same way: its four per-mode entries (mode_function_entries) multiply the
pair in one entry product (mode_product).

This module also evaluates the scalar kernel e^{t lambda_+(D)} and the
anisotropically rescaled oscillatory-integral probe that exhibits the
t^{-2} sup-norm floor of that kernel at low frequency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .besov import _ramp
from .errors import NumericDomainError, SolverAbort, UsageError
from .spectral import RadialGrid, modulus, per_grid_cache

#: below this value of |t*delta| the divided difference c1 cancels, and is
#: replaced by the two-point Gauss mean of phi_j' (error below 1e-14 there).
_SERIES_THRESHOLD = 1.0e-3


def mode_function_entries(j: int, rho: np.ndarray, t: float
                          ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Entries (m11, m12, m21, m22) of phi_j(t M_rho); j = 0 is e^{tM}.

    phi_j(tM) = c0 I + s (M - mu I) with (c0, s) = (c0, t c1) from
    phi_pair_coefficients(j, rho, t) and M - mu I = [[rho^2/2, -rho],
    [rho, -rho^2/2]].
    """
    c0, c1 = phi_pair_coefficients(j, rho, t)
    s = t * c1
    half = rho * rho / 2.0
    return c0 + s * half, -s * rho, s * rho, c0 - s * half


def mode_product(entries, pair: np.ndarray) -> np.ndarray:
    """Apply per-mode entries (m11, m12, m21, m22) to the stacked pair (a, v)."""
    m11, m12, m21, m22 = entries
    a, v = pair
    out = np.empty_like(pair)
    term = np.empty_like(a)
    np.multiply(m11, a, out=out[0])
    out[0] += np.multiply(m12, v, out=term)
    np.multiply(m21, a, out=out[1])
    out[1] += np.multiply(m22, v, out=term)
    return out


def mode_matrices(rho: np.ndarray, t: float) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Vectorised entries (m11, m12, m21, m22) of e^{t M_rho}.

    The validated j = 0 case of mode_function_entries; on the hyperbolic
    branch both exponents z +/- w are <= 0, so nothing overflows.
    """
    if t < 0:
        raise NumericDomainError(f"time must be non-negative, got {t}")
    rho = np.asarray(rho, dtype=float)
    if np.any(rho <= 0):
        raise NumericDomainError("all frequencies must be positive")
    return mode_function_entries(0, rho, float(t))


@per_grid_cache
def _propagator(grid: RadialGrid, t: float
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """mode_matrices(grid.rho, t), cached per grid and t."""
    return mode_matrices(grid.rho, t)


def apply_semigroup(grid: RadialGrid, pair: np.ndarray, t: float) -> np.ndarray:
    """Propagate the spectral (a, v) pair on `grid`, one row each, exactly by
    time t, through the propagator e^{tM} cached per grid and t."""
    if np.shape(pair) != (2, grid.n_modes):
        raise UsageError(f"apply_semigroup needs an (a, v) pair of shape "
                         f"(2, {grid.n_modes}), got {np.shape(pair)}")
    return mode_product(_propagator(grid, t), pair)


# -- scalar semigroup kernels --------------------------------------------------

def scalar_kernel_parts(rho_sq: np.ndarray, t: float) -> np.ndarray:
    """Real and imaginary parts of e^{t lambda_+} at the array rho^2 = rho_sq, stacked.

    lambda_+ = -(rho^2/2)(1 + sqrt(1 - 4/rho^2)) in real arithmetic: below
    rho = 2 the root is imaginary and e^{t lambda_+} = e^{-t rho^2/2}
    (cos theta - i sin theta) with theta = t sqrt(rho^2 - rho^4/4); from
    rho = 2 on it is the real e^{-t (rho^2/2 + sqrt(rho^4/4 - rho^2))}.

    The unit-circle factor comes from one tangent tau = tan(-theta/2), which
    numpy runs in SIMD where float64 cos and sin go through scalar libm:
    cos theta = (1 - tau)(1 + tau)/(1 + tau^2) and -sin theta = 2 tau/(1 +
    tau^2), divided before the product with e^{-t rho^2/2}.  The hyperbolic
    branch has tau = -0, so its parts are exactly (e^{t lambda_+}, -0).
    """
    exponent = rho_sq * (-0.5 * t)
    root = 4.0 / rho_sq
    root -= 1.0                         # 4/rho^2 - 1, <= 0 from rho = 2 on
    hyperbolic = root <= 0.0
    if hyperbolic.any():
        exponent[hyperbolic] *= 1.0 + np.sqrt(-root[hyperbolic])
        root[hyperbolic] = 0.0
    # -theta/2, since the exponent is -t rho^2/2: its sine carries the minus sign
    tau = np.sqrt(root, out=root)
    tau *= exponent
    tau *= 0.5
    np.tan(tau, out=tau)
    parts = np.empty((2,) + rho_sq.shape)
    np.subtract(1.0, tau, out=parts[0])
    parts[0] *= 1.0 + tau
    np.add(tau, tau, out=parts[1])
    parts /= 1.0 + tau * tau
    parts *= np.exp(exponent, out=exponent)
    return parts


# -- anisotropic lower-bound probe ---------------------------------------------

@dataclass(frozen=True)
class CutoffPsi:
    """Smooth even bump supported in {1/2 < |xi| < 1, |xi_1| >= 1/2}.

    Concretely the product of a radial shell bump centred at |xi| = 3/4 and an
    axial bump centred at |xi_1| = 3/4; only support, evenness, smoothness and
    non-negativity matter.  The shell bump is exactly 0 unless
    |xi| - shell_center is below shell_width (5/8 < |xi| < 7/8 by default).
    """

    shell_center: float = 0.75
    shell_width: float = 0.125
    axial_center: float = 0.75
    axial_width: float = 0.25

    def __call__(self, xi1, xi2, xi3) -> np.ndarray:
        xi1 = np.asarray(xi1, float)
        squares = np.broadcast_arrays(np.square(np.asarray(xi2, float)),
                                      np.square(np.asarray(xi3, float)))
        return self.from_squares(xi1, self.axial_bump(xi1), *squares)

    def axial_bump(self, xi1) -> np.ndarray:
        """The axial factor of Psi, a function of xi1 alone."""
        # C^inf bumps exp(-1/(1 - s^2)) on |s| < 1
        return _ramp(1.0 - ((np.abs(xi1) - self.axial_center) / self.axial_width) ** 2)

    def from_squares(self, xi1, axial, xi2_sq, xi3_sq) -> np.ndarray:
        """Psi from xi1, its axial_bump and the squares xi2^2, xi3^2 (of one
        shape): the shell bump's argument is formed in place from
        xi1^2 + xi2^2 + xi3^2, summed in that order."""
        shell = np.asarray(np.square(xi1) + xi2_sq)
        shell += xi3_sq
        np.sqrt(shell, out=shell)
        shell -= self.shell_center
        shell /= self.shell_width
        np.square(shell, out=shell)
        shell = _ramp(np.subtract(1.0, shell, out=shell))
        shell *= axial
        return shell

    def transverse_band(self, xi1) -> tuple[np.ndarray, np.ndarray]:
        """Radii (inner, outer) of the annulus in the (xi_2, xi_3) plane
        outside which Psi(xi1, ., .) is exactly 0, vectorised over xi1: the
        shell's radii cut at xi1, 0 where the cut misses the shell."""
        xi1_sq = np.square(xi1)
        inner = self.shell_center - self.shell_width
        outer = self.shell_center + self.shell_width
        return (np.sqrt(np.maximum(inner * inner - xi1_sq, 0.0)),
                np.sqrt(np.maximum(outer * outer - xi1_sq, 0.0)))


#: Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1], cached:
#: a probe refinement revisits the same few node counts.
_gauss_legendre = per_grid_cache(np.polynomial.legendre.leggauss)

#: Margin on a probe slab's band of squared radii: it covers the last bits by
#: which Psi's nodes differ from the unit nodes that sort the pairs.
_BAND_MARGIN = 1.0e-12


def _map_rule(rule: tuple[np.ndarray, np.ndarray], a: float, b: float
              ) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the Gauss-Legendre rule on [-1, 1] mapped to [a, b]."""
    x, w = rule
    return 0.5 * (b - a) * x + 0.5 * (a + b), 0.5 * (b - a) * w


@per_grid_cache
def _pair_table(n_nodes: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The node pairs (i, j), i >= j, of the n-point rule on [0, 1] sorted by
    squared radius u_i^2 + u_j^2: rows i, columns j, that squared radius and
    the pair weight w_i w_j, doubled off the diagonal for the mirror pair."""
    u, w = _map_rule(_gauss_legendre(n_nodes), 0.0, 1.0)
    rows, cols = np.tril_indices(n_nodes)
    radius_sq = u[rows] ** 2 + u[cols] ** 2
    order = np.argsort(radius_sq, kind="stable")
    rows, cols = rows[order], cols[order]
    weight = np.where(rows == cols, 1.0, 2.0) * w[rows] * w[cols]
    return rows, cols, radius_sq[order], weight


def _probe_integral(t: float, psi: CutoffPsi, coords: tuple[np.ndarray, np.ndarray],
                    n_nodes: int) -> np.ndarray:
    """|integral e^{i x.xi} e^{t lambda(|xi|)} Psi(t^{1/2} xi_t) dxi| at the probe points.

    coords = (axial, transverse): the points are (x, 0, 0) for each axial x,
    then (0, x, 0) for each transverse x, and the values come in that order.
    The integrand is even in each coordinate, so the integral over the full
    symmetric support box is 8x the cosine-weighted integral over the positive
    octant with xi_1 in [t^{-1/2}/2, t^{-1/2}], xi_{2,3} in [0, t^{-3/4}].
    A point on an axis needs only the marginal of the weighted integrand along
    that axis.  xi_2 and xi_3 share their nodes and weights, and the integrand
    depends on them only through xi_2^2 + xi_3^2, so it is symmetric under
    xi_2 <-> xi_3: each xi_1 slab evaluates only node pairs i >= j, an
    off-diagonal pair counting twice, and one transverse marginal (the mean
    of the pair sums over i and over j) serves both transverse axes, so
    (0, 0, x) reads the value of (0, x, 0).

    Scaled by t^{3/4}, the (xi_2, xi_3) nodes are the nodes u of the rule on
    [0, 1] for every t, and Psi(X_1, ., .) with X_1 = t^{1/2} xi_1 is exactly
    0 outside the annulus psi.transverse_band(X_1).  So a slab evaluates only
    the pairs with u_i^2 + u_j^2 in that band, widened by _BAND_MARGIN: one
    slice of _pair_table(n_nodes).  The sums are the full-box sums without
    their zero terms.  The squared scaled (xi_2, xi_3) of each pair, the
    axial bump of each X_1 and the transverse marginal, from per-pair totals
    over the slabs, are formed once per call.
    """
    s = 1.0 / math.sqrt(t)
    rule = _gauss_legendre(n_nodes)
    x1, w1 = _map_rule(rule, 0.5 * s, s)
    x2, _ = _map_rule(rule, 0.0, t ** -0.75)
    scaled1 = math.sqrt(t) * x1
    scaled2 = t ** 0.75 * x2

    rows, cols, unit_sq, unit_weight = _pair_table(n_nodes)
    inner, outer = psi.transverse_band(scaled1)
    starts = np.searchsorted(unit_sq, inner * inner - _BAND_MARGIN)
    stops = np.searchsorted(unit_sq, outer * outer + _BAND_MARGIN, side="right")
    pair_sq = x2[rows] ** 2 + x2[cols] ** 2
    scaled_sq = np.square(scaled2)
    rows_sq, cols_sq = scaled_sq[rows], scaled_sq[cols]
    axial_bump = psi.axial_bump(scaled1)
    area = (t ** -0.75) ** 2                # per axis t^{-3/4} times the unit weight

    # [real, imaginary] per-pair totals over the slabs, and axial marginals
    pair_totals = np.zeros((2, rows.size))
    axial = np.zeros((2, n_nodes))
    for i, (xi1, wi, start, stop) in enumerate(zip(x1, w1, starts, stops)):
        if start == stop:
            continue
        band = slice(start, stop)
        slab = scalar_kernel_parts(xi1 ** 2 + pair_sq[band], t)
        slab *= psi.from_squares(scaled1[i], axial_bump[i], rows_sq[band], cols_sq[band]) * (wi * area)
        axial[:, i] = slab @ unit_weight[band]
        pair_totals[:, band] += slab
    pair_totals *= unit_weight
    transverse = 0.5 * np.stack([np.bincount(rows, total, n_nodes)
                                 + np.bincount(cols, total, n_nodes) for total in pair_totals])

    sums = []
    for coord, nodes, marginal in zip(coords, (x1, x2), (axial, transverse)):
        phases = np.outer(coord, nodes)
        sums.append(np.cos(phases, out=phases) @ marginal.T)
        del phases                          # one phase table alive at a time
    return 8.0 * modulus(np.concatenate(sums).T)


def kernel_probe(t: float, psi: CutoffPsi, refine_rtol: float = 1.0e-6,
                 max_nodes: int = 256) -> float:
    """Sup of the cut kernel modulus over the points of probe_coordinates(t).

    Gauss-Legendre tensor quadrature over the compact support box; the node
    count doubles from 32 until the sup changes by less than refine_rtol
    relative.  Raises SolverAbort if that has not happened by max_nodes.
    """
    if not 4.0 <= t < math.inf:
        raise NumericDomainError(f"probe needs a finite t >= 4, got {t}")
    coords = probe_coordinates(t)
    n = 32
    value = float(np.max(_probe_integral(t, psi, coords, n)))
    change = math.inf
    while n < max_nodes:
        n *= 2
        refined = float(np.max(_probe_integral(t, psi, coords, n)))
        if abs(refined - value) <= refine_rtol * abs(refined):
            return refined
        change = abs(refined - value) / abs(refined) if refined != 0.0 else math.inf
        value = refined
    raise SolverAbort(
        f"kernel probe did not converge by max_nodes = {max_nodes}: last relative "
        f"change {change:.3g} > refine_rtol = {refine_rtol:g}", time=t)


def probe_coordinates(t: float) -> tuple[np.ndarray, np.ndarray]:
    """Axial and transverse probe coordinates at the kernel's anisotropic scales.

    The stationary scale along the wave axis is x_1 ~ t (256 points up to
    4t); across it |x'| ~ t^{3/4} (64 points up to 4 t^{3/4}).
    """
    return np.linspace(0.0, 4.0 * t, 256), np.linspace(0.0, 4.0 * t ** 0.75, 64)


# -- phi functions for the exponential integrator ------------------------------

_FACTORIALS = [math.factorial(k) for k in range(40)]


def _phi_scalar(j: int, zeta: np.ndarray) -> np.ndarray:
    """phi_j(zeta) = sum_n zeta^n / (n+j)! for scalar/array complex zeta.

    Power series below |zeta| = 0.5, recurrence from e^zeta above; both are
    numerically benign in their regions.
    """
    zeta = np.asarray(zeta)
    out = np.empty(zeta.shape, dtype=complex)
    small = np.abs(zeta) < 0.5
    if np.any(small):
        z = zeta[small]
        acc = np.zeros_like(z)
        power = np.ones_like(z)
        for n in range(24):
            acc = acc + power / _FACTORIALS[n + j]
            power = power * z
        out[small] = acc
    if np.any(~small):
        z = zeta[~small]
        val = np.exp(z)
        for k in range(j):
            val = (val - 1.0 / _FACTORIALS[k]) / z
        out[~small] = val
    return out


def phi_pair_coefficients(j: int, rho: np.ndarray, dt: float
                          ) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients (c0, c1) with phi_j(dt M_rho) = c0 I + c1 dt (M - mu I).

    With z = dt mu and w = dt delta (imaginary below rho = 2), c0 is the mean
    of phi_j(z +/- w) and c1 the divided difference (phi_j(z + w) -
    phi_j(z - w)) / (2 w).  Where |w| < _SERIES_THRESHOLD that difference
    cancels, and c1 is instead the mean of phi_j' = phi_j - j phi_{j+1} over
    the two-point Gauss-Legendre nodes z +/- w / sqrt(3).  j = 0 gives the
    propagator e^{dt M}.
    """
    rho = np.asarray(rho, dtype=float)
    disc = rho ** 4 / 4.0 - rho ** 2
    z = dt * (-rho * rho / 2.0)
    w_abs = dt * np.sqrt(np.abs(disc))
    w = np.where(disc < 0.0, 1j * w_abs, w_abs + 0j)
    hi = _phi_scalar(j, z + w)
    lo = _phi_scalar(j, z - w)
    c0 = np.real(0.5 * (hi + lo))
    small = w_abs < _SERIES_THRESHOLD
    with np.errstate(divide="ignore", invalid="ignore"):
        c1 = np.real((hi - lo) / (2.0 * w))
    if np.any(small):
        nodes = z[small] + np.stack((w[small], -w[small])) / math.sqrt(3.0)
        c1[small] = np.real(np.mean(_phi_scalar(j, nodes) - j * _phi_scalar(j + 1, nodes), axis=0))
    return c0, c1

