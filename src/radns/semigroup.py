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
    out[0] = m11 * a + m12 * v
    out[1] = m21 * a + m22 * v
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


def apply_semigroup(grid: RadialGrid, pair: np.ndarray, t: float) -> np.ndarray:
    """Propagate the spectral (a, v) pair on `grid`, one row each, exactly by time t."""
    if np.shape(pair) != (2, grid.n_modes):
        raise UsageError(f"apply_semigroup needs an (a, v) pair of shape "
                         f"(2, {grid.n_modes}), got {np.shape(pair)}")
    return mode_product(mode_matrices(grid.rho, t), pair)


# -- scalar semigroup kernels --------------------------------------------------

def scalar_kernel_parts(rho_sq: np.ndarray, t: float) -> np.ndarray:
    """Real and imaginary parts of e^{t lambda_+} at rho^2 = rho_sq, stacked (vectorised).

    lambda_+ = -(rho^2/2)(1 + sqrt(1 - 4/rho^2)) in real arithmetic: below
    rho = 2 the root is imaginary and e^{t lambda_+} = e^{-t rho^2/2}
    (cos theta - i sin theta) with theta = t sqrt(rho^2 - rho^4/4); from
    rho = 2 on it is the real e^{-t (rho^2/2 + sqrt(rho^4/4 - rho^2))}.
    """
    rho_sq = np.asarray(rho_sq, dtype=float)
    half = rho_sq / 2.0
    root = np.sqrt(np.abs(1.0 - 4.0 / rho_sq))
    hyperbolic = rho_sq >= 4.0
    modulus = np.exp(-t * half * np.where(hyperbolic, 1.0 + root, 1.0))
    theta = np.where(hyperbolic, 0.0, t * half * root)
    return np.stack((modulus * np.cos(theta), -modulus * np.sin(theta)))


# -- anisotropic lower-bound probe ---------------------------------------------

@dataclass(frozen=True)
class CutoffPsi:
    """Smooth even bump supported in {1/2 < |xi| < 1, |xi_1| >= 1/2}.

    Concretely the product of a radial shell bump centred at |xi| = 3/4 and an
    axial bump centred at |xi_1| = 3/4; only support, evenness, smoothness and
    non-negativity matter.
    """

    shell_center: float = 0.75
    shell_width: float = 0.125
    axial_center: float = 0.75
    axial_width: float = 0.25

    def __call__(self, xi1, xi2, xi3) -> np.ndarray:
        xi1 = np.asarray(xi1, float)
        # C^inf bumps exp(-1/(1 - s^2)) on |s| < 1; the axial one needs xi1 alone
        axial = _ramp(1.0 - ((np.abs(xi1) - self.axial_center) / self.axial_width) ** 2)
        norm = np.sqrt(xi1 ** 2 + np.asarray(xi2, float) ** 2 + np.asarray(xi3, float) ** 2)
        shell = _ramp(1.0 - ((norm - self.shell_center) / self.shell_width) ** 2)
        return shell * axial

    def transverse_radius(self, xi1: float) -> float:
        """Radius sqrt(r^2 - xi1^2) in the (xi_2, xi_3) plane beyond which
        Psi(xi1, ., .) is exactly 0, r the shell's outer radius; 0.0 once |xi1| >= r."""
        outer = self.shell_center + self.shell_width
        return math.sqrt(max(outer * outer - xi1 * xi1, 0.0))


#: Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1], cached:
#: a probe refinement revisits the same few node counts.
_gauss_legendre = per_grid_cache(np.polynomial.legendre.leggauss)


def _map_rule(rule: tuple[np.ndarray, np.ndarray], a: float, b: float
              ) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the Gauss-Legendre rule on [-1, 1] mapped to [a, b]."""
    x, w = rule
    return 0.5 * (b - a) * x + 0.5 * (a + b), 0.5 * (b - a) * w


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
    xi_2 <-> xi_3: each xi_1 slab evaluates only the node pairs i >= j of its
    (xi_2, xi_3) block, an off-diagonal pair counting twice, and one
    transverse marginal (the mean of the pair sums over i and over j) serves
    both transverse axes, so (0, 0, x) reads the value of (0, x, 0).

    Psi is exactly 0 at or past the shell's outer radius, so a slab with
    X_1 = t^{1/2} xi_1 there is skipped, and the others evaluate only the
    pairs of the leading k x k block of nodes inside
    psi.transverse_radius(X_1), plus one node of margin: the sums are the
    full-box sums without their zero terms.  The pairs are listed row by row
    (np.tril_indices), so the pairs of every block are a prefix of one list.
    """
    s = 1.0 / math.sqrt(t)
    rule = _gauss_legendre(n_nodes)
    x1, w1 = _map_rule(rule, 0.5 * s, s)
    x2, w2 = _map_rule(rule, 0.0, t ** -0.75)
    scaled = t ** 0.75 * x2         # ascending, as np.searchsorted needs

    rows, cols = np.tril_indices(n_nodes)
    pair_sq = x2[rows] ** 2 + x2[cols] ** 2
    pair_weight = np.where(rows == cols, 1.0, 2.0) * w2[rows] * w2[cols]
    scaled_rows, scaled_cols = scaled[rows], scaled[cols]

    # [axial, transverse] x [real, imaginary] marginals
    marginals = np.zeros((2, 2, n_nodes))
    for i, (xi1, wi) in enumerate(zip(x1, w1)):
        scaled1 = math.sqrt(t) * xi1
        radius = psi.transverse_radius(scaled1)
        if radius == 0.0:
            continue
        k = min(int(np.searchsorted(scaled, radius)) + 1, n_nodes)
        m = k * (k + 1) // 2
        slab = scalar_kernel_parts(xi1 ** 2 + pair_sq[:m], t)
        slab *= psi(scaled1, scaled_rows[:m], scaled_cols[:m]) * (wi * pair_weight[:m])
        marginals[0, :, i] = slab.sum(axis=1)
        for part in range(2):
            marginals[1, part, :k] += 0.5 * (np.bincount(rows[:m], slab[part], k)
                                             + np.bincount(cols[:m], slab[part], k))

    sums = np.concatenate([np.cos(np.outer(coord, nodes)) @ marginal.T
                           for coord, nodes, marginal in zip(coords, (x1, x2), marginals)])
    return 8.0 * modulus(sums.T)


def kernel_probe(t: float, psi: CutoffPsi, refine_rtol: float = 1.0e-6,
                 max_nodes: int = 256) -> float:
    """Sup of the cut kernel modulus over the points of probe_coordinates(t).

    Gauss-Legendre tensor quadrature over the compact support box; the node
    count doubles from 32 until the sup changes by less than refine_rtol
    relative.  Raises SolverAbort if that has not happened by max_nodes.
    """
    if t < 4.0:
        raise NumericDomainError(f"probe needs t >= 4, got {t}")
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

