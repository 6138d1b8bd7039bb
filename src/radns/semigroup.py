"""Exact per-mode propagators for the linearised radial (a, v) system.

Each Fourier mode of the pair (a, v) evolves under the 2x2 generator

    M_rho = [[0, -rho], [rho, -rho^2]],

whose eigenvalues coalesce at rho = 2.  Writing mu = -rho^2/2 for half the
trace and delta^2 = rho^4/4 - rho^2 for the squared spectral gap, every
function f of t M used here (the exponential e^{tM} = phi_0(tM) and the phi_1,
phi_2 of the exponential integrator) has the form

    f(t M) = c0 I + c1 t (M - mu I),

with c0, c1 the mean and divided difference of f over the two eigenvalues
t (mu +/- delta).  They are computed in one place, phi_pair_coefficients,
which switches to a power series in the signed (t delta)^2 near the
coalescence point.  Every such function is applied the same way: its four
per-mode entries (mode_function_entries) multiply the pair in one entry
product (mode_product).

This module also evaluates the scalar kernel e^{t lambda_+(D)} and the
anisotropically rescaled oscillatory-integral probe that exhibits the
t^{-2} sup-norm floor of that kernel at low frequency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .besov import _ramp
from .errors import NumericDomainError, SolverAbort, UsageError
from .spectral import RadialGrid

#: below this value of |t*delta| the divided differences switch to their
#: power series in (t delta)^2, which is exact to double precision there.
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

def scalar_kernel_values(rho: np.ndarray, t: float) -> np.ndarray:
    """e^{t lambda_+(rho)} as complex values (vectorised).

    lambda_+ = -(rho^2/2)(1 + sqrt(1 - 4/rho^2)); the complex square root is
    imaginary below rho = 2 and real above, so one expression covers both.
    """
    rho = np.asarray(rho, dtype=float)
    return np.exp(-t * (rho * rho / 2.0) * (1.0 + np.sqrt((1.0 - 4.0 / rho ** 2) + 0j)))


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
        xi1, xi2, xi3 = np.broadcast_arrays(np.asarray(xi1, float),
                                            np.asarray(xi2, float),
                                            np.asarray(xi3, float))
        norm = np.sqrt(xi1 ** 2 + xi2 ** 2 + xi3 ** 2)
        # C^inf bumps exp(-1/(1 - s^2)) on |s| < 1
        shell = _ramp(1.0 - ((norm - self.shell_center) / self.shell_width) ** 2)
        axial = _ramp(1.0 - ((np.abs(xi1) - self.axial_center) / self.axial_width) ** 2)
        return shell * axial

    def transverse_radius(self, xi1: float) -> float:
        """Radius sqrt(r^2 - xi1^2) in the (xi_2, xi_3) plane beyond which
        Psi(xi1, ., .) is exactly 0, r the shell's outer radius; 0.0 once |xi1| >= r."""
        outer = self.shell_center + self.shell_width
        return math.sqrt(max(outer * outer - xi1 * xi1, 0.0))


def _gauss_nodes(a: float, b: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (b - a) * x + 0.5 * (a + b), 0.5 * (b - a) * w


def _probe_integral(t: float, psi: CutoffPsi, points: np.ndarray, n_nodes: int) -> np.ndarray:
    """|integral e^{i x.xi} e^{t lambda(|xi|)} Psi(t^{1/2} xi_t) dxi| per probe point.

    The integrand is even in each coordinate, so the integral over the full
    symmetric support box is 8x the cosine-weighted integral over the positive
    octant with xi_1 in [t^{-1/2}/2, t^{-1/2}], xi_{2,3} in [0, t^{-3/4}].
    Points must lie on a coordinate axis, so each needs only the marginal of
    the weighted integrand along its axis.  xi_2 and xi_3 share their nodes
    and weights, and the integrand depends on xi_1 and |xi| only, so it is
    symmetric under xi_2 <-> xi_3 and one transverse marginal serves both
    transverse axes; the axial and transverse marginals are summed one xi_1
    slab at a time.

    Psi is exactly 0 at or past the shell's outer radius, so a slab with
    X_1 = t^{1/2} xi_1 there is skipped, and the others evaluate only the
    leading k x k block of (xi_2, xi_3) nodes inside psi.transverse_radius(X_1),
    plus one node of margin: the sums are the full-box sums without their
    zero terms.
    """
    points = np.asarray(points, dtype=float)
    if np.any(np.count_nonzero(points, axis=1) > 1):
        raise UsageError("probe points must lie on a coordinate axis")
    s = 1.0 / math.sqrt(t)
    x1, w1 = _gauss_nodes(0.5 * s, s, n_nodes)
    x2, w2 = _gauss_nodes(0.0, t ** -0.75, n_nodes)
    scaled = t ** 0.75 * x2         # ascending, as np.searchsorted needs

    marginals = np.zeros((2, n_nodes), dtype=complex)
    for i, (xi1, wi) in enumerate(zip(x1, w1)):
        scaled1 = math.sqrt(t) * xi1
        radius = psi.transverse_radius(scaled1)
        if radius == 0.0:
            continue
        k = min(int(np.searchsorted(scaled, radius)) + 1, n_nodes)
        rho = np.sqrt(xi1 ** 2 + x2[:k, None] ** 2 + x2[None, :k] ** 2)
        slab = scalar_kernel_values(rho, t)
        slab *= psi(scaled1, scaled[:k, None], scaled[None, :k])
        slab *= wi * w2[:k, None] * w2[None, :k]
        marginals[0, i] = slab.sum()
        marginals[1, :k] += slab.sum(axis=1)

    vals = np.empty(len(points), dtype=complex)
    for i, point in enumerate(points):
        axis = int(np.argmax(np.abs(point)))
        side = min(axis, 1)             # 0 axial, 1 transverse
        vals[i] = np.cos(point[axis] * (x1, x2)[side]) @ marginals[side]
    return 8.0 * np.abs(vals)


def kernel_probe(t: float, psi: CutoffPsi, probe_points: Sequence[Sequence[float]],
                 n_nodes: int = 32, refine_rtol: float = 1.0e-6, max_nodes: int = 256) -> float:
    """Sup over probe points of the anisotropically cut kernel modulus.

    Gauss-Legendre tensor quadrature over the compact support box; the node
    count doubles until the sup changes by less than refine_rtol relative.
    Raises SolverAbort if that has not happened by max_nodes, and UsageError
    for a point off the coordinate axes.
    """
    if t < 4.0:
        raise NumericDomainError(f"probe needs t >= 4, got {t}")
    pts = np.atleast_2d(np.asarray(probe_points, dtype=float))
    if pts.size == 0:
        raise UsageError("probe point set is empty")
    if pts.shape[1] != 3:
        raise UsageError("probe points must be 3D")
    n = max(int(n_nodes), 4)
    value = float(np.max(_probe_integral(t, psi, pts, n)))
    change = math.inf
    while n < max_nodes:
        n *= 2
        refined = float(np.max(_probe_integral(t, psi, pts, n)))
        if abs(refined - value) <= refine_rtol * abs(refined):
            return refined
        change = abs(refined - value) / abs(refined) if refined != 0.0 else math.inf
        value = refined
    raise SolverAbort(
        f"kernel probe did not converge by max_nodes = {max_nodes}: last relative "
        f"change {change:.3g} > refine_rtol = {refine_rtol:g}", time=t)


def probe_point_grid(t: float) -> np.ndarray:
    """Axis-aligned probe set matching the kernel's anisotropic scales.

    The stationary scale along the wave axis is x_1 ~ t (256 points up to
    4t); transverse ~ t^{3/4} (64 points up to 4 t^{3/4} on each other axis).
    """
    ax = np.linspace(0.0, 4.0 * t, 256)
    tr = np.linspace(0.0, 4.0 * t ** 0.75, 64)
    pts = [(x, 0.0, 0.0) for x in ax]
    pts += [(0.0, x, 0.0) for x in tr]
    pts += [(0.0, 0.0, x) for x in tr]
    return np.asarray(pts)


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


def _phi_stack(z: np.ndarray, j_max: int) -> list[np.ndarray]:
    """[phi_0(z), ..., phi_jmax(z)] for real z <= 0 (returned real)."""
    return [np.real(_phi_scalar(j, z.astype(complex))) for j in range(j_max + 1)]


def phi_pair_coefficients(j: int, rho: np.ndarray, dt: float
                          ) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients (c0, c1) with phi_j(dt M_rho) = c0 I + c1 dt (M - mu I).

    c0 and c1 are the symmetric mean and divided difference of phi_j over the
    two eigenvalues of dt*M; near coalescence they switch to an even power
    series in the signed squared gap.  j = 0 gives the propagator e^{dt M}.
    """
    rho = np.asarray(rho, dtype=float)
    mu = -rho * rho / 2.0
    disc = rho ** 4 / 4.0 - rho ** 2
    z = dt * mu
    w_abs = dt * np.sqrt(np.abs(disc))
    c0 = np.empty_like(rho)
    c1 = np.empty_like(rho)

    small = w_abs < _SERIES_THRESHOLD
    if np.any(small):
        # derivatives via phi_j' = phi_j - j phi_{j+1}
        zs = z[small]
        w2 = (dt * dt) * disc[small]
        phis = _phi_stack(zs, j + 5)

        def deriv(vals: list[np.ndarray], order: int) -> np.ndarray:
            cur = {jj: vals[jj] for jj in range(len(vals))}
            for _ in range(order):
                cur = {jj: cur[jj] - jj * cur[jj + 1]
                       for jj in range(len(cur) - 1)}
            return cur[j]

        c0[small] = phis[j] + deriv(phis, 2) * w2 / 2.0 + deriv(phis, 4) * w2 ** 2 / 24.0
        c1[small] = deriv(phis, 1) + deriv(phis, 3) * w2 / 6.0
    if np.any(~small):
        zl = z[~small]
        oscill = disc[~small] < 0.0
        w = np.where(oscill, 1j * w_abs[~small], w_abs[~small] + 0j)
        hi = _phi_scalar(j, zl + w)
        lo = _phi_scalar(j, zl - w)
        c0[~small] = np.real(0.5 * (hi + lo))
        c1[~small] = np.real((hi - lo) / (2.0 * w))
    return c0, c1

