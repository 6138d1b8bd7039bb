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
coalescence point.

This module also evaluates band-limited kernel norms of e^{t lambda(D)} and
the anisotropically rescaled oscillatory-integral probe that exhibits the
t^{-2} sup-norm floor of the low-frequency kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import NumericDomainError, SolverAbort, UsageError
from .spectral import RadialGrid, RadialScalarField, spectral_lp_norm

#: below this value of |t*delta| the divided differences switch to their
#: power series in (t delta)^2, which is exact to double precision there.
_SERIES_THRESHOLD = 1.0e-3


@dataclass(frozen=True)
class ModeMatrix:
    """Entries of e^{t M_rho} acting on (a_hat, v_hat) at one frequency."""

    m11: float
    m12: float
    m21: float
    m22: float


def mode_matrices(rho: np.ndarray, t: float) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Vectorised entries (m11, m12, m21, m22) of e^{t M_rho}.

    e^{tM} = phi_0(tM) = A I + S (M - mu I) with (A, S) = (c0, t c1) from
    phi_pair_coefficients(0, rho, t); on the hyperbolic branch both exponents
    z +/- w are <= 0, so nothing overflows.
    """
    if t < 0:
        raise NumericDomainError(f"time must be non-negative, got {t}")
    rho = np.asarray(rho, dtype=float)
    if np.any(rho <= 0):
        raise NumericDomainError("all frequencies must be positive")
    t = float(t)
    A, c1 = phi_pair_coefficients(0, rho, t)
    S = t * c1
    half = rho * rho / 2.0
    return A + S * half, -S * rho, S * rho, A - S * half


def mode_exponential(rho: float, t: float) -> ModeMatrix:
    """e^{t M_rho} for a single frequency."""
    m11, m12, m21, m22 = mode_matrices(np.array([float(rho)]), t)
    return ModeMatrix(float(m11[0]), float(m12[0]), float(m21[0]), float(m22[0]))


def apply_semigroup(a_hat: RadialScalarField, v_hat: RadialScalarField, t: float
                    ) -> tuple[RadialScalarField, RadialScalarField]:
    """Propagate a spectral (a, v) pair exactly by time t."""
    if a_hat.grid != v_hat.grid:
        raise UsageError("apply_semigroup needs both fields on the same grid")
    if a_hat.space != "spectral" or v_hat.space != "spectral":
        raise UsageError("apply_semigroup acts on spectral-space fields")
    m11, m12, m21, m22 = mode_matrices(a_hat.grid.rho, t)
    a_new = m11 * a_hat.values + m12 * v_hat.values
    v_new = m21 * a_hat.values + m22 * v_hat.values
    return (RadialScalarField(a_hat.grid, a_new, "spectral"),
            RadialScalarField(v_hat.grid, v_new, "spectral"))


def hi_freq_identity_check(rho: float, t: float, branch: str = "plus") -> tuple[float, float]:
    """Evaluate the two closed forms of the high-frequency decay exponent.

    lhs = -t (rho^2/2)(1 +/- s),  rhs = -2t / (1 -/+ s),  s = sqrt(1 - 4/rho^2).
    """
    if rho <= 2.0:
        raise NumericDomainError(f"identity holds for rho > 2, got {rho}")
    if t < 0:
        raise NumericDomainError(f"time must be non-negative, got {t}")
    sign = _branch_sign(branch)
    s = math.sqrt(1.0 - 4.0 / (rho * rho))
    lhs = -t * (rho * rho / 2.0) * (1.0 + sign * s)
    rhs = -2.0 * t / (1.0 - sign * s)
    return lhs, rhs


def _branch_sign(branch: str) -> float:
    if branch not in ("plus", "minus"):
        raise UsageError(f"branch must be 'plus' or 'minus', got {branch!r}")
    return 1.0 if branch == "plus" else -1.0


# -- scalar semigroup kernels --------------------------------------------------

def scalar_kernel_values(rho: np.ndarray, t: float, branch: str = "plus") -> np.ndarray:
    """e^{t lambda_branch(rho)} as complex values (vectorised)."""
    sign = _branch_sign(branch)
    rho = np.asarray(rho, dtype=float)
    half = rho * rho / 2.0
    out = np.empty(rho.shape, dtype=complex)
    low = rho < 2.0
    rad_low = np.sqrt(np.clip(4.0 / rho[low] ** 2 - 1.0, 0.0, None))
    out[low] = np.exp(-t * half[low] * (1.0 + 1j * sign * rad_low))
    hi = ~low
    rad_hi = np.sqrt(np.clip(1.0 - 4.0 / rho[hi] ** 2, 0.0, None))
    out[hi] = np.exp(-t * half[hi] * (1.0 + sign * rad_hi))
    return out


def kernel_band_norm(grid: RadialGrid, t: float, p: float, band: str,
                     j: int | None = None, branch: str = "plus",
                     partition=None) -> float:
    """L^p norm of the band-limited scalar kernel F^{-1}[m_band e^{t lambda}].

    band is 'low' (smooth pass below rho ~ 1), 'high' (complement of the
    smooth pass below rho ~ 8), or 'block' with a dyadic index j.
    """
    if t <= 0:
        raise NumericDomainError(f"time must be positive, got {t}")
    from .besov import DyadicPartition  # local import keeps module layering acyclic

    part = partition if partition is not None else DyadicPartition()
    rho = grid.rho
    if band == "low":
        mult = part.theta(2.0 * rho)
    elif band == "high":
        mult = 1.0 - part.theta(rho / 4.0)
    elif band == "block":
        if j is None:
            raise UsageError("band='block' needs a dyadic index j")
        mult = part.block_multiplier(grid, j)
    else:
        raise UsageError(f"unknown band {band!r}")
    kernel = scalar_kernel_values(rho, t, branch) * mult
    return spectral_lp_norm(grid, np.stack((kernel.real, kernel.imag)), p)


# -- anisotropic lower-bound probe ---------------------------------------------

def _bump(s: np.ndarray) -> np.ndarray:
    """C^inf bump exp(-1/(1-s^2)) on |s| < 1, zero outside."""
    s = np.asarray(s, dtype=float)
    out = np.zeros_like(s)
    inside = np.abs(s) < 1.0
    out[inside] = np.exp(-1.0 / (1.0 - s[inside] ** 2))
    return out


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
        shell = _bump((norm - self.shell_center) / self.shell_width)
        axial = _bump((np.abs(xi1) - self.axial_center) / self.axial_width)
        return shell * axial


def default_cutoff() -> CutoffPsi:
    return CutoffPsi()


def _gauss_nodes(a: float, b: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (b - a) * x + 0.5 * (a + b), 0.5 * (b - a) * w


def _probe_integral(t: float, psi: CutoffPsi, points: np.ndarray, n_nodes: int,
                    branch: str) -> np.ndarray:
    """|integral e^{i x.xi} e^{t lambda(|xi|)} Psi(t^{1/2} xi_t) dxi| per probe point.

    The integrand is even in each coordinate, so the integral over the full
    symmetric support box is 8x the cosine-weighted integral over the positive
    octant with xi_1 in [t^{-1/2}/2, t^{-1/2}], xi_{2,3} in [0, t^{-3/4}].
    """
    s = 1.0 / math.sqrt(t)
    x1, w1 = _gauss_nodes(0.5 * s, s, n_nodes)
    x2, w2 = _gauss_nodes(0.0, t ** -0.75, n_nodes)
    x3, w3 = x2, w2

    xi1 = x1[:, None, None]
    xi2 = x2[None, :, None]
    xi3 = x3[None, None, :]
    rho = np.sqrt(xi1 ** 2 + xi2 ** 2 + xi3 ** 2)
    cutoff = psi(math.sqrt(t) * xi1, t ** 0.75 * xi2, t ** 0.75 * xi3)
    weighted = scalar_kernel_values(np.ravel(rho), t, branch).reshape(rho.shape) * cutoff
    weighted = weighted * (w1[:, None, None] * w2[None, :, None] * w3[None, None, :])

    vals = np.empty(len(points), dtype=complex)
    # probe points with two zero coordinates only need a marginal sum
    marginals = (weighted.sum(axis=(1, 2)), weighted.sum(axis=(0, 2)),
                 weighted.sum(axis=(0, 1)))
    axes_nodes = (x1, x2, x3)
    general = [i for i, p in enumerate(points)
               if np.count_nonzero(p) > 1]
    for i, point in enumerate(points):
        if i in general:
            continue
        axis = int(np.argmax(np.abs(point)))
        vals[i] = np.cos(point[axis] * axes_nodes[axis]) @ marginals[axis]
    if general:
        flat = weighted.reshape(n_nodes, n_nodes * n_nodes)
        for i in general:
            p1, p2, p3 = points[i]
            t1 = (np.cos(p1 * x1) @ flat).reshape(n_nodes, n_nodes)
            vals[i] = np.cos(p3 * x3) @ (np.cos(p2 * x2) @ t1)
    return 8.0 * np.abs(vals)


def kernel_probe(t: float, psi: CutoffPsi, probe_points: Sequence[Sequence[float]],
                 n_nodes: int = 32, branch: str = "plus",
                 refine_rtol: float = 1.0e-6, max_nodes: int = 256) -> float:
    """Sup over probe points of the anisotropically cut kernel modulus.

    Gauss-Legendre tensor quadrature over the compact support box; the node
    count doubles until the sup changes by less than refine_rtol relative.
    Raises SolverAbort if that has not happened by max_nodes.
    """
    if t < 4.0:
        raise NumericDomainError(f"probe needs t >= 4, got {t}")
    pts = np.atleast_2d(np.asarray(probe_points, dtype=float))
    if pts.size == 0:
        raise UsageError("probe point set is empty")
    if pts.shape[1] != 3:
        raise UsageError("probe points must be 3D")
    n = max(int(n_nodes), 4)
    value = float(np.max(_probe_integral(t, psi, pts, n, branch)))
    change = math.inf
    while n < max_nodes:
        n *= 2
        refined = float(np.max(_probe_integral(t, psi, pts, n, branch)))
        if value == 0.0 or abs(refined - value) <= refine_rtol * abs(refined):
            return refined
        change = abs(refined - value) / abs(refined) if refined != 0.0 else math.inf
        value = refined
    raise SolverAbort(
        f"kernel probe did not converge by max_nodes = {max_nodes}: last relative "
        f"change {change:.3g} > refine_rtol = {refine_rtol:g}", time=t)


def probe_point_grid(t: float, n_axis: int = 256, n_transverse: int = 64,
                     extent: float = 4.0) -> np.ndarray:
    """Axis-aligned probe set matching the kernel's anisotropic scales.

    The stationary scale along the wave axis is x_1 ~ t; transverse ~ t^{3/4}.
    """
    ax = np.linspace(0.0, extent * t, n_axis)
    tr = np.linspace(0.0, extent * t ** 0.75, n_transverse)
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


def apply_mode_function(c0: np.ndarray, c1: np.ndarray, rho: np.ndarray, dt: float,
                        a: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Apply c0 I + c1 dt (M_rho - mu I) to the stacked pair (a, v)."""
    half = rho * rho / 2.0
    out_a = c0 * a + c1 * dt * (half * a - rho * v)
    out_v = c0 * v + c1 * dt * (rho * a - half * v)
    return out_a, out_v
