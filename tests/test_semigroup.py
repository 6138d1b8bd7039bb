"""Propagator, eigenvalue, kernel-norm, and probe tests.

The matrix-exponential oracle is an independent 40-term scaled-and-squared
power series; phi coefficients (phi_0 = exp included) are checked against
augmented-matrix expm; the closed-form eigenvalues below are the oracle for
the scalar kernels e^{t lambda}.
"""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st
from scipy.integrate import simpson

from radns.besov import _ramp, phi_hat, theta
from radns.errors import NumericDomainError, SolverAbort, UsageError
from radns.semigroup import (
    CutoffPsi,
    _BAND_MARGIN,
    _gauss_legendre,
    _probe_integral,
    apply_semigroup,
    kernel_probe,
    mode_function_entries,
    mode_matrices,
    phi_pair_coefficients,
    probe_coordinates,
    scalar_kernel_parts,
)
from radns.spectral import make_grid
from test_spectral import synthesised_lp_norm


def kernel_values(rho, t: float) -> np.ndarray:
    """e^{t lambda_+(rho)} as complex values, from the program's real and
    imaginary parts."""
    rho = np.asarray(rho, dtype=float)
    re, im = scalar_kernel_parts(rho * rho, t)
    return re + 1j * im


def generator(rho: float) -> np.ndarray:
    return np.array([[0.0, -rho], [rho, -rho * rho]])


def expm_series_oracle(rho: float, t: float, terms: int = 40) -> np.ndarray:
    """Scaled 40-term power series, squared back up."""
    A = generator(rho) * t
    squarings = 0
    norm = np.abs(A).sum(axis=1).max()
    while norm > 0.5:
        A = A / 2.0
        norm /= 2.0
        squarings += 1
    X = np.eye(2)
    term = np.eye(2)
    for n in range(1, terms + 1):
        term = term @ A / n
        X = X + term
    for _ in range(squarings):
        X = X @ X
    return X


def mode_exponential(rho: float, t: float) -> np.ndarray:
    """e^{t M_rho} at one frequency as a 2x2 array."""
    return np.reshape(mode_matrices(np.array([rho]), t), (2, 2))


def eigenvalues(rho: float) -> tuple[complex, complex]:
    """Closed-form (lambda_plus, lambda_minus) of M_rho: complex pair below
    rho = 2, real above, -2 twice at coalescence."""
    half = rho * rho / 2.0
    if rho < 2.0:
        rad = math.sqrt(4.0 / (rho * rho) - 1.0)
        return complex(-half, -half * rad), complex(-half, half * rad)
    if rho > 2.0:
        rad = math.sqrt(1.0 - 4.0 / (rho * rho))
        return complex(-half * (1.0 + rad)), complex(-half * (1.0 - rad))
    return complex(-2.0), complex(-2.0)


def spectral_abscissa(rho: float) -> float:
    """max Re lambda of M_rho."""
    return max(lam.real for lam in eigenvalues(rho))


def assert_kernels_match(rho: float, t: float = 0.75) -> None:
    """kernel_values(rho, t) == exp(t lambda_plus), and by the trace
    lambda_plus + lambda_minus = -rho^2, exp(-t rho^2) over it == exp(t lambda_minus)."""
    lam_plus, lam_minus = eigenvalues(rho)
    plus = kernel_values(np.array([rho]), t)[0]
    assert plus == pytest.approx(np.exp(t * lam_plus), rel=1e-13, abs=0.0)
    minus = math.exp(-t * rho * rho) / plus
    assert minus == pytest.approx(np.exp(t * lam_minus), rel=1e-13, abs=0.0)


def hi_freq_identity_check(rho: float, t: float, branch: str = "plus") -> tuple[float, float]:
    """The two closed forms of the high-frequency decay exponent t lambda_branch:

    lhs = -t (rho^2/2)(1 +/- s),  rhs = -2t / (1 -/+ s),  s = sqrt(1 - 4/rho^2).
    """
    if rho <= 2.0:
        raise NumericDomainError(f"identity holds for rho > 2, got {rho}")
    sign = 1.0 if branch == "plus" else -1.0
    s = math.sqrt(1.0 - 4.0 / (rho * rho))
    return -t * (rho * rho / 2.0) * (1.0 + sign * s), -2.0 * t / (1.0 - sign * s)


def kernel_exponent(rho: float, t: float, branch: str = "plus") -> float:
    """t lambda_branch(rho) for rho > 2 from the program's kernel: the log of
    e^{t lambda_plus}, and -t rho^2 minus that for the minus branch."""
    plus = math.log(kernel_values(np.array([rho]), t)[0].real)
    return plus if branch == "plus" else -t * rho * rho - plus


def two_branch_kernel_values(rho, t: float, branch: str) -> np.ndarray:
    """e^{t lambda_branch(rho)} by masked branches: a complex exponent below
    rho = 2, a real one at and above it."""
    sign = 1.0 if branch == "plus" else -1.0
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


def kernel_band_norm(grid, t: float, p: float, band: str, j: int | None = None,
                     branch: str = "plus") -> float:
    """L^p norm of the band-limited scalar kernel F^{-1}[m_band e^{t lambda}].

    band is 'low' (smooth pass below rho ~ 1), 'high' (complement of the
    smooth pass below rho ~ 8), or 'block' with a dyadic index j.  The minus
    branch comes from the two-branch oracle.
    """
    if band == "low":
        mult = theta(2.0 * grid.rho)
    elif band == "high":
        mult = 1.0 - theta(grid.rho / 4.0)
    else:
        mult = phi_hat(j, grid.rho)
    kernel = (kernel_values(grid.rho, t) if branch == "plus"
              else two_branch_kernel_values(grid.rho, t, branch)) * mult
    return synthesised_lp_norm(grid, np.stack((kernel.real, kernel.imag)), p)


def full_tensor_probe_integral(t: float, psi, points, n_nodes: int) -> np.ndarray:
    """The probe integral from the whole n^3 weighted integrand, contracted
    with cos(x_1 xi_1) cos(x_2 xi_2) cos(x_3 xi_3) for every point, on or
    off the axes."""
    s = 1.0 / math.sqrt(t)
    x, w = np.polynomial.legendre.leggauss(n_nodes)
    x1, w1 = 0.5 * (s - 0.5 * s) * x + 0.5 * (1.5 * s), 0.5 * (s - 0.5 * s) * w
    x2, w2 = 0.5 * t ** -0.75 * (x + 1.0), 0.5 * t ** -0.75 * w
    xi1 = x1[:, None, None]
    xi2 = x2[None, :, None]
    xi3 = x2[None, None, :]
    rho = np.sqrt(xi1 ** 2 + xi2 ** 2 + xi3 ** 2)
    cutoff = psi(math.sqrt(t) * xi1, t ** 0.75 * xi2, t ** 0.75 * xi3)
    weighted = two_branch_kernel_values(rho, t, "plus") * cutoff
    weighted = weighted * (w1[:, None, None] * w2[None, :, None] * w2[None, None, :])
    flat = weighted.reshape(n_nodes, n_nodes * n_nodes)
    vals = []
    for p1, p2, p3 in points:
        t1 = (np.cos(p1 * x1) @ flat).reshape(n_nodes, n_nodes)
        vals.append(np.cos(p3 * x2) @ (np.cos(p2 * x2) @ t1))
    return 8.0 * np.abs(np.array(vals))


def reference_psi(psi: CutoffPsi, xi1, xi2, xi3) -> np.ndarray:
    """Psi written out as one expression of the three coordinates: the
    product of the shell and axial bumps exp(-1/(1 - s^2)) on |s| < 1."""
    axial = _ramp(1.0 - ((np.abs(xi1) - psi.axial_center) / psi.axial_width) ** 2)
    norm = np.sqrt(xi1 ** 2 + xi2 ** 2 + xi3 ** 2)
    return _ramp(1.0 - ((norm - psi.shell_center) / psi.shell_width) ** 2) * axial


class TestEigenvalues:
    def test_coalescence_point(self):
        lam_plus, lam_minus = eigenvalues(2.0)
        assert lam_plus == lam_minus == -2.0
        assert_kernels_match(2.0)

    def test_unit_frequency(self):
        lam_plus, lam_minus = eigenvalues(1.0)
        assert lam_plus == pytest.approx(-0.5 - 1j * math.sqrt(3) / 2)
        assert lam_minus == pytest.approx(-0.5 + 1j * math.sqrt(3) / 2)
        assert_kernels_match(1.0)

    def test_low_frequency_series(self):
        lam_plus, lam_minus = eigenvalues(0.01)
        assert abs(lam_plus - (-0.01j - 5e-5)) < 1e-6
        assert abs(lam_minus - (0.01j - 5e-5)) < 1e-6
        assert_kernels_match(0.01)

    @settings(max_examples=60, deadline=None)
    @given(st.floats(min_value=0.01, max_value=64.0))
    def test_trace_determinant_stability(self, rho):
        lam_plus, lam_minus = eigenvalues(rho)
        assert lam_plus + lam_minus == pytest.approx(-rho * rho, rel=1e-12)
        assert lam_plus * lam_minus == pytest.approx(rho * rho, rel=1e-12)
        assert lam_plus.real < 0 and lam_minus.real < 0
        assert_kernels_match(rho, t=min(1.0, 1.0 / (rho * rho)))

    def test_branch_structure(self):
        low_plus, low_minus = eigenvalues(1.5)
        assert low_plus.imag != 0
        assert low_plus == low_minus.conjugate()
        high_plus, high_minus = eigenvalues(3.0)
        assert high_plus.imag == 0 and high_minus.imag == 0
        assert high_plus.real < high_minus.real < 0
        assert_kernels_match(1.5)
        assert_kernels_match(3.0)

    def test_domain_error(self):
        with pytest.raises(NumericDomainError):
            mode_matrices(np.array([0.0]), 1.0)
        with pytest.raises(NumericDomainError):
            mode_matrices(np.array([1.0, -1.0]), 1.0)


class TestModeExponential:
    def test_identity_at_zero(self):
        assert mode_exponential(1.7, 0.0) == pytest.approx(np.eye(2), abs=0.0)

    @pytest.mark.parametrize("rho", [0.1, 1.0, 1.9, 2.0, 2.1, 4.0, 16.0])
    @pytest.mark.parametrize("t", [0.1, 1.0])
    def test_against_series_oracle(self, rho, t):
        err = np.max(np.abs(mode_exponential(rho, t) - expm_series_oracle(rho, t)))
        assert err <= 1e-12

    def test_jordan_limit_at_coalescence(self):
        expected = math.exp(-2.0) * (np.eye(2) + (generator(2.0) + 2.0 * np.eye(2)))
        assert mode_exponential(2.0, 1.0) == pytest.approx(expected, rel=1e-13)

    def test_determinant_identity(self):
        # det e^{tM} = e^{-t rho^2}; relative where representable, otherwise
        # at the double-precision cancellation scale of the entry products
        for rho in np.geomspace(0.01, 64.0, 25):
            for t in (0.0, 0.5, 3.0, 10.0):
                (m11, m12), (m21, m22) = mode_exponential(rho, t)
                target = math.exp(-t * rho * rho) if t * rho * rho < 700 else 0.0
                entry_scale = max(abs(v) for v in (m11, m12, m21, m22))
                tol = max(1e-10 * target, 64 * np.finfo(float).eps * entry_scale ** 2)
                det = m11 * m22 - m12 * m21
                assert abs(det - target) <= tol

    def test_negative_time_rejected(self):
        with pytest.raises(NumericDomainError):
            mode_exponential(1.0, -0.1)

    def test_stability_envelope(self):
        for rho in np.geomspace(0.02, 64.0, 30):
            for t in (0.1, 1.0, 5.0):
                bound = 2.0 * math.exp(t * spectral_abscissa(rho)) * (1.0 + t * rho * rho)
                assert np.max(np.abs(mode_exponential(rho, t))) <= bound


def spectral_pair(a, v):
    """The spectral (a, v) pair as one two-row array."""
    return np.array((a, v), dtype=float)


class TestApplySemigroup:
    def test_zero_time_identity(self):
        grid = make_grid(128, 10.0)
        rng = np.random.default_rng(0)
        pair = spectral_pair(rng.standard_normal(128), rng.standard_normal(128))
        assert np.array_equal(apply_semigroup(grid, pair, 0.0), pair)

    @settings(max_examples=20, deadline=None)
    @given(st.floats(min_value=0.01, max_value=3.0),
           st.floats(min_value=0.01, max_value=3.0))
    def test_semigroup_law(self, s, t):
        grid = make_grid(64, 9.0)
        rng = np.random.default_rng(5)
        pair = spectral_pair(rng.standard_normal(64), rng.standard_normal(64))
        two_legs = apply_semigroup(grid, apply_semigroup(grid, pair, s), t)
        one_leg = apply_semigroup(grid, pair, s + t)
        scale = max(np.max(np.abs(one_leg)), 1e-30)
        assert np.max(np.abs(two_legs - one_leg)) <= 1e-10 * scale

    def test_single_mode_oracle(self):
        grid = make_grid(128, 10.0)
        k0 = 17
        pair = spectral_pair(np.zeros(128), np.zeros(128))
        pair[:, k0] = 2.0, -1.0
        a2, v2 = apply_semigroup(grid, pair, 0.7)
        ea, ev = mode_exponential(grid.rho[k0], 0.7) @ [2.0, -1.0]
        assert a2[k0] == pytest.approx(ea, rel=1e-13)
        assert v2[k0] == pytest.approx(ev, rel=1e-13)
        mask = np.ones(128, dtype=bool)
        mask[k0] = False
        assert np.all(a2[mask] == 0.0)

    def test_linear_energy_identity(self):
        # each mode obeys d/dt (a^2 + v^2) = -2 rho^2 v^2, so with
        # E = 4 pi drho sum rho^2 (a^2 + v^2) and D = 4 pi drho sum rho^4 v^2,
        # E(t) + 2 int_0^t D(s) ds = E(0); the integral by Gauss-Legendre
        grid = make_grid(511, 30.0)
        rho = grid.rho
        pair = spectral_pair(2 ** -1.5 * np.exp(-rho ** 2 / 4), rho * np.exp(-rho ** 2))
        weight = 4.0 * math.pi * grid.drho

        def energy(hat):
            return weight * np.sum(rho ** 2 * (hat[0] ** 2 + hat[1] ** 2))

        def dissipation(s):
            return weight * np.sum(rho ** 4 * apply_semigroup(grid, pair, s)[1] ** 2)

        t = 2.0
        nodes, weights = np.polynomial.legendre.leggauss(64)
        integral = 0.5 * t * sum(wk * dissipation(0.5 * t * (xk + 1.0))
                                 for xk, wk in zip(nodes, weights))
        e0 = energy(pair)
        et = energy(apply_semigroup(grid, pair, t))
        assert et < e0
        assert et + 2.0 * integral == pytest.approx(e0, rel=1e-12)

    @pytest.mark.parametrize("shape", [(64,), (1, 64), (3, 64)],
                             ids=["one-field", "one-row", "three-rows"])
    def test_not_a_pair_rejected(self, shape):
        with pytest.raises(UsageError, match="pair of shape"):
            apply_semigroup(make_grid(64, 9.0), np.zeros(shape), 1.0)

    def test_pair_on_another_grid_rejected(self):
        # a pair sampled on N = 64 modes cannot be propagated on a 65-mode grid
        with pytest.raises(UsageError, match=r"\(2, 65\)"):
            apply_semigroup(make_grid(65, 9.0), np.zeros((2, 64)), 1.0)


class TestPhiCoefficients:
    def phi_oracle(self, j: int, Z: np.ndarray) -> np.ndarray:
        n = Z.shape[0]
        aug = np.zeros((n * (j + 1), n * (j + 1)))
        aug[:n, :n] = Z
        for b in range(j):
            aug[b * n:(b + 1) * n, (b + 1) * n:(b + 2) * n] = np.eye(n)
        return scipy.linalg.expm(aug)[:n, j * n:(j + 1) * n]

    # near rho = 2 and at the lowest frequencies |dt delta| falls on both
    # sides of the switch to the Gauss mean
    RHOS = ((0.006, 0.01, 0.5, 1.9, 1.999, 2.0, 2.001, 2.1, 4.0, 16.0, 103.0)
            + tuple(2.0 + sign * 10.0 ** k for k in np.linspace(-12, -2, 21) for sign in (1, -1))
            + tuple(10.0 ** np.linspace(-6, -1, 21)))

    @pytest.mark.parametrize("j", [0, 1, 2])
    def test_against_augmented_expm(self, j):
        for rho in self.RHOS:
            for dt in (0.05, 0.5, 3.0):
                c0, c1 = phi_pair_coefficients(j, np.array([rho]), dt)
                M = generator(rho)
                approx = c0[0] * np.eye(2) + c1[0] * dt * (M + rho * rho / 2 * np.eye(2))
                oracle = self.phi_oracle(j, dt * M)
                scale = np.max(np.abs(oracle))
                assert np.max(np.abs(approx - oracle)) <= 1e-12 * scale
                entries = np.reshape(mode_function_entries(j, np.array([rho]), dt), (2, 2))
                assert np.max(np.abs(entries - oracle)) <= 1e-12 * scale


class TestHighFrequencyIdentity:
    @pytest.mark.parametrize("rho", [2.0001, 2.1, 4.0, 16.0])
    @pytest.mark.parametrize("branch", ["plus", "minus"])
    def test_forms_agree(self, rho, branch):
        lhs, rhs = hi_freq_identity_check(rho, 1.0, branch)
        assert lhs == pytest.approx(rhs, rel=1e-12)
        assert math.isfinite(lhs)
        assert kernel_exponent(rho, 1.0, branch) == pytest.approx(rhs, rel=1e-12)

    def test_reference_value(self):
        lhs, rhs = hi_freq_identity_check(4.0, 1.0, "minus")
        expected = -8.0 * (1.0 - math.sqrt(3) / 2.0)
        assert lhs == pytest.approx(expected, rel=1e-14)
        assert rhs == pytest.approx(-2.0 / (1.0 + math.sqrt(3) / 2.0), rel=1e-14)

    def test_near_degenerate(self):
        lhs, rhs = hi_freq_identity_check(2.0001, 3.7)
        assert lhs == pytest.approx(rhs, rel=1e-9)
        assert kernel_exponent(2.0001, 3.7) == pytest.approx(rhs, rel=1e-9)

    def test_zero_time(self):
        assert hi_freq_identity_check(5.0, 0.0)[0] == 0.0
        assert kernel_values(np.array([5.0]), 0.0)[0] == 1.0

    def test_domain(self):
        with pytest.raises(NumericDomainError):
            hi_freq_identity_check(2.0, 1.0)
        with pytest.raises(NumericDomainError):
            hi_freq_identity_check(1.0, 1.0)
        # there the exponent is complex, and the kernel decays as e^{-t rho^2/2}
        for rho in (1.0, 2.0):
            modulus = abs(kernel_values(np.array([rho]), 3.0)[0])
            assert modulus == pytest.approx(math.exp(-1.5 * rho * rho), rel=1e-14)


class TestScalarKernelValues:
    @pytest.mark.parametrize("branch", ["plus", "minus"])
    @pytest.mark.parametrize("t", [0.01, 0.25, 1.0])
    def test_matches_two_branch_oracle(self, branch, t):
        near_two = [np.nextafter(2.0, 0.0), 2.0, np.nextafter(2.0, 3.0)]
        rho = np.concatenate((np.linspace(40.0 / 20000, 40.0, 20000), near_two))
        want = two_branch_kernel_values(rho, t, branch)
        assert np.count_nonzero(want) > 10000
        got = kernel_values(rho, t)
        if branch == "minus":
            # below coalescence the minus branch is the plus kernel's conjugate
            low = rho < 2.0
            got, want = np.conj(got[low]), want[low]
        np.testing.assert_allclose(got, want, rtol=4.4e-16, atol=0.0)

    @pytest.mark.parametrize("branch, t", [("oscillating", 4.0), ("oscillating", 16.0),
                                           ("oscillating", 256.0), ("hyperbolic", 0.25),
                                           ("hyperbolic", 1.0), ("hyperbolic", 4.0)])
    def test_one_branch_arrays(self, branch, t):
        # arrays wholly on one side of rho = 2, so that a shortcut for either
        # side is covered: the probe's rho <= 0.71 at its times, and rho in
        # [2, 3] at times short enough that no value underflows
        rho = (np.linspace(0.71 / 4000, 0.71, 4000) if branch == "oscillating"
               else np.linspace(2.0, 3.0, 4000))
        want = two_branch_kernel_values(rho, t, "plus")
        assert np.count_nonzero(want) == rho.size
        np.testing.assert_allclose(kernel_values(rho, t), want, rtol=4.4e-16, atol=0.0)
        # a single frequency as a one-element array gives its two parts
        re, im = scalar_kernel_parts(rho[-1:] ** 2, t)
        np.testing.assert_allclose(re + 1j * im, want[-1:], rtol=4.4e-16, atol=0.0)

    @pytest.mark.parametrize("t", [0.0, 0.5, 4.0, 16.0, 256.0])
    def test_real_form_matches_closed_form(self, t):
        # the real-arithmetic parts over rho in (0, 17] and exactly at rho = 2,
        # against the two-branch complex closed form; the absolute floor only
        # covers values that underflow (e^{-t rho^2/2} below 1e-300)
        rho = np.append(np.linspace(17.0 / 5000, 17.0, 5000), 2.0)
        want = two_branch_kernel_values(rho, t, "plus")
        np.testing.assert_allclose(kernel_values(rho, t), want, rtol=1e-13, atol=1e-300)


class TestKernelBandNorms:
    def test_low_band_l2_slope(self):
        grid = make_grid(8192, 700.0)
        times = [16.0, 64.0, 256.0]
        vals = [kernel_band_norm(grid, t, 2.0, "low") for t in times]
        slope = -np.polyfit(np.log(times), np.log(vals), 1)[0]
        assert slope == pytest.approx(0.75, abs=0.05)

    def test_high_band_exponential(self):
        grid = make_grid(2048, 50.0)
        n4 = kernel_band_norm(grid, 4.0, 2.0, "high")
        n8 = kernel_band_norm(grid, 8.0, 2.0, "high")
        assert n8 / n4 <= math.exp(-0.5 * 4.0)

    def test_small_time_bounded(self):
        grid = make_grid(2048, 50.0)
        val = kernel_band_norm(grid, 1e-4, 2.0, "low")
        assert math.isfinite(val)
        assert val < 10.0

    def test_block_band(self):
        grid = make_grid(2048, 50.0)
        val = kernel_band_norm(grid, 2.0, math.inf, "block", j=0)
        assert 0 < val < math.inf

    def test_branches_agree_in_modulus(self):
        grid = make_grid(1024, 60.0)
        a = kernel_band_norm(grid, 5.0, 2.0, "low", branch="plus")
        b = kernel_band_norm(grid, 5.0, 2.0, "low", branch="minus")
        assert a == pytest.approx(b, rel=1e-12)


class TestCutoffPsi:
    def test_support_containment(self):
        psi = CutoffPsi()
        rng = np.random.default_rng(2)
        xi = rng.uniform(-1.5, 1.5, size=(20000, 3))
        vals = psi(xi[:, 0], xi[:, 1], xi[:, 2])
        norms = np.linalg.norm(xi, axis=1)
        outside = (norms <= 0.5) | (norms >= 1.0) | (np.abs(xi[:, 0]) < 0.5)
        assert np.all(vals[outside] == 0.0)
        assert np.all(vals >= 0.0)

    def test_even(self):
        psi = CutoffPsi()
        rng = np.random.default_rng(3)
        xi = rng.uniform(-1.0, 1.0, size=(200, 3))
        a = psi(xi[:, 0], xi[:, 1], xi[:, 2])
        b = psi(-xi[:, 0], -xi[:, 1], -xi[:, 2])
        assert np.array_equal(a, b)

    def test_not_identically_zero(self):
        psi = CutoffPsi()
        assert psi(0.7, 0.0, 0.2) > 0.0


class TestKernelProbe:
    def test_origin_against_simpson_oracle(self):
        # coordinate 0 on the axial and on the transverse side is the origin
        t = 16.0
        psi = CutoffPsi()
        mine = _probe_integral(t, psi, (np.zeros(1), np.zeros(1)), 128)
        s = t ** -0.5
        x1 = np.linspace(s / 2, s, 129)
        x23 = np.linspace(0.0, t ** -0.75, 129)
        X1 = x1[:, None, None]
        X2 = x23[None, :, None]
        X3 = x23[None, None, :]
        rho = np.sqrt(X1 ** 2 + X2 ** 2 + X3 ** 2)
        kern = kernel_values(rho.ravel(), t).reshape(rho.shape)
        cut = psi(math.sqrt(t) * X1, t ** 0.75 * X2, t ** 0.75 * X3)
        inner = simpson(simpson(kern * cut, x=x23, axis=2), x=x23, axis=1)
        oracle = 8.0 * abs(simpson(inner, x=x1, axis=0))
        assert mine == pytest.approx([oracle, oracle], rel=1e-5)

    def test_zero_cutoff_gives_zero(self):
        class ZeroPsi(CutoffPsi):
            def from_squares(self, xi1, axial, xi2_sq, xi3_sq):
                return np.zeros(np.broadcast(np.asarray(xi1), np.asarray(xi2_sq),
                                             np.asarray(xi3_sq)).shape)

        assert kernel_probe(16.0, ZeroPsi()) == 0.0

    def test_all_zero_coarse_pass_does_not_end_refinement(self):
        # at n = 32 no node reaches this narrow axial bump, so the first sup is
        # exactly 0; n = 64 / 128 / 256 read 4.0e-6 / 3.3e-6 / 3.6e-6, so a
        # zero coarse pass must not end the refinement
        psi = CutoffPsi(axial_width=0.01)
        assert _probe_integral(16.0, psi, probe_coordinates(16.0), 32).max() == 0.0
        with pytest.raises(SolverAbort, match="max_nodes = 256"):
            kernel_probe(16.0, psi)

    def test_unconverged_refinement_raises(self):
        # 32 -> 64 nodes changes the sup far more than 1e-12: no silent return
        with pytest.raises(SolverAbort, match=r"max_nodes = 64: last relative change") as err:
            kernel_probe(16.0, CutoffPsi(), max_nodes=64, refine_rtol=1e-12)
        assert err.value.time == 16.0

    def test_small_time_rejected(self):
        with pytest.raises(NumericDomainError):
            kernel_probe(2.0, CutoffPsi())

    @pytest.mark.parametrize("t", [math.nan, math.inf])
    def test_non_finite_time_rejected_before_quadrature(self, t, monkeypatch):
        def no_quadrature(*args):
            raise AssertionError("quadrature ran for a non-finite time")

        monkeypatch.setattr("radns.semigroup._probe_integral", no_quadrature)
        with pytest.raises(NumericDomainError, match="finite t >= 4"):
            kernel_probe(t, CutoffPsi())

    def test_probe_grid_shape(self):
        axial, transverse = probe_coordinates(16.0)
        assert axial.shape == (256,) and transverse.shape == (64,)
        assert axial[0] == transverse[0] == 0.0
        assert axial[-1] == pytest.approx(4.0 * 16.0)
        assert transverse[-1] == pytest.approx(4.0 * 16.0 ** 0.75)


#: the default shell (outer radius 0.875), a narrow one (0.8) and a wide one
#: (1.05) that reaches past every slab, so that no slab is skipped
PROBE_CUTOFFS = {"default": CutoffPsi(),
                 "narrow-shell": CutoffPsi(shell_width=0.05),
                 "wide-shell": CutoffPsi(shell_width=0.3)}
ORACLE_CASES = [pytest.param(t, n, name, id=f"{t}-{n}" + ("" if name == "default" else f"-{name}"))
                for name in PROBE_CUTOFFS for n in (32, 64) for t in (16.0, 64.0, 256.0)]
SUPPORT_CASES = [pytest.param(t, name, id=f"{t}" + ("" if name == "default" else f"-{name}"))
                 for name in PROBE_CUTOFFS for t in (16.0, 256.0)]
#: share of the n = 32 box that each cutoff's probe evaluates, as measured
#: (0.13596, 0.05298, 0.36456), rounded up
SUPPORT_FRACTIONS = {"default": 0.1360, "narrow-shell": 0.0530, "wide-shell": 0.3646}


class TestProbeIntegral:
    def test_cached_rule_is_leggauss_read_only(self):
        # every probe call at one node count shares the rule, so no caller
        # may write to it, and it keeps every bit of numpy's
        for n in (32, 64, 128, 256):
            nodes, weights = _gauss_legendre(n)
            assert _gauss_legendre(n)[0] is nodes
            assert not nodes.flags.writeable and not weights.flags.writeable
            x, w = np.polynomial.legendre.leggauss(n)
            assert np.array_equal(nodes, x) and np.array_equal(weights, w)

    @pytest.mark.parametrize("t, n_nodes, cutoff", ORACLE_CASES)
    def test_matches_full_tensor_oracle(self, t, n_nodes, cutoff):
        psi = PROBE_CUTOFFS[cutoff]
        axial, transverse = probe_coordinates(t)
        got = _probe_integral(t, psi, (axial, transverse), n_nodes)

        def oracle(coord, axis):
            points = np.zeros((len(coord), 3))
            points[:, axis] = coord
            return full_tensor_probe_integral(t, psi, points, n_nodes)

        # axial values at (x, 0, 0), then transverse values at (0, x, 0); the
        # x_3 axis reads the x_2 values, so one transverse set covers both
        on_x2 = oracle(transverse, 1)
        np.testing.assert_allclose(got, np.concatenate((oracle(axial, 0), on_x2)),
                                   rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(oracle(transverse, 2), on_x2, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("t, cutoff", SUPPORT_CASES)
    def test_skipped_nodes_outside_support(self, t, cutoff):
        # record each (xi_2, xi_3) node pair a slab passes to Psi, and its
        # mirror, then evaluate Psi on the whole n^3 box: it must be exactly 0
        # on every node never evaluated, the inner hole of the annulus included
        n = 32
        psi = PROBE_CUTOFFS[cutoff]
        x, _ = np.polynomial.legendre.leggauss(n)
        scaled1 = 0.75 + 0.25 * x          # t^{1/2} xi_1 over [1/2, 1]
        scaled23 = 0.5 * (x + 1.0)         # t^{3/4} xi_{2,3} over [0, 1]
        evaluated = np.zeros((n, n, n), dtype=bool)
        slabs = {}

        def nearest(nodes, values):
            return np.argmin(np.abs(np.asarray(values, float)[..., None] - nodes), axis=-1)

        class RecordingPsi(CutoffPsi):
            def from_squares(self, xi1, axial, xi2_sq, xi3_sq):
                i = nearest(scaled1, xi1)
                j, l = nearest(scaled23, np.sqrt(xi2_sq)), nearest(scaled23, np.sqrt(xi3_sq))
                evaluated[i, j, l] = evaluated[i, l, j] = True
                assert int(i) not in slabs
                slabs[int(i)] = (np.size(xi2_sq), set(zip(j.tolist(), l.tolist())))
                return super().from_squares(xi1, axial, xi2_sq, xi3_sq)

        _probe_integral(t, RecordingPsi(**dataclasses.asdict(psi)), probe_coordinates(t), n)
        # each slab evaluates every pair j >= l whose squared radius lies in
        # its band, each once, and a slab with an empty band calls Psi not at all
        inner, outer = psi.transverse_band(scaled1)
        radius_sq = scaled23[:, None] ** 2 + scaled23[None, :] ** 2
        for i in range(n):
            in_band = ((radius_sq >= inner[i] ** 2 - _BAND_MARGIN)
                       & (radius_sq <= outer[i] ** 2 + _BAND_MARGIN))
            band = set(zip(*(index.tolist() for index in np.nonzero(np.tril(in_band)))))
            assert (i in slabs) == bool(band)
            size, pairs = slabs.get(i, (0, set()))
            assert size == len(pairs) and pairs == band
        full = psi(scaled1[:, None, None], scaled23[None, :, None], scaled23[None, None, :])
        assert np.all(full[~evaluated] == 0.0)
        hole = scaled1[:, None, None] ** 2 + radius_sq[None] < (psi.shell_center - psi.shell_width) ** 2
        assert np.any(hole) == (cutoff != "wide-shell") and not np.any(evaluated & hole)
        # Psi is nonzero on 0.1358 (default), 0.0529 (narrow) and 0.3644 (wide)
        assert np.count_nonzero(evaluated) <= SUPPORT_FRACTIONS[cutoff] * n ** 3

    @pytest.mark.parametrize("cutoff", PROBE_CUTOFFS)
    @pytest.mark.parametrize("n", [32, 256])
    @pytest.mark.parametrize("t", [16.0, 64.0, 256.0])
    def test_psi_from_squares_is_psi(self, t, n, cutoff):
        # a slab evaluates Psi from the squares and axial bumps the probe holds
        # once per call; on every slab's points that is __call__ on the
        # coordinates, and the one-expression reference, bit for bit
        psi = PROBE_CUTOFFS[cutoff]
        slabs = []

        class RecordingPsi(CutoffPsi):
            def from_squares(self, xi1, axial, xi2_sq, xi3_sq):
                value = super().from_squares(xi1, axial, xi2_sq, xi3_sq)
                slabs.append((xi1, xi2_sq, xi3_sq, value))
                return value

        _probe_integral(t, RecordingPsi(**dataclasses.asdict(psi)), probe_coordinates(t), n)
        assert len(slabs) >= n // 4
        for xi1, xi2_sq, xi3_sq, value in slabs:
            xi2, xi3 = np.sqrt(xi2_sq), np.sqrt(xi3_sq)
            assert np.array_equal(xi2 ** 2, xi2_sq) and np.array_equal(xi3 ** 2, xi3_sq)
            assert np.array_equal(value, psi(xi1, xi2, xi3))
            assert np.array_equal(value, reference_psi(psi, xi1, xi2, xi3))

    def test_memory_below_one_tensor(self):
        # the marginals are summed slab by slab: no n^3 array is ever built
        n = 128
        tracemalloc.start()
        try:
            _probe_integral(16.0, CutoffPsi(), probe_coordinates(16.0), n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n ** 3 * 8
