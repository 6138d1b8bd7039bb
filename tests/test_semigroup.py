"""Propagator, eigenvalue, kernel-norm, and probe tests.

The matrix-exponential oracle is an independent 40-term scaled-and-squared
power series; phi coefficients (phi_0 = exp included) are checked against
augmented-matrix expm; the closed-form eigenvalues below are the oracle for
the scalar kernels e^{t lambda}.
"""

import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st
from scipy.integrate import simpson

from radns.errors import NumericDomainError, SolverAbort, UsageError
from radns.semigroup import (
    CutoffPsi,
    apply_semigroup,
    default_cutoff,
    hi_freq_identity_check,
    kernel_band_norm,
    kernel_probe,
    mode_exponential,
    mode_matrices,
    phi_pair_coefficients,
    probe_point_grid,
    scalar_kernel_values,
)
from radns.spectral import field_from_samples, make_grid, zero_field


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


def as_array(mm) -> np.ndarray:
    return np.array([[mm.m11, mm.m12], [mm.m21, mm.m22]])


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
    """scalar_kernel_values(rho, t, branch) == exp(t lambda_branch)."""
    lam_plus, lam_minus = eigenvalues(rho)
    for branch, lam in (("plus", lam_plus), ("minus", lam_minus)):
        value = scalar_kernel_values(np.array([rho]), t, branch)[0]
        assert value == pytest.approx(np.exp(t * lam), rel=1e-13, abs=0.0)


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
        mm = mode_exponential(1.7, 0.0)
        assert as_array(mm) == pytest.approx(np.eye(2), abs=0.0)

    @pytest.mark.parametrize("rho", [0.1, 1.0, 1.9, 2.0, 2.1, 4.0, 16.0])
    @pytest.mark.parametrize("t", [0.1, 1.0])
    def test_against_series_oracle(self, rho, t):
        err = np.max(np.abs(as_array(mode_exponential(rho, t))
                            - expm_series_oracle(rho, t)))
        assert err <= 1e-12

    def test_jordan_limit_at_coalescence(self):
        mm = mode_exponential(2.0, 1.0)
        expected = math.exp(-2.0) * (np.eye(2) + (generator(2.0) + 2.0 * np.eye(2)))
        assert as_array(mm) == pytest.approx(expected, rel=1e-13)

    def test_determinant_identity(self):
        # det e^{tM} = e^{-t rho^2}; relative where representable, otherwise
        # at the double-precision cancellation scale of the entry products
        for rho in np.geomspace(0.01, 64.0, 25):
            for t in (0.0, 0.5, 3.0, 10.0):
                mm = mode_exponential(rho, t)
                target = math.exp(-t * rho * rho) if t * rho * rho < 700 else 0.0
                entry_scale = max(abs(v) for v in
                                  (mm.m11, mm.m12, mm.m21, mm.m22))
                tol = max(1e-10 * target, 64 * np.finfo(float).eps * entry_scale ** 2)
                det = mm.m11 * mm.m22 - mm.m12 * mm.m21
                assert abs(det - target) <= tol

    def test_negative_time_rejected(self):
        with pytest.raises(NumericDomainError):
            mode_exponential(1.0, -0.1)

    def test_stability_envelope(self):
        for rho in np.geomspace(0.02, 64.0, 30):
            for t in (0.1, 1.0, 5.0):
                mm = mode_exponential(rho, t)
                bound = 2.0 * math.exp(t * spectral_abscissa(rho)) * (1.0 + t * rho * rho)
                assert max(abs(v) for v in
                           (mm.m11, mm.m12, mm.m21, mm.m22)) <= bound


class TestApplySemigroup:
    def test_zero_time_identity(self):
        grid = make_grid(128, 10.0)
        rng = np.random.default_rng(0)
        a = field_from_samples(grid, rng.standard_normal(128), "spectral")
        v = field_from_samples(grid, rng.standard_normal(128), "spectral")
        a2, v2 = apply_semigroup(a, v, 0.0)
        assert np.array_equal(a2.values, a.values)
        assert np.array_equal(v2.values, v.values)

    @settings(max_examples=20, deadline=None)
    @given(st.floats(min_value=0.01, max_value=3.0),
           st.floats(min_value=0.01, max_value=3.0))
    def test_semigroup_law(self, s, t):
        grid = make_grid(64, 9.0)
        rng = np.random.default_rng(5)
        a = field_from_samples(grid, rng.standard_normal(64), "spectral")
        v = field_from_samples(grid, rng.standard_normal(64), "spectral")
        a1, v1 = apply_semigroup(*apply_semigroup(a, v, s), t)
        a2, v2 = apply_semigroup(a, v, s + t)
        scale = max(np.max(np.abs(a2.values)), np.max(np.abs(v2.values)), 1e-30)
        assert np.max(np.abs(a1.values - a2.values)) <= 1e-10 * scale
        assert np.max(np.abs(v1.values - v2.values)) <= 1e-10 * scale

    def test_single_mode_oracle(self):
        grid = make_grid(128, 10.0)
        k0 = 17
        a = zero_field(grid, "spectral")
        v = zero_field(grid, "spectral")
        a.values[k0] = 2.0
        v.values[k0] = -1.0
        a2, v2 = apply_semigroup(a, v, 0.7)
        mm = mode_exponential(grid.rho[k0], 0.7)
        ea, ev = mm.m11 * 2.0 - mm.m12, mm.m21 * 2.0 - mm.m22
        assert a2.values[k0] == pytest.approx(ea, rel=1e-13)
        assert v2.values[k0] == pytest.approx(ev, rel=1e-13)
        mask = np.ones(128, dtype=bool)
        mask[k0] = False
        assert np.all(a2.values[mask] == 0.0)

    def test_grid_mismatch_rejected(self):
        a = zero_field(make_grid(64, 9.0), "spectral")
        v = zero_field(make_grid(64, 10.0), "spectral")
        with pytest.raises(UsageError):
            apply_semigroup(a, v, 1.0)

    def test_physical_space_rejected(self):
        grid = make_grid(64, 9.0)
        with pytest.raises(UsageError):
            apply_semigroup(zero_field(grid), zero_field(grid, "spectral"), 1.0)


class TestPhiCoefficients:
    def phi_oracle(self, j: int, Z: np.ndarray) -> np.ndarray:
        n = Z.shape[0]
        aug = np.zeros((n * (j + 1), n * (j + 1)))
        aug[:n, :n] = Z
        for b in range(j):
            aug[b * n:(b + 1) * n, (b + 1) * n:(b + 2) * n] = np.eye(n)
        return scipy.linalg.expm(aug)[:n, j * n:(j + 1) * n]

    @pytest.mark.parametrize("j", [0, 1, 2])
    def test_against_augmented_expm(self, j):
        for rho in (0.006, 0.01, 0.5, 1.9, 1.999, 2.0, 2.001, 2.1, 4.0, 16.0, 103.0):
            for dt in (0.05, 0.5):
                c0, c1 = phi_pair_coefficients(j, np.array([rho]), dt)
                M = generator(rho)
                approx = c0[0] * np.eye(2) + c1[0] * dt * (M + rho * rho / 2 * np.eye(2))
                oracle = self.phi_oracle(j, dt * M)
                scale = np.max(np.abs(oracle))
                assert np.max(np.abs(approx - oracle)) <= 1e-12 * scale


class TestHighFrequencyIdentity:
    @pytest.mark.parametrize("rho", [2.0001, 2.1, 4.0, 16.0])
    @pytest.mark.parametrize("branch", ["plus", "minus"])
    def test_forms_agree(self, rho, branch):
        lhs, rhs = hi_freq_identity_check(rho, 1.0, branch)
        assert lhs == pytest.approx(rhs, rel=1e-12)
        assert math.isfinite(lhs)

    def test_reference_value(self):
        lhs, rhs = hi_freq_identity_check(4.0, 1.0, "minus")
        expected = -8.0 * (1.0 - math.sqrt(3) / 2.0)
        assert lhs == pytest.approx(expected, rel=1e-14)
        assert rhs == pytest.approx(-2.0 / (1.0 + math.sqrt(3) / 2.0), rel=1e-14)

    def test_near_degenerate(self):
        lhs, rhs = hi_freq_identity_check(2.0001, 3.7, "plus")
        assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_zero_time(self):
        assert hi_freq_identity_check(5.0, 0.0, "plus") == (0.0, -0.0) or \
            hi_freq_identity_check(5.0, 0.0, "plus")[0] == 0.0

    def test_domain(self):
        with pytest.raises(NumericDomainError):
            hi_freq_identity_check(2.0, 1.0)
        with pytest.raises(NumericDomainError):
            hi_freq_identity_check(1.0, 1.0)


class TestBranchValidation:
    def test_misspelt_branch_rejected(self):
        # "plsu" used to be read as "minus" with no error
        grid = make_grid(256, 20.0)
        with pytest.raises(UsageError, match="branch must be 'plus' or 'minus'"):
            scalar_kernel_values([1.0, 3.0], 1.0, "plsu")
        with pytest.raises(UsageError, match="branch must be 'plus' or 'minus'"):
            kernel_band_norm(grid, 5.0, 2.0, "low", branch="plsu")
        with pytest.raises(UsageError, match="branch must be 'plus' or 'minus'"):
            kernel_probe(16.0, default_cutoff(), [(0.0, 0.0, 0.0)], branch="plsu")


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
        psi = default_cutoff()
        rng = np.random.default_rng(2)
        xi = rng.uniform(-1.5, 1.5, size=(20000, 3))
        vals = psi(xi[:, 0], xi[:, 1], xi[:, 2])
        norms = np.linalg.norm(xi, axis=1)
        outside = (norms <= 0.5) | (norms >= 1.0) | (np.abs(xi[:, 0]) < 0.5)
        assert np.all(vals[outside] == 0.0)
        assert np.all(vals >= 0.0)

    def test_even(self):
        psi = default_cutoff()
        rng = np.random.default_rng(3)
        xi = rng.uniform(-1.0, 1.0, size=(200, 3))
        a = psi(xi[:, 0], xi[:, 1], xi[:, 2])
        b = psi(-xi[:, 0], -xi[:, 1], -xi[:, 2])
        assert np.array_equal(a, b)

    def test_not_identically_zero(self):
        psi = default_cutoff()
        assert psi(0.7, 0.0, 0.2) > 0.0


class TestKernelProbe:
    def test_origin_against_simpson_oracle(self):
        t = 16.0
        psi = default_cutoff()
        mine = kernel_probe(t, psi, [(0.0, 0.0, 0.0)])
        s = t ** -0.5
        x1 = np.linspace(s / 2, s, 129)
        x23 = np.linspace(0.0, t ** -0.75, 129)
        X1 = x1[:, None, None]
        X2 = x23[None, :, None]
        X3 = x23[None, None, :]
        rho = np.sqrt(X1 ** 2 + X2 ** 2 + X3 ** 2)
        kern = scalar_kernel_values(rho.ravel(), t, "plus").reshape(rho.shape)
        cut = psi(math.sqrt(t) * X1, t ** 0.75 * X2, t ** 0.75 * X3)
        inner = simpson(simpson(kern * cut, x=x23, axis=2), x=x23, axis=1)
        oracle = 8.0 * abs(simpson(inner, x=x1, axis=0))
        assert mine == pytest.approx(oracle, rel=1e-5)

    def test_zero_cutoff_gives_zero(self):
        class ZeroPsi(CutoffPsi):
            def __call__(self, xi1, xi2, xi3):
                return np.zeros(np.broadcast(np.asarray(xi1), np.asarray(xi2),
                                             np.asarray(xi3)).shape)

        assert kernel_probe(16.0, ZeroPsi(), [(0.0, 0.0, 0.0)]) == 0.0

    def test_unconverged_refinement_raises(self):
        # 4 -> 8 nodes changes the sup far more than 1e-12: no silent return
        with pytest.raises(SolverAbort, match=r"max_nodes = 8: last relative change") as err:
            kernel_probe(16.0, default_cutoff(), probe_point_grid(16.0),
                         n_nodes=4, max_nodes=8, refine_rtol=1e-12)
        assert err.value.time == 16.0

    def test_empty_probe_set_rejected(self):
        with pytest.raises(UsageError):
            kernel_probe(16.0, default_cutoff(), [])

    def test_small_time_rejected(self):
        with pytest.raises(NumericDomainError):
            kernel_probe(2.0, default_cutoff(), [(0.0, 0.0, 0.0)])

    def test_probe_grid_shape(self):
        pts = probe_point_grid(16.0)
        assert pts.shape[1] == 3
        assert len(pts) == 256 + 2 * 64
        assert pts[:, 0].max() == pytest.approx(4.0 * 16.0)
