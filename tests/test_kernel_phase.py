"""Accuracy of the unit-circle factor of e^{t lambda_+} in scalar_kernel_parts.

scalar_kernel_parts builds cos theta and -sin theta from one tangent
tan(-theta/2).  The oracle is e^x (cos phi, sin phi) in long double, at the
float64 exponent x = -t rho^2/2 and phase phi = -theta = sqrt(4/rho^2 - 1) x
that the function's docstring defines, so only the factor and its product
with e^x are measured, not the rounding of the phase itself.

Each part's error is taken relative to the kernel's modulus e^x, in units of
eps = 2^-52.  The bound is 2.5 ulp.  Over 1.5 M random points the tangent form
read at most 2.07 ulp with numpy 2.4.6 on x86-64 (AVX-512 tan), and libm's cos
and sin 1.23 ulp.  A numpy that dispatches float64 tan differently is held to
the same bound.

Only numpy and pytest are needed, so the numpy-only CI job runs this file.
"""

import numpy as np
import pytest

from radns.semigroup import scalar_kernel_parts

EPS = np.finfo(np.float64).eps
ULP_BOUND = 2.5
TIMES = [4.0, 16.0, 64.3, 256.0, 4096.0, 2.0 ** 17]
PI = 4.0 * np.arctan(np.longdouble(1.0))

needs_long_double = pytest.mark.skipif(
    np.finfo(np.longdouble).nmant <= np.finfo(np.float64).nmant,
    reason="long double is no wider than double on this platform, so it cannot be the oracle")


def exponent_and_phase(rho_sq: np.ndarray, t: float) -> tuple[np.ndarray, np.ndarray]:
    """The float64 x and phi of the oscillating branch (rho < 2)."""
    x = rho_sq * (-0.5 * t)
    return x, np.sqrt(4.0 / rho_sq - 1.0) * x


def oracle(rho_sq: np.ndarray, t: float) -> tuple[np.ndarray, np.ndarray]:
    """(e^x cos phi, e^x sin phi) in long double, and e^x."""
    x, phase = exponent_and_phase(rho_sq, t)
    modulus = np.exp(x.astype(np.longdouble))
    phase = phase.astype(np.longdouble)
    return np.stack([modulus * np.cos(phase), modulus * np.sin(phase)]), modulus


def ulp_error(rho_sq: np.ndarray, t: float) -> float:
    """Largest error of either part, relative to e^x, in units of eps."""
    want, modulus = oracle(rho_sq, t)
    return float(np.max(np.abs(scalar_kernel_parts(rho_sq, t) - want) / modulus) / EPS)


@needs_long_double
@pytest.mark.parametrize("t", TIMES)
def test_random_points_within_bound(t):
    # rho uniform in (0, 2), cut where e^x would leave the normal float64 range
    rng = np.random.default_rng(31)
    top = min(2.0, np.sqrt(2.0 * 700.0 / t))
    rho = rng.uniform(0.0, top, 250_000)
    rho_sq = np.square(rho[rho > 0.0])
    assert ulp_error(rho_sq, t) <= ULP_BOUND


@needs_long_double
@pytest.mark.parametrize("t", TIMES)
def test_phases_at_odd_multiples_of_pi(t):
    # theta = (2k+1) pi sends tan(theta/2) to +-inf: the squared frequencies
    # whose float64 phase lands at, or within a few ulp either side of, an
    # odd multiple of pi
    top = min(2.0, 2.0 * 700.0 / t)             # rho^2 where e^x stays normal
    top_theta = 0.99 * t * np.sqrt(top - top * top / 4.0)
    odd = np.unique(np.linspace(0, (top_theta / np.pi - 1.0) / 2.0, 4).astype(int)) * 2 + 1
    for m in odd:
        s = m * np.pi / t
        centre = 2.0 * s * s / (1.0 + np.sqrt(1.0 - s * s))  # theta(rho) = m pi
        rho_sq = centre * (1.0 + EPS * np.arange(-48, 49))
        offset = exponent_and_phase(rho_sq, t)[1].astype(np.longdouble) + m * PI
        assert offset.min() < 0.0 < offset.max()
        assert np.min(np.abs(offset)) <= 4.0 * np.spacing(m * np.pi)
        assert ulp_error(rho_sq, t) <= ULP_BOUND


@pytest.mark.parametrize("t", [0.25, 4.0, 16.0, 256.0])
def test_hyperbolic_branch_exact(t):
    # from rho = 2 on the kernel is real: (e^x, -0) with the float64 exponent
    # x = (-t rho^2/2)(1 + sqrt(1 - 4/rho^2)), bit for bit and with the sign
    # of zero, also beside oscillating entries in the same array
    rho = np.append(np.linspace(0.5, 3.0, 2001), 2.0)
    rho_sq = rho * rho
    hyperbolic = rho >= 2.0
    parts = scalar_kernel_parts(rho_sq, t)[:, hyperbolic]
    r2 = rho_sq[hyperbolic]
    x = r2 * (-0.5 * t) * (1.0 + np.sqrt(1.0 - 4.0 / r2))
    assert np.array_equal(parts[0], np.exp(x))
    assert np.array_equal(parts[1], np.zeros_like(x))
    assert np.all(np.signbit(parts[1]))


def test_nan_propagates():
    with np.errstate(invalid="ignore"):
        parts = scalar_kernel_parts(np.array([np.nan, 1.0, 5.0]), 16.0)
        all_nan = scalar_kernel_parts(np.array([1.0, 5.0]), np.nan)
    assert np.all(np.isnan(parts[:, 0]))
    assert np.all(np.isfinite(parts[:, 1:]))
    assert np.all(np.isnan(all_nan))
