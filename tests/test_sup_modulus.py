"""spectral.sup_modulus against the full-modulus sups it replaces, bit for bit.

numpy and pytest only, so the numpy-only CI job runs it.  The helper picks
candidate nodes from the squared moduli and re-checks the exact modulus
there; these tests hold it to the float that the max of the full modulus
gives, for one- and two-row inputs, across ties, plateaus, magnitudes near
the edges of its square range, and rows holding NaN or +-inf.
"""

import math

import numpy as np
import pytest

from radns.spectral import lp_norm, make_grid, modulus, sup_modulus


def weighted_sup_norm(grid, values):
    """sup_r r |f(r)| of the samples `values` at r_m, the radial form of
    || |x| f ||_inf: the closed form the library once exposed, kept as the
    oracle of the weighted sup_modulus."""
    return float(np.max(grid.r * np.abs(values), initial=0.0))


GRID = make_grid(257, 30.0)


def same_bits(x: float, y: float) -> bool:
    return np.float64(x).tobytes() == np.float64(y).tobytes()


def assert_matches_oracles(rows):
    """The plain sup against lp_norm(grid, modulus(rows), inf) and the
    weighted one against max(r * modulus(rows)), both bit for bit."""
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    full = modulus(rows)
    plain, plain_oracle = sup_modulus(rows), lp_norm(GRID, full, math.inf)
    weighted, weighted_oracle = sup_modulus(rows, GRID.r), weighted_sup_norm(GRID, full)
    assert same_bits(plain, plain_oracle), (plain, plain_oracle)
    assert same_bits(weighted, weighted_oracle), (weighted, weighted_oracle)


def random_rows(rng, n_rows, scale=1.0):
    return scale * rng.standard_normal((n_rows, GRID.n_modes))


@pytest.mark.parametrize("n_rows", [1, 2])
def test_random_rows(n_rows):
    rng = np.random.default_rng(5)
    for _ in range(200):
        assert_matches_oracles(random_rows(rng, n_rows))


@pytest.mark.parametrize("n_rows", [1, 2])
def test_rows_of_rounded_near_ties(n_rows):
    """Values on a coarse lattice, where many nodes share a squared modulus
    and the moduli of near-equal pairs differ in their last bits."""
    rng = np.random.default_rng(6)
    for _ in range(200):
        rows = rng.integers(-8, 9, size=(n_rows, GRID.n_modes)) * (1.0 + 2.0 ** -52)
        rows += rng.integers(-2, 3, size=rows.shape) * 2.0 ** -50
        assert_matches_oracles(rows)


@pytest.mark.parametrize("n_rows", [1, 2])
def test_exact_ties(n_rows):
    rows = np.zeros((n_rows, GRID.n_modes))
    rows[0, [3, 90, 200]] = [-2.5, 2.5, 2.5]
    if n_rows == 2:
        rows[1, [40, 41]] = [2.5, -2.5]
        rows[:, 120] = [1.5, 2.0]          # modulus 2.5 through the pair
    assert_matches_oracles(rows)


@pytest.mark.parametrize("n_rows", [1, 2])
def test_plateau(n_rows):
    """A plateau of equal moduli with one ulp above it at different nodes of
    the two rows; and a row that is constant everywhere."""
    rows = np.ones((n_rows, GRID.n_modes))
    rows[0, 77] = np.nextafter(1.0, 2.0)
    if n_rows == 2:
        rows[1, 150] = np.nextafter(1.0, 2.0)
    assert_matches_oracles(rows)
    assert_matches_oracles(np.full((n_rows, GRID.n_modes), -3.0))


def test_pairs_whose_squares_round_alike():
    """Moduli that differ by an ulp while their squared sums round to the
    same double: the candidates are re-checked with the exact modulus."""
    rng = np.random.default_rng(7)
    for _ in range(200):
        a = 1.0 + rng.integers(0, 64, size=GRID.n_modes) * 2.0 ** -52
        v = 1.0 + rng.integers(0, 64, size=GRID.n_modes) * 2.0 ** -52
        assert_matches_oracles(np.stack((a, v)))
        assert_matches_oracles(np.stack((a, -v[::-1])))


@pytest.mark.parametrize("scale", [1e-160, 1e-154, 1e154, 1e-145, 1e145])
@pytest.mark.parametrize("n_rows", [1, 2])
def test_extreme_magnitudes(scale, n_rows):
    """Near 1e-160 and 1e-154 the squares are subnormal or zero, near 1e154
    they overflow: the helper reads the full modulus.  1e-145 and 1e145 sit
    inside its range, close to both ends."""
    rng = np.random.default_rng(8)
    for _ in range(50):
        assert_matches_oracles(random_rows(rng, n_rows, scale))
    mixed = random_rows(rng, n_rows)
    mixed[:, ::3] *= scale
    assert_matches_oracles(mixed)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("n_rows", [1, 2])
def test_non_finite_rows(bad, n_rows):
    rng = np.random.default_rng(9)
    for row in range(n_rows):
        rows = random_rows(rng, n_rows)
        rows[row, 17] = bad
        assert_matches_oracles(rows)
    assert_matches_oracles(np.full((n_rows, GRID.n_modes), bad))


@pytest.mark.parametrize("n_rows", [1, 2])
def test_zero_and_signed_zero_rows(n_rows):
    assert_matches_oracles(np.zeros((n_rows, GRID.n_modes)))
    assert_matches_oracles(np.full((n_rows, GRID.n_modes), -0.0))
    assert same_bits(sup_modulus(np.full((n_rows, GRID.n_modes), -0.0)), 0.0)


def test_weighted_sup_picks_the_weighted_node():
    """The weight moves the max away from the largest modulus."""
    rows = np.zeros((2, GRID.n_modes))
    rows[:, 0] = [3.0, 4.0]                 # modulus 5 at r_1
    rows[:, 200] = [0.6, 0.8]               # modulus 1 at r_201 = 201 r_1
    assert sup_modulus(rows) == 5.0
    assert same_bits(sup_modulus(rows, GRID.r), GRID.r[200] * 1.0)
    assert_matches_oracles(rows)
