"""Time integration of the radial (a, v) system with full quadratic forcing.

The pair evolves as

    dt a + |D| v = f,          f = -div(a u),
    dt v - Lap v - |D| a = h,  h = |D|^{-1} div( -u.grad(u) - a/(1+a) A u - beta(a) grad a ),

with u reconstructed from v through u = -|D|^{-1} grad v (radial fields are
curl-free, so the full viscous operator collapses to A u = |D| grad v and only
the combined viscosity enters, normalised to 1).  With u = U(r) x/r,
q = |D|^{-1} v (U = -q') and w = |D| v, two radial identities remove every
derivative of a product: div u = w gives U' = w - 2U/r, so u.grad(u) has the
profile U U', and f = -div(a U x/r) = -(a' U + a w).  For h = |D|^{-1}
div(G x/r), G the combined forcing profile, integrating by parts against
sin(r rho) gives rho^2 h_hat = S - rho C, with S = sqrt(2/pi) int G sin(r rho)
dr and C = sqrt(2/pi) int r G cos(r rho) dr: the boundary term r G sin(r rho)
vanishes at r = 0 and at r = R, where sin(R rho_k) = sin(k pi) = 0.  A forcing
evaluation is three syntheses ((a, a'), (w, w'), q'), one DST for f and the
(S, C) pair for h; each sine/cosine pair is one real FFT, so it makes 5
transforms, and an ETD2 step makes 11.

Integration is second-order exponential time differencing over the exact
per-mode propagator: the linear flow commits no time-discretisation error, so
subtracting the exactly propagated initial data isolates the Duhamel integral
of the nonlinearity ("the nonlinear part") to the accuracy of the quadrature
of the forcing alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .besov import BesovSpec, pair_besov_norm
from .errors import ConfigurationError, SolverAbort
from .semigroup import apply_semigroup, mode_function_entries, mode_matrices, mode_product
from .spectral import (
    RadialGrid,
    _sine_cosine_sums,
    dealias_mask,
    lp_norm,
    make_grid,
    modulus,
    physical_and_gradient,
    physical_values,
    spectral_lp_norm,
    to_spectral,
    weighted_sup_norm,
)


@dataclass(frozen=True)
class PressureLaw:
    """Barotropic gamma-law P(rho) = rho^gamma / gamma, normalised so P'(1) = 1."""

    gamma: float = 1.4

    def __post_init__(self):
        if not 1.0 < self.gamma < math.inf:     # also rejects NaN
            raise ConfigurationError(
                f"adiabatic exponent must be finite and exceed 1, got {self.gamma}")

    def beta(self, a):
        """beta(a) = P'(1+a)/(1+a) - P'(1) = (1+a)^(gamma-2) - 1; beta(0) = 0."""
        return (1.0 + np.asarray(a, dtype=float)) ** (self.gamma - 2.0) - 1.0


def _whole_steps(span: float, dt: float) -> bool:
    """span = n dt for a whole, finite n >= 1, up to a relative tolerance of 1e-9."""
    ratio = span / dt
    if not math.isfinite(ratio):
        return False
    n = round(ratio)
    return n >= 1 and math.isclose(n * dt, span, rel_tol=1e-9)


@dataclass
class SolverConfig:
    """Parameters of one simulation run."""

    n_modes: int = 16384
    outer_radius: float = 500.0
    dt: float = 0.05
    t_final: float = 200.0
    output_interval: float = 1.0
    gamma: float = 1.4
    amplitude: float = 0.01
    width: float = 1.0
    density_guard: float = 0.5
    linear_only: bool = False

    def validate(self) -> None:
        if self.dt <= 0:
            raise ConfigurationError(f"dt must be positive, got {self.dt}")
        # the stepper advances in whole steps: anything else would be rounded
        if self.t_final != 0.0 and not _whole_steps(self.t_final, self.dt):
            raise ConfigurationError(
                f"final time {self.t_final} must be 0 or a whole multiple of dt = {self.dt}")
        if not _whole_steps(self.output_interval, self.dt):
            raise ConfigurationError(
                f"output interval {self.output_interval} must be a whole multiple "
                f"of dt = {self.dt}")
        if not 0.0 <= self.amplitude < math.inf:
            raise ConfigurationError(f"amplitude must be finite and non-negative, "
                                     f"got {self.amplitude}")
        if not 0.0 < self.width < math.inf:
            raise ConfigurationError(f"data width must be finite and positive, got {self.width}")
        self.law()                      # re-checks the adiabatic exponent
        if not 0.0 < self.density_guard < 1.0:
            raise ConfigurationError("density guard must lie in (0, 1)")
        front = 2.0 * self.t_final + 10.0 * self.width
        if self.outer_radius < front:
            raise ConfigurationError(
                f"outer radius {self.outer_radius} cannot contain the acoustic "
                f"front; need at least {front}")
        make_grid(self.n_modes, self.outer_radius)  # re-checks grid preconditions

    def grid(self) -> RadialGrid:
        return make_grid(self.n_modes, self.outer_radius)

    def law(self) -> PressureLaw:
        return PressureLaw(self.gamma)


@dataclass
class SolverState:
    """Spectral pair at time t on `grid`, rows (a_hat, v_hat) of shape (2, N)."""

    t: float
    grid: RadialGrid
    pair: np.ndarray


@dataclass(frozen=True)
class DiagnosticsRow:
    """Norms tracked at one output time (CSV schema order)."""

    t: float
    l2_av: float
    linf_av: float
    besov0_21: float
    besov0_inf1: float
    nl_l2: float
    nl_besov_inf1: float
    weighted_sup: float

    def as_tuple(self) -> tuple[float, ...]:
        return tuple(getattr(self, name) for name in CSV_COLUMNS)

    def __post_init__(self):
        vals = self.as_tuple()
        if not all(math.isfinite(v) for v in vals):
            raise SolverAbort("non-finite diagnostic value", time=self.t)
        if any(v < 0 for v in vals[1:]):
            raise SolverAbort("negative norm in diagnostics", time=self.t)


CSV_COLUMNS = tuple(f.name for f in fields(DiagnosticsRow))


def initial_data_gaussian(amplitude: float, width: float, grid: RadialGrid) -> np.ndarray:
    """The samples of a0(r) = c exp(-(r/w)^2) at r_m; the initial v0 is 0."""
    if not 0.0 <= amplitude < math.inf:
        raise ConfigurationError("amplitude must be finite and non-negative")
    if not 0.0 < width < math.inf:
        raise ConfigurationError("width must be finite and positive")
    return amplitude * np.exp(-((grid.r / width) ** 2))


def _check_density(a_phys: np.ndarray, guard: float, t: float) -> None:
    """Abort on a non-finite a, a floor 1+a <= guard or a size |a| >= 1,
    naming the trigger that fired and the node where it did."""
    if not np.all(np.isfinite(a_phys)):
        bad = int(np.flatnonzero(~np.isfinite(a_phys))[0])
        raise SolverAbort("non-finite density perturbation", time=t, mode_index=bad)
    low, high = int(np.argmin(a_phys)), int(np.argmax(np.abs(a_phys)))
    if 1.0 + a_phys[low] <= guard:
        raise SolverAbort(
            f"density floor breached: min(1+a) = {1.0 + a_phys[low]:.4f} <= guard {guard}",
            time=t, mode_index=low)
    if abs(a_phys[high]) >= 1.0:
        raise SolverAbort(
            f"density perturbation too large: max|a| = {abs(a_phys[high]):.4f} >= 1",
            time=t, mode_index=high)


def nonlinear_rhs(state: SolverState, law: PressureLaw, config: SolverConfig
                  ) -> np.ndarray:
    """Spectral forcing rows (f_hat, h_hat) at the current state, by the
    radial identities of the module docstring on the dealiased fields."""
    grid = state.grid
    mask = dealias_mask(grid)
    a_hat, v_hat = state.pair * mask

    a, a_r = physical_and_gradient(grid, a_hat)
    _check_density(a, config.density_guard, state.t)
    w, w_r = physical_and_gradient(grid, grid.rho * v_hat)     # w = |D| v
    u = -physical_and_gradient(grid, (1.0 / grid.rho) * v_hat)[1]
    u_r = w - 2.0 * u / grid.r                    # div(U x/r) = w

    rows = np.empty((2, grid.n_modes))
    # f = -div(a U x/r) = -(a' U + a w)
    rows[0] = to_spectral(grid, -(a_r * u + a * w))

    # h = |D|^{-1} div(G x/r); by parts, rho^2 h_hat = S - rho C
    g = -u * u_r - (a / (1.0 + a)) * w_r - law.beta(a) * a_r
    sine, cosine = _sine_cosine_sums(g, grid.r * g, grid.dr)
    rows[1] = (sine - grid.rho * cosine) / grid.rho ** 2
    rows *= mask
    return rows


@dataclass
class EtdTables:
    """Per-(grid, dt) entries (m11, m12, m21, m22) of e^{dt M}, phi_1 and phi_2."""

    dt: float
    exp_entries: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
    phi1: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
    phi2: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def make_etd_tables(grid: RadialGrid, dt: float) -> EtdTables:
    return EtdTables(dt=dt,
                     exp_entries=mode_matrices(grid.rho, dt),
                     phi1=mode_function_entries(1, grid.rho, dt),
                     phi2=mode_function_entries(2, grid.rho, dt))


def step_etd2(state: SolverState, law: PressureLaw, config: SolverConfig,
              tables: EtdTables) -> SolverState:
    """One predictor/corrector exponential step of size tables.dt."""
    grid = state.grid
    dt = tables.dt
    t = state.t + dt

    f0 = nonlinear_rhs(state, law, config)
    mid = (mode_product(tables.exp_entries, state.pair)
           + dt * mode_product(tables.phi1, f0))
    f1 = nonlinear_rhs(SolverState(t, grid, mid), law, config)
    new = mid + dt * mode_product(tables.phi2, f1 - f0)

    if not np.all(np.isfinite(new)):    # the first bad mode of a, else of v
        bad = int(np.flatnonzero(~np.isfinite(new))[0]) % grid.n_modes
        raise SolverAbort("non-finite spectral value after step", time=t, mode_index=bad)
    _check_density(physical_values(grid, new[0]), config.density_guard, t)
    return SolverState(t, grid, new)


def initial_state(config: SolverConfig) -> SolverState:
    grid = config.grid()
    pair = np.zeros((2, grid.n_modes))
    pair[0] = to_spectral(grid, initial_data_gaussian(config.amplitude, config.width, grid))
    return SolverState(0.0, grid, pair)


def diagnostics_row(state: SolverState, linear: np.ndarray) -> DiagnosticsRow:
    """The row's norms from the spectral pair and the linear flow `linear`
    at state.t; the nonlinear part is state - linear.  L^2 norms by exact
    discrete Parseval, a and v synthesised together once for the sup norms,
    and the Besov norms read straight from the spectral pairs."""
    grid, hat = state.grid, state.pair
    av = modulus(physical_values(grid, hat))
    nl = hat - linear
    spec_inf1 = BesovSpec(0.0, np.inf, 1.0)
    return DiagnosticsRow(
        t=state.t,
        l2_av=spectral_lp_norm(grid, hat, 2.0),
        linf_av=lp_norm(grid, av, np.inf),
        besov0_21=pair_besov_norm(grid, hat, BesovSpec(0.0, 2.0, 1.0)),
        besov0_inf1=pair_besov_norm(grid, hat, spec_inf1),
        nl_l2=spectral_lp_norm(grid, nl, 2.0),
        nl_besov_inf1=pair_besov_norm(grid, nl, spec_inf1),
        weighted_sup=weighted_sup_norm(grid, av),
    )


def output_steps(config: SolverConfig) -> list[int]:
    """Step indices of the output rows: 0, each multiple of the output stride,
    and the last step; a row's time is its step times dt."""
    n_steps = round(config.t_final / config.dt)
    steps = list(range(0, n_steps + 1, round(config.output_interval / config.dt)))
    if steps[-1] != n_steps:
        steps.append(n_steps)
    return steps


def simulate(config: SolverConfig) -> tuple[list[DiagnosticsRow], SolverState]:
    """Run the configured simulation, sampling diagnostics at the cadence.

    Each output applies e^{tM} to the initial data once, and the row's
    nonlinear part is the state minus that.  A linear-only run takes that as
    its state and makes no time step.  Deterministic: fixed evaluation
    order, no randomness anywhere.
    """
    config.validate()
    state = initial_state(config)
    grid, pair0 = state.grid, state.pair
    law, tables, done = config.law(), None, 0
    rows = []
    for step in output_steps(config):
        t = step * config.dt
        linear = apply_semigroup(grid, pair0, t)
        if config.linear_only:
            state = SolverState(t, grid, linear)
        elif step > done:
            if tables is None:
                tables = make_etd_tables(grid, config.dt)
            for k in range(done + 1, step + 1):
                state = step_etd2(state, law, config, tables)
                state.t = k * config.dt   # keep the clock exactly representable
            done = step
        rows.append(diagnostics_row(state, linear))
    return rows, state
