"""Time integration of the radial (a, v) system with full quadratic forcing.

The pair evolves as

    dt a + |D| v = f,          f = -div(a u),
    dt v - Lap v - |D| a = h,  h = |D|^{-1} div( -u.grad(u) - a/(1+a) A u - beta(a) grad a ),

with u reconstructed from v through u = -|D|^{-1} grad v (radial fields are
curl-free, so the full viscous operator collapses to A u = |D| grad v and only
the combined viscosity enters, normalised to 1).  The radial identities
u.grad(u) = grad(U^2/2) and grad of a radial scalar = profile of its radial
derivative turn every forcing term into profile arithmetic.

Integration is second-order exponential time differencing over the exact
per-mode propagator: the linear flow commits no time-discretisation error, so
subtracting the exactly propagated initial data isolates the Duhamel integral
of the nonlinearity ("the nonlinear part") to the accuracy of the quadrature
of the forcing alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .besov import BesovSpec, DyadicPartition, pair_besov_norm
from .errors import ConfigurationError, SolverAbort
from .semigroup import apply_mode_function, mode_matrices, phi_pair_coefficients
from .spectral import (
    RadialGrid,
    RadialScalarField,
    RadialVectorProfile,
    apply_multiplier,
    dealias_mask,
    field_from_samples,
    gradient_profile,
    divergence_of_profile,
    lp_norm,
    make_grid,
    physical_and_gradient,
    physical_values,
    spectral_lp_norm,
    to_physical,
    to_spectral,
    weighted_sup_norm,
    zero_field,
)


@dataclass(frozen=True)
class PressureLaw:
    """Barotropic gamma-law P(rho) = rho^gamma / gamma, normalised so P'(1) = 1."""

    gamma: float = 1.4

    def __post_init__(self):
        if self.gamma <= 1.0:
            raise ConfigurationError(f"adiabatic exponent must exceed 1, got {self.gamma}")

    def beta(self, a):
        """beta(a) = P'(1+a)/(1+a) - P'(1) = (1+a)^(gamma-2) - 1; beta(0) = 0."""
        return (1.0 + np.asarray(a, dtype=float)) ** (self.gamma - 2.0) - 1.0


def _whole_steps(span: float, dt: float) -> bool:
    """span = n dt for a whole n >= 1, up to a relative tolerance of 1e-9."""
    n = round(span / dt)
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
    dealias_fraction: float = 2.0 / 3.0
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
        if self.amplitude < 0:
            raise ConfigurationError("amplitude must be non-negative")
        if self.width <= 0:
            raise ConfigurationError("data width must be positive")
        if not 0.0 < self.dealias_fraction <= 1.0:
            raise ConfigurationError("dealias fraction must lie in (0, 1]")
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
    """Spectral pair at time t plus the exactly propagated linear-only pair."""

    t: float
    a_hat: RadialScalarField
    v_hat: RadialScalarField
    a_lin_hat: RadialScalarField
    v_lin_hat: RadialScalarField


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
        return (self.t, self.l2_av, self.linf_av, self.besov0_21,
                self.besov0_inf1, self.nl_l2, self.nl_besov_inf1, self.weighted_sup)

    def __post_init__(self):
        vals = self.as_tuple()
        if not all(math.isfinite(v) for v in vals):
            raise SolverAbort("non-finite diagnostic value", time=self.t)
        if any(v < 0 for v in vals[1:]):
            raise SolverAbort("negative norm in diagnostics", time=self.t)


CSV_COLUMNS = ("t", "l2_av", "linf_av", "besov0_21", "besov0_inf1",
               "nl_l2", "nl_besov_inf1", "weighted_sup")


def initial_data_gaussian(amplitude: float, width: float, grid: RadialGrid
                          ) -> tuple[RadialScalarField, RadialScalarField]:
    """a0(r) = c exp(-(r/w)^2), v0 = 0; both physical-space."""
    if amplitude < 0:
        raise ConfigurationError("amplitude must be non-negative")
    if width <= 0:
        raise ConfigurationError("width must be positive")
    a0 = field_from_samples(grid, amplitude * np.exp(-((grid.r / width) ** 2)))
    return a0, zero_field(grid)


def reconstruct_velocity(v_hat: RadialScalarField) -> RadialVectorProfile:
    """Profile U of u = -|D|^{-1} grad v (the only velocity a radial v allows)."""
    q_hat = apply_multiplier(v_hat, lambda rho: 1.0 / rho)
    grad = gradient_profile(q_hat)
    return RadialVectorProfile(v_hat.grid, -grad.samples)


def _check_density(a_phys: np.ndarray, guard: float, t: float) -> None:
    if not np.all(np.isfinite(a_phys)):
        bad = int(np.flatnonzero(~np.isfinite(a_phys))[0])
        raise SolverAbort("non-finite density perturbation", time=t, mode_index=bad)
    if np.max(np.abs(a_phys)) >= 1.0 or np.min(1.0 + a_phys) <= guard:
        bad = int(np.argmin(a_phys))
        raise SolverAbort(
            f"density floor breached: min(1+a) = {1.0 + a_phys.min():.4f}",
            time=t, mode_index=bad)


def nonlinear_rhs(state: SolverState, law: PressureLaw, config: SolverConfig
                  ) -> tuple[RadialScalarField, RadialScalarField]:
    """Spectral forcing pair (f_hat, h_hat) at the current state."""
    grid = state.a_hat.grid
    if config.linear_only:
        return zero_field(grid, "spectral"), zero_field(grid, "spectral")

    mask = dealias_mask(grid, config.dealias_fraction)
    a_hat = RadialScalarField(grid, state.a_hat.values * mask, "spectral")
    v_hat = RadialScalarField(grid, state.v_hat.values * mask, "spectral")

    a, grad_a = physical_and_gradient(a_hat)
    _check_density(a.values, config.density_guard, state.t)
    w_hat = apply_multiplier(v_hat, lambda rho: rho)          # |D| v
    w, grad_w = physical_and_gradient(w_hat)
    velocity = reconstruct_velocity(v_hat)

    half_speed = to_spectral(field_from_samples(grid, 0.5 * velocity.samples ** 2))
    half_speed = RadialScalarField(grid, half_speed.values * mask, "spectral")
    grad_half_speed = gradient_profile(half_speed)

    # f = -div(a u)
    transport = RadialVectorProfile(grid, a.values * velocity.samples)
    f_phys = divergence_of_profile(transport, dealias_fraction=config.dealias_fraction)
    f_hat = to_spectral(RadialScalarField(grid, -f_phys.values, "physical"))

    # h = |D|^{-1} div(G x/r) with the combined forcing profile G
    forcing = (-grad_half_speed.samples
               - (a.values / (1.0 + a.values)) * grad_w.samples
               - law.beta(a.values) * grad_a.samples)
    div_g = divergence_of_profile(RadialVectorProfile(grid, forcing),
                                  dealias_fraction=config.dealias_fraction)
    h_hat = apply_multiplier(to_spectral(div_g), lambda rho: 1.0 / rho)

    return (RadialScalarField(grid, f_hat.values * mask, "spectral"),
            RadialScalarField(grid, h_hat.values * mask, "spectral"))


@dataclass
class EtdTables:
    """Per-(grid, dt) propagator entries and phi coefficients."""

    dt: float
    exp_entries: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
    phi1: tuple[np.ndarray, np.ndarray]
    phi2: tuple[np.ndarray, np.ndarray]


def make_etd_tables(grid: RadialGrid, dt: float) -> EtdTables:
    return EtdTables(dt=dt,
                     exp_entries=mode_matrices(grid.rho, dt),
                     phi1=phi_pair_coefficients(1, grid.rho, dt),
                     phi2=phi_pair_coefficients(2, grid.rho, dt))


def _propagate(entries, a: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    m11, m12, m21, m22 = entries
    return m11 * a + m12 * v, m21 * a + m22 * v


def step_etd2(state: SolverState, law: PressureLaw, config: SolverConfig,
              tables: EtdTables) -> SolverState:
    """One predictor/corrector exponential step of size tables.dt."""
    grid = state.a_hat.grid
    rho = grid.rho
    dt = tables.dt

    f0, h0 = nonlinear_rhs(state, law, config)
    ea, ev = _propagate(tables.exp_entries, state.a_hat.values, state.v_hat.values)
    p1a, p1v = apply_mode_function(*tables.phi1, rho, dt, f0.values, h0.values)
    mid_a = ea + dt * p1a
    mid_v = ev + dt * p1v

    mid_state = SolverState(
        t=state.t + dt,
        a_hat=RadialScalarField(grid, mid_a, "spectral"),
        v_hat=RadialScalarField(grid, mid_v, "spectral"),
        a_lin_hat=state.a_lin_hat, v_lin_hat=state.v_lin_hat)
    f1, h1 = nonlinear_rhs(mid_state, law, config)
    p2a, p2v = apply_mode_function(*tables.phi2, rho, dt,
                                   f1.values - f0.values, h1.values - h0.values)
    new_a = mid_a + dt * p2a
    new_v = mid_v + dt * p2v

    lin_a, lin_v = _propagate(tables.exp_entries,
                              state.a_lin_hat.values, state.v_lin_hat.values)
    new = SolverState(
        t=state.t + dt,
        a_hat=RadialScalarField(grid, new_a, "spectral"),
        v_hat=RadialScalarField(grid, new_v, "spectral"),
        a_lin_hat=RadialScalarField(grid, lin_a, "spectral"),
        v_lin_hat=RadialScalarField(grid, lin_v, "spectral"))

    for arr in (new_a, new_v):
        if not np.all(np.isfinite(arr)):
            bad = int(np.flatnonzero(~np.isfinite(arr))[0])
            raise SolverAbort("non-finite spectral value after step",
                              time=new.t, mode_index=bad)
    if not config.linear_only:
        _check_density(to_physical(new.a_hat).values, config.density_guard, new.t)
    return new


def nonlinear_part(state: SolverState) -> tuple[RadialScalarField, RadialScalarField]:
    """Spectral Duhamel remainder: current pair minus the linear flow."""
    grid = state.a_hat.grid
    da = RadialScalarField(grid, state.a_hat.values - state.a_lin_hat.values, "spectral")
    dv = RadialScalarField(grid, state.v_hat.values - state.v_lin_hat.values, "spectral")
    return da, dv


def initial_state(config: SolverConfig) -> SolverState:
    grid = config.grid()
    a0, v0 = initial_data_gaussian(config.amplitude, config.width, grid)
    a_hat, v_hat = to_spectral(a0), to_spectral(v0)
    return SolverState(0.0, a_hat, v_hat, a_hat.copy(), v_hat.copy())


def diagnostics_row(state: SolverState, partition: DyadicPartition | None = None
                    ) -> DiagnosticsRow:
    """The row's norms from the spectral pair: L^2 norms by exact discrete
    Parseval, a and v synthesised together once for the sup norms, and the
    Besov norms read straight from the spectral fields."""
    part = partition if partition is not None else DyadicPartition()
    grid = state.a_hat.grid
    av_hat = np.stack((state.a_hat.values, state.v_hat.values))
    av = RadialScalarField(grid, np.hypot(*physical_values(grid, av_hat)), "physical")
    nl_a, nl_v = nonlinear_part(state)
    spec21 = BesovSpec(0.0, 2.0, 1.0)
    spec_inf1 = BesovSpec(0.0, np.inf, 1.0)
    return DiagnosticsRow(
        t=state.t,
        l2_av=spectral_lp_norm(grid, av_hat, 2.0),
        linf_av=lp_norm(av, np.inf),
        besov0_21=pair_besov_norm(state.a_hat, state.v_hat, spec21, part),
        besov0_inf1=pair_besov_norm(state.a_hat, state.v_hat, spec_inf1, part),
        nl_l2=spectral_lp_norm(grid, (nl_a.values, nl_v.values), 2.0),
        nl_besov_inf1=pair_besov_norm(nl_a, nl_v, spec_inf1, part),
        weighted_sup=weighted_sup_norm(av),
    )


def output_steps(config: SolverConfig) -> list[int]:
    """Step indices of the output rows: 0, each multiple of the output stride,
    and the last step; a row's time is its step times dt."""
    n_steps = round(config.t_final / config.dt)
    steps = list(range(0, n_steps + 1, round(config.output_interval / config.dt)))
    if steps[-1] != n_steps:
        steps.append(n_steps)
    return steps


def simulate(config: SolverConfig,
             observer: Callable[[SolverState], None] | None = None
             ) -> tuple[list[DiagnosticsRow], SolverState]:
    """Run the configured simulation, sampling diagnostics at the cadence.

    Deterministic: fixed evaluation order, no randomness anywhere.
    """
    config.validate()
    partition = DyadicPartition()
    state = initial_state(config)
    rows = [diagnostics_row(state, partition)]
    if observer is not None:
        observer(state)
    if config.t_final == 0.0:
        return rows, state

    tables = make_etd_tables(state.a_hat.grid, config.dt)
    law = config.law()
    steps = output_steps(config)
    outputs = set(steps)
    for step in range(1, steps[-1] + 1):
        state = step_etd2(state, law, config, tables)
        # keep the clock exactly representable at output times
        state.t = step * config.dt
        if step in outputs:
            rows.append(diagnostics_row(state, partition))
            if observer is not None:
                observer(state)
    return rows, state
