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
transforms in 2 calls, the syntheses as the 3 rows of one and the analyses
as the 2 rows of the other, and an ETD2 step makes 10 in 4 calls.

The forcing is dealiased by the 2/3 rule, the one spectral truncation: it
reads only the lowest keep = floor(2N/3) modes of the state and is exactly 0
on every mode above them.  One per-grid table holds all its weights: each
synthesis writes the symmetric extension of spectral.py straight from the
kept modes through weight rows that fold in sqrt(2/pi) drho/2 and its rho
factors, 1/r turns r w and (r w)' into w and w', and the two analyses write
the kept modes alone through weights that fold in sqrt(2/pi) dr/2 and the
1/rho and 1/rho^2 of f_hat and h_hat.

Integration is second-order exponential time differencing over the exact
per-mode propagator: the linear flow commits no time-discretisation error, so
subtracting the exactly propagated initial data isolates the Duhamel integral
of the nonlinearity ("the nonlinear part") to the accuracy of the quadrature
of the forcing alone.  Because the forcing vanishes above the kept band, dt
phi_1 and dt phi_2 are tabulated and applied on that band only, and every
mode above it takes the exact step e^{dt M}.  The density check at the end of
a step reads the full band, which the forcing's own check does not see; a
step synthesises it only when its transform-free sup bound allows a trigger.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from . import spectral      # rfft and dst looked up per call: counters wrap them
from .besov import BesovSpec, _sup_bound_weights, pair_besov_norm
from .errors import ConfigurationError, SolverAbort
from .semigroup import apply_semigroup, mode_function_entries, mode_matrices, mode_product
from .spectral import (
    RadialGrid,
    make_grid,
    per_grid_cache,
    physical_values,
    spectral_l2_norm,
    sup_modulus,
    to_spectral,
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
    naming the trigger that fired and the node where it did.  A passing
    check is the two reductions min and max: NaN and +-inf carry through
    them and fail the test, so only a failing check looks for its node."""
    low, high = a_phys.min(), a_phys.max()
    if -1.0 < low and 1.0 + low > guard and high < 1.0:
        return
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


class _ForcingTable(NamedTuple):
    """The forcing's weights on the kept band of a grid (module docstring):
    synthesis rows (plus, minus) for (a, a'), also applied to rho v_hat for
    (w, w'), and for (-q, -q'); 1/r; the output weights of f_hat and h_hat."""

    keep: int
    a_plus: np.ndarray
    a_minus: np.ndarray
    q_plus: np.ndarray
    q_minus: np.ndarray
    inv_r: np.ndarray
    f_out: np.ndarray
    h_out: np.ndarray


@per_grid_cache
def _forcing_table(grid: RadialGrid) -> _ForcingTable:
    keep = 2 * grid.n_modes // 3
    rho = grid.rho[:keep]
    scale = math.sqrt(2.0 / math.pi) * grid.drho / 2.0
    out = math.sqrt(2.0 / math.pi) * grid.dr / 2.0 / rho
    return _ForcingTable(keep, scale * (rho * rho - rho), scale * (rho * rho + rho),
                         scale * (1.0 - rho), -scale * (1.0 + rho),
                         1.0 / grid.r, out, out / rho)


def _analysis_input(state: SolverState, law: PressureLaw, config: SolverConfig,
                    table: _ForcingTable) -> np.ndarray:
    """The two rows that nonlinear_rhs transforms, made by pointwise
    arithmetic on three syntheses of the kept band: row 0 the odd extension
    of r (a' U + a w) = -r f, whose real FFT's bins are -i times its DST, and
    row 1 h's (S, C) pair.  Every intermediate dies on return, before the
    analyses' transform."""
    grid = state.grid
    n, keep = grid.n_modes, table.keep
    a_hat, v_hat = state.pair[:, :keep]

    # row i of z holds plus_k hat_k at j = k and minus_k hat_k at
    # j = 2(N+1) - k, so bins 1..N of its real FFT are (r w)' + i r w for
    # (a, a'), (w, w') and (-q, -q'); w and w' go back into the spent z
    z = np.zeros((3, 2 * (n + 1)))
    for row, plus, minus, hat in ((z[0], table.a_plus, table.a_minus, a_hat),
                                  (z[1], table.a_plus, table.a_minus, grid.rho[:keep] * v_hat),
                                  (z[2], table.q_plus, table.q_minus, v_hat)):
        np.multiply(plus, hat, out=row[1:keep + 1])
        np.multiply(minus, hat, out=row[:-keep - 1:-1])
    bins = spectral.rfft(z)[:, 1:n + 1]
    values, slopes = z[:, :n], z[:, n:2 * n]
    np.multiply(bins.imag, table.inv_r, out=values)
    np.subtract(bins.real, values, out=slopes)
    slopes *= table.inv_r
    del bins                                # the complex output, before more temporaries
    (a, w, u_r), (a_r, w_r, u) = values, slopes     # U = -q'; U' overwrites -q
    _check_density(a, config.density_guard, state.t)
    np.multiply(u, table.inv_r, out=u_r)    # U' = w - 2U/r, as div(U x/r) = w
    u_r *= -2.0
    u_r += w

    analysis = np.zeros((2, 2 * (n + 1)))
    flux = analysis[0, 1:n + 1]
    np.multiply(a_r, u, out=flux)
    flux += a * w
    flux *= grid.r
    np.negative(flux[::-1], out=analysis[0, n + 2:])
    # h = |D|^{-1} div(G x/r); by parts, rho^2 h_hat = S - rho C, with the
    # sign of G = -(U U' + a/(1+a) w' + beta(a) a') in the output weights;
    # the pair's row is r(-G) + (-G) at j and r(-G) - (-G) at 2(N+1) - j
    minus_g = u * u_r
    minus_g += (a / (1.0 + a)) * w_r
    minus_g += law.beta(a) * a_r
    head = analysis[1, 1:n + 1]
    np.multiply(grid.r, minus_g, out=head)
    np.subtract(head, minus_g, out=analysis[1, :n + 1:-1])
    head += minus_g
    return analysis


def nonlinear_rhs(state: SolverState, law: PressureLaw, config: SolverConfig
                  ) -> np.ndarray:
    """Spectral forcing rows (f_hat, h_hat) at the current state, by the
    radial identities of the module docstring on the kept band of the
    state; both rows are exactly 0 from mode floor(2N/3) up."""
    table = _forcing_table(state.grid)
    keep = table.keep
    bins = spectral.rfft(_analysis_input(state, law, config, table))[:, 1:keep + 1]
    rows = np.zeros((2, state.grid.n_modes))
    np.multiply(bins[0].imag, table.f_out, out=rows[0, :keep])
    np.multiply(bins[1].imag, table.h_out, out=rows[1, :keep])
    rows[1, :keep] += bins[1].real * table.f_out
    return rows


@dataclass
class EtdTables:
    """Per-(grid, dt) entries (m11, m12, m21, m22) of e^{dt M} on every
    mode, and of dt phi_1 and dt phi_2 on the forcing's kept band."""

    dt: float
    exp_entries: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
    phi1: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
    phi2: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def make_etd_tables(grid: RadialGrid, dt: float) -> EtdTables:
    rho = grid.rho[:_forcing_table(grid).keep]
    return EtdTables(dt=dt,
                     exp_entries=mode_matrices(grid.rho, dt),
                     phi1=tuple(dt * m for m in mode_function_entries(1, rho, dt)),
                     phi2=tuple(dt * m for m in mode_function_entries(2, rho, dt)))


def step_etd2(state: SolverState, law: PressureLaw, config: SolverConfig,
              tables: EtdTables) -> SolverState:
    """One predictor/corrector exponential step of size tables.dt.  The
    forcing is 0 above its kept band, so the phi terms act on that band
    alone and every mode above it takes the exact linear step."""
    grid = state.grid
    t = state.t + tables.dt
    band = slice(0, len(tables.phi1[0]))

    f0 = nonlinear_rhs(state, law, config)[:, band]
    mid = mode_product(tables.exp_entries, state.pair)
    mid[:, band] += mode_product(tables.phi1, f0)
    f1 = nonlinear_rhs(SolverState(t, grid, mid), law, config)[:, band]
    mid[:, band] += mode_product(tables.phi2, f1 - f0)
    new = mid

    if not np.all(np.isfinite(new)):    # the first bad mode of a, else of v
        bad = int(np.flatnonzero(~np.isfinite(new))[0]) % grid.n_modes
        raise SolverAbort("non-finite spectral value after step", time=t, mode_index=bad)
    # |sin(r rho)/r| <= rho bounds every |a(r_m)| by the sum of the weights:
    # below (1 - guard)/2, rounding included, neither trigger can fire
    bound = float(np.sum(_sup_bound_weights(grid, new[:1])))
    if not bound < (1.0 - config.density_guard) / 2.0:
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
    discrete Parseval (B^0_{2,1} from one energy row), the Besov norms read
    straight from the spectral pairs, and the sup norms from the sum of the
    (a, v) blocks that the pair's B^0_{inf,1} norm synthesises: the block
    multipliers sum to 1 on every mode, and a block that screening skips
    moves each node value by at most its bound, at most 1e-17 of the kept
    l^1 sum; each sup is `spectral.sup_modulus` of that sum.  A state that
    is its own linear flow (`linear is state.pair`: a linear-only row, or
    row 0) has a nonlinear part of exactly 0: its nl columns are 0.0, with
    no subtraction and no third Besov pass."""
    grid, hat = state.grid, state.pair
    values = np.zeros((2, grid.n_modes))
    spec_inf1 = BesovSpec(0.0, np.inf, 1.0)
    besov0_inf1 = pair_besov_norm(grid, hat, spec_inf1, values)
    nl_l2 = nl_besov_inf1 = 0.0
    if linear is not hat:
        nl = hat - linear
        nl_l2, nl_besov_inf1 = spectral_l2_norm(grid, nl), pair_besov_norm(grid, nl, spec_inf1)
    return DiagnosticsRow(
        t=state.t,
        l2_av=spectral_l2_norm(grid, hat),
        linf_av=sup_modulus(values),
        besov0_21=pair_besov_norm(grid, hat, BesovSpec(0.0, 2.0, 1.0)),
        besov0_inf1=besov0_inf1,
        nl_l2=nl_l2,
        nl_besov_inf1=nl_besov_inf1,
        weighted_sup=sup_modulus(values, grid.r),
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

    Each output propagates the previous output's linear flow exactly across
    the gap between them, e^{(s+t)M} = e^{sM} e^{tM}, so a run builds one
    propagator per distinct gap (the output stride and a shorter last one);
    the row's nonlinear part is the state minus that flow.  A linear-only
    run takes the flow as its state and makes no time step.  Deterministic:
    fixed evaluation order, no randomness anywhere.
    """
    config.validate()
    state = initial_state(config)
    grid, linear = state.grid, state.pair
    law, tables, done = config.law(), None, 0
    rows = []
    for step in output_steps(config):
        if step > done:
            linear = apply_semigroup(grid, linear, (step - done) * config.dt)
            if config.linear_only:
                state = SolverState(step * config.dt, grid, linear)
            else:
                if tables is None:
                    tables = make_etd_tables(grid, config.dt)
                for k in range(done + 1, step + 1):
                    state = step_etd2(state, law, config, tables)
                    state.t = k * config.dt   # keep the clock exactly representable
            done = step
        rows.append(diagnostics_row(state, linear))
    return rows, state
