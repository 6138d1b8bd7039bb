"""Acceptance suite: every exit criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass/fail line
per criterion.  The two long runs (linear reference and full nonlinear
reference) are shared module-scoped fixtures.  The criteria that use them,
and the probe of criterion 10, are marked `slow`: `pytest -m "not slow"`
runs the rest in under a minute.
"""

import math
import time

import numpy as np
import pytest

from radns.besov import (
    BesovSpec,
    block_multiplier,
    block_support,
    pair_besov_norm,
    resolved_range,
)
from radns.cli import command_dispatch
from radns.decay import (
    linear_rows,
    run_kernel_lower_probe,
    run_linear_decay,
    run_lower_bound,
    run_nonlinear_decay,
    run_weighted_decay,
    series_from_rows,
)
from radns.semigroup import (
    CutoffPsi,
    apply_semigroup,
    kernel_probe,
    mode_matrices,
    probe_coordinates,
    _probe_integral,
)
from radns.solver import (
    SolverConfig,
    initial_state,
    make_etd_tables,
    simulate,
    step_etd2,
)
from radns.spectral import (
    lp_norm,
    make_grid,
    physical_values,
    to_spectral,
)
from test_semigroup import hi_freq_identity_check, kernel_values
from test_solver import zero_forcing
from test_sup_modulus import weighted_sup_norm


def report(criterion: str, passed: bool, detail: str) -> None:
    print(f"[{'PASS' if passed else 'FAIL'}] {criterion}: {detail}")
    assert passed, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def linear_reference():
    """Exact linear evolution of the reference Gaussian data."""
    config = SolverConfig(n_modes=16384, outer_radius=500.0, dt=0.05,
                          t_final=200.0, output_interval=1.0,
                          amplitude=0.01, width=1.0, linear_only=True)
    return config, run_linear_decay(linear_rows(config), (2.0, math.inf), (10.0, 200.0))


@pytest.fixture(scope="module")
def nonlinear_reference():
    """Full ETD2 reference run, long enough for the remainder asymptotics."""
    config = SolverConfig(n_modes=8191, outer_radius=1100.0, dt=0.05,
                          t_final=480.0, output_interval=2.0,
                          amplitude=0.01, width=1.0, gamma=1.4)
    rows, _ = simulate(config)
    return config, rows


def expm_series_oracle(rho: float, t: float, terms: int = 40) -> np.ndarray:
    M = np.array([[0.0, -rho], [rho, -rho * rho]]) * t
    squarings = 0
    norm = np.abs(M).sum(axis=1).max()
    while norm > 0.5:
        M = M / 2.0
        norm /= 2.0
        squarings += 1
    X = np.eye(2)
    term = np.eye(2)
    for n in range(1, terms + 1):
        term = term @ M / n
        X = X + term
    for _ in range(squarings):
        X = X @ X
    return X


def test_criterion_01_semigroup_oracle():
    started = time.time()
    worst = 0.0
    for rho in (0.1, 1.0, 1.9, 2.0, 2.1, 4.0, 16.0):
        for t in (0.1, 1.0):
            got = np.reshape(mode_matrices(np.array([rho]), t), (2, 2))
            worst = max(worst, float(np.max(np.abs(got - expm_series_oracle(rho, t)))))
    elapsed = time.time() - started
    report("criterion 1 (semigroup oracle equivalence)",
           worst <= 1e-12,
           f"max entrywise error {worst:.3e} <= 1e-12 in {elapsed:.2f}s")


def test_criterion_02_involution_and_parseval():
    worst_inv, worst_par = 0.0, 0.0
    for n in (256, 4096):
        grid = make_grid(n, 40.0)
        rng = np.random.default_rng(n)
        f = rng.standard_normal(n)
        fhat = to_spectral(grid, f)
        back = physical_values(grid, fhat)
        worst_inv = max(worst_inv, float(np.max(np.abs(back - f)) / np.max(np.abs(f))))
        phys = grid.dr * np.sum(grid.r ** 2 * f ** 2)
        spect = grid.drho * np.sum(grid.rho ** 2 * fhat ** 2)
        worst_par = max(worst_par, abs(phys - spect) / phys)
    report("criterion 2 (involution + Parseval)",
           worst_inv <= 1e-12 and worst_par <= 1e-10,
           f"involution {worst_inv:.3e} <= 1e-12, parseval {worst_par:.3e} <= 1e-10")


@pytest.mark.slow
def test_criterion_03_linear_decay_rates(linear_reference):
    _, rep = linear_reference
    by_label = {e.label: e for e in rep.entries}
    l2 = by_label["L^2.0 linear"]
    li = by_label["L^inf linear"]
    ok = (abs(l2.fitted_exponent - 0.75) <= 0.05 and l2.r2 >= 0.995
          and abs(li.fitted_exponent - 2.0) <= 0.10 and li.r2 >= 0.995)
    report("criterion 3 (linear decay rates)", ok,
           f"L2 slope {l2.fitted_exponent:.4f} (r2={l2.r2:.5f}), "
           f"Linf slope {li.fitted_exponent:.4f} (r2={li.r2:.5f})")


@pytest.mark.slow
def test_criterion_04_sharpness_lower_bound(linear_reference, nonlinear_reference):
    lin_cfg, lin_rep = linear_reference
    nl_cfg, nl_rows = nonlinear_reference
    lin = run_lower_bound(lin_rep.rows, lin_cfg.linear_only)
    nl = run_lower_bound(nl_rows, nl_cfg.linear_only)
    le, ne = lin.entries[0].extra, nl.entries[0].extra
    ok = lin.passed and nl.passed
    report("criterion 4 (t^-2 sharpness floor)", ok,
           f"linear ratio {le['ratio']:.3f} <= 3, nonlinear ratio "
           f"{ne['ratio']:.3f} <= 3, minima > 0")


@pytest.mark.slow
def test_criterion_05_nonlinear_part_gain(nonlinear_reference):
    config, rows = nonlinear_reference
    rep = run_nonlinear_decay(rows, (2.0, math.inf), (150.0, 460.0))
    by_label = {e.label: e for e in rep.entries}
    nl2 = by_label["nonlinear part L^2"]
    nlb = by_label["nonlinear part B0_inf1"]
    ok = (abs(nl2.fitted_exponent - 1.25) <= 0.15 and nl2.r2 >= 0.98
          and abs(nlb.fitted_exponent - 2.5) <= 0.20 and nlb.r2 >= 0.98)
    report("criterion 5 (nonlinear-part decay gain)", ok,
           f"L2 slope {nl2.fitted_exponent:.4f} (r2={nl2.r2:.5f}), "
           f"B0_inf1 slope {nlb.fitted_exponent:.4f} (r2={nlb.r2:.5f})")


@pytest.mark.slow
def test_criterion_06_weighted_decay(nonlinear_reference):
    config, rows = nonlinear_reference
    rep = run_weighted_decay(rows)
    extra = rep.entries[0].extra
    report("criterion 6 (weighted sup decay)", rep.passed,
           f"(t+1)^(3/4)-scaled ratio {extra['ratio']:.3f} <= 5 over [1, 200]")


def test_criterion_07_besov_machinery():
    grid = make_grid(2047, 60.0)
    rng = np.random.default_rng(17)

    # (a) partition-of-unity reconstruction
    worst_rec = 0.0
    j_min, j_max = resolved_range(grid)
    for _ in range(5):
        coeffs = np.zeros(grid.n_modes)
        coeffs[40:1200] = rng.standard_normal(1160)
        total = np.zeros(grid.n_modes)
        for j in range(j_min, j_max + 1):
            support = block_support(grid, j)
            total[support] += block_multiplier(grid, j) * coeffs[support]
        worst_rec = max(worst_rec,
                        float(np.max(np.abs(total - coeffs))
                              / np.max(np.abs(coeffs))))

    # (b) triangle embedding L^p <= B^0_{p,1}
    margin_ok = True
    for p in (2.0, math.inf):
        for _ in range(20):
            coeffs = np.zeros(grid.n_modes)
            coeffs[40:1200] = rng.standard_normal(1160)
            lhs = lp_norm(grid, physical_values(grid, coeffs), p)
            rhs = pair_besov_norm(grid, coeffs, BesovSpec(0.0, p, 1.0))
            margin_ok = margin_ok and (lhs <= rhs + 1e-9)

    # (c) dilation covariance
    outer = 80.0
    g1 = make_grid(8191, outer)
    samples = np.exp(-g1.r ** 2) * np.cos(2.5 * g1.r)
    g2 = make_grid(8191, outer / 2.0)
    f1, f2 = to_spectral(g1, samples), to_spectral(g2, samples)
    worst_dil = 0.0
    for s, p in ((0.5, 2.0), (0.0, math.inf)):
        n1 = pair_besov_norm(g1, f1, BesovSpec(s, p, 1.0))
        n2 = pair_besov_norm(g2, f2, BesovSpec(s, p, 1.0))
        worst_dil = max(worst_dil, abs(n2 / (2.0 ** (s - 3.0 / p) * n1) - 1.0))

    ok = worst_rec <= 1e-10 and margin_ok and worst_dil <= 0.01
    report("criterion 7 (Besov machinery)", ok,
           f"reconstruction {worst_rec:.3e} <= 1e-10, triangle embedding holds, "
           f"dilation error {worst_dil:.3e} <= 1%")


def test_criterion_08_weighted_fourier_inequality():
    grid = make_grid(1023, 40.0)
    rng = np.random.default_rng(23)
    min_margin = math.inf
    for _ in range(20):
        coeffs = np.zeros(grid.n_modes)
        coeffs[10:300] = rng.standard_normal(290) * np.exp(-np.linspace(0, 6, 290))
        lhs = weighted_sup_norm(grid, physical_values(grid, coeffs))
        rhs = 4.0 * math.pi * grid.drho * np.sum(np.abs(coeffs) * grid.rho)
        min_margin = min(min_margin, rhs - lhs)
    report("criterion 8 (weighted Fourier bound)", min_margin >= 0.0,
           f"minimum margin {min_margin:.6f} >= 0 over 20 random fields")


def test_criterion_09_high_frequency_identity():
    worst, worst_kernel = 0.0, 0.0
    for rho in (2.0001, 2.1, 4.0, 16.0):
        for branch in ("plus", "minus"):
            lhs, rhs = hi_freq_identity_check(rho, 1.0, branch)
            worst = max(worst, abs(lhs - rhs) / abs(rhs))
        # the program's kernel: compare exponents, the value at rho = 16 is ~e^-255
        s = math.sqrt(1.0 - 4.0 / (rho * rho))
        exponent = math.log(kernel_values(np.array([rho]), 1.0)[0].real)
        worst_kernel = max(worst_kernel, abs(exponent + 2.0 / (1.0 - s)) / (2.0 / (1.0 - s)))
    report("criterion 9 (high-frequency exponent identity)",
           worst <= 1e-12 and worst_kernel <= 1e-12,
           f"worst relative gap {worst:.3e} <= 1e-12, both branches; kernel exponent "
           f"{worst_kernel:.3e} <= 1e-12")


@pytest.mark.slow
def test_criterion_10_kernel_probe():
    started = time.time()
    psi = CutoffPsi()
    scaled = []
    refine_ok = True
    for t in (16.0, 64.0, 256.0):
        coords = probe_coordinates(t)
        value = kernel_probe(t, psi)
        scaled.append(t * t * value)
        coarse = float(np.max(_probe_integral(t, psi, coords, 128)))
        fine = float(np.max(_probe_integral(t, psi, coords, 256)))
        refine_ok = refine_ok and abs(fine - coarse) / fine < 1e-6
    ratio = max(scaled) / min(scaled)
    elapsed = time.time() - started
    report("criterion 10 (anisotropic probe floor)",
           ratio <= 3.0 and min(scaled) > 0 and refine_ok,
           f"t^2-scaled ratio {ratio:.3f} <= 3, refinement < 1e-6, {elapsed:.0f}s")


def test_criterion_11_etd2_convergence(monkeypatch):
    config = SolverConfig(n_modes=511, outer_radius=30.0, dt=0.1, t_final=1.0,
                          output_interval=0.5, amplitude=0.01, width=1.0)

    def advance(dt):
        state = initial_state(config)
        tables = make_etd_tables(state.grid, dt)
        law = config.law()
        for _ in range(int(round(1.0 / dt))):
            state = step_etd2(state, law, config, tables)
        return state.pair

    reference = advance(0.025 / 8.0)
    errors = [float(np.max(np.abs(advance(dt) - reference)))
              for dt in (0.1, 0.05, 0.025)]
    orders = [math.log2(errors[i] / errors[i + 1]) for i in range(2)]
    order_ok = all(abs(order - 2.0) <= 0.4 for order in orders)

    # with the forcing switched off, a step is the exact linear flow
    state = initial_state(config)
    with monkeypatch.context() as patch:
        patch.setattr("radns.solver.nonlinear_rhs", zero_forcing)
        stepped = step_etd2(state, config.law(), config,
                            make_etd_tables(state.grid, 0.1))
    exact = apply_semigroup(state.grid, state.pair, 0.1)
    gap = float(np.max(np.abs(stepped.pair - exact)))
    zero_cfg = SolverConfig(n_modes=511, outer_radius=30.0, dt=0.1, t_final=1.0,
                            output_interval=0.5, amplitude=0.0)
    zstate = initial_state(zero_cfg)
    zstep = step_etd2(zstate, zero_cfg.law(), zero_cfg,
                      make_etd_tables(zstate.grid, 0.1))
    zero_ok = bool(np.all(zstep.pair == 0.0))

    report("criterion 11 (ETD2 self-convergence)",
           order_ok and gap <= 1e-12 and zero_ok,
           f"orders {orders[0]:.2f}, {orders[1]:.2f} in 2 +- 0.4; "
           f"propagator gap {gap:.2e} <= 1e-12; zero data stays zero")


def test_criterion_12_csv_determinism(tmp_path):
    config_text = """\
N = 2047
R = 60
dt = 0.05
T = 20
gamma = 1.4
c = 0.01
"""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config_text)
    outputs = []
    for name in ("first", "second"):
        out = tmp_path / name
        code = command_dispatch(["simulate", "--config", str(cfg),
                                 "--out", str(out), "--quiet"])
        assert code == 0
        outputs.append((out / "diagnostics.csv").read_bytes())
    report("criterion 12 (byte-identical CSV)", outputs[0] == outputs[1],
           f"two runs emitted identical {len(outputs[0])} bytes")
