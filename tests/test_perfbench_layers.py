"""The benchmark tracer's layer table must name functions that exist.

`perfbench/tracing.py` rebinds each `(module, attr)` in its `LAYERS` table by
name, so renaming or removing one of those functions would otherwise show up
only when the traced benchmark runs.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)   # leave perfbench/ untouched
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_resolves_to_a_callable(monkeypatch):
    tracing = load_tracing(monkeypatch)
    missing = [f"{name}: {mod}.{attr}"
               for name, (mod, attr) in tracing.LAYERS.items()
               if not callable(getattr(importlib.import_module(mod), attr, None))]
    assert tracing.LAYERS and not missing, missing


def install_tracer(monkeypatch):
    """The tracing module and a tracer installed over every radns module,
    with the rebinding undone at the end of the test."""
    import radns.cli  # noqa: F401  (loads every radns module the tracer rebinds)

    tracing = load_tracing(monkeypatch)
    modules = [m for n, m in sys.modules.items() if n == "radns" or n.startswith("radns.")]
    for mod_name, attr in tracing.LAYERS.values():
        fn = getattr(sys.modules[mod_name], attr)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is fn:
                    monkeypatch.setattr(mod, key, value)
    return tracing, tracing.Tracer().install()


def test_linear_rows_traces_through_simulate(monkeypatch):
    """The traced linear-decay run nests decay.linear_rows > solver.simulate >
    solver.diagnostics_row, which the per-row transform count relies on."""
    from radns import decay
    from radns.solver import SolverConfig

    _, tracer = install_tracer(monkeypatch)
    decay.linear_rows(SolverConfig(n_modes=64, outer_radius=60.0, t_final=4.0))
    parent = {span[0]: tracer.spans[span[3]][0] for span in tracer.spans if span[3] >= 0}
    assert parent["solver.simulate"] == "decay.linear_rows"
    assert parent["solver.diagnostics_row"] == "solver.simulate"
    assert "solver.step_etd2" not in parent


def test_probe_refinements_and_defaults_reach_the_tracer(monkeypatch):
    """The tracer reads n_nodes as _probe_integral's fourth positional argument
    and kernel_probe's refine_rtol / max_nodes from its signature defaults."""
    import radns.semigroup
    from radns.semigroup import CutoffPsi

    tracing, tracer = install_tracer(monkeypatch)
    radns.semigroup.kernel_probe(16.0, CutoffPsi())
    assert [n for _, n, _ in tracer.probe_history] == [32, 64, 128, 256]
    assert tracing.probe_defaults(radns.semigroup) == (1e-6, 256)
