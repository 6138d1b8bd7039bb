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
