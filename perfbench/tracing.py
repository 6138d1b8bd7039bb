"""In-memory span tracer that wraps radns's public functions from outside.

Each traced layer is a function that callers look up as a module global
(``solver.step_etd2``, ``spectral.dst``, ...).  ``install`` replaces every
``radns.*`` module binding of that function object with a wrapper that
records one span ``(name, start, end, parent)``, so the program itself is
not edited.  Spans stay in memory; ``write`` dumps them once at the end and
``summarise`` turns them into per-layer totals, self times and counts.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict

#: span name -> (module, attribute) of the function it wraps
LAYERS = {
    "cli.dispatch": ("radns.cli", "command_dispatch"),
    "cli.write": ("radns.cli", "write_csv"),
    "cli.write_json": ("radns.cli", "write_json"),
    "config.load": ("radns.config", "load_config"),
    "solver.simulate": ("radns.solver", "simulate"),
    "solver.make_etd_tables": ("radns.solver", "make_etd_tables"),
    "solver.step_etd2": ("radns.solver", "step_etd2"),
    "solver.nonlinear_rhs": ("radns.solver", "nonlinear_rhs"),
    "solver.diagnostics_row": ("radns.solver", "diagnostics_row"),
    "semigroup.phi_coefficients": ("radns.semigroup", "phi_pair_coefficients"),
    "semigroup.mode_matrices": ("radns.semigroup", "mode_matrices"),
    "semigroup.apply_semigroup": ("radns.semigroup", "apply_semigroup"),
    "semigroup.probe": ("radns.semigroup", "kernel_probe"),
    "semigroup.probe_integral": ("radns.semigroup", "_probe_integral"),
    "besov.pair_besov_norm": ("radns.besov", "pair_besov_norm"),
    "decay.linear_rows": ("radns.decay", "linear_rows"),
    "decay.fit": ("radns.decay", "fit_decay_exponent"),
    "decay.block_frame_sup": ("radns.decay", "block_frame_sup"),
    "spectral.dst": ("radns.spectral", "dst"),
    "spectral.dct": ("radns.spectral", "dct"),
}

#: spans reported under another span's name (both writers are one layer)
_ALIAS = {"cli.write_json": "cli.write"}
TRANSFORMS = ("spectral.dst", "spectral.dct")

#: reported span names, in report order
SPANS = [name for name in LAYERS if name not in _ALIAS]


class Tracer:
    def __init__(self):
        self.spans = []             # [name, start, end, parent, transforms]
        self._open = []
        self.transforms = 0
        self.transform_bytes = 0
        self.probe_history = []     # (parent probe span, n_nodes, sup value)

    def _wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(tracer.spans)
            parent = tracer._open[-1] if tracer._open else -1
            span = [name, time.perf_counter(), None, parent, None]
            tracer.spans.append(span)
            tracer._open.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer._open.pop()
            if name in TRANSFORMS:
                tracer._count_transform(span, args, kwargs)
            elif name == "semigroup.probe_integral":
                n_nodes = args[3] if len(args) > 3 else kwargs["n_nodes"]
                tracer.probe_history.append((parent, int(n_nodes), float(out.max())))
            return out

        return wrapper

    def _count_transform(self, span, args, kwargs):
        x = args[0]
        axis = kwargs.get("axis", -1)
        n_1d = x.size // x.shape[axis] if x.ndim else 1
        self.transforms += n_1d
        # computed, not measured: the input read once and the output written once
        self.transform_bytes += 2 * x.nbytes
        span[4] = n_1d

    def install(self):
        """Rebind every radns module global that holds a traced function."""
        modules = [m for n, m in sys.modules.items()
                   if (n == "radns" or n.startswith("radns.")) and m is not None]
        for name, (mod_name, attr) in LAYERS.items():
            fn = getattr(sys.modules[mod_name], attr)
            wrapper = self._wrap(_ALIAS.get(name, name), fn)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, wrapper)
        return self

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "transforms"],
                       "spans": self.spans}, fh)

    def summarise(self, probe_rtol, probe_max_nodes):
        """Per-layer totals (inclusive and self seconds, calls) plus counts."""
        total = defaultdict(float)
        child = defaultdict(float)
        calls = defaultdict(int)
        for name, start, end, parent, _ in self.spans:
            total[name] += end - start
            calls[name] += 1
            if parent >= 0:
                child[parent] += end - start
        self_s = defaultdict(float)
        for idx, (name, start, end, _, _) in enumerate(self.spans):
            self_s[name] += end - start - child[idx]

        out = {}
        for name in SPANS:
            out[f"{name}_s"] = total[name]
            out[f"{name}_self_s"] = self_s[name]
            out[f"{name}_calls"] = calls[name]
        out["spectral.transform_s"] = sum(total[name] for name in TRANSFORMS)
        out["spectral.transforms"] = self.transforms
        out["spectral.transform_bytes_computed"] = self.transform_bytes
        out["spectral.transforms_per_step"] = self._transforms_under("solver.step_etd2")
        out["spectral.transforms_per_row"] = self._transforms_under("solver.diagnostics_row")
        out["semigroup.probe_quadrature_points"] = sum(n ** 3 for _, n, _ in self.probe_history)
        out["semigroup.probe_unconverged"] = self._unconverged(probe_rtol)
        out["semigroup.probe_at_max_nodes"] = self._at_max_nodes(probe_max_nodes)
        return out

    def _transforms_under(self, layer):
        """Transforms issued inside `layer` spans, per `layer` call."""
        owner = {}
        n_calls = 0
        found = 0
        for idx, (name, _, _, parent, n_1d) in enumerate(self.spans):
            top = owner.get(parent)
            if name == layer and top is None:
                owner[idx] = idx
                n_calls += 1
                continue
            owner[idx] = top
            if top is not None and n_1d:
                found += n_1d
        return found / n_calls if n_calls else 0.0

    def _refinements(self):
        """[(n_nodes, sup value), ...] of each probe call, in call order."""
        by_call = defaultdict(list)
        for parent, n_nodes, value in self.probe_history:
            by_call[parent].append((n_nodes, value))
        return list(by_call.values())

    def _unconverged(self, rtol):
        """Probe calls whose last two refinements still differ by more than rtol."""
        return sum(1 for history in self._refinements()
                   if len(history) < 2
                   or abs(history[-1][1] - history[-2][1]) > rtol * abs(history[-1][1]))

    def _at_max_nodes(self, max_nodes):
        """Probe calls whose refinement reached the node cap."""
        return sum(1 for history in self._refinements() if history[-1][0] >= max_nodes)


def probe_defaults(semigroup_module):
    """(refine_rtol, max_nodes) that `kernel_probe` uses when called with defaults."""
    params = inspect.signature(semigroup_module.kernel_probe).parameters
    return params["refine_rtol"].default, params["max_nodes"].default
