"""Plain-text `key = value` run configuration with exhaustive error reporting."""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from typing import Any

from .errors import ConfigurationError
from .solver import SolverConfig


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("true", "yes", "on", "1"):
        return True
    if low in ("false", "no", "off", "0"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parse_float(text: str) -> float:
    low = text.strip().lower()
    if low in ("inf", "infinity"):
        return math.inf
    value = float(text)
    if math.isnan(value):
        raise ValueError("nan is not a valid parameter value")
    return value


def _parse_float_list(text: str) -> list[float]:
    return [_parse_float(part) for part in text.replace(",", " ").split()]


@dataclass(frozen=True)
class _Key:
    parse: Any
    check: Any = None
    message: str = ""


# every recognised key with its parser and range check
_SCHEMA: dict[str, _Key] = {
    "N": _Key(int, lambda v: v >= 8, "below minimum 8"),
    "R": _Key(_parse_float, lambda v: 0 < v < math.inf, "must be finite and positive"),
    "dt": _Key(_parse_float, lambda v: 0 < v < math.inf, "must be finite and positive"),
    "T": _Key(_parse_float, lambda v: 0 <= v < math.inf, "must be finite and non-negative"),
    "gamma": _Key(_parse_float, lambda v: 1 < v < math.inf, "must be finite and exceed 1"),
    "c": _Key(_parse_float, lambda v: 0 <= v < math.inf, "must be finite and non-negative"),
    "w": _Key(_parse_float, lambda v: 0 < v < math.inf, "must be finite and positive"),
    "output_interval": _Key(_parse_float, lambda v: 0 < v < math.inf, "must be finite and positive"),
    "guard": _Key(_parse_float, lambda v: 0 < v < 1, "must lie in (0, 1)"),
    "linear_only": _Key(_parse_bool),
    # the CSV holds the p = 2 and p = inf norms only
    "p_list": _Key(_parse_float_list, lambda vs: vs and all(v in (2, math.inf) for v in vs),
                   "must list one or more entries, each 2 or inf"),
    "t_list": _Key(_parse_float_list, lambda vs: vs and all(4 <= v < math.inf for v in vs),
                   "must list one or more entries, each finite and >= 4"),
    "fit_t_lo": _Key(_parse_float, lambda v: v > 0, "must be positive"),
    "fit_t_hi": _Key(_parse_float, lambda v: v > 0, "must be positive"),
    "fit_tol": _Key(_parse_float, lambda v: v > 0, "must be positive"),
    "target": _Key(_parse_float),
    "csv": _Key(str),
    "column": _Key(str),
    "s": _Key(_parse_float, math.isfinite, "must be finite"),
    "p": _Key(_parse_float, lambda v: v >= 1, "must be at least 1"),
    "q": _Key(_parse_float, lambda v: v >= 1, "must be at least 1"),
    "band": _Key(str, lambda v: v in ("full", "low", "high"),
                 "must be full, low or high"),
    "j0": _Key(int),
}

#: config key -> SolverConfig field; the field's default is the key's default
_SOLVER_FIELDS = {
    "N": "n_modes", "R": "outer_radius", "dt": "dt", "T": "t_final",
    "output_interval": "output_interval", "gamma": "gamma", "c": "amplitude",
    "w": "width", "guard": "density_guard", "linear_only": "linear_only",
}

_DEFAULTS: dict[str, Any] = {
    **{key: getattr(SolverConfig, name) for key, name in _SOLVER_FIELDS.items()},
    "p_list": [2.0, math.inf], "t_list": [16.0, 64.0, 256.0],
    "fit_t_lo": 10.0, "fit_t_hi": 200.0, "fit_tol": 0.1, "column": "l2_av",
    "s": 0.0, "p": 2.0, "q": 1.0, "band": "full", "j0": 0,
}


@dataclass
class RunConfig:
    """Typed key/value bag produced by parse_config."""

    params: dict = dc_field(default_factory=dict)
    errors: list = dc_field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.errors

    def get(self, key: str):
        if key in self.params:
            return self.params[key]
        return _DEFAULTS[key]

    def has(self, key: str) -> bool:
        return key in self.params

    def solver_config(self) -> SolverConfig:
        return SolverConfig(**{name: self.get(key) for key, name in _SOLVER_FIELDS.items()})


def parse_config(text: str) -> RunConfig:
    """Parse `key = value` lines; collect every error rather than the first."""
    config = RunConfig()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            config.errors.append(f"missing '=' (line {lineno})")
            continue
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _SCHEMA:
            config.errors.append(f"unknown key {key!r} (line {lineno})")
            continue
        schema = _SCHEMA[key]
        try:
            parsed = schema.parse(value)
        except ValueError:
            config.errors.append(
                f"cannot parse value {value!r} for {key} (line {lineno})")
            continue
        if schema.check is not None and not schema.check(parsed):
            config.errors.append(f"{key} {schema.message} (line {lineno})")
            continue
        if key in config.params:
            config.errors.append(f"duplicate key {key!r} (line {lineno})")
            continue
        config.params[key] = parsed
    if config.get("fit_t_lo") >= config.get("fit_t_hi"):
        config.errors.append("fit_t_lo must be below fit_t_hi")
    return config


def load_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_config(fh.read())
    except OSError as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc}") from exc
