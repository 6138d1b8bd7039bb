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
    "R": _Key(_parse_float, lambda v: v > 0, "must be positive"),
    "dt": _Key(_parse_float, lambda v: v > 0, "must be positive"),
    "T": _Key(_parse_float, lambda v: v >= 0, "must be non-negative"),
    "gamma": _Key(_parse_float, lambda v: v > 1, "must exceed 1"),
    "c": _Key(_parse_float, lambda v: v >= 0, "must be non-negative"),
    "w": _Key(_parse_float, lambda v: v > 0, "must be positive"),
    "output_interval": _Key(_parse_float, lambda v: v > 0, "must be positive"),
    "dealias": _Key(_parse_float, lambda v: 0 < v <= 1, "must lie in (0, 1]"),
    "guard": _Key(_parse_float, lambda v: 0 < v < 1, "must lie in (0, 1)"),
    "linear_only": _Key(_parse_bool),
    "p_list": _Key(_parse_float_list, lambda vs: vs and all(v >= 2 for v in vs),
                   "must list one or more entries, each >= 2"),
    "t_list": _Key(_parse_float_list, lambda vs: vs and all(v >= 4 for v in vs),
                   "must list one or more entries, each >= 4"),
    "fit_t_lo": _Key(_parse_float, lambda v: v > 0, "must be positive"),
    "fit_t_hi": _Key(_parse_float, lambda v: v > 0, "must be positive"),
    "fit_tol": _Key(_parse_float, lambda v: v > 0, "must be positive"),
    "target": _Key(_parse_float),
    "csv": _Key(str),
    "column": _Key(str),
    "s": _Key(_parse_float),
    "p": _Key(_parse_float, lambda v: v >= 1, "must be at least 1"),
    "q": _Key(_parse_float, lambda v: v >= 1, "must be at least 1"),
    "band": _Key(str, lambda v: v in ("full", "low", "high"),
                 "must be full, low or high"),
    "j0": _Key(int),
}

_DEFAULTS: dict[str, Any] = {
    "N": 16384, "R": 500.0, "dt": 0.05, "T": 200.0, "gamma": 1.4,
    "c": 0.01, "w": 1.0, "output_interval": 1.0, "dealias": 2.0 / 3.0,
    "guard": 0.5, "linear_only": False,
    "p_list": [2.0, math.inf], "t_list": [16.0, 64.0, 256.0],
    "fit_t_lo": 10.0, "fit_t_hi": 200.0, "fit_tol": 0.1,
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
        return SolverConfig(
            n_modes=self.get("N"),
            outer_radius=self.get("R"),
            dt=self.get("dt"),
            t_final=self.get("T"),
            output_interval=self.get("output_interval"),
            gamma=self.get("gamma"),
            amplitude=self.get("c"),
            width=self.get("w"),
            dealias_fraction=self.get("dealias"),
            density_guard=self.get("guard"),
            linear_only=self.get("linear_only"),
        )


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
