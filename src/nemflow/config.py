"""Flat key-value run configuration.

The format is one `key = value` per line, `#` starts a comment, and nested
settings use dotted keys (picard.tol, ic.seed, output.trace_path).  Unknown
keys are hard errors so typos cannot silently fall back to defaults.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

from .energetics import ModelParams
from .fields import GridSpec
from .stepper import PicardConfig

IC_KINDS = ("uniform_perturbed", "random_smooth", "defect_pair")


class ConfigError(ValueError):
    """Configuration parse or validation failure; carries a line number when
    the offending key is known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


@dataclass(frozen=True)
class InitialConditionSpec:
    kind: str = "uniform_perturbed"
    seed: int = 0
    amplitude: float = 0.1

    def __post_init__(self):
        if self.kind not in IC_KINDS:
            raise ConfigError(f"ic.kind must be one of {IC_KINDS}, got {self.kind!r}")
        if not 0 <= self.seed < 2**64:
            # the initial-condition stream is keyed by the seed mod 2**64
            raise ConfigError(f"0 <= ic.seed < 2**64 required, got {self.seed}")
        if self.amplitude < 0:
            raise ConfigError("ic.amplitude >= 0 required")


@dataclass(frozen=True)
class OutputSpec:
    trace_path: str = "energy_trace.csv"
    snapshot_dir: str = "snapshots"
    snapshot_every: int = 0
    full_state: bool = False

    def __post_init__(self):
        if self.snapshot_every < 0:
            raise ConfigError("output.snapshot_every >= 0 required")


@dataclass(frozen=True)
class RunConfig:
    grid: GridSpec
    params: ModelParams
    t_end: float
    picard: PicardConfig = field(default_factory=PicardConfig)
    ic: InitialConditionSpec = field(default_factory=InitialConditionSpec)
    output: OutputSpec = field(default_factory=OutputSpec)

    def __post_init__(self):
        if not self.t_end > 0:
            raise ConfigError("t_end > 0 required")
        tau_min = self.picard.tau_min
        if tau_min is not None and tau_min > self.params.tau:
            raise ConfigError("picard.tau_min must satisfy 0 < tau_min <= tau")
        if self.ic.kind == "defect_pair" and self.grid.dim != 2:
            raise ConfigError("ic.kind = defect_pair requires dim = 2")


# key -> (section, field, type); the section's dataclass holds the default
_KEYS = {
    "dim": ("grid", "dim", int),
    "n": ("grid", "n", int),
    "dealias": ("grid", "dealias", str),
    "rho": ("params", "rho", float),
    "eta": ("params", "eta", float),
    "alpha": ("params", "alpha", float),
    "gamma": ("params", "gamma", float),
    "epsilon": ("params", "epsilon", float),
    "tau": ("params", "tau", float),
    "t_end": ("run", "t_end", float),
    "picard.tol": ("picard", "tol", float),
    "picard.max_iter": ("picard", "max_iter", int),
    "picard.tau_shrink": ("picard", "tau_shrink", float),
    "picard.tau_min": ("picard", "tau_min", float),
    "ic.kind": ("ic", "kind", str),
    "ic.seed": ("ic", "seed", int),
    "ic.amplitude": ("ic", "amplitude", float),
    "output.trace_path": ("output", "trace_path", str),
    "output.snapshot_dir": ("output", "snapshot_dir", str),
    "output.snapshot_every": ("output", "snapshot_every", int),
    "output.full_state": ("output", "full_state", bool),
}

_REQUIRED = ("dim", "n", "tau", "t_end")


def _parse_value(key: str, raw: str, line: int):
    kind = _KEYS[key][2]
    try:
        if kind is bool:
            low = raw.lower()
            if low in ("true", "yes", "1", "on"):
                return True
            if low in ("false", "no", "0", "off"):
                return False
            raise ValueError(raw)
        value = kind(raw)
    except ValueError:
        raise ConfigError(f"cannot parse {key} value {raw!r} as {kind.__name__}", line)
    if kind is float and not math.isfinite(value):
        raise ConfigError(f"{key} must be finite, got {raw!r}", line)
    return value


def parse_config(text: str) -> RunConfig:
    """Parse and fully validate a configuration document.

    Raises ConfigError with a line number on malformed lines or unknown keys,
    and with the violated invariant on bad values.
    """
    values: dict[str, object] = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value', got {raw_line.strip()!r}", lineno)
        key, _, raw = line.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key not in _KEYS:
            raise ConfigError(f"unknown key {key!r}", lineno)
        if key in values:
            raise ConfigError(f"duplicate key {key!r}", lineno)
        if not raw:
            raise ConfigError(f"empty value for {key!r}", lineno)
        values[key] = _parse_value(key, raw, lineno)

    missing = [k for k in _REQUIRED if k not in values]
    if missing:
        raise ConfigError(f"missing required keys: {', '.join(missing)}")

    sections: defaultdict[str, dict[str, object]] = defaultdict(dict)
    for key, value in values.items():
        section, name, _ = _KEYS[key]
        sections[section][name] = value
    try:
        return RunConfig(
            grid=GridSpec(**sections["grid"]),
            params=ModelParams(**sections["params"]),
            picard=PicardConfig(**sections["picard"]),
            ic=InitialConditionSpec(**sections["ic"]),
            output=OutputSpec(**sections["output"]),
            **sections["run"],
        )
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def load_config(path: str | Path) -> RunConfig:
    return parse_config(Path(path).read_text(encoding="utf-8"))
