"""Compression configuration, the checks of every run input, and the errors
every module raises."""

from __future__ import annotations

import dataclasses
import math
import numbers
from dataclasses import dataclass

import numpy as np


class ConfigError(ValueError):
    """A configuration value is outside its documented range."""


class ContractViolation(ValueError):
    """An operation was called with arguments violating its precondition."""


@dataclass(frozen=True)
class CompressionConfig:
    """Knobs for one compression policy run.

    ``t_keep`` (the post-compression cache length) has no default and must be
    supplied by the caller before a run. Mode flags select the ablation
    variants: history-aware mass off, length-proportional quotas, or
    fixed-length segments.
    """

    t_keep: int | None = None       # post-compression cache length budget
    interval: int = 512             # tokens between compression events
    segment_mass: float = 0.1       # target mass per initial segment
    min_seg_len: int = 16
    max_seg_len: int = 256
    min_quota: int = 1              # per-segment retention floor
    n_sink: int = 4                 # always-kept prefix tokens
    n_last: int = 16                # always-kept recent suffix
    ema_decay: float = 0.9          # credit decay per event
    mass_mix: float = 0.9           # weight of current mass vs. credit
    window: int = 128               # recent decoding queries aggregated into usage
    epsilon: float = 1e-6           # positivity floor in mass normalization
    smooth_kernel: int = 5          # odd 1D average-pool width over usage
    ema_on: bool = True
    mass_weighted_quotas_on: bool = True
    fixed_length_segments_on: bool = False

    def __post_init__(self):
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if f.name == "t_keep" and value is None:
                continue
            rule, ok = CONFIG_RULES.get(f.name, ("a bool", lambda v: True))
            if not (is_value(value, f.type.split()[0]) and ok(value)):
                raise ConfigError(f"{f.name}={shown(value)} must be {rule}")
        if self.min_seg_len > self.max_seg_len:
            raise ConfigError(f"min_seg_len={shown(self.min_seg_len)} must be <= max_seg_len")

    def replace(self, /, **changes) -> "CompressionConfig":
        # self is positional-only, so even a key named "self" gets this check
        unknown = changes.keys() - {f.name for f in dataclasses.fields(self)}
        if unknown:
            raise ConfigError(f"unknown config keys {sorted(unknown)}")
        return dataclasses.replace(self, **changes)

    def require_t_keep(self) -> int:
        if self.t_keep is None:
            raise ConfigError("t_keep is unset; supply it before running a policy")
        if self.t_keep < self.n_sink:
            raise ConfigError(f"t_keep {self.t_keep} is smaller than n_sink {self.n_sink}")
        return self.t_keep


# every number field of CompressionConfig: the values it may take, which
# name its kind, and its range check; the field's annotation gives its kind,
# and min_seg_len <= max_seg_len is checked across the two fields
CONFIG_RULES = {
    "t_keep": ("an integer >= 1", lambda v: v >= 1),
    "interval": ("an integer >= 1", lambda v: v >= 1),
    "segment_mass": ("a number in (0, 1]", lambda v: 0 < v <= 1),
    "min_seg_len": ("an integer >= 1", lambda v: v >= 1),
    "max_seg_len": ("an integer >= 1", lambda v: v >= 1),
    "min_quota": ("an integer >= 0", lambda v: v >= 0),
    "n_sink": ("an integer >= 0", lambda v: v >= 0),
    "n_last": ("an integer >= 0", lambda v: v >= 0),
    "ema_decay": ("a number in (0, 1)", lambda v: 0 < v < 1),
    "mass_mix": ("a number in [0, 1]", lambda v: 0 <= v <= 1),
    "window": ("an integer >= 1", lambda v: v >= 1),
    "epsilon": ("a number > 0", lambda v: v > 0),
    "smooth_kernel": ("an odd integer >= 1", lambda v: v >= 1 and v % 2 == 1),
}


def is_value(value, kind: str) -> bool:
    """Whether ``value`` is a run input of ``kind``: "bool" is a bool; "int"
    an integer, NumPy's included, that fits an int64, as the arrays that hold
    it do; "float" a finite real, integers included. A bool is never an int
    or a float, and an integer too large for a float is not finite."""
    if isinstance(value, bool) or kind == "bool":
        return isinstance(value, bool) and kind == "bool"
    if kind == "int":
        return isinstance(value, numbers.Integral) and -(2**63) <= value < 2**63
    try:
        return isinstance(value, numbers.Real) and math.isfinite(value)
    except OverflowError:  # an integer too large for a float
        return False


def integers(values, what: str) -> np.ndarray:
    """``values`` as int64: non-integers, bools included, are rejected, never
    truncated, and an empty list is an empty set."""
    values = np.asarray(values)
    if values.size and values.dtype.kind not in "iu":
        raise ContractViolation(f"{what} must be integers, got {values.dtype}")
    return values.astype(np.int64, copy=False)


def shown(value) -> str:
    """``value`` as an error shows it: an int past int64 by its size, as its repr may raise."""
    bits = int(value).bit_length() if isinstance(value, numbers.Integral) else 0
    return f"<an integer of {bits} bits>" if bits > 64 else repr(value)


def check_name(kind: str, value, choices, where: str = "") -> None:
    """Raise a ConfigError unless ``value`` is one of the names ``choices``;
    a value that is not a string, hashable or not, is none of them."""
    if not (isinstance(value, str) and value in choices):
        raise ConfigError(f"{where}unknown {kind} {shown(value)}; choose from {', '.join(choices)}")


def default_config() -> CompressionConfig:
    """Default hyperparameters; ``t_keep`` is left unset for the caller."""
    return CompressionConfig()

