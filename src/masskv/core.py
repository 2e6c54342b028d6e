"""Compression configuration and the errors every module raises."""

from __future__ import annotations

import dataclasses
import math
import numbers
from dataclasses import dataclass


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
            if not _has_type(getattr(self, f.name), f.type):
                raise ConfigError(f"{f.name}={getattr(self, f.name)!r} is not a valid {f.type}")
        if not (0.0 < self.segment_mass <= 1.0):
            raise ConfigError(f"segment_mass must be in (0, 1], got {self.segment_mass}")
        if not (0.0 < self.ema_decay < 1.0):
            raise ConfigError(f"ema_decay must be in (0, 1), got {self.ema_decay}")
        if not (0.0 <= self.mass_mix <= 1.0):
            raise ConfigError(f"mass_mix must be in [0, 1], got {self.mass_mix}")
        if self.min_seg_len > self.max_seg_len:
            raise ConfigError(
                f"min_seg_len {self.min_seg_len} exceeds max_seg_len {self.max_seg_len}"
            )
        if self.min_seg_len < 1:
            raise ConfigError("min_seg_len must be >= 1")
        if self.epsilon <= 0.0:
            raise ConfigError(f"epsilon must be > 0, got {self.epsilon}")
        if self.smooth_kernel < 1 or self.smooth_kernel % 2 == 0:
            raise ConfigError(f"smooth_kernel must be odd and >= 1, got {self.smooth_kernel}")
        if self.interval < 1:
            raise ConfigError("interval must be >= 1")
        if self.window < 1:
            raise ConfigError("window must be >= 1")
        if self.min_quota < 0:
            raise ConfigError("min_quota must be >= 0")
        if self.n_sink < 0 or self.n_last < 0:
            raise ConfigError("n_sink and n_last must be >= 0")
        if self.t_keep is not None and self.t_keep < 1:
            raise ConfigError(f"t_keep must be >= 1, got {self.t_keep}")

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


def _has_type(value, annotation: str) -> bool:
    """Whether a config value fits its field's annotation: integers include
    NumPy ones and must fit in an int64, as the arrays that hold them do;
    floats are finite reals, and a bool fits only a bool field."""
    if isinstance(value, bool) or annotation == "bool":
        return isinstance(value, bool) and annotation == "bool"
    if annotation == "float":
        return isinstance(value, numbers.Real) and math.isfinite(value)
    if isinstance(value, numbers.Integral):
        return -(2**63) <= value < 2**63
    return value is None and annotation == "int | None"


def default_config() -> CompressionConfig:
    """Default hyperparameters; ``t_keep`` is left unset for the caller."""
    return CompressionConfig()

