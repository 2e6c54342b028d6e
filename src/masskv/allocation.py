"""Segment quota allocation under the global retention budget.

Must-keep positions (sinks + recent suffix) are carved out first; the
remaining budget is spread over segments with a per-segment floor and
mass-proportional shares, rounded by largest-remainder so the total is exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from masskv.core import CompressionConfig, ConfigError, ContractViolation
from masskv.segmentation import SegmentSet


class MustKeepSet:
    """Sink prefix plus recent suffix, always retained.

    Sinks survive reconciliation unconditionally; the suffix is what shrinks
    when the budget cannot fit both.
    """

    def __init__(self, sinks: np.ndarray, recent: np.ndarray):
        self.sinks = np.asarray(sinks, dtype=np.int64)
        self.recent = np.asarray(recent, dtype=np.int64)
        self.indices = np.union1d(self.sinks, self.recent)

    @property
    def size(self) -> int:
        return self.indices.size


def must_keep(total: int, cfg: CompressionConfig) -> MustKeepSet:
    """First min(n_sink, T) indices plus last min(n_last, T), deduplicated."""
    if total < 1:
        raise ContractViolation("cache length must be >= 1")
    sinks = np.arange(min(cfg.n_sink, total), dtype=np.int64)
    recent = np.arange(max(total - cfg.n_last, 0), total, dtype=np.int64)
    recent = np.setdiff1d(recent, sinks)
    return MustKeepSet(sinks, recent)


def reconcile_budget(must: MustKeepSet, t_keep: int) -> tuple[MustKeepSet, int]:
    """Shrink the recent suffix until the must-keep set fits the budget.

    Sinks are never dropped; the oldest suffix entries go first. Returns the
    reconciled set and the remaining budget for segment quotas.
    """
    if t_keep < must.sinks.size:
        raise ConfigError(f"t_keep {t_keep} cannot cover {must.sinks.size} sink tokens")
    overshoot = must.size - t_keep
    if overshoot > 0:
        recent = must.recent[overshoot:]
        must = MustKeepSet(must.sinks, recent)
    return must, t_keep - must.size


def largest_remainder(weights: np.ndarray, total: int) -> np.ndarray:
    """Hamilton apportionment: integer shares proportional to weights summing
    exactly to ``total``; remainder ties go to the lower index."""
    weights = np.asarray(weights, dtype=np.float64)
    if total < 0:
        raise ContractViolation("total must be >= 0")
    if weights.size == 0:
        if total:
            raise ContractViolation("cannot apportion a positive total over nothing")
        return np.zeros(0, dtype=np.int64)
    wsum = weights.sum()
    if wsum <= 0.0:
        weights = np.ones_like(weights)
        wsum = weights.sum()
    shares = total * weights / wsum
    q = np.floor(shares).astype(np.int64)
    deficit = total - q.sum()
    if deficit > 0:
        order = np.argsort(-(shares - q), kind="stable")
        q[order[:deficit]] += 1
    return q


def apportion_with_caps(weights: np.ndarray, total: int, caps: np.ndarray) -> np.ndarray:
    """Largest-remainder shares clipped at caps, with clipped surplus
    redistributed to uncapped entries by weight. Each round either finishes
    or saturates at least one entry, so at most len(weights) rounds run."""
    weights = np.asarray(weights, dtype=np.float64)
    caps = np.asarray(caps, dtype=np.int64)
    if total > caps.sum():
        raise ContractViolation(f"total {total} exceeds capacity {caps.sum()}")
    q = np.zeros_like(caps)
    active = caps > 0
    remaining = int(total)
    for _ in range(caps.size):
        if remaining == 0 or not active.any():
            break
        alloc = largest_remainder(weights[active], remaining)
        q[active] += alloc
        over = np.maximum(q - caps, 0)
        q -= over
        remaining = int(over.sum())
        active &= q < caps
    return q


@dataclass
class QuotaVector:
    """Per-segment retention quotas with the bookkeeping behind them."""

    quotas: np.ndarray
    seg_mass: np.ndarray
    seg_len: np.ndarray
    t_rem: int

    def __post_init__(self):
        if self.quotas.sum() != self.t_rem:
            raise ContractViolation("quotas must sum to the remaining budget exactly")
        if (self.quotas > self.seg_len).any() or (self.quotas < 0).any():
            raise ContractViolation("quota outside [0, segment length]")


def compute_quotas(
    segs: SegmentSet, m: np.ndarray, t_rem: int, cfg: CompressionConfig
) -> QuotaVector:
    """Split ``t_rem`` retained-token slots across segments.

    Every segment first gets min(min_quota, L_i); the rest is shared in
    proportion to segment mass (or length, in the unweighted ablation) with
    largest-remainder rounding and cap-and-redistribute to honor q_i <= L_i.
    When the budget cannot even cover the floors, the floors themselves are
    apportioned.
    """
    if t_rem < 0:
        raise ContractViolation("t_rem must be >= 0")
    lengths = segs.lengths
    masses = segs.masses(m)
    if t_rem > lengths.sum():
        raise ContractViolation(f"budget {t_rem} exceeds cache size {lengths.sum()}")
    floors = np.minimum(cfg.min_quota, lengths)
    weights = masses if cfg.mass_weighted_quotas_on else lengths.astype(np.float64)
    if t_rem < floors.sum():
        quotas = apportion_with_caps(floors.astype(np.float64), t_rem, floors)
    else:
        extra = apportion_with_caps(weights, t_rem - int(floors.sum()), lengths - floors)
        quotas = floors + extra
    return QuotaVector(quotas=quotas, seg_mass=masses, seg_len=lengths, t_rem=int(t_rem))
