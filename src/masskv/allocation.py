"""Segment quota allocation under the global retention budget.

Must-keep positions (sinks + recent suffix) are carved out first; the
remaining budget is spread over segments with a per-segment floor and
mass-proportional shares, rounded by largest-remainder so the total is exact.
Every head's segments are apportioned together, each head its own budget.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from masskv.core import CompressionConfig, ConfigError, ContractViolation, integers
from masskv.segmentation import SegmentSet, check_tiling, prefix_sums


class MustKeepSet:
    """Sink prefix plus recent suffix, always retained.

    Sinks survive reconciliation unconditionally; the suffix is what shrinks
    when the budget cannot fit both. The suffix starts past the sinks, so
    ``indices`` is the two laid end to end, sorted and without repeats.
    """

    def __init__(self, sinks: np.ndarray, recent: np.ndarray):
        self.sinks = integers(sinks, "sinks")
        self.recent = integers(recent, "recent")
        self.indices = np.concatenate([self.sinks, self.recent])

    @property
    def size(self) -> int:
        return self.indices.size


def must_keep(total: int, cfg: CompressionConfig) -> MustKeepSet:
    """First min(n_sink, T) indices plus the last min(n_last, T) that are not sinks."""
    if total < 1:
        raise ContractViolation("cache length must be >= 1")
    sinks = np.arange(min(cfg.n_sink, total), dtype=np.int64)
    recent = np.arange(max(total - cfg.n_last, sinks.size), total, dtype=np.int64)
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


def _sums(v: np.ndarray, owner: np.ndarray, groups: int) -> np.ndarray:
    """Per-group sums of integers (or bools) ``v``, entry i in group
    owner[i]; exact while a sum stays below 2**53, as counts of cache
    positions do."""
    return np.bincount(owner, v, groups).astype(np.int64)


def _groups(size: int, total, bounds) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``total`` as one int64 entry per group, the CSR ``bounds`` (one group
    of ``size`` entries by default), and the group of each entry; a total or
    bound that is not an integer is rejected, never truncated."""
    total = np.atleast_1d(integers(total, "total"))
    if (total < 0).any():
        raise ContractViolation("total must be >= 0")
    bounds = np.array([0, size]) if bounds is None else integers(bounds, "bounds")
    return total, bounds, np.repeat(np.arange(total.size), np.diff(bounds))


def largest_remainder(weights: np.ndarray, total, bounds=None) -> np.ndarray:
    """Hamilton apportionment: integer shares proportional to weights summing
    exactly to ``total``; remainder ties go to the lower index. Given CSR
    ``bounds``, group g (entries bounds[g]:bounds[g+1]) apportions total[g]
    by itself, and every group is apportioned at once."""
    weights = np.asarray(weights, dtype=np.float64)
    total, bounds, owner = _groups(weights.size, total, bounds)
    if total[bounds[:-1] == bounds[1:]].any():
        raise ContractViolation("cannot apportion a positive total over nothing")
    return _hamilton(weights, total, bounds, owner)


def _hamilton(weights, total, bounds, owner) -> np.ndarray:
    """``largest_remainder`` on float64 weights and the checked ``_groups``."""
    # one sum per group: np.add.reduceat adds in another order than .sum(),
    # which would change the last bits of the shares
    wsum = np.array([weights[a:b].sum() for a, b in zip(bounds[:-1], bounds[1:])])
    flat = wsum <= 0.0
    if flat.any():
        weights = np.where(flat[owner], 1.0, weights)
        wsum = np.where(flat, np.diff(bounds), wsum)
    shares = total[owner] * weights / wsum[owner]
    q = np.floor(shares).astype(np.int64)
    deficit = total - _sums(q, owner, total.size)
    # one stable sort keyed by (group, -remainder): each group's largest
    # remainders come first, ties to the lower index
    order = np.lexsort((-(shares - q), owner))
    q[order[np.arange(q.size) - bounds[owner] < deficit[owner]]] += 1
    return q


def apportion_with_caps(weights: np.ndarray, total, caps: np.ndarray, bounds=None) -> np.ndarray:
    """Largest-remainder shares clipped at caps, with clipped surplus
    redistributed to uncapped entries by weight. Each round either finishes
    or saturates at least one entry, so at most len(weights) rounds run.
    Given CSR ``bounds``, each group apportions its own total, and every
    round serves all groups that still have budget left."""
    weights = np.asarray(weights, dtype=np.float64)
    caps = integers(caps, "caps")
    total, bounds, owner = _groups(caps.size, total, bounds)
    room = _sums(caps, owner, total.size)
    if (total > room).any():
        raise ContractViolation(f"total {total} exceeds capacity {room}")
    q = np.zeros_like(caps)
    active = caps > 0
    remaining = total
    for _ in range(caps.size):
        counts = _sums(active, owner, total.size)
        live = (remaining > 0) & (counts > 0)
        if not live.any():
            break
        sel = active & live[owner]
        counts = counts[live]
        sub_owner = np.repeat(np.arange(counts.size), counts)
        sub_bounds = np.append(0, np.cumsum(counts))
        q[sel] += _hamilton(weights[sel], remaining[live], sub_bounds, sub_owner)
        over = np.maximum(q - caps, 0)
        q -= over
        remaining = _sums(over, owner, total.size)
        active &= q < caps
    return q


@dataclass
class QuotaVector:
    """Per-segment retention quotas and the segment masses behind them."""

    quotas: np.ndarray
    seg_mass: np.ndarray


def compute_quotas(
    segs: SegmentSet, m: np.ndarray, t_rem: int, cfg: CompressionConfig, csum=None
) -> QuotaVector:
    """Split ``t_rem`` retained-token slots across each head's segments, for
    every head of ``segs`` at once; ``m`` is the [heads, T] (or, for one
    head, [T]) mass and ``csum`` its ``prefix_sums``, if the caller has
    taken them.

    Every segment first gets min(min_quota, L_i); the rest is shared in
    proportion to segment mass (or length, in the unweighted ablation) with
    largest-remainder rounding and cap-and-redistribute to honor q_i <= L_i.
    When a head's budget cannot even cover its floors, the floors themselves
    are apportioned.
    """
    if t_rem < 0:
        raise ContractViolation("t_rem must be >= 0")
    check_tiling(np.shape(m), segs.heads, segs.total, "mass")
    lengths = segs.lengths
    masses = segs.masses(prefix_sums(m) if csum is None else csum)
    if t_rem > segs.total:
        raise ContractViolation(f"budget {t_rem} exceeds cache size {segs.total}")
    bounds, owner, heads = segs.offsets, segs.owner, segs.heads
    floors = np.minimum(cfg.min_quota, lengths)
    weights = masses if cfg.mass_weighted_quotas_on else lengths.astype(np.float64)
    starved = (_sums(floors, owner, heads) > t_rem)[owner]
    base = np.where(starved, 0, floors)
    quotas = base + apportion_with_caps(
        np.where(starved, floors, weights),
        t_rem - _sums(base, owner, heads),
        np.where(starved, floors, lengths - floors),
        bounds,
    )
    if (_sums(quotas, owner, heads) != t_rem).any():
        raise ContractViolation("quotas must sum to the remaining budget exactly")
    if (quotas > lengths).any() or (quotas < 0).any():
        raise ContractViolation("quota outside [0, segment length]")
    return QuotaVector(quotas=quotas, seg_mass=masses)
