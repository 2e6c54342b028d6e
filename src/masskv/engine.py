"""Per-event policy application across heads.

One compression event takes every head's accumulated attention rows, keys,
and a scorer, folds usage once for all heads, and produces each head's keep
set plus the allocation internals used by the diagnostics. Heads are
independent; the loop here could fan out in parallel without sharing mutable
state (each head writes only its own row of the credit array).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from masskv.allocation import compute_quotas, must_keep, reconcile_budget
from masskv.core import CompressionConfig, ConfigError, ContractViolation
from masskv.mass import EmaCreditStore, UsageAccumulator, normalize_mass, smooth
from masskv.scorers import get_scorer
from masskv.segmentation import SegmentSet, segment
from masskv.selector import (
    baseline_fixed_chunk,
    baseline_global_topk,
    baseline_streaming,
    select,
)

POLICIES = ("ams", "global_topk", "streaming", "fixed_chunk")

# the policies whose events read attention rows and keys; a run builds
# neither for the others
READS_ROWS = frozenset({"ams", "global_topk", "fixed_chunk"})

DEFAULT_CHUNK_LEN = 20


@dataclass
class HeadSelection:
    """Outcome of one compression event for a single head."""

    keep: np.ndarray
    segments: SegmentSet | None = None
    quotas: np.ndarray | None = None
    mass: np.ndarray | None = None


def ams_head_selection(
    usage: np.ndarray,
    g: np.ndarray,
    must: np.ndarray,
    t_rem: int,
    cfg: CompressionConfig,
    credit: EmaCreditStore | None = None,
    head: int = 0,
) -> HeadSelection:
    """Allocate-then-score selection for one head from its aggregated usage,
    given the event's reconciled must-keep indices and remaining budget."""
    t_keep = cfg.require_t_keep()
    total = g.size
    if total <= t_keep:
        return HeadSelection(keep=np.arange(total, dtype=np.int64))
    u = smooth(usage, cfg.smooth_kernel)
    m = normalize_mass(u, cfg.epsilon)
    if credit is not None:
        m = credit.update_and_mix(head, m)
    segs = segment(m, cfg)
    quotas = compute_quotas(segs, m, t_rem, cfg)
    keep = select(g, segs, quotas.quotas, must, t_keep)
    return HeadSelection(keep=keep, segments=segs, quotas=quotas.quotas, mass=m)


def compress_event(
    policy: str,
    heads: int,
    cache_len: int,
    usage: UsageAccumulator | None,
    keys: np.ndarray | None,
    cfg: CompressionConfig,
    scorer: str = "expected",
    credit: EmaCreditStore | None = None,
) -> list[HeadSelection]:
    """Apply a policy to every head of a ``cache_len``-token cache at one
    compression event.

    ``usage`` holds each head's attention rows of the last w queries, ending
    at the cache tip, as [heads, t] rows; it is folded once for all heads,
    and scorers read that fold and the newest row. A policy outside
    ``READS_ROWS`` reads neither, and may take None. ``keys`` is [heads, T, D],
    or None for scorers that do not need keys. The must-keep set, which
    depends only on T, is computed once.
    """
    if policy not in POLICIES:
        raise ConfigError(f"unknown policy {policy!r}; choose from {POLICIES}")
    t_keep = cfg.require_t_keep()
    score_fn = get_scorer(scorer)
    if policy not in READS_ROWS:
        keep = baseline_streaming(cache_len, cfg.n_sink, t_keep)
        return [HeadSelection(keep=keep) for _ in range(heads)]
    if usage is None or usage.newest is None or usage.newest.shape != (heads, cache_len):
        raise ContractViolation(
            f"{policy} reads [{heads}, {cache_len}] attention rows ending at the cache tip"
        )
    u = usage.fold()
    must, t_rem = reconcile_budget(must_keep(cache_len, cfg), t_keep)
    out = []
    for h in range(heads):
        g = score_fn(usage.newest[h], u[h], keys[h] if keys is not None else None)
        if policy == "ams":
            out.append(ams_head_selection(u[h], g, must.indices, t_rem, cfg, credit, h))
            continue
        if policy == "global_topk":
            keep = baseline_global_topk(g, must.indices, t_keep)
        else:
            keep = baseline_fixed_chunk(g, DEFAULT_CHUNK_LEN, must.indices, t_keep)
        out.append(HeadSelection(keep=keep))
    return out
