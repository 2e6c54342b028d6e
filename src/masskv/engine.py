"""Per-event policy application across heads.

One compression event takes every head's accumulated attention rows, keys,
and a scorer, and produces each head's keep set plus the allocation
internals used by the diagnostics. Every stage runs once per event over
[heads, T] arrays: usage is folded, scored, smoothed, normalized and mixed
with the EMA credit row-wise, all heads are segmented into one flat
``SegmentSet``, their quotas are apportioned together, and one ``select``
picks every head's keep set.
"""

from __future__ import annotations

import numpy as np

from masskv.allocation import compute_quotas, must_keep, reconcile_budget
from masskv.core import CompressionConfig, ContractViolation, check_name
from masskv.mass import EmaCreditStore, UsageAccumulator, normalize_mass, smooth
from masskv.scorers import get_scorer
from masskv.segmentation import SegmentSet, prefix_sums, segment
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


def compress_event(
    policy: str,
    heads: int,
    cache_len: int,
    usage: UsageAccumulator | None,
    keys: np.ndarray | None,
    cfg: CompressionConfig,
    scorer: str = "expected",
    credit: EmaCreditStore | None = None,
) -> tuple[np.ndarray, SegmentSet | None, np.ndarray | None, np.ndarray | None]:
    """Apply a policy to every head of a ``cache_len``-token cache at one
    compression event.

    ``usage`` holds each head's attention rows of the last w queries, ending
    at the cache tip, as [heads, t] rows; it is folded once for all heads,
    and the scorer reads that fold and the newest rows. A policy outside
    ``READS_ROWS`` reads neither, and may take None. ``keys`` is [heads, T, D],
    or None for scorers that do not need keys. The must-keep set, which
    depends only on T, is computed once.

    Returns the [heads, k] keep positions and, for an AMS event that
    compresses, the segments of all heads, their flat quotas and the
    [heads, T] history-aware mass; the last three are None otherwise.
    """
    check_name("policy", policy, POLICIES)
    t_keep = cfg.require_t_keep()
    score_fn = get_scorer(scorer)
    if policy not in READS_ROWS:
        keep = baseline_streaming(cache_len, cfg.n_sink, t_keep)
        return np.tile(keep, (heads, 1)), None, None, None
    if usage is None or usage.newest is None or usage.newest.shape != (heads, cache_len):
        raise ContractViolation(
            f"{policy} reads [{heads}, {cache_len}] attention rows ending at the cache tip"
        )
    u = usage.fold()
    must, t_rem = reconcile_budget(must_keep(cache_len, cfg), t_keep)
    g = score_fn(usage.newest, u, keys)
    if policy == "global_topk":
        return baseline_global_topk(g, must.indices, t_keep), None, None, None
    if policy == "fixed_chunk":
        return baseline_fixed_chunk(g, DEFAULT_CHUNK_LEN, must.indices, t_keep), None, None, None
    if cache_len <= t_keep:
        return np.tile(np.arange(cache_len), (heads, 1)), None, None, None
    m = normalize_mass(smooth(u, cfg.smooth_kernel), cfg.epsilon)
    if credit is not None:
        m = credit.update_and_mix(m)
    csum = prefix_sums(m)
    segs = segment(m, cfg, csum)
    quotas = compute_quotas(segs, m, t_rem, cfg, csum).quotas
    return select(g, segs, quotas, must.indices, t_keep), segs, quotas, m
