"""Keep-set construction: in-segment top-k under quotas, plus the baseline
whole-cache policies. ``select`` is the one in-segment top-k: the
fixed-chunk baseline is it over fixed-length chunks, with greedy quotas by
chunk score, and global top-k is its trim/backfill step alone.

Ranking is total and deterministic everywhere: higher score wins, ties go to
the lower index. Trimming drops the worst-ranked non-must-keep entries;
backfilling adds the best-ranked unselected ones.
"""

from __future__ import annotations

import numpy as np

from masskv.core import ContractViolation
from masskv.segmentation import SegmentSet, fixed_length_segments


def _best_first(g: np.ndarray) -> np.ndarray:
    """Indices ordered best-to-worst: descending score, ascending index."""
    return np.lexsort((np.arange(g.size), -g))


def _fit_to_budget(
    picked: np.ndarray, must: np.ndarray, order: np.ndarray, t_keep: int
) -> np.ndarray:
    """Trim worst non-must entries or backfill best unselected ones until the
    keep set has exactly min(t_keep, T) members; ``order`` is the scores'
    best-first order."""
    total = order.size
    target = min(t_keep, total)
    if must.size > target:
        raise ContractViolation("must-keep set exceeds the budget; reconcile it first")
    mask = np.zeros(total, dtype=bool)
    mask[picked] = True
    mask[must] = True
    size = int(mask.sum())
    if size > target:
        droppable = mask.copy()
        droppable[must] = False
        ranked = order[droppable[order]]
        mask[ranked[-(size - target):]] = False
    elif size < target:
        candidates = order[~mask[order]]
        mask[candidates[: target - size]] = True
    return np.flatnonzero(mask)


def select(
    g: np.ndarray,
    segs: SegmentSet,
    quotas: np.ndarray,
    must: np.ndarray,
    t_keep: int,
) -> np.ndarray:
    """Union of per-segment top-quota picks and the must-keep set, fitted to
    exactly min(t_keep, T) indices. Everything is kept when T <= t_keep.
    The scores are ranked once, for both the picks and the fit."""
    g = np.asarray(g, dtype=np.float64)
    must = np.asarray(must, dtype=np.int64)
    total = g.size
    if total <= t_keep:
        return np.arange(total, dtype=np.int64)
    if segs.total != total:
        raise ContractViolation("segments do not tile the score vector")
    quotas, lengths = np.asarray(quotas, dtype=np.int64), segs.lengths
    if quotas.shape != lengths.shape or not ((quotas >= 0) & (quotas <= lengths)).all():
        raise ContractViolation(f"need one quota in [0, length] per segment, got {quotas}")
    order = _best_first(g)
    seg_of = np.repeat(np.arange(len(segs)), lengths)
    # best-first within each segment, segments in order: segment i fills
    # slots [start_i, end_i), and its first q_i slots are its picks
    by_segment = order[np.argsort(seg_of[order], kind="stable")]
    picked = by_segment[np.arange(total) - segs.starts[seg_of] < quotas[seg_of]]
    return _fit_to_budget(picked, must, order, t_keep)


def baseline_global_topk(g: np.ndarray, must: np.ndarray, t_keep: int) -> np.ndarray:
    """Must-keep entries plus the globally highest-scoring remainder."""
    g = np.asarray(g, dtype=np.float64)
    must = np.asarray(must, dtype=np.int64)
    total = g.size
    if total <= t_keep:
        return np.arange(total, dtype=np.int64)
    return _fit_to_budget(np.zeros(0, dtype=np.int64), must, _best_first(g), t_keep)


def baseline_streaming(total: int, n_sink: int, t_keep: int) -> np.ndarray:
    """Sink prefix plus the most recent tokens filling the budget."""
    if total <= t_keep:
        return np.arange(total, dtype=np.int64)
    n_sink = min(n_sink, t_keep)
    sinks = np.arange(n_sink, dtype=np.int64)
    recent = np.arange(total - (t_keep - n_sink), total, dtype=np.int64)
    return np.union1d(sinks, recent)


def baseline_fixed_chunk(
    g: np.ndarray, chunk_len: int, must: np.ndarray, t_keep: int
) -> np.ndarray:
    """Rank fixed chunks by summed score and keep whole chunks in rank order;
    the straddling chunk gets what is left of the budget, picked by in-chunk
    score through ``select``, which then fits the union with ``must``."""
    if chunk_len < 1:
        raise ContractViolation("chunk_len must be >= 1")
    g = np.asarray(g, dtype=np.float64)
    total = g.size
    if total <= t_keep:
        return np.arange(total, dtype=np.int64)
    segs = fixed_length_segments(total, chunk_len)
    # each sum has the bits of g[a:b].sum(), so tied chunks rank alike
    full = total - total % chunk_len
    sums = g[:full].reshape(-1, chunk_len).sum(axis=1)
    if full < total:
        sums = np.append(sums, g[full:].sum())
    ranked = _best_first(sums)
    lengths = segs.lengths[ranked]
    before = np.cumsum(lengths) - lengths
    quotas = np.empty(len(segs), dtype=np.int64)
    quotas[ranked] = np.clip(t_keep - before, 0, lengths)
    return select(g, segs, quotas, must, t_keep)
