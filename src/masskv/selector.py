"""Keep-set construction: in-segment top-k under quotas, plus the baseline
whole-cache policies. ``select`` is the one in-segment top-k: the
fixed-chunk baseline is it over fixed-length chunks, with greedy quotas by
chunk score, and global top-k is its trim/backfill step alone. Each takes
[..., T] scores, one row per head, and ranks every row in one call.

Ranking is total and deterministic everywhere: higher score wins, ties go to
the lower index. Trimming drops the worst-ranked non-must-keep entries;
backfilling adds the best-ranked unselected ones.
"""

from __future__ import annotations

import numpy as np

from masskv.core import ContractViolation
from masskv.segmentation import SegmentSet, fixed_length_segments


def _best_first(g: np.ndarray) -> np.ndarray:
    """Indices ordered best-to-worst along the last axis: descending score,
    ascending index.

    The scores are argsorted without a stable sort, which is several times
    faster; equal scores (and NaNs) may then come out in any order, so each
    run of them is sorted by index in one integer sort of (run, index) keys.
    """
    neg = -np.asarray(g)
    order = np.argsort(neg, axis=-1)
    ranked = np.take_along_axis(neg, order, axis=-1)
    a, b = ranked[..., :-1], ranked[..., 1:]
    new_run = np.ones(order.shape, dtype=bool)
    new_run[..., 1:] = (a != b) & ~(np.isnan(a) & np.isnan(b))
    if not new_run.all():
        t = order.shape[-1]
        key = (np.cumsum(new_run) - 1) * t + order.ravel()
        order = (np.sort(key) % t).reshape(order.shape)
    return order


def _everything(g: np.ndarray) -> np.ndarray:
    """Every position of each row of [..., T] scores."""
    return np.tile(np.arange(g.shape[-1]), g.shape[:-1] + (1,))


def _fit_to_budget(
    mask: np.ndarray, must: np.ndarray, order: np.ndarray, t_keep: int
) -> np.ndarray:
    """Trim worst non-must entries or backfill best unselected ones until
    each row of the [..., T] picked ``mask`` (changed in place) has exactly
    min(t_keep, T) members, and return them as sorted [..., k] positions;
    ``order`` is the scores' best-first order along each row."""
    total = order.shape[-1]
    target = min(t_keep, total)
    if must.size > target:
        raise ContractViolation("must-keep set exceeds the budget; reconcile it first")
    mask[..., must] = True
    excess = mask.sum(axis=-1, keepdims=True) - target
    if excess.any():
        # in rank order: entry r of a row is that row's r-th best position
        flat = _concatenated(order)
        ranked = mask.reshape(-1)[flat]
        flip = np.zeros_like(ranked)
        if (excess > 0).any():
            droppable = ranked & ~np.isin(order, must)
            # a row's last ``excess`` droppable entries
            behind = np.cumsum(droppable[..., ::-1], axis=-1)[..., ::-1]
            flip |= droppable & (behind <= excess)
        if (excess < 0).any():
            # a row's first ``-excess`` unpicked entries
            flip |= ~ranked & (np.cumsum(~ranked, axis=-1) <= -excess)
        mask.reshape(-1)[flat] = ranked ^ flip
    return np.flatnonzero(mask).reshape(mask.shape[:-1] + (target,)) % total


def _concatenated(order: np.ndarray) -> np.ndarray:
    """Per-row positions [..., T] as positions in the rows laid end to end."""
    total = order.shape[-1]
    return order + total * np.arange(order.size // total).reshape(order.shape[:-1] + (1,))


def select(
    g: np.ndarray,
    segs: SegmentSet,
    quotas: np.ndarray,
    must: np.ndarray,
    t_keep: int,
) -> np.ndarray:
    """Union of per-segment top-quota picks and the must-keep set, fitted to
    exactly min(t_keep, T) indices per row of the [..., T] scores, one row
    per head of ``segs``. Everything is kept when T <= t_keep. The scores
    are ranked once, for both the picks and the fit."""
    g = np.asarray(g, dtype=np.float64)
    must = np.asarray(must, dtype=np.int64)
    total = g.shape[-1]
    if total <= t_keep:
        return _everything(g)
    if segs.total != total or segs.boundaries[-1] != g.size:
        raise ContractViolation("segments do not tile the score vector")
    quotas, lengths = np.asarray(quotas, dtype=np.int64), segs.lengths
    if quotas.shape != lengths.shape or not ((quotas >= 0) & (quotas <= lengths)).all():
        raise ContractViolation(f"need one quota in [0, length] per segment, got {quotas}")
    order = _best_first(g)
    flat = _concatenated(order).reshape(-1)
    # segment ids in the smallest unsigned type that holds them, which NumPy
    # radix-sorts; the stable regroup keeps best-first order within each
    # segment, so segment i fills slots [start_i, end_i) and its first q_i
    # slots are its picks
    seg_of = np.repeat(np.arange(len(segs), dtype=np.min_scalar_type(len(segs))), lengths)
    by_segment = flat[np.argsort(seg_of[flat], kind="stable")]
    mask = np.zeros(g.shape, dtype=bool)
    mask.reshape(-1)[by_segment[np.arange(g.size) < np.repeat(segs.starts + quotas, lengths)]] = True
    return _fit_to_budget(mask, must, order, t_keep)


def baseline_global_topk(g: np.ndarray, must: np.ndarray, t_keep: int) -> np.ndarray:
    """Must-keep entries plus the highest-scoring remainder of each row of
    the [..., T] scores."""
    g = np.asarray(g, dtype=np.float64)
    must = np.asarray(must, dtype=np.int64)
    if g.shape[-1] <= t_keep:
        return _everything(g)
    return _fit_to_budget(np.zeros(g.shape, dtype=bool), must, _best_first(g), t_keep)


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
    """Rank each row's fixed chunks by summed score and keep whole chunks in
    rank order; the straddling chunk gets what is left of the budget, picked
    by in-chunk score through ``select``, which then fits the union with
    ``must``. Every row of the [..., T] scores goes through one ``select``."""
    if chunk_len < 1:
        raise ContractViolation("chunk_len must be >= 1")
    g = np.asarray(g, dtype=np.float64)
    total = g.shape[-1]
    if total <= t_keep:
        return _everything(g)
    rows = g.reshape(-1, total)
    segs = fixed_length_segments(total, chunk_len, len(rows))
    # each sum has the bits of g[a:b].sum(), so tied chunks rank alike
    full = total - total % chunk_len
    sums = rows[:, :full].reshape(len(rows), -1, chunk_len).sum(axis=-1)
    if full < total:
        sums = np.concatenate([sums, rows[:, full:].sum(axis=-1, keepdims=True)], axis=-1)
    ranked = _best_first(sums)
    lengths = segs.lengths[: sums.shape[1]][ranked]
    before = np.cumsum(lengths, axis=-1) - lengths
    quotas = np.empty(sums.shape, dtype=np.int64)
    np.put_along_axis(quotas, ranked, np.clip(t_keep - before, 0, lengths), axis=-1)
    return select(g, segs, quotas.ravel(), must, t_keep)
