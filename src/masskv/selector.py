"""Keep-set construction: in-segment top-k under quotas, plus the baseline
whole-cache policies. Each takes [..., T] scores, one row per head, and
handles every row in one call.

Ranking is total and deterministic everywhere: higher score wins, NaN ranks
last, ties go to the lower index. No row is ranked in full; every pick is
made at a boundary that ``_best_n`` finds with a partition. AMS and the
fixed-chunk baseline both give each segment a quota and pick through
``select``, which keeps each segment's best positions; fixed chunks take
their quotas in the order of their chunk sums, the one sort left. Global
top-k is the must-keep set plus the best of the rest, and the fit to the
budget keeps the best non-must picks (trimming) or adds the best unpicked
positions (backfilling), which keeps everything when T <= t_keep.
"""

from __future__ import annotations

import numpy as np

from masskv.allocation import MustKeepSet, reconcile_budget
from masskv.core import ContractViolation, integers
from masskv.segmentation import SegmentSet, check_tiling, fixed_length_segments


def _best_n(g: np.ndarray, cand: np.ndarray, n) -> np.ndarray:
    """Mask of the ``n`` best ``cand`` positions of each row of the [..., T]
    scores, best meaning descending score, NaN last and ties to the lower
    index. ``n`` holds one count per row, at most the row's candidates.

    Only the boundary needs an order. A partition finds each row's n-th
    key; every key better than it goes in, and the keys equal to it fill
    what is left by lowest index. Non-candidates enter as NaN keys, so that
    no real score, ±inf included, can tie with them; only candidate NaNs
    count as ties at a NaN boundary.
    """
    shape = g.shape
    g, cand = g.reshape(-1, shape[-1]), cand.reshape(-1, shape[-1])
    n = np.asarray(n).reshape(-1, 1)
    top = n.max()
    # a row that takes none keeps edge +inf: no score is better, and every tie is cut
    edge = np.inf
    if top > 0:
        # the keys -g, NaN off the candidates, with each row padded by top - n
        # keys of -inf, none greater than a key, then NaNs, none less: a row's
        # n-th key is its top-th, and one kth for all rows keeps NumPy on its
        # fast selection path
        pad = np.arange(top - n.min()) < top - n
        keys = np.empty((len(g), shape[-1] + pad.shape[1]), dtype=g.dtype)
        np.negative(g, out=keys[:, : shape[-1]])
        np.copyto(keys[:, : shape[-1]], np.nan, where=~cand)
        keys[:, shape[-1] :] = np.where(pad, -np.inf, np.nan)
        keys.partition(top - 1, axis=-1)
        edge = -keys[:, top - 1 : top]
    # every candidate at or better than its row's n-th key: exactly n of
    # them, unless the keys equal to it are more than the places they fill
    picked = cand & (g >= edge)
    at_nan = np.isnan(edge)
    if at_nan.any():
        # at a NaN n-th key, every scored candidate is better and NaNs tie
        picked |= at_nan & cand
    over = picked.sum(axis=-1, keepdims=True) - n
    if (over > 0).any():
        # the highest-index ties give up their places
        ties = picked & ((g == edge) | (at_nan & np.isnan(g)))
        picked &= ~ties | (np.cumsum(ties, axis=-1) <= ties.sum(axis=-1, keepdims=True) - over)
    return picked.reshape(shape)


def _fit_to_budget(mask: np.ndarray, must: np.ndarray, g: np.ndarray, t_keep: int) -> np.ndarray:
    """Add ``must`` to each row of the [..., T] picked ``mask`` (changed in
    place), then keep its best non-must picks or add its best unpicked
    positions, by the [..., T] scores ``g``, until the row has exactly
    min(t_keep, T) members; return them as sorted [..., k] positions."""
    total = g.shape[-1]
    target = min(t_keep, total)
    must = integers(must, "must-keep positions")
    if must.size > target:
        raise ContractViolation("must-keep set exceeds the budget; reconcile it first")
    # the engine's sets rise already: the check is O(|must|), the sort rare
    rising = must.size < 2 or (must[1:] > must[:-1]).all()
    if not rising:
        must = np.sort(must)
        rising = (must[1:] > must[:-1]).all()
    if must.size and not (rising and 0 <= must[0] and must[-1] < total):
        raise ContractViolation(f"must-keep positions must be distinct and in [0, {total})")
    mask[..., must] = True
    excess = mask.sum(axis=-1) - target
    if (excess > 0).any():
        droppable = mask.copy()
        droppable[..., must] = False
        mask = _best_n(g, droppable, droppable.sum(axis=-1) - np.maximum(excess, 0))
        mask[..., must] = True
    if (excess < 0).any():
        mask |= _best_n(g, ~mask, np.maximum(-excess, 0))
    # one nonzero per row gives its positions in its own cache
    rows = mask.reshape(-1, total)
    keep = np.empty((len(rows), target), dtype=np.int64)
    for row, out in zip(rows, keep):
        out[:] = row.nonzero()[0]
    return keep.reshape(mask.shape[:-1] + (target,))


def _segment_picks(g: np.ndarray, segs: SegmentSet, quotas: np.ndarray) -> np.ndarray:
    """Mask of each segment's ``quotas`` best positions in the [..., T]
    scores, whose rows laid end to end ``segs`` tiles. A segment whose
    quota is its length is kept whole. The rest are picked in padded
    [segments, width] windows, one per bit length of their lengths and as
    wide as its longest member, so padding stays under 2x for any layout;
    each such segment starts whole and drops the positions it did not pick.
    """
    starts, lengths = segs.starts, segs.lengths
    mask = (quotas > 0).repeat(lengths)
    flat = g.reshape(-1)
    part = ((quotas > 0) & (quotas < lengths)).nonzero()[0]
    bits = np.frexp(lengths[part])[1]
    for b in np.bincount(bits).nonzero()[0]:
        seg = part[bits == b]
        width = np.arange(lengths[seg].max())
        cols = starts[seg, None] + width
        # the overhang past a segment's end is no candidate
        inside = width < lengths[seg, None]
        best = _best_n(flat.take(cols, mode="clip"), inside, quotas[seg])
        mask[cols[inside ^ best]] = False
    return mask.reshape(g.shape)


def select(
    g: np.ndarray, segs: SegmentSet, quotas: np.ndarray, must: np.ndarray, t_keep: int
) -> np.ndarray:
    """Union of per-segment top-quota picks and the must-keep set, fitted to
    exactly min(t_keep, T) indices per row of the [..., T] scores, one row
    per head of ``segs``. Everything is kept when T <= t_keep."""
    g = np.asarray(g, dtype=np.float64)
    check_tiling(g.shape, segs.heads, segs.total, "scores")
    quotas, lengths = integers(quotas, "quotas"), segs.lengths
    if quotas.shape != lengths.shape or not ((quotas >= 0) & (quotas <= lengths)).all():
        raise ContractViolation(f"need one quota in [0, length] per segment, got {quotas}")
    return _fit_to_budget(_segment_picks(g, segs, quotas), must, g, t_keep)


def baseline_global_topk(g: np.ndarray, must: np.ndarray, t_keep: int) -> np.ndarray:
    """Must-keep entries plus the t_keep - |must| best other positions of
    each row of the [..., T] scores, found at the budget boundary alone."""
    g = np.asarray(g, dtype=np.float64)
    return _fit_to_budget(np.zeros(g.shape, dtype=bool), must, g, t_keep)


def baseline_streaming(total: int, n_sink: int, t_keep: int) -> np.ndarray:
    """The must-keep set whose recent suffix is every position past the
    sinks, reconciled to the budget: the sinks plus the newest tokens."""
    positions = np.arange(total, dtype=np.int64)
    must, _ = reconcile_budget(MustKeepSet(positions[:n_sink], positions[n_sink:]), t_keep)
    return must.indices


def baseline_fixed_chunk(
    g: np.ndarray, chunk_len: int, must: np.ndarray, t_keep: int
) -> np.ndarray:
    """Rank each row's fixed chunks by summed score and give each, in rank
    order, as much of what is left of the budget as it holds; each chunk
    then keeps its best positions for its quota through ``select``."""
    if chunk_len < 1:
        raise ContractViolation("chunk_len must be >= 1")
    g = np.asarray(g, dtype=np.float64)
    total = g.shape[-1]
    rows = g.reshape(-1, total)
    chunks = fixed_length_segments(total, chunk_len, len(rows))
    # each sum has the bits of g[a:b].sum(), so tied chunks rank alike
    full = total - total % chunk_len
    sums = rows[:, :full].reshape(len(rows), -1, chunk_len).sum(axis=-1)
    if full < total:
        sums = np.concatenate([sums, rows[:, full:].sum(axis=-1, keepdims=True)], axis=-1)
    # descending, NaN last, ties to the lower chunk
    ranked = np.argsort(-sums, axis=-1, kind="stable")
    ranked_len = chunks.lengths[ranked]
    before = np.cumsum(ranked_len, axis=-1) - ranked_len
    quotas = np.empty(sums.shape, dtype=np.int64)
    np.put_along_axis(quotas, ranked, np.clip(t_keep - before, 0, ranked_len), axis=-1)
    return select(g, chunks, quotas.ravel(), must, t_keep)
