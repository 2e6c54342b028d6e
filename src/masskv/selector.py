"""Keep-set construction: in-segment top-k under quotas, plus the baseline
whole-cache policies. Each takes [..., T] scores, one row per head, and
handles every row in one call.

Ranking is total and deterministic everywhere: higher score wins, NaN ranks
last, ties go to the lower index. ``select`` needs that order inside every
segment, so it ranks each row in full. The rest need it only at a budget
boundary, which ``_best_n`` finds with a partition: global top-k is the
must-keep set plus the best of the rest, fixed chunks are whole chunks plus
the straddling chunk's best, and the fit to the budget keeps the best
non-must picks (trimming) or adds the best unpicked positions (backfilling).
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


def _best_n(g: np.ndarray, cand: np.ndarray, n) -> np.ndarray:
    """Mask of the ``n`` best ``cand`` positions of each row of the [..., T]
    scores, in ``_best_first`` order: descending score, NaN last, ties to
    the lower index. ``n`` is one count or one per row, at most the row's
    candidates.

    Only the boundary needs an order. A partition finds each row's n-th
    key; every key better than it goes in, and the keys equal to it fill
    what is left by lowest index. Non-candidates enter as NaN keys, so that
    no real score, ±inf included, can tie with them; only candidate NaNs
    count as ties at a NaN boundary.
    """
    key = np.where(cand, -g, np.nan)
    shape = key.shape
    key = key.reshape(-1, shape[-1])
    n = np.broadcast_to(n, shape[:-1]).reshape(-1, 1)
    # a row that takes none keeps edge -inf: no key is better, and every tie is cut
    edge = np.full(n.shape, -np.inf, dtype=key.dtype)
    for k in np.unique(n[n > 0]):
        # one kth per partition keeps NumPy on its fast selection path
        rows = n[:, 0] == k
        edge[rows] = np.partition(key[rows], k - 1, axis=-1)[:, k - 1 : k]
    better, ties = key < edge, key == edge
    at_nan = np.isnan(edge)
    if at_nan.any():
        real = ~np.isnan(key)
        better |= at_nan & real
        ties |= at_nan & ~real & cand.reshape(key.shape)
    need = n - better.sum(axis=-1, keepdims=True)
    if (ties.sum(axis=-1, keepdims=True) > need).any():
        ties &= np.cumsum(ties, axis=-1) <= need
    return (better | ties).reshape(shape)


def _fit_to_budget(mask: np.ndarray, must: np.ndarray, g: np.ndarray, t_keep: int) -> np.ndarray:
    """Add ``must`` to each row of the [..., T] picked ``mask`` (changed in
    place), then keep its best non-must picks or add its best unpicked
    positions, by the [..., T] scores ``g``, until the row has exactly
    min(t_keep, T) members; return them as sorted [..., k] positions."""
    total = g.shape[-1]
    target = min(t_keep, total)
    if must.size > target:
        raise ContractViolation("must-keep set exceeds the budget; reconcile it first")
    mask[..., must] = True
    excess = mask.sum(axis=-1) - target
    if (excess > 0).any():
        droppable = mask.copy()
        droppable[..., must] = False
        mask = _best_n(g, droppable, droppable.sum(axis=-1) - np.maximum(excess, 0))
        mask[..., must] = True
    if (excess < 0).any():
        mask |= _best_n(g, ~mask, np.maximum(-excess, 0))
    return np.flatnonzero(mask).reshape(mask.shape[:-1] + (target,)) % total


def select(
    g: np.ndarray,
    segs: SegmentSet,
    quotas: np.ndarray,
    must: np.ndarray,
    t_keep: int,
) -> np.ndarray:
    """Union of per-segment top-quota picks and the must-keep set, fitted to
    exactly min(t_keep, T) indices per row of the [..., T] scores, one row
    per head of ``segs``. Everything is kept when T <= t_keep. The picks
    need an order inside every segment, so each row is ranked best-first
    once and regrouped by segment."""
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
    rows = g.reshape(-1, total)
    # best-first positions in the rows laid end to end
    flat = (_best_first(rows) + total * np.arange(len(rows))[:, None]).reshape(-1)
    # segment ids in the smallest unsigned type that holds them, which NumPy
    # radix-sorts; the stable regroup keeps best-first order within each
    # segment, so segment i fills slots [start_i, end_i) and its first q_i
    # slots are its picks
    seg_of = np.repeat(np.arange(len(segs), dtype=np.min_scalar_type(len(segs))), lengths)
    by_segment = flat[np.argsort(seg_of[flat], kind="stable")]
    mask = np.zeros(g.shape, dtype=bool)
    mask.reshape(-1)[by_segment[np.arange(g.size) < np.repeat(segs.starts + quotas, lengths)]] = True
    del flat, by_segment  # the fit needs only the mask and the scores
    return _fit_to_budget(mask, must, g, t_keep)


def baseline_global_topk(g: np.ndarray, must: np.ndarray, t_keep: int) -> np.ndarray:
    """Must-keep entries plus the t_keep - |must| best other positions of
    each row of the [..., T] scores, found at the budget boundary alone."""
    g = np.asarray(g, dtype=np.float64)
    must = np.asarray(must, dtype=np.int64)
    if g.shape[-1] <= t_keep:
        return _everything(g)
    return _fit_to_budget(np.zeros(g.shape, dtype=bool), must, g, t_keep)


def baseline_streaming(total: int, n_sink: int, t_keep: int) -> np.ndarray:
    """Sink prefix plus the most recent tokens filling the budget."""
    if total <= t_keep:
        return np.arange(total, dtype=np.int64)
    n_sink = min(n_sink, t_keep)
    # total > t_keep, so the two ranges are disjoint and in order
    recent = np.arange(total - (t_keep - n_sink), total, dtype=np.int64)
    return np.concatenate([np.arange(n_sink, dtype=np.int64), recent])


def baseline_fixed_chunk(
    g: np.ndarray, chunk_len: int, must: np.ndarray, t_keep: int
) -> np.ndarray:
    """Rank each row's fixed chunks by summed score and keep whole chunks in
    rank order; the straddling chunk, at most one per row, keeps its best
    positions for what is left of the budget. The union with ``must`` is
    then trimmed of its worst non-must picks. Only the short row of chunk
    sums is ranked in full; the rows of the [..., T] scores are not."""
    if chunk_len < 1:
        raise ContractViolation("chunk_len must be >= 1")
    g = np.asarray(g, dtype=np.float64)
    must = np.asarray(must, dtype=np.int64)
    total = g.shape[-1]
    if total <= t_keep:
        return _everything(g)
    rows = g.reshape(-1, total)
    lengths = fixed_length_segments(total, chunk_len).lengths
    # each sum has the bits of g[a:b].sum(), so tied chunks rank alike
    full = total - total % chunk_len
    sums = rows[:, :full].reshape(len(rows), -1, chunk_len).sum(axis=-1)
    if full < total:
        sums = np.concatenate([sums, rows[:, full:].sum(axis=-1, keepdims=True)], axis=-1)
    ranked = _best_first(sums)
    ranked_len = lengths[ranked]
    before = np.cumsum(ranked_len, axis=-1) - ranked_len
    quotas = np.empty(sums.shape, dtype=np.int64)
    np.put_along_axis(quotas, ranked, np.clip(t_keep - before, 0, ranked_len), axis=-1)
    mask = np.repeat(quotas == lengths, lengths, axis=-1)
    r, c = np.nonzero((quotas > 0) & (quotas < lengths))
    if r.size:
        # a [straddling rows, chunk_len] window; a short last chunk's
        # overhang is no candidate
        cols = c[:, None] * chunk_len + np.arange(chunk_len)
        inside = cols < total
        best = _best_n(rows[r[:, None], np.minimum(cols, total - 1)], inside, quotas[r, c])
        i, j = np.nonzero(best)
        mask[r[i], cols[i, j]] = True
    return _fit_to_budget(mask.reshape(g.shape), must, g, t_keep)
