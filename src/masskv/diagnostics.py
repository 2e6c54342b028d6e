"""Structural retention diagnostics over run traces.

Retained-set IoU works in original-token-id space (kept ids) so it
measures how stable the kept content is across consecutive events. The
wipe-out rate and spatial histogram work in pre-compression cache
coordinates at each event: wipe-out asks whether any window of contiguous
history lost every one of its tokens in a single event, the histogram shows
where along the cache each policy spends its budget.
"""

from __future__ import annotations

import numpy as np

from masskv.allocation import must_keep


def metric_retained_iou(trace) -> np.ndarray:
    """IoU of kept original-token ids between consecutive events, per pair,
    averaged over heads. Tokens born after the earlier event are excluded
    from the later set so growth does not mechanically depress the score."""
    events = trace.events
    if len(events) < 2:
        return np.zeros(0, dtype=np.float64)
    series = []
    for prev, cur in zip(events[:-1], events[1:]):
        # compared ids are below prev.step, so an offset of h * prev.step keeps
        # head h apart; no kept set repeats an id, so |union| = |a| + |b| - |a & b|
        offset = prev.step * np.arange(prev.kept_ids.shape[0])[:, None]
        born = cur.kept_ids < prev.step
        inter = (born & np.isin(cur.kept_ids + offset, prev.kept_ids + offset)).sum(axis=1)
        union = prev.kept_ids.shape[1] + born.sum(axis=1) - inter
        iou = np.where(union > 0, inter / np.maximum(union, 1), 1.0)  # empty vs empty: 1
        series.append(float(np.mean(iou)))
    return np.asarray(series, dtype=np.float64)


def metric_wipeout_rate(trace, window_w: int = 32) -> float:
    """Fraction of fully-evicted interior windows, averaged over events.

    At each event the pre-compression positions between the sink prefix and
    the protected suffix are tiled into windows of ``window_w``; a window is
    wiped out when it retains nothing. Sinks and the suffix are excluded
    because every policy protects them.
    """
    if window_w < 1:
        raise ValueError("window_w must be >= 1")
    rates = []
    for ev in trace.events:
        # the interior is what must_keep leaves, before budget reconciliation
        must = must_keep(ev.cache_len, trace.config)
        lo = must.sinks.size
        n_windows = (ev.cache_len - must.recent.size - lo) // window_w
        if n_windows == 0:
            continue
        window = (ev.keep_positions - lo) // window_w
        inside = (ev.keep_positions >= lo) & (window < n_windows)
        hit = np.zeros((ev.keep_positions.shape[0], n_windows), dtype=bool)
        hit[np.nonzero(inside)[0], window[inside]] = True
        rates.append(float(np.mean((n_windows - hit.sum(axis=1)) / n_windows)))
    return float(np.mean(rates)) if rates else 0.0


def metric_spatial_histogram(trace, bins: int = 10) -> np.ndarray:
    """Retained fraction per relative-position bin, averaged over events and
    heads. Streaming-style policies show up as high first/last bins with a
    hollow middle; an even policy shows a flat profile."""
    if bins < 1:
        raise ValueError("bins must be >= 1")
    fracs = []
    for ev in trace.events:
        heads = ev.keep_positions.shape[0]
        bucket = np.minimum(np.arange(ev.cache_len) * bins // ev.cache_len, bins - 1)
        bin_sizes = np.bincount(bucket, minlength=bins)
        pairs = np.arange(heads)[:, None] * bins + bucket[ev.keep_positions]
        kept = np.bincount(pairs.ravel(), minlength=heads * bins).reshape(heads, bins)
        fracs.append(kept / np.maximum(bin_sizes, 1))  # an empty bin keeps nothing: 0
    if not fracs:
        return np.zeros(bins)
    rows = np.concatenate(fracs)
    # add the rows one at a time in event and head order; a plain sum rounds otherwise
    return np.cumsum(rows, axis=0)[-1] / rows.shape[0]
