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


def jaccard(a: np.ndarray, b: np.ndarray) -> float:
    """Plain Jaccard overlap of two index sets; empty-vs-empty counts as 1.

    Neither ``a`` nor ``b`` may repeat an id (an event's kept ids never do),
    so the union is |a| + |b| - |a & b|.
    """
    inter = np.intersect1d(a, b, assume_unique=True).size
    union = len(a) + len(b) - inter
    if union == 0:
        return 1.0
    return float(inter / union)


def metric_retained_iou(trace) -> np.ndarray:
    """IoU of kept original-token ids between consecutive events, per pair,
    averaged over heads. Tokens born after the earlier event are excluded
    from the later set so growth does not mechanically depress the score."""
    events = trace.events
    if len(events) < 2:
        return np.zeros(0, dtype=np.float64)
    series = []
    for prev, cur in zip(events[:-1], events[1:]):
        per_head = []
        for h in range(prev.kept_ids.shape[0]):
            old = prev.kept_ids[h]
            new = cur.kept_ids[h]
            new = new[new < prev.step]
            per_head.append(jaccard(old, new))
        series.append(float(np.mean(per_head)))
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
    cfg = trace.config
    rates = []
    for ev in trace.events:
        lo = min(cfg.n_sink, ev.cache_len)
        hi = max(ev.cache_len - cfg.n_last, lo)
        n_windows = (hi - lo) // window_w
        if n_windows == 0:
            continue
        edges = lo + window_w * np.arange(n_windows + 1)
        head_rates = []
        for h in range(ev.keep_positions.shape[0]):
            kept = ev.keep_positions[h]
            kept = kept[(kept >= lo) & (kept < edges[-1])]
            counts, _ = np.histogram(kept, bins=edges)
            head_rates.append((counts == 0).sum() / n_windows)
        rates.append(float(np.mean(head_rates)))
    return float(np.mean(rates)) if rates else 0.0


def metric_spatial_histogram(trace, bins: int = 10) -> np.ndarray:
    """Retained fraction per relative-position bin, averaged over events and
    heads. Streaming-style policies show up as high first/last bins with a
    hollow middle; an even policy shows a flat profile."""
    if bins < 1:
        raise ValueError("bins must be >= 1")
    totals = np.zeros(bins)
    samples = 0
    for ev in trace.events:
        t = ev.cache_len
        bucket = np.minimum((np.arange(t) * bins) // t, bins - 1)
        bin_sizes = np.bincount(bucket, minlength=bins).astype(np.float64)
        for h in range(ev.keep_positions.shape[0]):
            kept_bucket = bucket[ev.keep_positions[h]]
            kept = np.bincount(kept_bucket, minlength=bins).astype(np.float64)
            with np.errstate(invalid="ignore", divide="ignore"):
                frac = np.where(bin_sizes > 0, kept / bin_sizes, 0.0)
            totals += frac
            samples += 1
    if samples == 0:
        return np.zeros(bins)
    return totals / samples
