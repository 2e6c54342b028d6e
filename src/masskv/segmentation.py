"""Adaptive partitioning of the cache axis by thresholding cumulative mass.

High-mass regions cross threshold multiples quickly and get fine segments;
low-mass regions get coarse ones. A split/merge pass then clamps segment
lengths into a workable range before quota allocation.
"""

from __future__ import annotations

import numpy as np

from masskv.core import CompressionConfig, ContractViolation


class SegmentSet:
    """Non-overlapping half-open intervals tiling [0, T).

    Stored as a boundary array ``b`` with b[0]=0, b[-1]=T, strictly
    increasing; segment i is [b[i], b[i+1]).
    """

    def __init__(self, boundaries: np.ndarray):
        boundaries = np.asarray(boundaries, dtype=np.int64)
        if boundaries.ndim != 1 or boundaries.size < 2:
            raise ContractViolation("need at least [0, T] as boundaries")
        if boundaries[0] != 0:
            raise ContractViolation("first boundary must be 0")
        if not (np.diff(boundaries) > 0).all():
            raise ContractViolation("boundaries must be strictly increasing")
        self.boundaries = boundaries

    @classmethod
    def single(cls, total: int) -> "SegmentSet":
        return cls(np.array([0, total], dtype=np.int64))

    @property
    def total(self) -> int:
        return int(self.boundaries[-1])

    @property
    def starts(self) -> np.ndarray:
        return self.boundaries[:-1]

    @property
    def ends(self) -> np.ndarray:
        return self.boundaries[1:]

    @property
    def lengths(self) -> np.ndarray:
        return np.diff(self.boundaries)

    def __len__(self) -> int:
        return self.boundaries.size - 1

    def __iter__(self):
        for a, b in zip(self.starts, self.ends):
            yield int(a), int(b)

    def masses(self, m: np.ndarray) -> np.ndarray:
        """Total mass inside each segment."""
        csum = np.concatenate([[0.0], np.cumsum(np.asarray(m, dtype=np.float64))])
        return csum[self.ends] - csum[self.starts]


def cut_points(m: np.ndarray, delta: float) -> np.ndarray:
    """Smallest positions where cumulative mass crosses each multiple of delta.

    Returned values are boundary positions in (0, T], deduplicated; thresholds
    the total never reaches produce no cut.
    """
    m = np.asarray(m, dtype=np.float64)
    if m.size < 1:
        raise ContractViolation("mass vector must be non-empty")
    if not (0.0 < delta <= 1.0):
        raise ContractViolation(f"delta must be in (0, 1], got {delta}")
    csum = np.cumsum(m)
    total = csum[-1]
    n_thr = int(np.floor(total / delta)) + 1
    thresholds = np.arange(1, n_thr + 1, dtype=np.float64) * delta
    idx = np.searchsorted(csum, thresholds, side="left")
    cuts = idx[idx < m.size] + 1
    return np.unique(cuts)


def split_long(segs: SegmentSet, max_len: int) -> SegmentSet:
    """Replace each over-long segment by ceil(L/max_len) near-equal parts."""
    if max_len < 1:
        raise ContractViolation("max_len must be >= 1")
    out = [0]
    for a, b in segs:
        length = b - a
        if length <= max_len:
            out.append(b)
            continue
        parts = -(-length // max_len)
        base, rem = divmod(length, parts)
        pos = a
        for i in range(parts):
            pos += base + (1 if i < rem else 0)
            out.append(pos)
    return SegmentSet(np.array(out, dtype=np.int64))


def merge_short(segs: SegmentSet, min_len: int) -> SegmentSet:
    """Left-to-right sweep merging under-length segments into their right
    neighbor; a short final segment merges leftward instead. A single segment
    shorter than min_len survives as-is when there is nothing to merge with.
    """
    if min_len < 1:
        raise ContractViolation("min_len must be >= 1")
    ends = []
    start = 0
    for _, b in segs:
        if b - start >= min_len:
            ends.append(b)
            start = b
    total = segs.total
    if start < total:
        # trailing run too short: extend the last emitted segment leftward
        if ends:
            ends[-1] = total
        else:
            ends.append(total)
    return SegmentSet(np.array([0] + ends, dtype=np.int64))


def fixed_length_segments(total: int, length: int) -> SegmentSet:
    """Contiguous segments of a fixed length (last one truncated)."""
    if total < 1 or length < 1:
        raise ContractViolation("total and length must be >= 1")
    boundaries = list(range(0, total, length)) + [total]
    return SegmentSet(np.unique(np.array(boundaries, dtype=np.int64)))


def segment(m: np.ndarray, cfg: CompressionConfig) -> SegmentSet:
    """Full segmentation pipeline: cuts, then split, then merge.

    In the fixed-length ablation the mass is ignored and the cache is tiled
    with segments of ``max_seg_len``.
    """
    m = np.asarray(m, dtype=np.float64)
    if cfg.fixed_length_segments_on:
        return fixed_length_segments(m.size, cfg.max_seg_len)
    cuts = cut_points(m, cfg.segment_mass)
    segs = SegmentSet(np.unique(np.concatenate([[0], cuts, [m.size]])))
    segs = split_long(segs, cfg.max_seg_len)
    return merge_short(segs, cfg.min_seg_len)
