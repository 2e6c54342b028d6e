"""Adaptive partitioning of the cache axis by thresholding cumulative mass.

High-mass regions cross threshold multiples quickly and get fine segments;
low-mass regions get coarse ones. A split/merge pass then clamps segment
lengths into a workable range before quota allocation. Every head is
segmented in the same calls: a ``SegmentSet`` holds all heads' segments.
"""

from __future__ import annotations

import math

import numpy as np

from masskv.core import CompressionConfig, ContractViolation, integers


class SegmentSet:
    """Every head's partition of [0, T) into non-overlapping half-open
    intervals, stored flat (CSR).

    A position of head h is h * T + t in the heads' concatenated caches,
    [0, heads * T). ``boundaries`` is one strictly increasing array from 0 to
    heads * T that holds every h * T; segment i is [b[i], b[i+1]). Head h
    owns segments ``offsets[h]`` to ``offsets[h+1] - 1``. With one head the
    boundaries are the cache positions themselves. ``starts``, ``ends``,
    ``lengths``, ``owner`` (each segment's head) and ``total`` (T) are set once.
    """

    def __init__(self, boundaries: np.ndarray, heads: int = 1):
        boundaries, self.lengths = check_boundaries(boundaries, heads)
        breaks = np.arange(heads + 1) * (boundaries[-1] // heads)
        self.offsets = boundaries.searchsorted(breaks)
        if not (boundaries[self.offsets] == breaks).all():
            raise ContractViolation(f"boundaries must split into {heads} heads of equal length")
        self.boundaries, self.heads = boundaries, heads
        self.starts, self.ends = boundaries[:-1], boundaries[1:]
        self.total = int(boundaries[-1]) // heads
        self.owner = np.arange(heads).repeat(self.offsets[1:] - self.offsets[:-1])

    @classmethod
    def single(cls, total: int) -> "SegmentSet":
        return cls(np.array([0, total], dtype=np.int64))

    def __len__(self) -> int:
        return self.boundaries.size - 1

    def __iter__(self):
        for a, b in zip(self.starts.tolist(), self.ends.tolist()):
            yield a, b

    def per_head(self) -> list[np.ndarray]:
        """Each head's boundaries [0, ..., T] in its own cache positions."""
        b, off, t = self.boundaries, self.offsets, self.total
        return [b[off[h] : off[h + 1] + 1] - h * t for h in range(self.heads)]

    def masses(self, csum: np.ndarray) -> np.ndarray:
        """Total mass inside each segment, from each head's [T + 1] row of
        ``prefix_sums``."""
        _check_prefix_sums(csum, (self.heads, self.total), "segments")
        # row h of csum is one longer than a cache, so h * T + t is at h * (T + 1) + t
        csum, shift = csum.ravel(), self.owner
        return csum[self.ends + shift] - csum[self.starts + shift]


def check_boundaries(boundaries, heads: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """The flat boundaries of ``heads`` heads as int64, and their segment
    lengths: 1-D integers from 0, strictly increasing, to an end that
    ``heads`` divides. Anything else is rejected."""
    if heads < 1:
        raise ContractViolation(f"need at least one head, got {heads}")
    boundaries = integers(boundaries, "boundaries")
    if boundaries.ndim != 1 or boundaries.size < 2:
        raise ContractViolation("need at least [0, T] as boundaries")
    if boundaries[0] != 0:
        raise ContractViolation("first boundary must be 0")
    lengths = boundaries[1:] - boundaries[:-1]
    if not (lengths > 0).all():
        raise ContractViolation("boundaries must be strictly increasing")
    if boundaries[-1] % heads:
        raise ContractViolation(f"boundaries must split into {heads} heads of equal length")
    return boundaries, lengths


def prefix_sums(m: np.ndarray) -> np.ndarray:
    """Each row's running sums of [..., T] mass as [rows, T + 1], from 0: the
    one prefix sum that an event's cuts and segment masses both read."""
    m = np.asarray(m, dtype=np.float64)
    if m.ndim < 1 or m.shape[-1] < 1:
        raise ContractViolation("mass vector must be non-empty")
    m = m.reshape(-1, m.shape[-1])
    csum = np.zeros((m.shape[0], m.shape[1] + 1))
    np.cumsum(m, axis=-1, out=csum[:, 1:])
    return csum


def check_tiling(shape: tuple, rows: int, total: int, what: str) -> None:
    """Reject an array of ``shape`` unless it is [..., total] with ``rows``
    rows in all, so that its rows laid end to end are [0, rows * total)."""
    if shape[-1:] != (total,) or math.prod(shape) != rows * total:
        raise ContractViolation(f"{what} of shape {shape} do not tile {rows} rows of {total}")


def _check_prefix_sums(csum: np.ndarray, shape: tuple, what: str) -> None:
    """Reject ``csum`` unless it is [rows, T + 1]: the ``prefix_sums`` of a
    [..., T] ``what`` of ``shape`` that holds as many rows."""
    if np.ndim(csum) != 2:
        raise ContractViolation(f"prefix sums must be [rows, T + 1], got {np.shape(csum)}")
    check_tiling(shape, len(csum), csum.shape[1] - 1, what)


def cut_points(m: np.ndarray, delta: float, csum: np.ndarray | None = None) -> np.ndarray:
    """Smallest positions where each row's cumulative mass crosses each
    multiple of delta; ``csum`` is the mass's ``prefix_sums``, if taken.

    Returned values are boundary positions in (0, T], in the concatenated
    caches for several rows (row h's position p is h * T + p), sorted and
    deduplicated; thresholds the total never reaches produce no cut.
    """
    if not (0.0 < delta <= 1.0):
        raise ContractViolation(f"delta must be in (0, 1], got {delta}")
    csum = prefix_sums(m) if csum is None else csum
    _check_prefix_sums(csum, np.shape(m), "mass")
    # a Python float's quotient is inf past the float range, with no warning
    total, top = csum.shape[1] - 1, float(csum[:, -1].max())
    if np.min(m) >= 0.0 and top / delta < total:
        # no negative mass, so every row's prefix sums rise, and fewer
        # thresholds than positions: a search of each row finds where it
        # first reaches each fl(j * delta), or T where it never does
        thresholds = np.arange(1, int(top / delta) + 2) * delta
        found = np.empty((len(csum), thresholds.size), dtype=np.int64)
        for h, row in enumerate(csum):
            found[h] = row[1:].searchsorted(thresholds)
        cuts = (found + 1 + np.arange(len(csum))[:, None] * total)[found < total]
        # each row's cuts rise and lie past the row before: repeats are adjacent
        return np.concatenate((cuts[:1], cuts[1:][cuts[1:] != cuts[:-1]]))
    # else count the thresholds at or below each prefix sum: the quotient's
    # floor, moved by one where it rounded across one. Past the float range
    # the quotient is inf, and its NaN difference is a cut, as thresholds
    # that dense lie between any two distinct prefix sums.
    with np.errstate(over="ignore", invalid="ignore"):
        crossed = np.floor(csum[:, 1:] / delta)
        crossed += (crossed + 1) * delta <= csum[:, 1:]
        crossed -= crossed * delta > csum[:, 1:]
        # position i + 1 is a cut when a threshold t has csum[i - 1] < t <= csum[i]
        return np.flatnonzero(np.diff(crossed, axis=-1, prepend=0)) + 1


def split_long(bounds: np.ndarray, max_len: int) -> np.ndarray:
    """The flat boundaries ``bounds`` (see ``check_boundaries``) with each
    over-long segment replaced by ceil(L/max_len) near-equal parts, the
    longer parts first."""
    if max_len < 1:
        raise ContractViolation("max_len must be >= 1")
    bounds, lengths = check_boundaries(bounds)
    parts = -(-lengths // max_len)
    base, rem = np.divmod(lengths, parts)
    # part k of a segment from a starts at a + k * base + min(k, rem)
    owner = np.arange(lengths.size).repeat(parts)
    k = np.arange(owner.size) - (parts.cumsum() - parts)[owner]
    starts = bounds[owner] + k * base[owner] + np.minimum(k, rem[owner])
    return np.concatenate((starts, bounds[-1:]))


def merge_short(bounds: np.ndarray, min_len: int, heads: int = 1) -> np.ndarray:
    """Left-to-right sweep over each of ``heads`` heads of the flat
    boundaries ``bounds`` (see ``check_boundaries``), merging under-length
    segments into their right neighbor; a head's short final segment
    merges leftward instead. A head's single segment shorter than min_len
    survives as-is when there is nothing to merge with.
    """
    if min_len < 1:
        raise ContractViolation("min_len must be >= 1")
    bounds, lengths = check_boundaries(bounds, heads)
    total = int(bounds[-1]) // heads
    # a segment of min_len or more always ends at a kept boundary (unless a
    # short tail merges into it), so the sweep walks the short segments
    # alone; start is the index of the last kept boundary
    keep = np.ones(bounds.size, dtype=bool)
    b, last, start = bounds.tolist(), -2, 0
    for i in (lengths < min_len).nonzero()[0].tolist():
        if i != last + 1:
            start = i  # a run of short segments starts at a kept boundary
        last = i
        if b[i + 1] - b[start] >= min_len:
            start = i + 1
        elif b[i + 1] % total == 0:
            # a head's trailing run is too short: it merges leftward into
            # the head's last kept segment, if there is one
            keep[start] = b[start] <= b[i + 1] - total
            start = i + 1
        else:
            keep[i + 1] = False
    return bounds[keep]


def fixed_length_segments(total: int, length: int, heads: int = 1) -> SegmentSet:
    """Each head's cache cut into contiguous segments of a fixed length (last
    one truncated)."""
    if total < 1 or length < 1:
        raise ContractViolation("total and length must be >= 1")
    starts = np.arange(heads)[:, None] * total + np.arange(0, total, length)
    return SegmentSet(np.append(starts.ravel(), heads * total), heads)


def segment(m: np.ndarray, cfg: CompressionConfig, csum: np.ndarray | None = None) -> SegmentSet:
    """Full segmentation pipeline over every row of [..., T] mass (one row
    per head): cuts, then split, then merge, all on the flat boundaries,
    with one ``SegmentSet`` built at the end. ``csum`` is the mass's
    ``prefix_sums``, if the caller has taken them.

    In the fixed-length ablation the mass is ignored and each cache is tiled
    with segments of ``max_seg_len``.
    """
    m = np.asarray(m, dtype=np.float64)
    total, heads = m.shape[-1], math.prod(m.shape[:-1])
    if cfg.fixed_length_segments_on:
        return fixed_length_segments(total, cfg.max_seg_len, heads)
    # the cuts and every head's ends, marked once each and read back in order
    marks = np.zeros(heads * total + 1, dtype=bool)
    marks[cut_points(m, cfg.segment_mass, csum)] = True
    marks[::total] = True
    bounds = split_long(marks.nonzero()[0], cfg.max_seg_len)
    return SegmentSet(merge_short(bounds, cfg.min_seg_len, heads), heads)
