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
        if heads < 1:
            raise ContractViolation(f"need at least one head, got {heads}")
        boundaries = integers(boundaries, "boundaries")
        if boundaries.ndim != 1 or boundaries.size < 2:
            raise ContractViolation("need at least [0, T] as boundaries")
        if boundaries[0] != 0:
            raise ContractViolation("first boundary must be 0")
        self.lengths = np.diff(boundaries)
        if not (self.lengths > 0).all():
            raise ContractViolation("boundaries must be strictly increasing")
        breaks = np.arange(heads + 1) * (boundaries[-1] // heads)
        self.offsets = np.searchsorted(boundaries, breaks)
        if breaks[-1] != boundaries[-1] or not (boundaries[self.offsets] == breaks).all():
            raise ContractViolation(f"boundaries must split into {heads} heads of equal length")
        self.boundaries, self.heads = boundaries, heads
        self.starts, self.ends = boundaries[:-1], boundaries[1:]
        self.total = int(boundaries[-1]) // heads
        self.owner = np.repeat(np.arange(heads), np.diff(self.offsets))

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
    total, top = csum.shape[1] - 1, csum[:, -1].max()
    with np.errstate(over="ignore", invalid="ignore"):
        if np.min(m) >= 0.0 and top / delta < total:
            # no negative mass, so every row's prefix sums rise, and fewer
            # thresholds than positions: a search of each row finds where it
            # first reaches each fl(j * delta), or T where it never does
            thresholds = np.arange(1, int(top / delta) + 2) * delta
            found = np.stack([np.searchsorted(row[1:], thresholds) for row in csum])
            cuts = found + 1 + np.arange(len(csum))[:, None] * total
            return np.unique(cuts[found < total])
        # else count the thresholds at or below each prefix sum: the quotient's
        # floor, moved by one where it rounded across one. Past the float range
        # the quotient is inf, and its NaN difference is a cut, as thresholds
        # that dense lie between any two distinct prefix sums.
        crossed = np.floor(csum[:, 1:] / delta)
        crossed += (crossed + 1) * delta <= csum[:, 1:]
        crossed -= crossed * delta > csum[:, 1:]
        # position i + 1 is a cut when a threshold t has csum[i - 1] < t <= csum[i]
        return np.flatnonzero(np.diff(crossed, axis=-1, prepend=0)) + 1


def split_long(bounds: np.ndarray, max_len: int) -> np.ndarray:
    """The flat int64 ``bounds``, laid out as a ``SegmentSet``'s boundaries
    but not yet checked, with each over-long segment replaced by
    ceil(L/max_len) near-equal parts, the longer parts first."""
    if max_len < 1:
        raise ContractViolation("max_len must be >= 1")
    lengths = np.diff(bounds)
    parts = -(-lengths // max_len)
    base, rem = np.divmod(lengths, parts)
    owner = np.repeat(np.arange(lengths.size), parts)
    rank = np.arange(owner.size) - np.repeat(np.cumsum(parts) - parts, parts)
    pieces = base[owner] + (rank < rem[owner])
    return np.concatenate([[0], np.cumsum(pieces)])


def merge_short(bounds: np.ndarray, min_len: int, heads: int = 1) -> np.ndarray:
    """Left-to-right sweep over each of ``heads`` heads of the flat int64
    ``bounds``, laid out as in ``split_long``, merging under-length
    segments into their right neighbor; a head's short final segment
    merges leftward instead. A head's single segment shorter than min_len
    survives as-is when there is nothing to merge with.
    """
    if min_len < 1:
        raise ContractViolation("min_len must be >= 1")
    total = int(bounds[-1]) // heads
    out, start = [0], 0
    for b in bounds[1:].tolist():
        if b - start >= min_len:
            out.append(b)
        elif b % total == 0:
            # a head's trailing run is too short: it merges leftward into
            # the head's last emitted segment, if there is one
            if out[-1] > b - total:
                out[-1] = b
            else:
                out.append(b)
        else:
            continue
        start = b
    return np.array(out, dtype=np.int64)


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
    which one ``SegmentSet`` checks at the end. ``csum`` is the mass's
    ``prefix_sums``, if the caller has taken them.

    In the fixed-length ablation the mass is ignored and each cache is tiled
    with segments of ``max_seg_len``.
    """
    m = np.asarray(m, dtype=np.float64)
    total, heads = m.shape[-1], int(np.prod(m.shape[:-1]))
    if cfg.fixed_length_segments_on:
        return fixed_length_segments(total, cfg.max_seg_len, heads)
    bounds = np.union1d(cut_points(m, cfg.segment_mass, csum), np.arange(heads + 1) * total)
    bounds = merge_short(split_long(bounds, cfg.max_seg_len), cfg.min_seg_len, heads)
    return SegmentSet(bounds, heads)
