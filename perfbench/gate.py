"""Correctness gate: checks on the package's outputs, run outside timed calls.

Every check raises ``GateError`` on a violation; the benchmark then reports
``correct: false`` and exits nonzero. ``checked`` counts the outputs checked
so far in this process, the failing one included; the benchmark reports it as
``attempted``.
"""

from __future__ import annotations

import numpy as np

from masskv.paged import verify_compaction

checked = 0


class GateError(Exception):
    """An output of the package broke a contract the benchmark checks."""


def _count(n: int = 1) -> None:
    global checked
    checked += n


def check_keep(keep: np.ndarray, cache_len: int, t_keep: int, n_sink: int) -> int:
    """One event's [heads, k] keep positions: exactly min(t_keep, T) sorted,
    unique, in-range positions per head, sinks included. Returns the number
    of keep sets checked."""
    keep = np.asarray(keep)
    _count(len(keep))
    k = min(t_keep, cache_len)
    if keep.ndim != 2 or keep.shape[1] != k:
        raise GateError(f"keep shape {keep.shape}, expected [heads, {k}] at T={cache_len}")
    if k > 1 and not (np.diff(keep, axis=1) > 0).all():
        raise GateError("keep positions are not sorted and unique")
    if keep.min() < 0 or keep.max() >= cache_len:
        raise GateError(f"keep position outside [0, {cache_len})")
    sinks = min(n_sink, cache_len)
    if not (keep[:, :sinks] == np.arange(sinks)).all():
        raise GateError(f"a head dropped one of the {sinks} sink tokens")
    return keep.shape[0]


def check_trace(trace) -> int:
    """Every event of a schedule run; returns the number of keep sets checked."""
    cfg = trace.config
    return sum(
        check_keep(ev.keep_positions, ev.cache_len, cfg.t_keep, cfg.n_sink)
        for ev in trace.events
    )


def check_length(table, t_keep: int) -> None:
    """A compaction left exactly ``t_keep`` tokens."""
    _count()
    if table.logical_len != t_keep:
        raise GateError(f"compacted to {table.logical_len} tokens, expected {t_keep}")


def check_conservation(pool, tables) -> None:
    """Free blocks plus blocks held by requests equal the pool's blocks."""
    _count()
    held = sum(len(t.blocks) for t in tables)
    if pool.num_free + held != pool.num_blocks:
        raise GateError(
            f"block leak: {pool.num_free} free + {held} held != {pool.num_blocks}"
        )


def check_disjoint(tables) -> None:
    """No block backs two requests."""
    _count()
    blocks = [b for t in tables for b in t.blocks]
    if len(blocks) != len(set(blocks)):
        raise GateError("a block is held by two requests")


def check_compaction(pool, table, dense_k, dense_v, keep, query) -> None:
    """The compacted paged cache equals the dense gather of the pre-compaction
    [heads, T, D] cache by ``keep``, entry by entry and in attention."""
    _count()
    heads = range(keep.shape[0])
    gathered_k = np.stack([dense_k[h, keep[h]] for h in heads])
    gathered_v = np.stack([dense_v[h, keep[h]] for h in heads])
    if not verify_compaction(pool, table, gathered_k, gathered_v, query):
        raise GateError("paged compaction differs from the dense gather")
