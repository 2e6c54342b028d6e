"""Self-contained paged KV store with head-wise compaction.

Logical position p of a request maps to physical slot
``table[p // block_size] * block_size + p % block_size``. Compaction works in
place: each head's survivors are copied, in ascending order, into the
request's own leading ceil(k / block_size) blocks, and only the tail blocks
are freed. Keep sets are strictly increasing per head, so keep[h, t] >= t and
no source is overwritten before it is read. Compaction therefore never
allocates and succeeds on a full pool, and the steady-state read path keeps
using the plain (table, position) lookup with no per-head indirection.
"""

from __future__ import annotations

import logging

import numpy as np

from masskv.core import ContractViolation

logger = logging.getLogger(__name__)

COMPACTION_ATOL = 1e-6  # criterion 6: compacted vs dense-gathered entries and readouts


class AllocationError(RuntimeError):
    """The block pool cannot satisfy an allocation request."""


class BlockPool:
    """Fixed-capacity pool of KV blocks; slot-major storage [slots, heads, dim]."""

    def __init__(self, num_blocks: int, block_size: int, kv_heads: int, head_dim: int):
        if min(num_blocks, block_size, kv_heads, head_dim) < 1:
            raise ContractViolation("pool dimensions must be >= 1")
        self.num_blocks = num_blocks
        self.block_size = block_size
        self.kv_heads = kv_heads
        self.head_dim = head_dim
        n_slots = num_blocks * block_size
        self.keys = np.zeros((n_slots, kv_heads, head_dim), dtype=np.float64)
        self.values = np.zeros((n_slots, kv_heads, head_dim), dtype=np.float64)
        self._free = np.ones(num_blocks, dtype=bool)  # one flag per block id

    @property
    def num_free(self) -> int:
        return int(np.count_nonzero(self._free))

    def allocate(self, n: int) -> list[int]:
        """Take n blocks (lowest ids first); atomic, with no effects on failure."""
        blocks = np.flatnonzero(self._free)[:n]
        if len(blocks) != n:
            raise AllocationError(f"need {n} blocks, only {self.num_free} free")
        self._free[blocks] = False
        return blocks.tolist()

    def free(self, blocks: list[int]) -> None:
        """Return blocks to the pool; atomic, with no effects on a bad list."""
        ids = np.asarray(blocks, dtype=np.int64)
        out = (ids < 0) | (ids >= self.num_blocks)
        if out.any():
            raise ContractViolation(f"block id {ids[out][0]} out of range")
        ids, counts = np.unique(ids, return_counts=True)
        twice = (counts > 1) | self._free[ids]
        if twice.any():
            raise ContractViolation(f"double free of block {ids[twice][0]}")
        self._free[ids] = True


class BlockTable:
    """Ordered block ids backing one request, plus its logical length."""

    def __init__(self, block_size: int, blocks: list[int] | None = None, logical_len: int = 0):
        self.block_size = block_size
        self.blocks = list(blocks) if blocks else []
        self.logical_len = logical_len
        if logical_len > len(self.blocks) * block_size:
            raise ContractViolation("logical length exceeds table capacity")

    def slots(self, positions: np.ndarray) -> np.ndarray:
        positions = np.asarray(positions, dtype=np.int64)
        if positions.size and (positions.min() < 0 or positions.max() >= self.logical_len):
            raise ContractViolation("logical position out of range")
        table = np.asarray(self.blocks, dtype=np.int64)
        return table[positions // self.block_size] * self.block_size + positions % self.block_size


class PagedRequest:
    """One decoding stream over a pool: its table and position bookkeeping.

    ``decode_pos`` counts tokens generated since the start and is never reset
    by compaction; the next token continues from the original logical
    position even after the cache is physically shortened.
    """

    def __init__(self, pool: BlockPool):
        self.pool = pool
        self.table = BlockTable(pool.block_size)
        self.decode_pos = 0

    def append(self, k_vec: np.ndarray, v_vec: np.ndarray) -> None:
        """Write one token's per-head KV rows at the next logical position."""
        bs = self.table.block_size
        if self.table.logical_len == len(self.table.blocks) * bs:
            self.table.blocks.extend(self.pool.allocate(1))
        slot = self.table.blocks[self.table.logical_len // bs] * bs + self.table.logical_len % bs
        self.pool.keys[slot] = k_vec
        self.pool.values[slot] = v_vec
        self.table.logical_len += 1
        self.decode_pos += 1

    def dense_view(self) -> tuple[np.ndarray, np.ndarray]:
        """Materialize [heads, T, D] copies via the ordinary slot mapping."""
        slots = self.table.slots(np.arange(self.table.logical_len))
        return (
            self.pool.keys[slots].transpose(1, 0, 2).copy(),
            self.pool.values[slots].transpose(1, 0, 2).copy(),
        )


def compact(pool: BlockPool, table: BlockTable, keep: np.ndarray) -> BlockTable:
    """Compact head-wise keep sets in place and return the shortened table.

    For each head h and compact position t, the KV rows at the slot of
    keep[h, t] are copied to the slot of t in the request's own leading
    ceil(k / block_size) blocks; the tail blocks are then freed. Compaction
    never allocates. Every check runs before the first write, so a rejected
    keep set leaves the table and the pool untouched.
    """
    keep = np.asarray(keep, dtype=np.int64)
    if keep.ndim != 2 or keep.shape[0] != pool.kv_heads:
        raise ContractViolation(f"keep must be [kv_heads, k], got {keep.shape}")
    k = keep.shape[1]
    if k < 1:
        raise ContractViolation("cannot compact to an empty cache")
    if keep.min() < 0 or keep.max() >= table.logical_len:
        raise ContractViolation("keep position out of range for the old table")
    if not (np.diff(keep, axis=1) > 0).all():
        raise ContractViolation("keep positions must be strictly increasing per head")
    n_keep = -(-k // table.block_size)
    new_table = BlockTable(table.block_size, table.blocks[:n_keep], logical_len=k)
    src = table.slots(keep).T  # [k, heads]
    dst = new_table.slots(np.arange(k))[:, None]
    heads = np.arange(pool.kv_heads)
    pool.keys[dst, heads] = pool.keys[src, heads]
    pool.values[dst, heads] = pool.values[src, heads]
    pool.free(table.blocks[n_keep:])
    return new_table


def attention_weights(keys: np.ndarray, query: np.ndarray) -> np.ndarray:
    """Causal softmax attention per head over a dense [H, T, D] cache: the
    package's one softmax, for the compaction readout and the toy decoder.

    A [H, n, D] query block holds the cache's last n tokens, oldest first;
    query i sees the first T - n + i + 1 keys, and its row of the [H, n, T]
    result is exactly 0 past them. All n rows come from one ``np.matmul``
    and are normalized in place. A [H, D] query is the n = 1 case, [H, T].
    """
    q = query[:, None] if query.ndim == 2 else query
    n, t = q.shape[1], keys.shape[1]
    scores = np.matmul(q, keys.transpose(0, 2, 1))
    scores /= np.sqrt(keys.shape[-1])
    scores[:, ~np.tri(n, t, t - n, dtype=bool)] = -np.inf
    scores -= scores.max(axis=-1, keepdims=True)
    np.exp(scores, out=scores)
    scores /= scores.sum(axis=-1, keepdims=True)
    return scores[:, 0] if query.ndim == 2 else scores


def attention_readout(keys: np.ndarray, values: np.ndarray, query: np.ndarray) -> np.ndarray:
    """The attention-weighted [H, D] sum of a dense cache's values."""
    return np.einsum("ht,htd->hd", attention_weights(keys, query), values)


def verify_compaction(
    pool: BlockPool,
    table: BlockTable,
    dense_keys: np.ndarray,
    dense_values: np.ndarray,
    query: np.ndarray | None = None,
) -> bool:
    """Check the compacted paged cache against densely gathered tensors.

    Entries must match elementwise within ``COMPACTION_ATOL`` and a
    single-query attention readout over both caches must agree within it. Shape
    mismatches are reported as False with a diagnostic, not raised.
    """
    slots = table.slots(np.arange(table.logical_len))
    paged_k = pool.keys[slots].transpose(1, 0, 2)
    paged_v = pool.values[slots].transpose(1, 0, 2)
    if paged_k.shape != dense_keys.shape or paged_v.shape != dense_values.shape:
        logger.warning(
            "compaction shape mismatch: paged %s vs dense %s", paged_k.shape, dense_keys.shape
        )
        return False
    if not (
        np.allclose(paged_k, dense_keys, atol=COMPACTION_ATOL)
        and np.allclose(paged_v, dense_values, atol=COMPACTION_ATOL)
    ):
        logger.warning("compaction value mismatch beyond atol=%g", COMPACTION_ATOL)
        return False
    if query is None:
        query = np.ones((pool.kv_heads, pool.head_dim), dtype=np.float64)
    out_paged = attention_readout(paged_k, paged_v, query)
    out_dense = attention_readout(dense_keys, dense_values, query)
    if not np.allclose(out_paged, out_dense, atol=COMPACTION_ATOL):
        logger.warning("attention readout mismatch beyond atol=%g", COMPACTION_ATOL)
        return False
    return True


def run_equivalence_fuzz(n_cases: int, seed: int, corrupt: bool = False) -> tuple[int, int]:
    """Randomized head-distinct compaction vs dense gather; returns (pass, fail).

    ``corrupt`` perturbs one slot after each compaction, as a sensitivity
    check that the verifier actually discriminates.
    """
    rng = np.random.default_rng(seed)
    passed = failed = 0
    for _ in range(n_cases):
        heads = int(rng.integers(1, 4))
        dim = int(rng.integers(2, 9))
        block_size = int(rng.integers(1, 9))
        total = int(rng.integers(1, 49))
        keep_n = int(rng.integers(1, total + 1))
        # the cache's own blocks plus 0-2 spare, so about a third of the pools are full
        pool = BlockPool(-(-total // block_size) + int(rng.integers(0, 3)), block_size, heads, dim)
        req = PagedRequest(pool)
        for _ in range(total):
            req.append(rng.normal(size=(heads, dim)), rng.normal(size=(heads, dim)))
        dense_k, dense_v = req.dense_view()
        # head-distinct keep sets, sorted per head
        keep = np.stack(
            [np.sort(rng.choice(total, size=keep_n, replace=False)) for _ in range(heads)]
        )
        new_table = compact(pool, req.table, keep)
        # free-list conservation: every block is either free or in the new table
        if pool.num_free + len(new_table.blocks) != pool.num_blocks:
            failed += 1
            continue
        if corrupt:
            slot = new_table.slots(int(rng.integers(0, keep_n)))
            pool.keys[slot, 0, 0] += 1.0
        gathered_k = np.stack([dense_k[h, keep[h]] for h in range(heads)])
        gathered_v = np.stack([dense_v[h, keep[h]] for h in range(heads)])
        query = rng.normal(size=(heads, dim))
        ok = verify_compaction(pool, new_table, gathered_k, gathered_v, query)
        if ok:
            passed += 1
        else:
            failed += 1
    return passed, failed
