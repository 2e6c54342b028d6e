"""Self-contained paged KV store with head-wise compaction.

Logical position p of a request maps to physical slot
``table[p // block_size] * block_size + p % block_size``, and head h of that
slot is row ``slot * kv_heads + h`` of the pool's flat [slots * heads, D]
view. Compaction works in place: each head's survivors are copied, in
ascending order, into the request's own leading ceil(k / block_size) blocks,
and only the tail blocks are freed. The copy walks the compact positions in
chunks of ``COMPACT_CHUNK_BYTES``, one flat row take per chunk, so each
chunk's temporary stays in cache. Keep sets are strictly increasing per head,
so keep[h, t] >= t: a chunk's sources lie at or after its first position,
where no earlier chunk wrote. Compaction therefore never allocates and
succeeds on a full pool, and the steady-state read path, ``read_dense``,
keeps using the plain (table, position) lookup with no per-head indirection.
"""

from __future__ import annotations

import logging

import numpy as np

from masskv.core import ContractViolation, integers

logger = logging.getLogger(__name__)

COMPACTION_ATOL = 1e-6  # criterion 6: compacted vs dense-gathered entries and readouts
# Bytes of KV rows one compaction chunk gathers: small enough that the chunk's
# temporary stays in L2 (64 positions at 8 heads x 64 float64 dims).
COMPACT_CHUNK_BYTES = 256 * 1024


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
        positions = integers(positions, "positions")
        if positions.size and (positions.min() < 0 or positions.max() >= self.logical_len):
            raise ContractViolation("logical position out of range")
        return _slot_map(np.asarray(self.blocks, dtype=np.int64), self.block_size, positions)


def _slot_map(blocks: np.ndarray, block_size: int, positions: np.ndarray) -> np.ndarray:
    """Physical slots of in-range logical positions over a block-id array."""
    return blocks[positions // block_size] * block_size + positions % block_size


def _rows(slots: np.ndarray, heads: int) -> np.ndarray:
    """[heads, n] rows of the flat [slots * heads, D] pool view: head h of
    each slot, for [n] slots shared by all heads or [heads, n] per head."""
    return slots * heads + np.arange(heads)[:, None]


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
        """Write one token's [kv_heads, head_dim] K and V arrays at the next
        logical position; anything else is rejected with no effects."""
        pool, table = self.pool, self.table
        row = (pool.kv_heads, pool.head_dim)
        # attribute reads, not np.shape: this runs once per decoded token
        if getattr(k_vec, "shape", None) != row or getattr(v_vec, "shape", None) != row:
            raise ContractViolation(
                f"need {row} K and V arrays, got {np.shape(k_vec)} and {np.shape(v_vec)}"
            )
        n, bs = table.logical_len, table.block_size
        if n == len(table.blocks) * bs:
            table.blocks.extend(pool.allocate(1))
        slot = table.blocks[n // bs] * bs + n % bs
        pool.keys[slot] = k_vec
        pool.values[slot] = v_vec
        table.logical_len = n + 1
        self.decode_pos += 1

    def dense_view(self) -> tuple[np.ndarray, np.ndarray]:
        """Materialize [heads, T, D] copies via the ordinary slot mapping."""
        return read_dense(self.pool, self.table)


def read_dense(pool: BlockPool, table: BlockTable) -> tuple[np.ndarray, np.ndarray]:
    """The package's one dense read path: a request's [heads, T, D] keys and
    values, gathered through its block table into fresh contiguous arrays."""
    rows = _rows(table.slots(np.arange(table.logical_len)), pool.kv_heads)
    return (
        np.take(pool.keys.reshape(-1, pool.head_dim), rows, axis=0),
        np.take(pool.values.reshape(-1, pool.head_dim), rows, axis=0),
    )


def compact(pool: BlockPool, table: BlockTable, keep: np.ndarray) -> BlockTable:
    """Compact head-wise keep sets in place and return the shortened table.

    For each head h and compact position t, the KV row at the slot of
    keep[h, t] is copied to the slot of t in the request's own leading
    ceil(k / block_size) blocks; the tail blocks are then freed. Compaction
    never allocates. Every check runs before the first write, so a rejected
    keep set leaves the table and the pool untouched.

    The copy walks the compact positions in increasing chunks of ``step``
    positions, ``COMPACT_CHUNK_BYTES`` of rows each. A chunk gathers its
    sources, one flat row per (position, head), into a temporary with one
    ``np.take`` and then writes whole slots. In-place order is safe because
    keep sets are strictly increasing, so keep[h, t] >= t: the sources of the
    chunk starting at position c sit at positions >= c, and earlier chunks
    wrote only positions < c. The new table's leading blocks are the old
    table's, so a position has the same slot before and after.
    """
    keep = np.asarray(keep)
    if keep.ndim != 2 or keep.shape[0] != pool.kv_heads:
        raise ContractViolation(f"keep must be [kv_heads, k], got {keep.shape}")
    k = keep.shape[1]
    if k < 1:
        raise ContractViolation("cannot compact to an empty cache")
    keep = integers(keep, "keep positions")
    if keep.min() < 0 or keep.max() >= table.logical_len:
        raise ContractViolation("keep position out of range for the old table")
    if not (np.diff(keep, axis=1) > 0).all():
        raise ContractViolation("keep positions must be strictly increasing per head")
    bs = table.block_size
    n_keep = -(-k // bs)
    new_table = BlockTable(bs, table.blocks[:n_keep], logical_len=k)
    blocks = np.asarray(table.blocks, dtype=np.int64)
    src = _rows(_slot_map(blocks, bs, keep), pool.kv_heads).T  # [k, heads]
    dst = _slot_map(blocks, bs, np.arange(k))
    step = max(1, COMPACT_CHUNK_BYTES // (pool.kv_heads * pool.head_dim * pool.keys.itemsize))
    for arr in (pool.keys, pool.values):
        rows = arr.reshape(-1, pool.head_dim)
        for c in range(0, k, step):
            arr[dst[c : c + step]] = np.take(rows, src[c : c + step], axis=0)
    pool.free(table.blocks[n_keep:])
    return new_table


def attention_weights(keys: np.ndarray, query: np.ndarray) -> np.ndarray:
    """Causal softmax attention per head over a dense [H, T, D] cache: the
    package's one softmax, for the compaction readout and the toy decoder.

    A [H, n, D] query block holds the cache's last n tokens, oldest first;
    query i sees the first T - n + i + 1 keys, and its row of the [H, n, T]
    result is exactly 0 past them. All n rows come from one ``np.matmul``
    and are normalized in place. A [H, D] query is the n = 1 case, [H, T].
    The block must fit in the cache: n <= T, with T >= 1.
    """
    q = query[:, None] if query.ndim == 2 else query
    if keys.ndim != 3 or q.ndim != 3 or q.shape[::2] != keys.shape[::2]:
        raise ContractViolation(
            f"query {query.shape} does not match the [H, T, D] cache {keys.shape}"
        )
    n, t = q.shape[1], keys.shape[1]
    if t < 1 or n > t:
        raise ContractViolation(f"{n} queries need a cache of at least {max(n, 1)} tokens, got {t}")
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
    paged_k, paged_v = read_dense(pool, table)
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
