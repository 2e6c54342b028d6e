#!/usr/bin/env python3
"""Head-wise compaction inside a full paged KV pool.

Two heads keep different positions. Compaction copies each head's survivors,
in ascending order, into the request's own leading blocks and frees the tail
blocks, so it needs no free block and works with the pool 100% occupied.
Afterwards the ordinary (table, position) read path serves both heads with
no per-head indirection.
"""

import numpy as np

from masskv.paged import BlockPool, PagedRequest, compact, verify_compaction

rng = np.random.default_rng(3)
pool = BlockPool(num_blocks=4, block_size=4, kv_heads=2, head_dim=4)
req = PagedRequest(pool)
for _ in range(14):
    req.append(rng.normal(size=(2, 4)), rng.normal(size=(2, 4)))

print(f"cache of {req.table.logical_len} tokens in blocks {req.table.blocks}; "
      f"{pool.num_free} blocks free")
dense_k, dense_v = req.dense_view()

keep = np.array([
    [0, 1, 5, 9, 13],   # head 0 keeps these positions
    [0, 2, 6, 9, 12],   # head 1 keeps different ones
])
print(f"head 0 keeps {keep[0].tolist()}")
print(f"head 1 keeps {keep[1].tolist()}")

old_blocks = list(req.table.blocks)
src = req.table.slots(keep)
req.table = compact(pool, req.table, keep)
dst = req.table.slots(np.arange(keep.shape[1]))
for h in range(2):
    print(f"head {h} copies slots {src[h].tolist()} -> {dst.tolist()}")
print(f"compacted in place into blocks {req.table.blocks}; tail blocks "
      f"{old_blocks[len(req.table.blocks):]} returned ({pool.num_free} free)")
print(f"decode position is still {req.decode_pos}: the next token continues "
      "from its original logical position")

gathered_k = np.stack([dense_k[h, keep[h]] for h in range(2)])
gathered_v = np.stack([dense_v[h, keep[h]] for h in range(2)])
ok = verify_compaction(pool, req.table, gathered_k, gathered_v, rng.normal(size=(2, 4)))
print(f"\npaged attention == dense-gather attention within 1e-6: {ok}")
