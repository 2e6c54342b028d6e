import numpy as np
import pytest

import masskv.paged as paged
from masskv.core import ContractViolation, default_config
from masskv.paged import (
    AllocationError,
    BlockPool,
    BlockTable,
    PagedRequest,
    attention_readout,
    compact,
    read_dense,
    run_equivalence_fuzz,
    verify_compaction,
)
from masskv.sim import WorkloadSpec, run_schedule


def test_slots_examples():
    table = BlockTable(16, [7, 3], logical_len=32)
    assert table.slots(20) == 3 * 16 + 4
    assert table.slots(0) == 7 * 16
    with pytest.raises(ContractViolation):
        table.slots(32)
    with pytest.raises(ContractViolation):
        table.slots(np.array([0, -1]))
    with pytest.raises(ContractViolation, match="integers"):
        table.slots(np.array([1.9]))  # never truncated to position 1

    unit = BlockTable(1, [5, 9, 2], logical_len=3)
    assert unit.slots(np.arange(3)).tolist() == [5, 9, 2]


def _filled_request(pool, total, rng):
    req = PagedRequest(pool)
    for _ in range(total):
        req.append(
            rng.normal(size=(pool.kv_heads, pool.head_dim)),
            rng.normal(size=(pool.kv_heads, pool.head_dim)),
        )
    return req


def test_append_rejects_rows_of_the_wrong_shape_with_no_effects():
    # the table is full, so the next append takes a fresh block first; a [D]
    # vector and a scalar broadcast into every head, so only the shape check
    # stops them
    pool = BlockPool(4, 2, 3, 4)
    req = PagedRequest(pool)
    for _ in range(2):
        req.append(np.ones((3, 4)), -np.ones((3, 4)))
    before = (pool.num_free, list(req.table.blocks), req.table.logical_len, req.decode_pos)
    keys, values = pool.keys.copy(), pool.values.copy()
    row, short = np.ones((3, 4)), np.ones((2, 4))
    for k_vec, v_vec in ((np.arange(4.0), np.arange(4.0)), (7.0, 7.0), (short, short),
                         (row, short)):
        with pytest.raises(ContractViolation, match="K and V arrays"):
            req.append(k_vec, v_vec)
        assert (pool.num_free, req.table.blocks, req.table.logical_len, req.decode_pos) == before
    np.testing.assert_array_equal(pool.keys, keys)
    np.testing.assert_array_equal(pool.values, values)


def test_compact_identity_prefix():
    rng = np.random.default_rng(0)
    pool = BlockPool(num_blocks=8, block_size=4, kv_heads=2, head_dim=3)
    req = _filled_request(pool, 12, rng)
    dense_k, dense_v = req.dense_view()
    keep = np.tile(np.arange(8), (2, 1))
    table = compact(pool, req.table, keep)
    assert table.logical_len == 8
    slots = table.slots(np.arange(8))
    np.testing.assert_array_equal(pool.keys[slots].transpose(1, 0, 2), dense_k[:, :8])
    np.testing.assert_array_equal(pool.values[slots].transpose(1, 0, 2), dense_v[:, :8])


def test_compact_head_distinct_keeps():
    rng = np.random.default_rng(1)
    pool = BlockPool(num_blocks=6, block_size=2, kv_heads=2, head_dim=2)
    req = _filled_request(pool, 3, rng)
    dense_k, dense_v = req.dense_view()
    keep = np.array([[0, 2], [1, 2]])
    table = compact(pool, req.table, keep)
    slots = table.slots(np.arange(2))
    np.testing.assert_array_equal(pool.keys[slots, 0], dense_k[0, [0, 2]])
    np.testing.assert_array_equal(pool.keys[slots, 1], dense_k[1, [1, 2]])
    np.testing.assert_array_equal(pool.values[slots, 0], dense_v[0, [0, 2]])


def test_compact_allocation_failure_is_atomic():
    # compaction works in place: on a 100%-full pool it succeeds without
    # allocating, keeps the leading blocks and frees exactly the tail
    rng = np.random.default_rng(2)
    pool = BlockPool(num_blocks=3, block_size=4, kv_heads=1, head_dim=2)
    req = _filled_request(pool, 12, rng)  # consumes all 3 blocks
    dense_k, dense_v = req.dense_view()
    old_blocks = list(req.table.blocks)
    assert pool.num_free == 0

    def no_allocation(n):
        raise AssertionError("compaction allocated blocks")

    pool.allocate = no_allocation
    keep = np.array([[0, 1, 2, 3, 11]])
    table = compact(pool, req.table, keep)
    assert table.logical_len == 5
    assert table.blocks == old_blocks[:2]
    assert pool.num_free == len(old_blocks) - 2  # ceil(5/4) = 2 blocks kept
    assert verify_compaction(pool, table, dense_k[:, keep[0]], dense_v[:, keep[0]])


@pytest.mark.parametrize(
    "keep",
    [[[0, 1, 12]], [[-1, 1, 2]], [[3, 1, 2]], [[1, 1, 2]], [[0, 1], [0, 1]],
     np.zeros((1, 0)), [0, 1, 2], [[0.0, 2.9, 7.5]]],
    ids=["out_of_range", "negative", "unsorted", "duplicate", "wrong_heads", "empty", "one_dim",
         "float"],
)
def test_compact_rejects_bad_keep_before_any_write(keep):
    rng = np.random.default_rng(9)
    pool = BlockPool(num_blocks=3, block_size=4, kv_heads=1, head_dim=2)
    req = _filled_request(pool, 10, rng)
    blocks, free = list(req.table.blocks), pool.num_free
    keys, values = pool.keys.copy(), pool.values.copy()
    with pytest.raises(ContractViolation):
        compact(pool, req.table, np.asarray(keep))
    assert req.table.blocks == blocks and req.table.logical_len == 10
    assert pool.num_free == free
    np.testing.assert_array_equal(pool.keys, keys)
    np.testing.assert_array_equal(pool.values, values)


def _interleaved_requests(pool, total, rng):
    """Two requests filled a token at a time each, so their blocks alternate."""
    a, b = PagedRequest(pool), PagedRequest(pool)
    for _ in range(total):
        for req in (a, b):
            req.append(
                rng.normal(size=(pool.kv_heads, pool.head_dim)),
                rng.normal(size=(pool.kv_heads, pool.head_dim)),
            )
    return a, b


def _assert_exact_compaction(pool, a, b, keep):
    """Compact ``a`` by ``keep``: its cache must equal the dense gather bit for
    bit, and every slot outside its first k positions must keep its bytes."""
    dense_k, dense_v = a.dense_view()
    other = b.dense_view()
    keys, values = pool.keys.copy(), pool.values.copy()
    table = compact(pool, a.table, keep)
    k = keep.shape[1]
    heads = range(keep.shape[0])
    paged_k, paged_v = read_dense(pool, table)
    np.testing.assert_array_equal(paged_k, np.stack([dense_k[h, keep[h]] for h in heads]))
    np.testing.assert_array_equal(paged_v, np.stack([dense_v[h, keep[h]] for h in heads]))
    untouched = np.ones(len(pool.keys), dtype=bool)
    untouched[table.slots(np.arange(k))] = False
    np.testing.assert_array_equal(pool.keys[untouched], keys[untouched])
    np.testing.assert_array_equal(pool.values[untouched], values[untouched])
    for got, want in zip(b.dense_view(), other):
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("step", [1, 3, 5])
@pytest.mark.parametrize("block_size", [1, 3, 16])
@pytest.mark.parametrize("heads", [1, 3])
def test_chunked_compaction_is_exact_across_chunk_boundaries(monkeypatch, step, block_size, heads):
    # k = 47 is no multiple of any block size or step above 1, so the last
    # chunk and the last kept block are both partial
    dim, total, k = 2, 61, 47
    monkeypatch.setattr(paged, "COMPACT_CHUNK_BYTES", step * heads * dim * 8)
    rng = np.random.default_rng(100 * step + 10 * block_size + heads)
    pool = BlockPool(2 * -(-total // block_size) + 1, block_size, heads, dim)
    a, b = _interleaved_requests(pool, total, rng)
    # a random keep set, the tail (every source k - total positions away) and
    # the identity prefix (every source its own destination)
    patterns = [np.sort(rng.choice(total, k, replace=False)), np.arange(total - k, total),
                np.arange(k)]
    _assert_exact_compaction(pool, a, b, np.stack(patterns[:heads]))


def test_chunked_compaction_is_exact_at_the_paged_churn_shape():
    # T = 1,152 tokens compacted to k = 1,024 over 8 heads, with the real
    # chunk constant; at head_dim 16 the copy still spans several chunks
    heads, dim, block_size, total, k = 8, 16, 16, 1152, 1024
    assert paged.COMPACT_CHUNK_BYTES // (heads * dim * 8) < k
    rng = np.random.default_rng(1152)
    pool = BlockPool(2 * total // block_size, block_size, heads, dim)
    a, b = _interleaved_requests(pool, total, rng)
    keep = np.sort(rng.random((heads, total)).argsort(axis=-1)[:, :k], axis=-1)
    _assert_exact_compaction(pool, a, b, keep)


def test_compact_is_idempotent_under_identity_keep():
    rng = np.random.default_rng(3)
    pool = BlockPool(num_blocks=8, block_size=4, kv_heads=2, head_dim=3)
    req = _filled_request(pool, 8, rng)
    keep = np.tile(np.arange(8), (2, 1))
    t1 = compact(pool, req.table, keep)
    k1 = pool.keys[t1.slots(np.arange(8))].copy()
    t2 = compact(pool, t1, keep)
    k2 = pool.keys[t2.slots(np.arange(8))]
    np.testing.assert_array_equal(k1, k2)


def test_decode_position_not_reset_by_compaction():
    rng = np.random.default_rng(4)
    pool = BlockPool(num_blocks=8, block_size=4, kv_heads=1, head_dim=2)
    req = _filled_request(pool, 10, rng)
    assert req.decode_pos == 10
    req.table = compact(pool, req.table, np.array([[0, 5, 9]]))
    assert req.decode_pos == 10  # logical decoding position survives
    assert req.table.logical_len == 3


def test_verify_compaction_detects_perturbation():
    rng = np.random.default_rng(6)
    pool = BlockPool(num_blocks=8, block_size=4, kv_heads=2, head_dim=3)
    req = _filled_request(pool, 10, rng)
    dense_k, dense_v = req.dense_view()
    keep = np.stack([np.sort(rng.choice(10, 5, replace=False)) for _ in range(2)])
    table = compact(pool, req.table, keep)
    gk = np.stack([dense_k[h, keep[h]] for h in range(2)])
    gv = np.stack([dense_v[h, keep[h]] for h in range(2)])
    assert verify_compaction(pool, table, gk, gv)
    slot = table.slots(3)
    pool.keys[slot, 1, 0] += 1e-3
    assert not verify_compaction(pool, table, gk, gv)
    # shape mismatch reports False rather than raising
    assert not verify_compaction(pool, table, gk[:, :2], gv[:, :2])


def test_free_list_conservation_over_op_sequences():
    rng = np.random.default_rng(7)
    pool = BlockPool(num_blocks=12, block_size=2, kv_heads=1, head_dim=2)
    held: list[list[int]] = []
    for _ in range(200):
        held_blocks = sum(len(h) for h in held)
        assert pool.num_free + held_blocks == pool.num_blocks
        if held and rng.random() < 0.45:
            pool.free(held.pop(rng.integers(0, len(held))))
        else:
            n = int(rng.integers(1, 4))
            if n <= pool.num_free:
                held.append(pool.allocate(n))
            else:
                with pytest.raises(AllocationError):
                    pool.allocate(n)
    with pytest.raises(ContractViolation):
        pool.free([999])


def test_allocate_takes_the_lowest_free_ids_first():
    pool = BlockPool(num_blocks=6, block_size=2, kv_heads=1, head_dim=2)
    assert pool.allocate(4) == [0, 1, 2, 3]
    pool.free([2, 0])
    assert pool.allocate(3) == [0, 2, 4]
    assert pool.allocate(0) == [] and pool.num_free == 1


def test_double_free_rejected():
    pool = BlockPool(num_blocks=4, block_size=2, kv_heads=1, head_dim=2)
    blocks = pool.allocate(2)
    pool.free(blocks)
    with pytest.raises(ContractViolation):
        pool.free([blocks[0]])


@pytest.mark.parametrize("extra", [999, -1, "repeat", "free"])
def test_free_is_atomic(extra):
    pool = BlockPool(num_blocks=4, block_size=2, kv_heads=1, head_dim=2)
    held = pool.allocate(3)
    unheld = pool.allocate(1)
    pool.free(unheld)
    bad = {"repeat": held[0], "free": unheld[0]}.get(extra, extra)
    with pytest.raises(ContractViolation):
        pool.free([held[0], bad])
    assert pool.num_free == 1
    assert pool.allocate(1) == unheld  # the held blocks never reached the free list
    pool.free(held + unheld)
    assert pool.num_free == 4


def test_attention_readout_matches_manual():
    rng = np.random.default_rng(8)
    k = rng.normal(size=(2, 5, 3))
    v = rng.normal(size=(2, 5, 3))
    q = rng.normal(size=(2, 3))
    out = attention_readout(k, v, q)
    for h in range(2):
        s = k[h] @ q[h] / np.sqrt(3)
        w = np.exp(s - s.max())
        w /= w.sum()
        np.testing.assert_allclose(out[h], w @ v[h], atol=1e-12)


def _single_query_softmax(keys, q):
    """The [H, D] query's softmax over all of ``keys``, one einsum per row."""
    s = np.einsum("htd,hd->ht", keys, q) / np.sqrt(keys.shape[-1])
    w = np.exp(s - s.max(axis=-1, keepdims=True))
    return w / w.sum(axis=-1, keepdims=True)


@pytest.mark.parametrize("chunk", [1, 3, 16])
def test_causal_attention_weights_match_one_query_at_a_time(chunk):
    # the last 37 of 50 tokens query the cache in consecutive chunks; 37 is
    # no multiple of 3 or 16, so the last chunk is short
    rng = np.random.default_rng(chunk)
    heads, total, dim, first = 3, 50, 8, 13
    keys = rng.normal(size=(heads, total, dim))
    qs = rng.normal(size=(heads, total, dim))
    sizes = []
    for p in range(first, total, chunk):
        m = min(chunk, total - p)
        sizes.append(m)
        rows = paged.attention_weights(keys[:, : p + m], qs[:, p : p + m])
        assert rows.shape == (heads, m, p + m)
        for i in range(m):
            t = p + i + 1
            want = _single_query_softmax(keys[:, :t], qs[:, p + i])
            np.testing.assert_allclose(rows[:, i, :t], want, rtol=1e-12, atol=0)
            assert (rows[:, i, t:] == 0).all()
            np.testing.assert_allclose(rows[:, i].sum(axis=-1), 1.0, rtol=1e-12)
    assert sum(sizes) == total - first and (chunk == 1 or sizes[-1] < chunk)
    # n = 1 is the [H, D] form, bit for bit
    one = paged.attention_weights(keys, qs[:, -1:])
    np.testing.assert_array_equal(one[:, 0], paged.attention_weights(keys, qs[:, -1]))


@pytest.mark.parametrize(
    "keys_shape, query_shape, match",
    [
        ((1, 2, 4), (1, 3, 4), "at least 3 tokens, got 2"),  # a block longer than the cache
        ((1, 0, 4), (1, 1, 4), "at least 1 tokens, got 0"),
        ((1, 0, 4), (1, 4), "at least 1 tokens, got 0"),  # the [H, D] form, empty cache
        ((2, 5, 4), (1, 2, 4), "does not match"),  # heads
        ((2, 5, 4), (2, 2, 3), "does not match"),  # head_dim
        ((2, 5, 4), (2, 3), "does not match"),  # head_dim, [H, D] form
        ((5, 4), (2, 4), "does not match"),  # a cache without its head axis
    ],
)
def test_attention_weights_rejects_a_mismatched_or_oversized_block(keys_shape, query_shape, match):
    # rejected before the matmul: no NaN row and no bare ValueError escapes
    with pytest.raises(ContractViolation, match=match):
        paged.attention_weights(np.ones(keys_shape), np.ones(query_shape))


def test_equivalence_fuzz_smoke():
    passed, failed = run_equivalence_fuzz(60, seed=0)
    assert (passed, failed) == (60, 0)
    passed, failed = run_equivalence_fuzz(20, seed=1, corrupt=True)
    assert failed == 20


def test_equivalence_fuzz_covers_full_pools(monkeypatch):
    # the fuzz sizes each pool to the cache's own blocks plus 0-2 spare
    full = []

    def spy(pool, table, keep):
        full.append(pool.num_free == 0)
        return compact(pool, table, keep)

    monkeypatch.setattr(paged, "compact", spy)
    assert run_equivalence_fuzz(60, seed=0) == (60, 0)
    assert 10 <= sum(full) <= 40


def test_degenerate_single_token_cache():
    passed, failed = run_equivalence_fuzz(1, seed=12345)
    assert failed == 0
    pool = BlockPool(num_blocks=2, block_size=1, kv_heads=1, head_dim=2)
    req = _filled_request(pool, 1, np.random.default_rng(0))
    table = compact(pool, req.table, np.array([[0]]))
    assert table.logical_len == 1


@pytest.mark.parametrize("policy", ["ams", "global_topk", "streaming", "fixed_chunk"])
@pytest.mark.parametrize("block_size", [1, 4, 16])
def test_compaction_replays_the_keep_sets_of_a_run(policy, block_size):
    # token id i is stored with key i and value -i, so after each event the
    # paged cache must read back exactly the ids the run kept, per head
    cfg = default_config().replace(t_keep=64, interval=32, window=32, n_last=8)
    heads = 3
    trace = run_schedule(
        WorkloadSpec("drifting_focus", steps=512, seed=4), policy, cfg, kv_heads=heads
    )
    assert len(trace.events) == 14
    capacity = cfg.t_keep + cfg.interval
    pool = BlockPool(-(-capacity // block_size), block_size, kv_heads=heads, head_dim=1)
    req = PagedRequest(pool)
    prev_step = 0
    for ev in trace.events:
        for token in range(prev_step, ev.step):
            req.append(np.full((heads, 1), float(token)), np.full((heads, 1), -float(token)))
        prev_step = ev.step
        if block_size == 1:
            assert pool.num_free == 0
        req.table = compact(pool, req.table, ev.keep_positions)
        keys, values = req.dense_view()
        np.testing.assert_array_equal(keys[..., 0], ev.kept_ids)
        np.testing.assert_array_equal(values[..., 0], -ev.kept_ids)
