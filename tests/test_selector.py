import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from masskv.allocation import compute_quotas, must_keep, reconcile_budget
from masskv.core import ConfigError, ContractViolation, default_config
from masskv.paged import BlockTable
from masskv.segmentation import SegmentSet, fixed_length_segments, segment
from masskv.selector import (
    _best_n,
    baseline_fixed_chunk,
    baseline_global_topk,
    baseline_streaming,
    select,
)

from reference import select_reference


def _one_segment(t):
    return SegmentSet(np.array([0, t], dtype=np.int64))


def test_in_segment_topk_examples():
    # select over one segment, with the budget equal to its quota, is the
    # segment's top-k
    g = np.array([1.0, 5.0, 3.0])
    none = np.zeros(0, dtype=np.int64)
    assert select(g, _one_segment(3), np.array([2]), none, 2).tolist() == [1, 2]
    assert select(g, _one_segment(3), np.array([3]), none, 3).tolist() == [0, 1, 2]
    assert select(g, _one_segment(3), np.array([0]), none, 0).tolist() == []
    with pytest.raises(ContractViolation):
        select(g, _one_segment(3), np.array([4]), none, 2)


def test_in_segment_topk_tie_break_low_index():
    g = np.array([2.0, 2.0, 2.0, 2.0])
    none = np.zeros(0, dtype=np.int64)
    assert select(g, _one_segment(4), np.array([2]), none, 2).tolist() == [0, 1]


def test_select_hand_trace():
    g = np.array([9.0, 1, 2, 3, 4, 5, 6, 8])
    keep = select(g, _one_segment(8), np.array([4]), np.array([0, 7]), 6)
    assert keep.tolist() == [0, 3, 4, 5, 6, 7]


def test_select_identity_when_under_budget():
    g = np.arange(5, dtype=np.float64)
    keep = select(g, _one_segment(5), np.array([5]), np.array([0]), 8)
    assert keep.tolist() == [0, 1, 2, 3, 4]


def test_select_trim_never_removes_must_keep():
    # must-keep holds the two lowest scores; trimming must skip them
    g = np.array([0.0, 0.1, 9.0, 8.0, 7.0, 6.0])
    keep = select(g, _one_segment(6), np.array([4]), np.array([0, 1]), 4)
    assert set([0, 1]).issubset(keep.tolist())
    assert len(keep) == 4


def test_must_keep_positions_out_of_range_or_repeated_are_rejected():
    # a negative position would wrap to the row's end, a repeated one would
    # count twice toward the budget, and one past the end would index out
    g = np.arange(8.0)
    bad = [
        lambda: select(g[::-1], SegmentSet.single(8), [2], [-1], 3),
        lambda: baseline_global_topk(g, [1, 1, 1], 3),
        lambda: baseline_global_topk(g, [8], 3),
        lambda: select(g, SegmentSet.single(8), [3], [6, 2, 6], 3),
        lambda: baseline_fixed_chunk(g, 4, [0, 8], 3),
    ]
    for call in bad:
        with pytest.raises(ContractViolation, match="must-keep positions"):
            call()
    # distinct positions in any order are a must-keep set
    assert baseline_global_topk(g, [5, 0], 3).tolist() == [0, 5, 7]


def test_baseline_streaming_examples():
    assert baseline_streaming(100, 4, 10).tolist() == [0, 1, 2, 3] + list(range(94, 100))
    assert baseline_streaming(8, 4, 10).tolist() == list(range(8))
    assert baseline_streaming(100, 10, 10).tolist() == list(range(10))
    with pytest.raises(ConfigError, match="sink"):
        baseline_streaming(100, 12, 10)  # the sinks alone overrun the budget
    assert baseline_streaming(8, 12, 10).tolist() == list(range(8))


_G = np.array([3.0, 1.0, 2.0, 0.0])


@pytest.mark.parametrize(
    "call",
    [
        lambda: select(_G, SegmentSet([0, 2, 4]), [2.9, 2.9], [], 4),
        lambda: baseline_global_topk(_G, [1.9], 2),
        lambda: baseline_global_topk(_G, np.array([True, False]), 2),
        lambda: SegmentSet([0, 2.7, 4]),
        lambda: baseline_fixed_chunk(_G, 2.5, [], 2),
        lambda: BlockTable(4, [0], logical_len=4).slots([1.9]),
    ],
    ids=["quotas", "must_keep", "must_keep_mask", "boundaries", "chunk_len", "paged_positions"],
)
def test_non_integer_keep_set_inputs_are_rejected_not_truncated(call):
    with pytest.raises(ContractViolation, match="integers"):
        call()


def test_baseline_global_topk_tie_break():
    g = np.zeros(6)
    keep = baseline_global_topk(g, np.array([], dtype=np.int64), 3)
    assert keep.tolist() == [0, 1, 2]  # all-tied scores: lowest indices win
    assert baseline_global_topk(g, [], 3).tolist() == [0, 1, 2]  # [] is the empty set


def _ranked_reference(g, cand):
    """A row's candidate positions best first by the key (NaN, -score,
    index): NaN ranks last, and -0.0 and +0.0 tie."""
    def key(i):
        return (True, 0.0, i) if np.isnan(g[i]) else (False, -g[i], i)

    return sorted(np.flatnonzero(cand).tolist(), key=key)


SPECIAL = [np.nan, np.inf, -np.inf, -0.0, 0.0, 1.0, -1.0, 2.0]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_best_n_matches_a_brute_force_ranking(data):
    # NaN, ±inf and signed zeros among the scores, a different n per row
    # from 0 to every candidate, ties straddling the boundary, rows with no
    # candidates, float32 scores
    rows = data.draw(st.integers(1, 4))
    t = data.draw(st.integers(1, 40))
    dtype = data.draw(st.sampled_from([np.float64, np.float32]))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    kind = data.draw(st.sampled_from(["special", "integer", "normal"]))
    if kind == "special":
        g = rng.choice(SPECIAL, size=(rows, t))
    elif kind == "integer":
        g = rng.integers(0, 3, size=(rows, t)).astype(np.float64)
    else:
        g = rng.normal(size=(rows, t))
    g = g.astype(dtype)
    cand = rng.random((rows, t)) < data.draw(st.sampled_from([0.0, 0.5, 0.9, 1.0]))
    n = np.array([rng.choice([0, c, rng.integers(0, c + 1)]) for c in cand.sum(axis=-1)])
    picked = _best_n(g, cand, n)
    for r in range(rows):
        ranked = _ranked_reference(g[r], cand[r])
        assert np.flatnonzero(picked[r]).tolist() == sorted(ranked[: n[r]])
    if rows == 1:
        assert _best_n(g[0], cand[0], n[0]).tolist() == picked[0].tolist()


def test_baseline_fixed_chunk_behaviors():
    g = np.ones(10)
    keep = baseline_fixed_chunk(g, 3, np.array([], dtype=np.int64), 7)
    # uniform scores: longer (earlier) chunks rank first, last chunk truncated
    assert keep.tolist() == [0, 1, 2, 3, 4, 5, 6]

    rng = np.random.default_rng(1)
    g = rng.normal(size=12)
    must = np.array([0, 11])
    full = baseline_fixed_chunk(g, 20, must, 5)
    topk = baseline_global_topk(g, must, 5)
    assert full.tolist() == topk.tolist()  # one chunk covering everything

    single = baseline_fixed_chunk(g, 1, must, 5)
    assert single.tolist() == topk.tolist()  # chunks of one token


def _fixed_chunk_reference(g, chunk_len, must, t_keep):
    """Chunks ranked by g[a:b].sum() (ties to the lower chunk), each given
    all of what is left of the budget that it can hold, then union/fit."""
    chunks = list(fixed_length_segments(len(g), chunk_len))
    sums = [g[a:b].sum() for a, b in chunks]
    ranked = sorted(range(len(chunks)), key=lambda i: (-sums[i], i))
    quotas = [0] * len(chunks)
    left = t_keep
    for i in ranked:
        a, b = chunks[i]
        quotas[i] = min(b - a, left)
        left -= quotas[i]
    return select_reference(g, chunks, quotas, must, t_keep)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_fixed_chunk_matches_naive_reference(data):
    # normal, integer-valued and all-equal scores, which tie whole chunks,
    # and chunks that reorder the same values, whose sums tie but for their
    # last bits; chunk lengths that need not divide T, budgets up to past T
    t = data.draw(st.integers(1, 70))
    chunk_len = data.draw(st.integers(1, t + 3))
    t_keep = data.draw(st.integers(1, t + 3))
    kind = data.draw(st.sampled_from(["normal", "integer", "equal", "reordered"]))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    if kind == "normal":
        g = rng.normal(size=t)
    elif kind == "integer":
        g = rng.integers(0, 3, size=t).astype(np.float64)
    elif kind == "equal":
        g = np.full(t, data.draw(st.sampled_from([0.0, 0.1, 1 / 3, 1.0])))
    else:
        values = rng.random(chunk_len)
        g = np.concatenate([rng.permutation(values) for _ in range(-(-t // chunk_len))])[:t]
    n_must = data.draw(st.integers(0, min(t_keep, t)))
    must = np.sort(rng.choice(t, size=n_must, replace=False)).astype(np.int64)
    keep = baseline_fixed_chunk(g, chunk_len, must, t_keep)
    assert keep.tolist() == _fixed_chunk_reference(g, chunk_len, must.tolist(), t_keep)


def test_select_matches_naive_reference():
    rng = np.random.default_rng(9)
    cfg = default_config().replace(min_quota=1)
    for _ in range(200):
        t = int(rng.integers(4, 60))
        t_keep = int(rng.integers(1, t + 4))
        g = rng.normal(size=t)
        m = rng.dirichlet(np.ones(t))
        segs = segment(m, cfg.replace(min_seg_len=1, max_seg_len=int(rng.integers(2, 20))))
        mk, t_rem = reconcile_budget(
            must_keep(t, cfg.replace(n_sink=2, n_last=3)), max(t_keep, 2)
        )
        quotas = compute_quotas(segs, m, t_rem, cfg)
        keep = select(g, segs, quotas.quotas, mk.indices, max(t_keep, 2))
        ref = select_reference(g, list(segs), quotas.quotas.tolist(), mk.indices.tolist(), max(t_keep, 2))
        assert keep.tolist() == ref


def _comparable(g):
    """Finite stand-ins for scores, ordered by Python's comparisons as the
    selector orders the scores: NaN below all, -0.0 tied with 0.0."""
    real = np.unique(g[~np.isnan(g)])
    return np.where(np.isnan(g), -1, np.searchsorted(real, g)).tolist()


def _tiling_lengths(rng, total):
    """Segment lengths that tile [0, total): runs of up to 3, 40 or 300."""
    lengths = []
    while sum(lengths) < total:
        lengths.append(int(rng.integers(1, rng.choice([4, 41, 301]))))
    lengths[-1] -= sum(lengths) - total
    return lengths


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_select_matches_reference_head_by_head(data):
    # [heads, T] scores with NaN, ±inf, signed zeros and ties, also as
    # float32; every head cut its own way into segments of 1 to 300 tokens,
    # so that the windows fall into several bit-length groups; each quota 0,
    # partial or full
    heads = data.draw(st.integers(1, 3))
    total = data.draw(st.integers(1, 320))
    dtype = data.draw(st.sampled_from([np.float64, np.float32]))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    g = rng.choice(SPECIAL, size=(heads, total))
    if data.draw(st.booleans()):
        g = np.where(rng.random(g.shape) < 0.8, rng.normal(size=g.shape), g)
    g = g.astype(dtype)
    per_head = [_tiling_lengths(rng, total) for _ in range(heads)]
    lengths = np.concatenate(per_head)
    segs = SegmentSet(np.concatenate([[0], np.cumsum(lengths)]), heads)
    quotas = np.array([rng.choice([0, n, rng.integers(0, n + 1)]) for n in lengths])
    # a budget of head 0's quotas, which needs no fit there when must is
    # empty, or any budget
    t_keep = max(1, int(quotas[: len(per_head[0])].sum()))
    if data.draw(st.booleans()):
        t_keep = data.draw(st.integers(1, total + 3))
    n_must = data.draw(st.sampled_from([0, rng.integers(0, min(t_keep, total) + 1)]))
    must = np.sort(rng.choice(total, size=n_must, replace=False))
    keep = select(g, segs, quotas, must, t_keep)
    first = 0
    for h, head_lengths in enumerate(per_head):
        bounds = np.cumsum([0] + head_lengths).tolist()
        q = quotas[first : first + len(head_lengths)].tolist()
        first += len(head_lengths)
        ref = select_reference(_comparable(g[h]), list(zip(bounds, bounds[1:])), q, must, t_keep)
        assert keep[h].tolist() == ref


def test_select_memory_stays_near_the_scores_beside_one_long_segment():
    # per head, one T/2 segment beside 512 segments of 16 tokens: one window
    # as wide as the long segment would hold [8 * 513, 8192] scores
    heads, total = 8, 16384
    per_head = np.concatenate([[0], np.arange(total // 2, total + 1, 16)])
    segs = SegmentSet(np.unique(np.arange(heads)[:, None] * total + per_head), heads)
    g = np.random.default_rng(0).normal(size=(heads, total))
    tracemalloc.start()
    try:
        keep = select(g, segs, segs.lengths // 2, np.arange(4), 6000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert keep.shape == (heads, 6000)
    assert len(segs) == heads * 513
    assert peak < 4 * g.nbytes


def test_select_degenerates_to_global_topk():
    rng = np.random.default_rng(4)
    for _ in range(300):
        t = int(rng.integers(2, 80))
        t_keep = int(rng.integers(1, t))
        g = rng.normal(size=t)
        n_must = int(rng.integers(0, min(t_keep, t) + 1))
        must = np.sort(rng.choice(t, size=n_must, replace=False)).astype(np.int64)
        via_select = select(g, _one_segment(t), np.array([t_keep]), must, t_keep)
        via_topk = baseline_global_topk(g, must, t_keep)
        assert via_select.tolist() == via_topk.tolist()


def test_affine_invariance():
    rng = np.random.default_rng(8)
    cfg = default_config().replace(min_seg_len=1, max_seg_len=8)
    t = 50
    g = rng.normal(size=t)
    m = rng.dirichlet(np.ones(t))
    segs = segment(m, cfg)
    mk, t_rem = reconcile_budget(must_keep(t, cfg), 20)
    quotas = compute_quotas(segs, m, t_rem, cfg)
    base = select(g, segs, quotas.quotas, mk.indices, 20)
    for _ in range(25):
        a = rng.uniform(0.1, 10.0)
        b = rng.uniform(-100.0, 100.0)
        out = select(a * g + b, segs, quotas.quotas, mk.indices, 20)
        assert out.tolist() == base.tolist()


def test_segment_floor_survives_selection():
    # segments holding no must-keep token retain at least min(q_min, L_i)
    # whenever the reconciled budget covers the floors: the union never
    # exceeds the budget, so trimming cannot fire and erode a segment
    rng = np.random.default_rng(12)
    cfg = default_config().replace(min_seg_len=1, min_quota=1)
    for _ in range(300):
        t = int(rng.integers(8, 120))
        t_keep = int(rng.integers(cfg.n_sink + 1, max(cfg.n_sink + 2, t)))
        sub = cfg.replace(max_seg_len=int(rng.integers(2, 24)))
        g = rng.normal(size=t)
        m = rng.dirichlet(np.ones(t))
        segs = segment(m, sub)
        mk, t_rem = reconcile_budget(must_keep(t, sub), t_keep)
        floors = np.minimum(sub.min_quota, segs.lengths)
        if t <= t_keep or t_rem < floors.sum():
            continue
        quotas = compute_quotas(segs, m, t_rem, sub)
        keep = select(g, segs, quotas.quotas, mk.indices, t_keep)
        for (a, b), floor in zip(segs, floors):
            if np.isin(mk.indices, np.arange(a, b)).any():
                continue
            retained = ((keep >= a) & (keep < b)).sum()
            assert retained >= floor, (a, b, t, t_keep)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_all_policies_budget_and_superset(data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    t = data.draw(st.integers(1, 120))
    t_keep = data.draw(st.integers(1, 140))
    cfg = default_config().replace(
        n_sink=data.draw(st.integers(0, 4)),
        n_last=data.draw(st.integers(0, 6)),
        min_seg_len=1,
        max_seg_len=16,
    )
    if t_keep < cfg.n_sink:
        t_keep = cfg.n_sink + 1
    g = rng.normal(size=t)
    m = rng.dirichlet(np.ones(t))
    mk, t_rem = reconcile_budget(must_keep(t, cfg), t_keep)
    target = min(t_keep, t)

    segs = segment(m, cfg)
    quotas = compute_quotas(segs, m, min(t_rem, t), cfg)
    for keep in (
        select(g, segs, quotas.quotas, mk.indices, t_keep),
        baseline_global_topk(g, mk.indices, t_keep),
        baseline_streaming(t, cfg.n_sink, t_keep),
        baseline_fixed_chunk(g, 5, mk.indices, t_keep),
    ):
        assert len(keep) == target
        assert len(np.unique(keep)) == len(keep)
        assert (np.diff(keep) > 0).all() or len(keep) <= 1
        if t > t_keep:
            assert np.isin(mk.indices, keep).all()
