import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import masskv.engine as engine
from masskv.allocation import compute_quotas, must_keep, reconcile_budget
from masskv.core import ConfigError, default_config
from masskv.engine import DEFAULT_CHUNK_LEN, compress_event
from masskv.mass import EmaCreditStore, UsageAccumulator, normalize_mass, smooth
from masskv.scorers import SCORERS, get_scorer
from masskv.segmentation import SegmentSet
from masskv.sim import ToyDecoder, WorkloadSpec, run_schedule

from reference import aggregate_usage_reference, segment_reference, select_reference
from test_selector import _fixed_chunk_reference


def _rows(rng, kind, heads, w, t, dtype):
    """[heads, w, t] causal rows ending at the cache tip: row j sums to 1
    over its first t - w + 1 + j entries. ``integer`` rows are small integer
    counts over their sum, so their entries tie; ``equal`` rows are flat."""
    rows = np.zeros((heads, w, t))
    for j in range(w):
        seen = t - w + 1 + j
        if kind == "random":
            raw = rng.random((heads, seen)) + 1e-3
        elif kind == "integer":
            raw = rng.integers(0, 3, size=(heads, seen)).astype(np.float64)
            raw[:, -1] += 1.0
        else:
            raw = np.ones((heads, seen))
        rows[:, j, :seen] = raw / raw.sum(axis=-1, keepdims=True)
    return rows.astype(dtype)


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_compress_event_matches_the_per_head_oracles(data):
    # every head of one batched event against the naive per-head oracles:
    # usage, segments and keep sets from tests/reference.py, and mass and
    # quotas bit for bit from the same stages run on that head alone
    heads = data.draw(st.sampled_from([1, 3, 8]))
    t_keep = data.draw(st.integers(2, 60))
    total = t_keep + data.draw(st.sampled_from([1, 1, 2, 7, 30, 90]))
    n_sink = data.draw(st.sampled_from([0, 1, min(4, t_keep), t_keep]))
    cfg = default_config().replace(
        t_keep=t_keep,
        n_sink=n_sink,
        n_last=data.draw(st.integers(0, 10)),
        min_quota=data.draw(st.integers(0, 3)),
        segment_mass=data.draw(st.sampled_from([0.03, 0.1, 0.25, 1.0])),
        min_seg_len=data.draw(st.integers(1, 6)),
        max_seg_len=data.draw(st.integers(6, 40)),
        smooth_kernel=data.draw(st.sampled_from([1, 3, 5])),
        ema_on=data.draw(st.booleans()),
        mass_weighted_quotas_on=data.draw(st.booleans()),
        fixed_length_segments_on=data.draw(st.booleans()),
    )
    w = data.draw(st.integers(1, min(total, 12)))
    kind = data.draw(st.sampled_from(["random", "integer", "equal"]))
    dtype = data.draw(st.sampled_from([np.float64, np.float32]))
    scorer = data.draw(st.sampled_from(sorted(SCORERS)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    rows = _rows(rng, kind, heads, w, total, dtype)
    usage = UsageAccumulator()
    for j in range(w):
        usage.add(rows[:, j, : total - w + 1 + j])
    keys = rng.integers(-2, 3, size=(heads, total, 4)).astype(np.float64)
    credit = None
    if cfg.ema_on:
        credit = EmaCreditStore(cfg.ema_decay, cfg.mass_mix, heads, total + 5)
        credit.credit[:] = rng.random(credit.credit.shape)
        before = credit.credit.copy()

    keep, segs, quotas, mass = compress_event(
        "ams", heads, total, usage, keys, cfg, scorer=scorer, credit=credit
    )

    u = usage.fold()
    mk, t_rem = reconcile_budget(must_keep(total, cfg), t_keep)
    assert keep.shape == (heads, t_keep)
    assert segs.heads == heads and mass.shape == (heads, total)
    visible = total - w + 1 + np.arange(w)
    for h, (bounds, q) in enumerate(zip(segs.per_head(), np.split(quotas, segs.offsets[1:-1]))):
        np.testing.assert_array_equal(u[h], aggregate_usage_reference(rows[h], visible, w))
        m = normalize_mass(smooth(u[h], cfg.smooth_kernel), cfg.epsilon)
        if credit is not None:
            alone = EmaCreditStore(cfg.ema_decay, cfg.mass_mix, 1, total + 5)
            alone.credit[:] = before[h]
            m = alone.update_and_mix(m[None])[0]
            np.testing.assert_array_equal(credit.credit[h], alone.credit[0])
        np.testing.assert_array_equal(mass[h], m)
        intervals = segment_reference(
            m, cfg.segment_mass, cfg.min_seg_len, cfg.max_seg_len,
            fixed=cfg.fixed_length_segments_on,
        )
        assert list(zip(bounds[:-1].tolist(), bounds[1:].tolist())) == intervals
        np.testing.assert_array_equal(q, compute_quotas(SegmentSet(bounds), m, t_rem, cfg).quotas)
        assert q.sum() == t_rem
        g = get_scorer(scorer)(usage.newest[h], u[h], keys[h])
        ref = select_reference(g, intervals, q.tolist(), mk.indices.tolist(), t_keep)
        assert keep[h].tolist() == ref


def test_an_ams_event_builds_one_segment_set(monkeypatch):
    # cuts, split and merge work on the flat boundaries; only the final
    # partition is built, and checked, as a SegmentSet
    built, init = [], SegmentSet.__init__

    def spy(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(SegmentSet, "__init__", spy)
    heads, total, w = 3, 120, 8
    rng = np.random.default_rng(4)
    rows = _rows(rng, "random", heads, w, total, np.float64)
    usage = UsageAccumulator()
    for j in range(w):
        usage.add(rows[:, j, : total - w + 1 + j])
    cfg = default_config().replace(t_keep=40, min_seg_len=4, max_seg_len=16)
    keep, segs, _, _ = compress_event("ams", heads, total, usage, None, cfg)
    assert keep.shape == (heads, 40) and segs.heads == heads
    assert len(built) == 1


@pytest.mark.parametrize("policy", ["ams", "fixed_chunk", "global_topk"])
def test_no_event_calls_a_set_operation(monkeypatch, policy):
    # every boundary, cut and pick is found in sorted order by search,
    # marks or partitions; a set operation would sort again, and NumPy's
    # np.unique imports numpy.ma on its first call
    def refuse(*args, **kwargs):
        raise AssertionError("a set operation ran in an event")

    for name in ("unique", "union1d", "intersect1d", "setdiff1d", "isin"):
        monkeypatch.setattr(np, name, refuse)
    heads, total, w = 3, 120, 8
    rows = _rows(np.random.default_rng(5), "random", heads, w, total, np.float64)
    usage = UsageAccumulator()
    for j in range(w):
        usage.add(rows[:, j, : total - w + 1 + j])
    cfg = default_config().replace(t_keep=40, min_seg_len=4, max_seg_len=16)
    credit = EmaCreditStore(cfg.ema_decay, cfg.mass_mix, heads, total)
    keep = compress_event(policy, heads, total, usage, None, cfg, credit=credit)[0]
    assert keep.shape == (heads, 40)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_baseline_events_match_the_per_head_oracles(data):
    # global top-k is the trim/backfill of the must-keep set alone; fixed
    # chunks keep whole chunks by summed score
    heads = data.draw(st.sampled_from([1, 3, 8]))
    t_keep = data.draw(st.integers(2, 60))
    total = t_keep + data.draw(st.sampled_from([1, 2, 19, 45]))
    cfg = default_config().replace(
        t_keep=t_keep,
        n_sink=data.draw(st.sampled_from([0, 2, t_keep])),
        n_last=data.draw(st.integers(0, 10)),
    )
    w = data.draw(st.integers(1, min(total, 8)))
    kind = data.draw(st.sampled_from(["random", "integer", "equal"]))
    dtype = data.draw(st.sampled_from([np.float64, np.float32]))
    scorer = data.draw(st.sampled_from(sorted(SCORERS)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    rows = _rows(rng, kind, heads, w, total, dtype)
    usage = UsageAccumulator()
    for j in range(w):
        usage.add(rows[:, j, : total - w + 1 + j])
    keys = rng.integers(-2, 3, size=(heads, total, 4)).astype(np.float64)
    u = usage.fold()
    mk, _ = reconcile_budget(must_keep(total, cfg), t_keep)
    must = mk.indices.tolist()
    topk = compress_event("global_topk", heads, total, usage, keys, cfg, scorer=scorer)
    chunks = compress_event("fixed_chunk", heads, total, usage, keys, cfg, scorer=scorer)
    assert topk[1:] == chunks[1:] == (None, None, None)
    for h in range(heads):
        g = get_scorer(scorer)(usage.newest[h], u[h], keys[h])
        assert topk[0][h].tolist() == select_reference(g, [(0, total)], [0], must, t_keep)
        assert chunks[0][h].tolist() == _fixed_chunk_reference(g, DEFAULT_CHUNK_LEN, must, t_keep)


def _count_calls(monkeypatch):
    """Calls per stage: the names the engine looks its stages up by and
    every scorer call; also the last-axis length of each array that NumPy's
    sort functions are handed."""
    calls, sorted_lens = {}, []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    for name in ("segment", "compute_quotas", "select", "baseline_global_topk",
                 "baseline_fixed_chunk"):
        monkeypatch.setattr(engine, name, counted(name, getattr(engine, name)))
    get = engine.get_scorer
    monkeypatch.setattr(engine, "get_scorer", lambda name: counted("score", get(name)))
    for name in ("sort", "argsort", "lexsort"):
        def spy(a, *args, _fn=getattr(np, name), **kwargs):
            sorted_lens.append(np.shape(a)[-1])
            return _fn(a, *args, **kwargs)

        monkeypatch.setattr(np, name, spy)
    return calls, sorted_lens


@pytest.mark.parametrize(
    "policy, per_event",
    [
        ("ams", {"score": 1, "segment": 1, "compute_quotas": 1, "select": 1}),
        ("global_topk", {"score": 1, "baseline_global_topk": 1}),
        ("fixed_chunk", {"score": 1, "baseline_fixed_chunk": 1}),
    ],
)
def test_each_stage_runs_once_per_event_not_once_per_head(monkeypatch, policy, per_event):
    # no policy sorts a whole [heads, T] row: AMS and the baselines order
    # segment and budget boundaries alone, and fixed chunks sort just the
    # chunk sums
    calls, sorted_lens = _count_calls(monkeypatch)
    cfg = default_config().replace(t_keep=48, interval=64, window=32, n_last=8)
    for source in (WorkloadSpec("drifting_focus", steps=320, seed=2), ToyDecoder(2, kv_heads=5)):
        calls.clear()
        sorted_lens.clear()
        trace = run_schedule(source, policy, cfg, steps=320, kv_heads=5, scorer="keydiff")
        assert trace.kv_heads == 5 and len(trace.events) == 5
        cache_lens = {e.cache_len for e in trace.events}
        assert not cache_lens & set(sorted_lens)
        if policy == "fixed_chunk":  # the spy does see the chunk-sum sort
            assert {-(-n // DEFAULT_CHUNK_LEN) for n in cache_lens} <= set(sorted_lens)
        assert calls == {name: n * len(trace.events) for name, n in per_event.items()}


@pytest.mark.parametrize("ema_on", [True, False])
@pytest.mark.parametrize("fixed", [False, True])
def test_an_ams_event_takes_one_prefix_sum_of_its_mass(monkeypatch, ema_on, fixed):
    # the cuts and the segment masses read the same [heads, T] prefix sums;
    # the spy sees every np.cumsum call and keeps the arrays it was handed
    summed, cumsum = [], np.cumsum

    def spy(a, *args, **kwargs):
        summed.append(np.array(a, copy=True))
        return cumsum(a, *args, **kwargs)

    heads, total, w = 3, 90, 12
    cfg = default_config().replace(
        t_keep=40, window=w, ema_on=ema_on, fixed_length_segments_on=fixed, min_seg_len=4
    )
    rows = _rows(np.random.default_rng(4), "random", heads, w, total, np.float64)
    usage = UsageAccumulator()
    for j in range(w):
        usage.add(rows[:, j, : total - w + 1 + j])
    credit = EmaCreditStore(cfg.ema_decay, cfg.mass_mix, heads, total) if ema_on else None
    monkeypatch.setattr(np, "cumsum", spy)
    mass = compress_event("ams", heads, total, usage, None, cfg, credit=credit)[3]
    assert sum(a.shape == mass.shape and np.array_equal(a, mass) for a in summed) == 1


@pytest.mark.parametrize("policy", ["bogus", {}, [], None])
def test_an_event_of_no_known_policy_is_a_config_error(policy):
    # a dict or list is unhashable
    with pytest.raises(ConfigError, match="unknown policy"):
        compress_event(policy, 1, 8, None, None, default_config().replace(t_keep=4))
