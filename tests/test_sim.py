import json

import numpy as np
import pytest

from masskv.core import ConfigError, default_config
from masskv.diagnostics import (
    jaccard,
    metric_retained_iou,
    metric_spatial_histogram,
    metric_wipeout_rate,
)
from masskv.sim import (
    EventRecord,
    RunTrace,
    ToyDecoder,
    WorkloadSpec,
    run_schedule,
    trace_to_dict,
    write_trace_csv,
    write_trace_json,
)

CFG = default_config().replace(t_keep=64, interval=128, window=32, n_last=8)


def test_schedule_arithmetic():
    spec = WorkloadSpec("uniform", steps=512, seed=0)
    trace = run_schedule(spec, "ams", CFG)
    assert len(trace.events) == 4
    assert [ev.step for ev in trace.events] == [128, 256, 384, 512]
    assert trace.events[0].cache_len == 128
    assert trace.events[1].cache_len == 64 + 128  # t_keep + interval


def test_schedule_arithmetic_at_default_scale():
    cfg = default_config().replace(t_keep=256, interval=512, window=128, n_last=8)
    trace = run_schedule(WorkloadSpec("uniform", steps=2048, seed=0), "ams", cfg)
    assert len(trace.events) == 4
    # final cache is the budget plus however many tokens arrived after the
    # last event (zero here, since 2048 is a multiple of the interval)
    assert trace.events[-1].keep_positions.shape[1] == 256


@pytest.mark.parametrize("policy", ["ams", "global_topk", "streaming", "fixed_chunk"])
@pytest.mark.parametrize("scorer", ["expected", "recent", "keydiff", "constant"])
def test_every_policy_scorer_combination_runs(policy, scorer):
    cfg = CFG.replace(interval=96, t_keep=48, window=32)
    trace = run_schedule(WorkloadSpec("uniform", steps=192, seed=5), policy, cfg, scorer=scorer)
    assert len(trace.events) == 2
    for ev in trace.events:
        assert ev.keep_positions.shape[1] == 48


@pytest.mark.parametrize("policy", ["ams", "global_topk", "streaming", "fixed_chunk"])
def test_usage_is_aggregated_once_per_event(monkeypatch, policy):
    import masskv.engine

    calls = []
    aggregate = masskv.engine.aggregate_usage

    def counted(rows, max_rows):
        calls.append(rows.shape)
        return aggregate(rows, max_rows)

    monkeypatch.setattr(masskv.engine, "aggregate_usage", counted)
    cfg = CFG.replace(interval=96, t_keep=48, window=32)
    for source in (WorkloadSpec("drifting_focus", steps=288, seed=5), ToyDecoder(5, kv_heads=3)):
        calls.clear()
        trace = run_schedule(source, policy, cfg, steps=288, kv_heads=3, scorer="expected")
        assert len(trace.events) == 3
        if policy == "streaming":
            assert calls == []
        else:
            # one call per event, for all heads: [heads, w, T]
            assert calls == [(3, 32, ev.cache_len) for ev in trace.events]


def test_no_events_when_steps_below_interval():
    spec = WorkloadSpec("uniform", steps=100, seed=0)
    trace = run_schedule(spec, "ams", CFG)
    assert trace.events == []
    assert trace.summaries["mean_retained_iou"] is None


def test_no_event_when_cache_under_budget():
    cfg = CFG.replace(t_keep=512, interval=128)
    trace = run_schedule(WorkloadSpec("uniform", steps=256, seed=0), "ams", cfg)
    assert trace.events == []  # cache never exceeded the budget


def test_streaming_keeps_sinks_and_suffix():
    spec = WorkloadSpec("heavy_hitter", steps=256, seed=1)
    trace = run_schedule(spec, "streaming", CFG)
    for ev in trace.events:
        expected = list(range(CFG.n_sink)) + list(
            range(ev.cache_len - (CFG.t_keep - CFG.n_sink), ev.cache_len)
        )
        for h in range(trace.kv_heads):
            assert ev.keep_positions[h].tolist() == expected


def test_toy_decoder_determinism_and_rows():
    dec = ToyDecoder(seed=3, kv_heads=2, head_dim=8)
    rng = np.random.default_rng(0)
    x = rng.normal(size=8)
    q1, k1, v1 = dec.project(x)
    q2, k2, v2 = ToyDecoder(seed=3, kv_heads=2, head_dim=8).project(x)
    np.testing.assert_array_equal(q1, q2)
    keys = rng.normal(size=(2, 5, 8))
    rows = dec.attention_rows(q1, keys)
    np.testing.assert_allclose(rows.sum(axis=-1), 1.0)
    assert (rows > 0).all()


def test_run_schedule_with_decoder_source():
    dec = ToyDecoder(seed=9, kv_heads=2, head_dim=8)
    trace = run_schedule(dec, "ams", CFG, steps=256)
    assert len(trace.events) == 2
    with pytest.raises(ConfigError):
        run_schedule(ToyDecoder(seed=9), "ams", CFG)  # steps required


def test_run_trace_determinism_byte_identical(tmp_path):
    spec = WorkloadSpec("drifting_focus", steps=384, seed=7)
    a = run_schedule(spec, "ams", CFG)
    b = run_schedule(spec, "ams", CFG)
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    write_trace_json(a, pa)
    write_trace_json(b, pb)
    assert pa.read_bytes() == pb.read_bytes()


def test_workload_rows_are_distributions():
    for name in ("uniform", "heavy_hitter", "drifting_focus", "low_region_adversarial"):
        spec = WorkloadSpec(name, steps=160, seed=2)
        trace = run_schedule(spec, "ams", CFG.replace(interval=160, t_keep=32))
        assert len(trace.events) == 1
        for mass in trace.events[0].mass:
            assert abs(sum(mass) - 1.0) < 1e-9


def test_workload_validation():
    with pytest.raises(ConfigError):
        WorkloadSpec("bogus", steps=10)
    with pytest.raises(ConfigError):
        WorkloadSpec("uniform", steps=0)
    for params in ({"hitter_count": 2}, {"noise": "0.1"}, {"noise": True}):
        with pytest.raises(ConfigError):
            WorkloadSpec("uniform", steps=10, params=params)
    spec = WorkloadSpec("heavy_hitter", steps=10, params={"noise": 0, "hitter_count": np.int64(2)})
    assert run_schedule(spec, "ams", CFG).steps == 10


def _fake_trace(events, cfg=None):
    trace = RunTrace(
        policy="ams",
        scorer="expected",
        workload="uniform",
        workload_params={},
        seed=0,
        steps=0,
        config=cfg or default_config().replace(t_keep=8),
        kv_heads=1,
        head_dim=4,
    )
    trace.events = events
    return trace


def _event(index, keep, cache_len, ids=None, watermark=None):
    keep = np.asarray(keep, dtype=np.int64)[None, :]
    ids = keep if ids is None else np.asarray(ids, dtype=np.int64)[None, :]
    return EventRecord(
        index=index,
        step=(index + 1) * 10,
        cache_len=cache_len,
        keep_positions=keep,
        kept_ids=ids,
        id_watermark=watermark if watermark is not None else cache_len,
        segments=None,
        quotas=None,
        mass=None,
        counters={},
        wall_time=0.0,
    )


def test_jaccard_examples():
    assert jaccard(np.array([1, 2, 3]), np.array([2, 3, 4])) == 0.5
    assert jaccard(np.array([1, 2]), np.array([1, 2])) == 1.0
    assert jaccard(np.array([1]), np.array([2])) == 0.0


def test_metric_retained_iou_restricts_new_tokens():
    # second event keeps id 9, born after the first event's watermark of 6:
    # it is excluded from the comparison universe
    e0 = _event(0, keep=[0, 1, 2], cache_len=6, ids=[0, 1, 2], watermark=6)
    e1 = _event(1, keep=[0, 1, 2], cache_len=5, ids=[1, 2, 9], watermark=10)
    series = metric_retained_iou(_fake_trace([e0, e1]))
    np.testing.assert_allclose(series, [2 / 3])
    assert metric_retained_iou(_fake_trace([e0])).size == 0


def test_metric_wipeout_rate_cases():
    cfg = default_config().replace(t_keep=8, n_sink=2, n_last=2)
    # cache 12, interior [2, 10) -> two windows of 4. Keep nothing in [6, 10):
    # exactly one of two windows wiped.
    ev = _event(0, keep=[0, 2, 3, 11], cache_len=12)
    assert metric_wipeout_rate(_fake_trace([ev], cfg), window_w=4) == 0.5
    # keep everything -> zero wiped
    ev = _event(0, keep=list(range(12)), cache_len=12)
    assert metric_wipeout_rate(_fake_trace([ev], cfg), window_w=4) == 0.0
    with pytest.raises(ValueError):
        metric_wipeout_rate(_fake_trace([ev], cfg), window_w=0)


def test_metric_spatial_histogram_cases():
    cfg = default_config().replace(t_keep=8)
    ev = _event(0, keep=list(range(20)), cache_len=20)
    np.testing.assert_allclose(metric_spatial_histogram(_fake_trace([ev], cfg), 5), np.ones(5))

    # streaming-shaped keep with sinks matching one full bin
    keep = list(range(4)) + list(range(16, 20))
    ev = _event(0, keep=keep, cache_len=20)
    hist = metric_spatial_histogram(_fake_trace([ev], cfg), 5)
    np.testing.assert_allclose(hist, [1.0, 0.0, 0.0, 0.0, 1.0])


def test_metric_spatial_histogram_uniform_random_keep():
    rng = np.random.default_rng(0)
    t, frac, bins = 4000, 0.3, 10
    keep = np.sort(rng.choice(t, size=int(t * frac), replace=False))
    ev = _event(0, keep=keep, cache_len=t)
    hist = metric_spatial_histogram(_fake_trace([ev]), bins)
    per_bin = t / bins
    sigma = np.sqrt(frac * (1 - frac) / per_bin)
    assert (np.abs(hist - frac) < 3 * sigma + 1e-9).all()


def test_trace_json_schema_and_csv(tmp_path):
    spec = WorkloadSpec("uniform", steps=256, seed=0)
    trace = run_schedule(spec, "ams", CFG)
    doc = trace_to_dict(trace)
    for key in ("schema_version", "policy", "scorer", "config", "events", "summaries"):
        assert key in doc
    assert doc["schema_version"] == 1
    assert all("wall_time" not in ev for ev in doc["events"])
    timed = trace_to_dict(trace, include_timing=True)
    assert all("wall_time" in ev for ev in timed["events"])

    jpath = tmp_path / "t.json"
    write_trace_json(trace, jpath)
    parsed = json.loads(jpath.read_text())
    assert parsed["events"][0]["counters"]["cache_len"] > 0

    cpath = tmp_path / "t.csv"
    write_trace_csv(trace, cpath)
    lines = cpath.read_text().strip().splitlines()
    assert lines[0] == "event,metric,value"
    assert any(line.startswith("0,cache_len,") for line in lines)
    assert any(line.startswith("-1,mean_retained_iou,") for line in lines)


def test_counters_scale_linearly_with_cache():
    # allocation bookkeeping is linear in T: doubling the cache roughly
    # doubles the counted work, and segment counts stay far below T
    small = run_schedule(
        WorkloadSpec("uniform", steps=128, seed=0),
        "ams",
        CFG.replace(interval=128, t_keep=32),
    ).events[0].counters
    big = run_schedule(
        WorkloadSpec("uniform", steps=256, seed=0),
        "ams",
        CFG.replace(interval=256, t_keep=32),
    ).events[0].counters
    assert big["cache_len"] == 2 * small["cache_len"]
    for key in ("smooth_elems", "prefix_elems", "select_candidates"):
        assert big[key] == 2 * small[key]
    assert big["segments"] <= big["cache_len"] / CFG.min_seg_len + 2 * 2  # heads * slack
    assert big["quota_entries"] < big["cache_len"]
