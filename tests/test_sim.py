import hashlib
import json
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import masskv.sim as sim
from masskv.core import CompressionConfig, ConfigError, check_name, default_config
from masskv.diagnostics import (
    metric_retained_iou,
    metric_spatial_histogram,
    metric_wipeout_rate,
)
from masskv.engine import POLICIES, READS_ROWS
from masskv.mass import UsageAccumulator
from masskv.scorers import SCORERS
from masskv.sim import (
    WORKLOADS,
    EventRecord,
    RunTrace,
    ToyDecoder,
    WorkloadSpec,
    _WorkloadRows,
    run_schedule,
    trace_to_dict,
    write_trace_csv,
    write_trace_json,
)

from test_core import JSON_LIKE

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


def _record_folds(monkeypatch):
    """For each ``UsageAccumulator.fold``, the rows it holds and the shape of
    the newest one."""
    folds = []
    fold = UsageAccumulator.fold

    def counted(self):
        folds.append((self.rows, self.newest.shape))
        return fold(self)

    monkeypatch.setattr(UsageAccumulator, "fold", counted)
    return folds


@pytest.mark.parametrize("policy", ["ams", "global_topk", "streaming", "fixed_chunk"])
def test_usage_is_aggregated_once_per_event(monkeypatch, policy):
    folds = _record_folds(monkeypatch)
    cfg = CFG.replace(interval=96, t_keep=48, window=32)
    for source in (WorkloadSpec("drifting_focus", steps=288, seed=5), ToyDecoder(5, kv_heads=3)):
        folds.clear()
        trace = run_schedule(source, policy, cfg, steps=288, kv_heads=3, scorer="expected")
        assert len(trace.events) == 3
        if policy == "streaming":
            assert folds == []
        else:
            # one fold per event, for all heads, of the last 32 rows: the
            # newest is [heads, T]
            assert folds == [(32, (3, ev.cache_len)) for ev in trace.events]


def test_no_events_when_steps_below_interval():
    spec = WorkloadSpec("uniform", steps=100, seed=0)
    trace = run_schedule(spec, "ams", CFG)
    assert trace.events == []
    assert trace.summaries["mean_retained_iou"] is None


@pytest.mark.parametrize("steps", [32, 256])
@pytest.mark.parametrize(
    "policy, scorer, name",
    [("bogus", "expected", "policy"), ("ams", "nope", "scorer"), ("streaming", "nope", "scorer"),
     ([], "expected", "policy"), ("ams", {}, "scorer"), ("ams", [], "scorer")],
)
def test_unknown_policy_or_scorer_is_rejected_before_the_first_step(steps, policy, scorer, name):
    # a run with no event, or of a policy that never scores, looks neither name up
    for source in (WorkloadSpec("uniform", steps=steps, seed=0), ToyDecoder(0)):
        with pytest.raises(ConfigError, match=f"unknown {name}"):
            run_schedule(source, policy, CFG, steps=steps, scorer=scorer)


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
    dec = ToyDecoder(seed=3, kv_heads=2, head_dim=64)
    rng = np.random.default_rng(0)
    xs = rng.normal(size=(5, 64))
    q = dec.project(dec.w_q, xs)
    assert q.shape == (2, 5, 64)
    again = ToyDecoder(seed=3, kv_heads=2, head_dim=64)
    np.testing.assert_array_equal(q, again.project(again.w_q, xs))
    # the batched projection, also into a slice of a larger buffer, has the
    # bits of projecting each embedding alone
    for w in (dec.w_q, dec.w_k):
        out = np.zeros((2, 9, 64))
        dec.project(w, xs, out=out[:, 2:7])
        for s, x in enumerate(xs):
            np.testing.assert_array_equal(out[:, 2 + s], np.einsum("hij,j->hi", w, x))
    keys = rng.normal(size=(2, 5, 64))
    rows = dec.attention_rows(q[:, 0], keys)
    np.testing.assert_allclose(rows.sum(axis=-1), 1.0)
    assert (rows > 0).all()


@pytest.mark.parametrize("name", WORKLOADS)
def test_skip_leaves_the_generator_where_rows_would(name):
    # heavy_hitter draws its hitter positions when the generator is built
    drawn, skipped = (_WorkloadRows(WorkloadSpec(name, steps=10, seed=4), heads=3) for _ in range(2))
    step = 0
    for total, count in ((1, 0), (1, 1), (2, 3), (40, 1), (41, 5)):
        for i in range(count):
            drawn.rows(step + i, total + i)
        step += count
        skipped.skip(total, count)
        assert drawn.rng.bit_generator.state == skipped.rng.bit_generator.state
    np.testing.assert_array_equal(drawn.rows(step, 46), skipped.rows(step, 46))


# the documented default of every parameter each workload reads
DEFAULTS = {
    "uniform": {"noise": 0.05},
    "heavy_hitter": {"noise": 0.05, "hitter_count": 4, "hitter_weight": 0.5},
    "drifting_focus": {"noise": 0.05, "width": 0.05, "drift": 0.002, "phase": 0.15,
                       "floor": 0.25},
    "low_region_adversarial": {"noise": 0.05, "region_start": 32, "region_len": 64,
                               "suppress": 0.05},
}


@pytest.mark.parametrize("name", WORKLOADS)
def test_every_default_given_explicitly_changes_no_row(name):
    implicit = _WorkloadRows(WorkloadSpec(name, steps=60, seed=3), heads=2)
    explicit = _WorkloadRows(WorkloadSpec(name, steps=60, seed=3, params=DEFAULTS[name]), heads=2)
    for step, total in ((0, 1), (1, 2), (5, 40), (59, 300)):
        assert implicit.rows(step, total).tobytes() == explicit.rows(step, total).tobytes()
        assert implicit.rng.bit_generator.state == explicit.rng.bit_generator.state


def test_readme_lists_every_workload_parameter_with_its_default():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    listed = re.findall(r"\| `(\w+)` \| ([\d.]+) \|", readme)
    table = {key: default for key, (_, default, _, _) in sim.WORKLOAD_PARAMS.items()}
    assert {key: float(default) for key, default in listed} == table
    assert {key: v for defaults in DEFAULTS.values() for key, v in defaults.items()} == table


def _uniform_jitter(base, heads, rng, amp):
    """The rows' formula drawn with rng.uniform, as it reads on paper."""
    u = rng.uniform(-1.0, 1.0, size=(heads, base.size))
    rows = base * (1.0 + amp * u)
    return rows / rows.sum(axis=-1, keepdims=True)


@pytest.mark.parametrize("name", WORKLOADS)
def test_rows_have_the_bits_of_the_uniform_formula(name, monkeypatch):
    # the in-place draw must give the rows and leave the generator exactly
    # where the plain rng.uniform formula does
    spec = WorkloadSpec(name, steps=60, seed=11, params={"noise": 0.3})
    fast, plain = _WorkloadRows(spec, heads=4), _WorkloadRows(spec, heads=4)
    for step, total in ((0, 1), (1, 2), (5, 37), (6, 38), (59, 4160)):
        got = fast.rows(step, total)
        with monkeypatch.context() as m:
            m.setattr(sim, "_jitter", _uniform_jitter)
            want = plain.rows(step, total)
        assert got.tobytes() == want.tobytes()
        assert fast.rng.bit_generator.state == plain.rng.bit_generator.state


# (t_keep, interval, window, steps)
LAZY_CASES = {
    "window_below_interval": (64, 32, 16, 320),
    "window_equals_interval": (64, 32, 32, 320),
    # the first event is at step 96: its rows cross the boundary at 64, which does not fire
    "window_above_interval": (70, 32, 48, 320),
    "window_above_cache": (16, 32, 500, 320),
    "steps_not_a_multiple": (64, 32, 16, 319),  # one step short of an event
    "no_events": (512, 32, 16, 200),
}


def _rows_read(trace, window):
    """The 0-based steps whose rows the trace's events read."""
    steps, prev = [], 0
    for ev in trace.events:
        steps.extend(range(max(prev, ev.step - window), ev.step))
        prev = ev.step
    return steps


def _positions_read(trace, window):
    """The 0-based cache positions of the queries at ``_rows_read``'s steps:
    the cache only grows between events, so the query of step s before the
    event at step e sits e - s places before that event's cache_len."""
    positions, prev = [], 0
    for ev in trace.events:
        first = max(prev, ev.step - window)
        positions.extend(ev.cache_len - (ev.step - s) for s in range(first, ev.step))
        prev = ev.step
    return positions


def _folds_read(trace, window):
    """Per event: the rows its last ``window`` steps since the previous event
    give, and the [heads, T] shape of the newest."""
    steps = [0] + [ev.step for ev in trace.events]
    return [
        (min(window, ev.step - prev), (trace.kv_heads, ev.cache_len))
        for prev, ev in zip(steps, trace.events)
    ]


@pytest.mark.parametrize("case", LAZY_CASES.values(), ids=LAZY_CASES.keys())
def test_lazy_rows_change_nothing_and_build_only_what_events_read(monkeypatch, case):
    t_keep, interval, window, steps = case
    cfg = CFG.replace(t_keep=t_keep, interval=interval, window=window, n_last=4)
    specs = [WorkloadSpec(name, steps=steps, seed=6) for name in ("heavy_hitter", "drifting_focus")]
    lazy = [trace_to_dict(run_schedule(spec, "ams", cfg, kv_heads=3)) for spec in specs]

    built, queried = [], []
    folds = _record_folds(monkeypatch)
    rows, attention_rows = _WorkloadRows.rows, ToyDecoder.attention_rows

    def counted_rows(self, step, total):
        built.append(step)
        return rows(self, step, total)

    def chunked_attention_rows(self, q, keys):
        # a chunk is the cache's last n queries, at most QUERY_CHUNK of them
        n, t = q.shape[1], keys.shape[1]
        assert 1 <= n <= sim.QUERY_CHUNK
        queried.extend(range(t - n, t))
        return attention_rows(self, q, keys)

    monkeypatch.setattr(_WorkloadRows, "rows", counted_rows)
    monkeypatch.setattr(ToyDecoder, "attention_rows", chunked_attention_rows)
    for spec in specs:
        built.clear()
        folds.clear()
        trace = run_schedule(spec, "ams", cfg, kv_heads=3)
        assert built == _rows_read(trace, window)
        # each event folds exactly the rows of its last window steps
        assert folds == _folds_read(trace, window)
    queried.clear()
    folds.clear()
    trace = run_schedule(ToyDecoder(6, kv_heads=2, head_dim=8), "ams", cfg, steps=steps)
    assert len(queried) == len(_rows_read(trace, window))
    assert queried == _positions_read(trace, window)
    assert folds == _folds_read(trace, window)
    if case == LAZY_CASES["no_events"]:
        assert trace.events == [] and queried == [] and folds == []

    # drawing every skipped row and throwing it away gives the same traces
    # (the step a row is drawn at shapes its values, not how much it draws)
    monkeypatch.setattr(_WorkloadRows, "skip",
                        lambda self, total, count: [rows(self, 0, total + i) for i in range(count)])
    eager = [trace_to_dict(run_schedule(spec, "ams", cfg, kv_heads=3)) for spec in specs]
    assert eager == lazy


def _record_projections(monkeypatch):
    """Record each ToyDecoder built and, for each ``project`` call, the name
    of its weight stack, the stack and the embeddings."""
    built, calls = [], []
    init, project = ToyDecoder.__init__, ToyDecoder.project

    def counted_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    def counted_project(self, w, xs, out=None):
        name = "w_q" if w is self.w_q else "w_k" if w is self.w_k else "other"
        calls.append((name, w, xs.copy()))
        return project(self, w, xs, out=out)

    monkeypatch.setattr(ToyDecoder, "__init__", counted_init)
    monkeypatch.setattr(ToyDecoder, "project", counted_project)
    return built, calls


def _event_keys(monkeypatch):
    """The keys each compression event receives, in order."""
    import masskv.sim

    seen = []
    compress = masskv.sim.compress_event

    def recording(policy, heads, cache_len, usage, keys, cfg, **kwargs):
        seen.append(None if keys is None else keys.copy())
        return compress(policy, heads, cache_len, usage, keys, cfg, **kwargs)

    monkeypatch.setattr(masskv.sim, "compress_event", recording)
    return seen


def _assert_keys_follow_the_ids(trace, seen, calls):
    """Row i of head h in an event's keys is the key of the token at position
    i, as the event's kept ids and the ids born since place them: the
    projection of that token's embedding."""
    w_k = next(w for name, w, _ in calls if name == "w_k")
    xs = np.concatenate([x for name, _, x in calls if name == "w_k"])
    token_keys = np.einsum("hij,sj->hsi", w_k, xs)  # indexed by token id
    assert len(seen) == len(trace.events)
    kept = np.zeros((trace.kv_heads, 0), dtype=np.int64)
    born = 0
    for keys, ev in zip(seen, trace.events):
        fresh = np.arange(born, ev.step)
        ids = np.concatenate([kept, np.broadcast_to(fresh, (trace.kv_heads, fresh.size))], axis=1)
        np.testing.assert_array_equal(keys, np.take_along_axis(token_keys, ids[..., None], axis=1))
        np.testing.assert_array_equal(np.take_along_axis(ids, ev.keep_positions, 1), ev.kept_ids)
        kept, born = ev.kept_ids, ev.step


@pytest.mark.parametrize("scorer", ["expected", "recent", "constant"])
def test_workload_run_without_a_key_scorer_projects_nothing(monkeypatch, scorer):
    built, calls = _record_projections(monkeypatch)
    seen = _event_keys(monkeypatch)
    spec = WorkloadSpec("drifting_focus", steps=320, seed=2)
    trace = run_schedule(spec, "ams", CFG.replace(interval=32), scorer=scorer, kv_heads=3, head_dim=8)
    assert len(trace.events) == 8
    assert (trace.kv_heads, trace.head_dim) == (3, 8)
    assert built == [] and calls == []
    assert seen == [None] * 8


def test_keydiff_workload_run_projects_and_gathers_only_keys(monkeypatch):
    built, calls = _record_projections(monkeypatch)
    seen = _event_keys(monkeypatch)
    spec = WorkloadSpec("heavy_hitter", steps=319, seed=2)
    trace = run_schedule(spec, "ams", CFG.replace(interval=32), scorer="keydiff", kv_heads=3, head_dim=8)
    assert len(built) == 1 and len(trace.events) == 7
    # keys once per interval, never a query
    assert [(name, len(xs)) for name, _, xs in calls] == [("w_k", 32)] * 9 + [("w_k", 31)]
    _assert_keys_follow_the_ids(trace, seen, calls)


@pytest.mark.parametrize("case", LAZY_CASES.values(), ids=LAZY_CASES.keys())
def test_decoder_run_projects_keys_per_interval_and_queries_for_built_rows(monkeypatch, case):
    t_keep, interval, window, steps = case
    cfg = CFG.replace(t_keep=t_keep, interval=interval, window=window, n_last=4)
    dec = ToyDecoder(6, kv_heads=2, head_dim=8)
    built, calls = _record_projections(monkeypatch)
    seen = _event_keys(monkeypatch)
    trace = run_schedule(dec, "ams", cfg, steps=steps, scorer="expected")
    read = _rows_read(trace, window)
    expected = []
    for start in range(0, steps, interval):
        n = min(interval, steps - start)
        expected.append(("w_k", n))
        rows = sum(start <= s < start + n for s in read)
        if rows:
            expected.append(("w_q", rows))
    assert [(name, len(xs)) for name, _, xs in calls] == expected
    assert built == []
    _assert_keys_follow_the_ids(trace, seen, calls)


def test_a_key_cache_no_scorer_reads_changes_no_trace(monkeypatch):
    import masskv.sim

    cfg = CFG.replace(t_keep=48, interval=32, window=16, n_last=4)
    runs = [
        (WorkloadSpec(name, steps=160, seed=3), policy, scorer)
        for name in WORKLOADS
        for policy in POLICIES
        for scorer in ("expected", "recent", "constant")
    ]

    def traces():
        return [trace_to_dict(run_schedule(s, p, cfg, scorer=sc)) for s, p, sc in runs]

    lean = traces()
    monkeypatch.setattr(masskv.sim, "READS_KEYS", frozenset(SCORERS))
    built, calls = _record_projections(monkeypatch)
    assert traces() == lean
    # a policy that reads no rows builds no key cache either
    assert len(built) == sum(p in READS_ROWS for _, p, _ in runs)
    assert {name for name, _, _ in calls} == {"w_k"}


def test_streaming_builds_no_rows_and_no_keys(monkeypatch):
    import masskv.sim

    cfg = CFG.replace(t_keep=48, interval=32, window=40, n_last=4)
    runs = [
        (WorkloadSpec(name, steps=170, seed=3), scorer)
        for name in WORKLOADS
        for scorer in ("expected", "keydiff")
    ] + [(ToyDecoder(3, kv_heads=2, head_dim=8), scorer) for scorer in ("expected", "keydiff")]

    def traces():
        return [trace_to_dict(run_schedule(s, "streaming", cfg, steps=170, scorer=sc))
                for s, sc in runs]

    def refuse(name):
        def call(*args, **kwargs):
            raise AssertionError(f"streaming called {name}")
        return call

    for cls, name in ((_WorkloadRows, "rows"), (_WorkloadRows, "skip"),
                      (ToyDecoder, "project"), (ToyDecoder, "attention_rows")):
        monkeypatch.setattr(cls, name, refuse(name))
    lean = traces()
    assert all(len(doc["events"]) == 4 for doc in lean)
    # building every row and key a policy that reads them would gives the
    # same traces
    monkeypatch.undo()
    monkeypatch.setattr(masskv.sim, "READS_ROWS", frozenset(POLICIES))
    assert traces() == lean


@pytest.mark.parametrize("mode", ["workload", "decoder"])
def test_run_holds_no_window_of_attention_rows(mode):
    # a [heads, window, t_keep + interval] float64 buffer of the rows an
    # event reads would alone be twice the peak allowed here
    heads, t_keep, interval = 2, 1024, 256
    cfg = CFG.replace(t_keep=t_keep, interval=interval, window=interval)
    steps = t_keep + 3 * interval
    source = (WorkloadSpec("heavy_hitter", steps=steps, seed=1) if mode == "workload"
              else ToyDecoder(1, kv_heads=heads, head_dim=16))
    run_schedule(source, "ams", cfg.replace(t_keep=8, interval=8, window=8), steps=32,
                 kv_heads=heads)  # imports what a run imports, outside the measurement
    tracemalloc.start()
    try:
        trace = run_schedule(source, "ams", cfg, steps=steps, kv_heads=heads)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(trace.events) == 3
    assert peak < heads * interval * (t_keep + interval) * 8 / 2


def test_run_schedule_with_decoder_source():
    dec = ToyDecoder(seed=9, kv_heads=2, head_dim=8)
    trace = run_schedule(dec, "ams", CFG, steps=256)
    assert len(trace.events) == 2
    with pytest.raises(ConfigError, match="steps"):
        run_schedule(ToyDecoder(seed=9), "ams", CFG)  # steps required
    # steps sizes the cache-aligned arrays, so it must be a count
    for source in (dec, WorkloadSpec("uniform", steps=64)):
        for steps in (-1, 2.5, "64", True):
            with pytest.raises(ConfigError, match="steps"):
                run_schedule(source, "ams", CFG, steps=steps)
        assert run_schedule(source, "ams", CFG, steps=0).events == []


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


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_whole_runs_keep_budget_sinks_and_token_ids(data):
    t_keep = data.draw(st.integers(1, 40), label="t_keep")
    min_seg_len = data.draw(st.integers(1, 8), label="min_seg_len")
    cfg = default_config().replace(
        t_keep=t_keep,
        n_sink=data.draw(st.integers(0, t_keep), label="n_sink"),
        n_last=data.draw(st.integers(0, 12), label="n_last"),
        interval=data.draw(st.integers(1, 40), label="interval"),
        window=data.draw(st.integers(1, 40), label="window"),
        min_quota=data.draw(st.integers(0, 3), label="min_quota"),
        min_seg_len=min_seg_len,
        max_seg_len=data.draw(st.integers(min_seg_len, 32), label="max_seg_len"),
        smooth_kernel=data.draw(st.sampled_from([1, 3, 5, 7]), label="smooth_kernel"),
        ema_on=data.draw(st.booleans(), label="ema_on"),
    )
    workload = data.draw(st.sampled_from(WORKLOADS + ("toy_decoder",)), label="workload")
    policy = data.draw(st.sampled_from(POLICIES), label="policy")
    scorer = data.draw(st.sampled_from(sorted(SCORERS)), label="scorer")
    steps = data.draw(st.integers(1, 160), label="steps")
    seed = data.draw(st.integers(0, 2**16), label="seed")

    def run():
        source = (ToyDecoder(seed, kv_heads=2, head_dim=4) if workload == "toy_decoder"
                  else WorkloadSpec(workload, steps=steps, seed=seed))
        return run_schedule(source, policy, cfg, steps=steps, scorer=scorer,
                            kv_heads=2, head_dim=4)

    trace = run()
    # the plain schedule: an event ends each full interval whose cache
    # exceeds t_keep, and leaves t_keep tokens
    schedule, cache = [], 0
    for end in range(cfg.interval, steps + 1, cfg.interval):
        cache += cfg.interval
        if cache > t_keep:
            schedule.append((end, cache))
            cache = t_keep
    assert [(ev.step, ev.cache_len) for ev in trace.events] == schedule
    # the ids of the cache before each event: the last event's survivors,
    # then every token born since, in arrival order
    ids, watermark = np.zeros((2, 0), dtype=np.int64), 0
    for ev in trace.events:
        born = np.arange(watermark, ev.step)
        pre_ids = np.concatenate([ids, np.tile(born, (2, 1))], axis=1)
        assert pre_ids.shape[1] == ev.cache_len > t_keep
        assert ev.keep_positions.shape == ev.kept_ids.shape == (2, t_keep)
        assert 0 <= ev.keep_positions.min() and ev.keep_positions.max() < ev.cache_len
        assert (np.diff(ev.kept_ids, axis=1) > 0).all()
        assert (ev.kept_ids[:, : cfg.n_sink] == np.arange(cfg.n_sink)).all()
        kept = np.take_along_axis(pre_ids, ev.keep_positions, axis=1)
        np.testing.assert_array_equal(kept, ev.kept_ids)
        ids, watermark = ev.kept_ids, ev.step
    doc = trace_to_dict(trace)
    assert [e["id_watermark"] for e in doc["events"]] == [ev.step for ev in trace.events]
    assert trace_to_dict(run()) == doc


def test_workload_validation():
    with pytest.raises(ConfigError):
        WorkloadSpec("bogus", steps=10)
    for steps in (0, -3, 128.5, True, "64", None):
        with pytest.raises(ConfigError, match="steps"):
            WorkloadSpec("uniform", steps=steps)
    for params in ({"hitter_count": 2}, {"noise": "0.1"}, {"noise": True}):
        with pytest.raises(ConfigError):
            WorkloadSpec("uniform", steps=10, params=params)
    out_of_range = [
        ("heavy_hitter", {"hitter_count": -1}),
        ("heavy_hitter", {"hitter_count": 2.0}),
        ("heavy_hitter", {"hitter_weight": 1.0}),
        ("heavy_hitter", {"hitter_weight": -0.1}),
        ("uniform", {"noise": 3}),
        ("uniform", {"noise": 1.0}),
        ("uniform", {"noise": -0.01}),
        ("uniform", {"noise": float("nan")}),
        ("drifting_focus", {"width": 0}),
        ("drifting_focus", {"width": float("inf")}),
        ("drifting_focus", {"floor": 1.5}),
        ("drifting_focus", {"floor": -0.5}),
        ("drifting_focus", {"drift": float("nan")}),
        ("drifting_focus", {"drift": -3.0}),
        ("drifting_focus", {"drift": 1e308}),
        ("low_region_adversarial", {"region_start": -1}),
        ("low_region_adversarial", {"region_len": -5}),
        ("low_region_adversarial", {"region_len": 6.5}),
        ("low_region_adversarial", {"suppress": -1}),
        ("low_region_adversarial", {"suppress": float("inf")}),
        ("low_region_adversarial", {"suppress": 1.5}),
        ("low_region_adversarial", {"suppress": 1e308}),
        ("drifting_focus", {"phase": -float("inf")}),
        # ints too big for a float, and more hitters than steps
        ("heavy_hitter", {"hitter_count": 10**400}),
        ("heavy_hitter", {"hitter_count": 11}),
        ("drifting_focus", {"drift": 10**400}),
        ("drifting_focus", {"width": 10**400}),
        ("drifting_focus", {"phase": -(10**400)}),
        ("low_region_adversarial", {"suppress": 10**400}),
        # every row of at most region_len tokens would be all zero
        ("low_region_adversarial", {"region_start": 0, "suppress": 0}),
        ("low_region_adversarial", {"region_start": 0, "region_len": 1, "suppress": 0.0}),
    ]
    for name, params in out_of_range:
        with pytest.raises(ConfigError):
            WorkloadSpec(name, steps=10, params=params)
    at_the_edges = [
        ("heavy_hitter", {"hitter_count": 0, "hitter_weight": 0, "noise": 0}),
        ("drifting_focus", {"floor": 0, "width": 1e-9, "drift": -1.0, "phase": 7}),
        ("drifting_focus", {"floor": 1, "drift": 1}),
        ("low_region_adversarial", {"region_start": 0, "region_len": 0, "suppress": 0}),
        ("low_region_adversarial", {"suppress": 1}),
    ]
    for name, params in at_the_edges:
        run_schedule(WorkloadSpec(name, steps=160, seed=1, params=params), "ams", CFG)
    spec = WorkloadSpec("heavy_hitter", steps=10, params={"noise": 0, "hitter_count": np.int64(2)})
    assert run_schedule(spec, "ams", CFG).steps == 10
    spec = WorkloadSpec("heavy_hitter", steps=10, params={"hitter_count": 10})
    assert run_schedule(spec, "ams", CFG).steps == 10


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_no_workload_input_raises_anything_but_a_config_error(data):
    name = data.draw(st.one_of(st.sampled_from(WORKLOADS), JSON_LIKE), label="name")
    read = DEFAULTS[name] if name in WORKLOADS else sim.WORKLOAD_PARAMS
    params = st.one_of(st.dictionaries(st.sampled_from(sorted(read)), JSON_LIKE), JSON_LIKE)
    try:
        WorkloadSpec(name, data.draw(JSON_LIKE, label="steps"), data.draw(JSON_LIKE, label="seed"),
                     data.draw(params, label="params"))
    except ConfigError:
        pass


MAX = sys.float_info.max
ALMOST_ONE = float(np.nextafter(1.0, 0.0))
# values at the edges of each parameter's range, ints given for floats too;
# "steps" stands for the run's step count
PARAM_EDGES = {
    "noise": [0, 0.0, ALMOST_ONE],
    "hitter_count": [0, 1, "steps"],
    "hitter_weight": [0, ALMOST_ONE],
    "width": [5e-324, 1, MAX],
    "drift": [-1, 1, -1.0, 1.0],
    "phase": [-MAX, 0, MAX],
    "floor": [0, 1, 1.0],
    "region_start": [0, 1, 2**63 - 1],
    "region_len": [0, 1, 2**63 - 1],
    "suppress": [0, 0.0, 1],
}


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_every_accepted_workload_runs_at_its_parameter_edges(data):
    name = data.draw(st.sampled_from(WORKLOADS), label="workload")
    steps = data.draw(st.integers(16, 64), label="steps")
    params = {}
    for key in DEFAULTS[name]:
        if data.draw(st.booleans(), label=f"sets {key}"):
            value = data.draw(st.sampled_from(PARAM_EDGES[key]), label=key)
            params[key] = steps if value == "steps" else value
    try:
        spec = WorkloadSpec(name, steps=steps, seed=data.draw(st.integers(0, 3)), params=params)
    except ConfigError:
        assume(False)
    # the first event, at step 16, reads the rows of every step from the first
    cfg = CFG.replace(t_keep=8, interval=8, window=16, n_sink=2, n_last=2)
    trace = run_schedule(spec, "ams", cfg)
    assert len(trace.events) == steps // 8 - 1
    with tempfile.TemporaryDirectory() as out:
        path = Path(out) / "t.json"
        write_trace_json(trace, path)
        assert json.loads(path.read_text())["workload_params"] == params


@pytest.mark.parametrize("scorer", ["expected", "keydiff"])
def test_numpy_numbers_run_and_write_as_python_numbers(tmp_path, scorer):
    def trace_bytes(as_int, as_float, stem):
        cfg = CFG.replace(t_keep=as_int(48), interval=as_int(32), window=as_int(16))
        spec = WorkloadSpec("drifting_focus", steps=as_int(200), seed=5,
                            params={"drift": as_float(0.003)})
        trace = run_schedule(spec, "ams", cfg, scorer=scorer, kv_heads=as_int(3))
        write_trace_json(trace, tmp_path / f"{stem}.json")
        write_trace_csv(trace, tmp_path / f"{stem}.csv")
        return [(tmp_path / f"{stem}.{ext}").read_bytes() for ext in ("json", "csv")]

    numpy = trace_bytes(np.int64, np.float32, "numpy")
    plain = trace_bytes(lambda v: np.int64(v).item(), lambda v: np.float32(v).item(), "plain")
    assert numpy == plain


@pytest.mark.parametrize("seed", [-1, 1.5, True, "3", None])
def test_toy_decoder_rejects_a_seed_that_is_not_a_count(seed):
    with pytest.raises(ConfigError, match="seed"):
        ToyDecoder(seed)


BAD_DIMS = [0, -1, 1.5, 2.0, True, "8", None]


@pytest.mark.parametrize("bad", BAD_DIMS)
@pytest.mark.parametrize("dim", ["kv_heads", "head_dim"])
def test_toy_decoder_rejects_heads_and_widths_below_one(dim, bad):
    with pytest.raises(ConfigError, match=dim):
        ToyDecoder(0, **{dim: bad})


@pytest.mark.parametrize("bad", BAD_DIMS)
@pytest.mark.parametrize("dim", ["kv_heads", "head_dim"])
def test_workload_runs_reject_heads_and_widths_below_one(dim, bad):
    # head_dim is read only by keydiff's keys, yet no run takes a bad one
    spec = WorkloadSpec("uniform", steps=256, seed=0)
    for policy, scorer in (("ams", "keydiff"), ("ams", "expected"), ("streaming", "expected")):
        with pytest.raises(ConfigError, match=dim):
            run_schedule(spec, policy, CFG, scorer=scorer, **{dim: bad})
    assert run_schedule(spec, "ams", CFG, scorer="keydiff", kv_heads=1, head_dim=1).events


@pytest.mark.parametrize("dim, own", [("kv_heads", 3), ("head_dim", 8)])
def test_toy_decoder_runs_reject_other_heads_and_widths(dim, own):
    dec = ToyDecoder(0, kv_heads=3, head_dim=8)
    for bad in (own + 4, own - 1, None, "8"):
        with pytest.raises(ConfigError, match=dim):
            run_schedule(dec, "ams", CFG, steps=128, **{dim: bad})
    trace = run_schedule(dec, "ams", CFG, steps=128, **{dim: own})
    assert (trace.kv_heads, trace.head_dim) == (3, 8)
    assert trace_to_dict(trace) == trace_to_dict(run_schedule(dec, "ams", CFG, steps=128))


HUGE = 10**5000  # its repr raises ValueError past Python's 4,300-digit limit
HUGE_INPUTS = {
    "config_int": lambda: CompressionConfig(window=HUGE),
    "config_float": lambda: CompressionConfig(ema_decay=HUGE),
    "workload_steps": lambda: WorkloadSpec("uniform", steps=HUGE),
    "workload_seed": lambda: WorkloadSpec("uniform", steps=8, seed=HUGE),
    "workload_param": lambda: WorkloadSpec("uniform", steps=8, params={"noise": HUGE}),
    "workload_param_name": lambda: WorkloadSpec("uniform", steps=8, params={HUGE: 0.1}),
    "decoder_seed": lambda: ToyDecoder(HUGE),
    "decoder_heads": lambda: ToyDecoder(0, kv_heads=HUGE),
    "run_steps": lambda: run_schedule(WorkloadSpec("uniform", steps=8), "ams", CFG, steps=HUGE),
    "run_head_dim": lambda: run_schedule(WorkloadSpec("uniform", steps=8), "ams", CFG,
                                         head_dim=HUGE),
    "decoder_run_heads": lambda: run_schedule(ToyDecoder(0), "ams", CFG, steps=8, kv_heads=HUGE),
    "check_name": lambda: check_name("policy", HUGE, POLICIES),
}


@pytest.mark.parametrize("entry", HUGE_INPUTS.values(), ids=HUGE_INPUTS.keys())
def test_a_huge_integer_is_a_config_error_with_a_short_message(entry):
    # the CLI cannot pass one (json refuses such literals); Python callers can
    with pytest.raises(ConfigError) as info:
        entry()
    assert "16610 bits" in str(info.value) and len(str(info.value)) < 200


DETERMINISM_SCRIPT = """
import hashlib, json
from masskv.core import default_config
from masskv.sim import ToyDecoder, run_schedule, trace_to_dict
cfg = default_config().replace(t_keep=512, interval=256)
trace = run_schedule(ToyDecoder(5, kv_heads=4, head_dim=64), "ams", cfg, steps=1536)
doc = json.dumps(trace_to_dict(trace), sort_keys=True)
print(len(trace.events), hashlib.sha256(doc.encode()).hexdigest())
"""


def test_decoder_traces_do_not_depend_on_blas_threads():
    # ToyDecoder attention is a BLAS matmul; a thread pool must not change its bits
    src = str(Path(sim.__file__).resolve().parent.parent)
    outs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        proc = subprocess.run([sys.executable, "-c", DETERMINISM_SCRIPT], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0].split()[0] == "4"
    assert outs[0] == outs[1]


GOLDEN_CONFIGS = {
    "base": CFG,
    "edge": CFG.replace(t_keep=24, n_sink=24, min_quota=0, ema_on=False, window=40, interval=16),
    "ablation": CFG.replace(fixed_length_segments_on=True, mass_weighted_quotas_on=False),
    "interval_1": CFG.replace(interval=1),
    # every AMS event splits segments (max_seg_len < T) and some take three cap rounds
    "split": CFG.replace(t_keep=96, min_seg_len=2, max_seg_len=16, segment_mass=0.25),
}

# sha256 over the JSON and CSV files of every policy x {expected, recent} run
# of one config and workload, in that order; a change that moves trace bytes
# on purpose records its new digests here and lists them in CHANGES.md
GOLDEN_DIGESTS = {
    "base/uniform": "62a3da3716167107201dd018ebe14d2e9dd39332ae1f7b27636ce0dc9005233f",
    "base/heavy_hitter": "f6e22ad138aa37feb5e72a915544a2d59745d9ed9f64c44165ecca60ca5a9d76",
    "base/low_region_adversarial": "6851472238f139988cc8395dbed452a7e1f5252e811a7e40d4d0ae2c779c7252",
    "edge/uniform": "62f5212015661497818efd83c1310669b8d539cc139930830bfe572a8be32815",
    "edge/heavy_hitter": "e9fdb328dea1be23bd18edf87f12923ae815a96e0f1b77db4f8559b346ce68a0",
    "edge/low_region_adversarial": "861f65bbd73abf7ab71ac7d5212c332a3e2e7817a94fd3f9b721449f10980a97",
    "ablation/uniform": "9c35af4aff78170b75d8d45808227ae9ecd3cb57a55dc130fdd59cd790c3059c",
    "ablation/heavy_hitter": "7a02e738540bdfa7733da4a58ad7085b63c60db8db234c022501ab335dc9108c",
    "ablation/low_region_adversarial": "689bf7931f9570faf67de20bda61fe471c2c666a46dd87e61a25fa1848297135",
    "interval_1/uniform": "d5560798828575d24e3f163cdd72dcce33ac4d1534563e46f669dd6dfa933fbf",
    "interval_1/heavy_hitter": "8ff23e83143a83e8b891e0d91c15208798f75650aa70dae3c89bd09f80c54729",
    "interval_1/low_region_adversarial": "30bf17ee13fb2f02de1c674af65d78300218cc31617a900e58aca57e7819365a",
    "split/uniform": "11898c9d6462c4bb123bba76bcc26089168150d270b98d6be4d6f7a6c2ec2f8a",
    "split/heavy_hitter": "ea956ab6b70c16a49618873ea1710a13b6ebf5589bb7d161468efd4ece69b116",
    "split/low_region_adversarial": "a606fb2ab74f0f3f8927f0020de16aed7d0fdd8ba94501e743eca33eeb4f919e",
}


@pytest.mark.parametrize("name", GOLDEN_CONFIGS)
def test_trace_files_keep_their_recorded_bytes(tmp_path, name):
    """The JSON and CSV traces of a fixed grid have the bytes recorded in
    ``GOLDEN_DIGESTS``: 3 workloads x 4 policies x {expected, recent} at 3
    heads, 384 steps and seed 1. The grid leaves out ``drifting_focus``
    (``np.exp``), ToyDecoder runs (a BLAS matmul and ``np.exp``) and the
    ``keydiff`` scorer (``np.einsum``), whose last bits may depend on the CPU
    or the BLAS build."""
    cfg = GOLDEN_CONFIGS[name]
    for workload in ("uniform", "heavy_hitter", "low_region_adversarial"):
        digest = hashlib.sha256()
        for policy in POLICIES:
            for scorer in ("expected", "recent"):
                spec = WorkloadSpec(workload, steps=384, seed=1)
                trace = run_schedule(spec, policy, cfg, scorer=scorer, kv_heads=3)
                if name == "interval_1":
                    assert {ev.cache_len for ev in trace.events} == {cfg.t_keep + 1}
                for write in (write_trace_json, write_trace_csv):
                    write(trace, tmp_path / "t")
                    digest.update((tmp_path / "t").read_bytes())
        assert digest.hexdigest() == GOLDEN_DIGESTS[f"{name}/{workload}"], workload


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


def _event(index, keep, cache_len, ids=None, step=None):
    keep = np.asarray(keep, dtype=np.int64)[None, :]
    ids = keep if ids is None else np.asarray(ids, dtype=np.int64)[None, :]
    return EventRecord(
        index=index,
        step=(index + 1) * 10 if step is None else step,
        cache_len=cache_len,
        keep_positions=keep,
        kept_ids=ids,
        segments=None,
        quotas=None,
        mass=None,
        counters={},
        wall_time=0.0,
    )


def test_metric_retained_iou_jaccard_examples():
    for old, new, iou in [([1, 2, 3], [2, 3, 4], 0.5), ([1, 2], [1, 2], 1.0), ([1], [2], 0.0),
                          ([], [], 1.0)]:  # empty vs empty counts as 1
        e0 = _event(0, keep=old, cache_len=8, step=8)
        e1 = _event(1, keep=new, cache_len=8, step=16)
        assert metric_retained_iou(_fake_trace([e0, e1])).tolist() == [iou]


def test_metric_retained_iou_restricts_new_tokens():
    # second event keeps id 6, the first token born after the first event at
    # step 6: it is excluded from the comparison universe
    e0 = _event(0, keep=[0, 1, 2], cache_len=6, ids=[0, 1, 2], step=6)
    e1 = _event(1, keep=[0, 1, 2], cache_len=5, ids=[1, 2, 6], step=10)
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


def _naive_iou(trace):
    """Per-head Jaccard overlap of kept ids, one head at a time."""
    series = []
    for prev, cur in zip(trace.events[:-1], trace.events[1:]):
        per_head = []
        for h in range(prev.kept_ids.shape[0]):
            old, new = prev.kept_ids[h], cur.kept_ids[h]
            new = new[new < prev.step]
            inter = np.intersect1d(old, new, assume_unique=True).size
            union = len(old) + len(new) - inter
            per_head.append(1.0 if union == 0 else float(inter / union))
        series.append(float(np.mean(per_head)))
    return series


def _naive_wipeout(trace, window_w):
    """Empty-window share of [n_sink, T - n_last), one head at a time."""
    cfg, rates = trace.config, []
    for ev in trace.events:
        lo = min(cfg.n_sink, ev.cache_len)
        hi = max(ev.cache_len - cfg.n_last, lo)
        n_windows = (hi - lo) // window_w
        if n_windows == 0:
            continue
        edges = lo + window_w * np.arange(n_windows + 1)
        head_rates = []
        for h in range(ev.keep_positions.shape[0]):
            kept = ev.keep_positions[h]
            counts, _ = np.histogram(kept[(kept >= lo) & (kept < edges[-1])], bins=edges)
            head_rates.append((counts == 0).sum() / n_windows)
        rates.append(float(np.mean(head_rates)))
    return float(np.mean(rates)) if rates else 0.0


def _naive_histogram(trace, bins):
    """Retained fraction per bin, totalled one head and one event at a time."""
    totals, samples = np.zeros(bins), 0
    for ev in trace.events:
        t = ev.cache_len
        bucket = np.minimum((np.arange(t) * bins) // t, bins - 1)
        sizes = np.bincount(bucket, minlength=bins).astype(np.float64)
        for h in range(ev.keep_positions.shape[0]):
            kept = np.bincount(bucket[ev.keep_positions[h]], minlength=bins).astype(np.float64)
            with np.errstate(invalid="ignore", divide="ignore"):
                totals += np.where(sizes > 0, kept / sizes, 0.0)
            samples += 1
    return totals / samples if samples else np.zeros(bins)


@st.composite
def _fake_runs(draw):
    """A fake multi-head trace: kept sets that are random, empty, identical
    to the previous event's, or born wholly after the previous event."""
    heads = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cfg = default_config().replace(t_keep=8, n_sink=draw(st.integers(0, 12)),
                                   n_last=draw(st.integers(0, 24)))
    events, step = [], 0
    for index in range(draw(st.integers(1, 5))):
        mode = draw(st.sampled_from(["random", "empty", "same", "new"]))
        t = draw(st.integers(1, 96))
        prev_step, step = step, step + t + draw(st.integers(0, 64))
        if mode == "same" and events:
            ids = events[-1].kept_ids.copy()
            t = max(t, ids.shape[1])
        else:
            k = 0 if mode == "empty" else draw(st.integers(0, t))
            lo = prev_step if mode == "new" else 0
            ids = np.stack([np.sort(rng.choice(np.arange(lo, step), k, replace=False))
                            for _ in range(heads)])
        keep = np.stack([np.sort(rng.choice(t, ids.shape[1], replace=False))
                         for _ in range(heads)])
        events.append(EventRecord(index=index, step=step, cache_len=t, keep_positions=keep,
                                  kept_ids=ids, segments=None, quotas=None, mass=None,
                                  counters={}, wall_time=0.0))
    return _fake_trace(events, cfg)


@settings(max_examples=300, deadline=None)
@given(trace=_fake_runs(), window_w=st.integers(1, 8) | st.integers(1, 128),
       bins=st.integers(1, 12) | st.integers(1, 128))
def test_metrics_equal_a_per_head_loop(trace, window_w, bins):
    assert metric_retained_iou(trace).tolist() == _naive_iou(trace)
    assert metric_wipeout_rate(trace, window_w) == _naive_wipeout(trace, window_w)
    assert metric_spatial_histogram(trace, bins).tolist() == _naive_histogram(trace, bins).tolist()


def test_trace_json_schema_and_csv(tmp_path):
    spec = WorkloadSpec("uniform", steps=256, seed=0)
    trace = run_schedule(spec, "ams", CFG)
    doc = trace_to_dict(trace)
    # schema 1 exactly: a field added to RunTrace or EventRecord changes it
    assert set(doc) == {
        "schema_version", "policy", "scorer", "workload", "workload_params", "seed",
        "steps", "kv_heads", "head_dim", "config", "events", "summaries",
    }
    assert doc["schema_version"] == 1
    event_keys = {
        "index", "step", "cache_len", "keep_positions", "kept_ids", "id_watermark",
        "segments", "quotas", "mass", "counters",
    }
    assert doc["events"] and all(set(ev) == event_keys for ev in doc["events"])
    timed = trace_to_dict(trace, include_timing=True)
    assert all(set(ev) == event_keys | {"wall_time"} for ev in timed["events"])

    jpath = tmp_path / "t.json"
    write_trace_json(trace, jpath)
    parsed = json.loads(jpath.read_text())
    assert all("counters" in ev for ev in parsed["events"])

    cpath = tmp_path / "t.csv"
    write_trace_csv(trace, cpath)
    lines = cpath.read_text().strip().splitlines()
    assert lines[0] == "event,metric,value"
    assert any(line.startswith("0,cache_len,") for line in lines)
    assert any(line.startswith("-1,mean_retained_iou,") for line in lines)


def test_segment_count_per_head_is_bounded_by_cache_over_min_seg_len():
    # merging short segments keeps each head's segment count within
    # T / min_seg_len (plus a slack of 2) at any cache length
    for steps in (128, 256):
        trace = run_schedule(
            WorkloadSpec("uniform", steps=steps, seed=0),
            "ams",
            CFG.replace(interval=steps, t_keep=32),
        )
        ev = trace.events[0]
        assert ev.cache_len == steps
        assert len(ev.segments) == trace.kv_heads
        for boundaries in ev.segments:
            assert len(boundaries) - 1 <= ev.cache_len / CFG.min_seg_len + 2
