"""Smoke test of the benchmark itself, at tiny sizes and with no timing gate.

    python3 -m pytest -q perfbench

Checks that every metric BENCHMARK.json names is reported with its unit,
that the correctness gate rejects a corrupted keep set and a corrupted paged
slot, that the counts and trace hashes repeat exactly, and that the command
fails without printing a result when the package source is missing.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run

run.load_package()

import gate  # noqa: E402  (needs the package on sys.path)
import workloads  # noqa: E402
import masskv.sim as sim  # noqa: E402
from masskv.paged import BlockPool, PagedRequest, compact  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SEED = 7


def tiny(workload: str, trace: bool) -> dict:
    return run.measure(workload, SEED, 0.5, trace, size="tiny")


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_reported_with_its_unit(workload, trace):
    declared = SPEC["per_layer" if trace else "end_to_end"]
    metrics = tiny(workload, trace)["metrics"]
    assert set(metrics) == {m["name"] for m in declared}
    for m in declared:
        value, unit = metrics[m["name"]]
        assert unit == m["unit"], m["name"]
        assert np.isfinite(value), m["name"]


def test_workloads_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)
    assert set(workloads.WORKLOADS) == set(run.WORKLOAD_NAMES)


def test_setup_probe_runs_in_a_fresh_process():
    assert 0.0 < run.setup_seconds("sweep", SEED, "full") < 60.0


def test_layer_self_times_account_for_traced_wall():
    for workload in run.WORKLOAD_NAMES:
        m = tiny(workload, True)["metrics"]
        layers = sum(m[name][0] for name in (
            "sim.self_s", "engine.self_s", "mass.UsageWindow.s", "mass.aggregate_usage.s",
            "mass.smooth.s", "mass.normalize_mass.s", "mass.ema.s", "scorers.score.s",
            "segmentation.segment.s", "allocation.must_keep.s",
            "allocation.reconcile_budget.s", "allocation.compute_quotas.s",
            "selector.select.s", "selector.baselines.s", "selector.gather_cache.s",
            "core.advance_ledger.s", "diagnostics.s", "paged.self_s",
        ))
        assert layers == pytest.approx(m["trace.self_sum_s"][0], rel=1e-9, abs=1e-9)
        assert 0.5 < m["trace.accounted_frac"][0] <= 1.0 + 1e-9


def test_tracing_restores_every_patched_function():
    import masskv.diagnostics as diagnostics
    import masskv.engine as engine
    import masskv.mass as mass
    import masskv.paged as paged
    import masskv.scorers as scorers

    owners = (sim, engine, scorers, mass, diagnostics, paged, sim.ToyDecoder,
              mass.EmaCreditStore, paged.PagedRequest, paged.BlockPool)

    def snapshot():
        return [(owner, key, value) for owner in owners for key, value in vars(owner).items()]

    before = snapshot()
    for workload in run.WORKLOAD_NAMES:
        tiny(workload, True)
    after = snapshot()
    assert len(before) == len(after)
    assert all(a[2] is b[2] for a, b in zip(before, after))


def test_counts_and_traces_repeat_exactly():
    for workload in run.WORKLOAD_NAMES:
        a, b = tiny(workload, True), tiny(workload, True)
        assert a["hashes"] == b["hashes"]
        for name in ("mass.aggregate_usage.calls", "engine.compress_event.calls",
                     "paged.preemptions", "sim.trace_json_bytes", "sim.trace_csv_bytes"):
            assert a["metrics"][name] == b["metrics"][name], (workload, name)
    assert tiny("sweep", False)["hashes"].keys() == {"ams_expected", "ams_toy"}
    assert tiny("longctx", False)["hashes"].keys() == {"ams_longctx"}


def test_expected_scorer_aggregates_usage_twice_per_head_and_event():
    shape = workloads.TINY["longctx"]
    m = tiny("longctx", True)["metrics"]
    assert m["engine.compress_event.calls"][0] == shape.events
    assert m["mass.aggregate_usage.calls"][0] == 2 * shape.kv_heads * shape.events


def test_paged_churn_reaches_a_full_pool():
    report = tiny("paged_churn", True)
    m = report["metrics"]
    assert m["paged.failed_frac"][0] > 0
    assert m["paged.preemptions"][0] > 0
    assert 0 < m["paged.pool_occupancy_mean"][0] <= m["paged.pool_occupancy_peak"][0] <= 1
    assert report["extras"]["failed_frac"][0] > 0


def test_gate_accepts_real_keep_sets_and_rejects_corrupted_ones():
    wl = workloads.build("sweep", SEED, run.OUT / "tmp", "tiny")
    trace = sim.run_schedule(wl.spec, "ams", wl.cfg, kv_heads=2, head_dim=8)
    ev, cfg = trace.events[-1], trace.config
    assert gate.check_trace(trace) == len(trace.events) * ev.keep_positions.shape[0]

    def rejected(keep) -> bool:
        try:
            gate.check_keep(keep, ev.cache_len, cfg.t_keep, cfg.n_sink)
        except gate.GateError:
            return True
        return False

    duplicate = ev.keep_positions.copy()
    duplicate[0, 5] = duplicate[0, 4]
    dropped_sink = ev.keep_positions.copy()
    unkept = np.setdiff1d(np.arange(ev.cache_len), dropped_sink[1])[0]
    dropped_sink[1] = np.sort(np.append(dropped_sink[1, 1:], unkept))
    out_of_range = ev.keep_positions.copy()
    out_of_range[0, -1] = ev.cache_len
    unsorted = ev.keep_positions.copy()
    unsorted[1, [6, 7]] = unsorted[1, [7, 6]]
    short = ev.keep_positions[:, 1:]
    for keep in (duplicate, dropped_sink, out_of_range, unsorted, short):
        assert rejected(keep)
    assert not rejected(ev.keep_positions)


def test_a_gate_failure_counts_the_outputs_checked_before_it(monkeypatch):
    import masskv.engine as engine

    streaming = engine.baseline_streaming

    def dropped_sink(total, n_sink, t_keep):
        keep = streaming(total, n_sink, t_keep)
        if total <= t_keep:
            return keep
        unkept = np.setdiff1d(np.arange(total), keep)[0]
        return np.sort(np.append(keep[1:], unkept))

    monkeypatch.setattr(engine, "baseline_streaming", dropped_sink)
    before = gate.checked
    with pytest.raises(gate.GateError, match="sink"):
        tiny("sweep", True)
    # the AMS and global_topk runs were checked before streaming failed
    assert gate.checked - before > 2 * workloads.TINY["sweep"].kv_heads


def test_the_verified_paged_unit_catches_a_wrong_compaction(monkeypatch):
    import masskv.paged as paged

    compact = paged.compact

    def corrupted(pool, table, keep):
        new = compact(pool, table, keep)
        pool.keys[new.slots(np.array([1]))[0], 0, 0] += 1.0
        return new

    monkeypatch.setattr(paged, "compact", corrupted)
    with pytest.raises(gate.GateError, match="dense gather"):
        tiny("paged_churn", True)


def test_gate_rejects_a_corrupted_paged_slot_and_a_leaked_block():
    rng = np.random.default_rng(SEED)
    pool = BlockPool(8, 4, 2, 3)
    req = PagedRequest(pool)
    for _ in range(10):
        req.append(rng.normal(size=(2, 3)), rng.normal(size=(2, 3)))
    dense_k, dense_v = req.dense_view()
    keep = np.array([[0, 2, 3, 7, 9], [1, 2, 4, 8, 9]])
    query = rng.normal(size=(2, 3))
    req.table = compact(pool, req.table, keep)
    gate.check_compaction(pool, req.table, dense_k, dense_v, keep, query)
    gate.check_conservation(pool, [req.table])
    pool.keys[req.table.slots(np.array([3]))[0], 1, 2] += 1e-3
    with pytest.raises(gate.GateError):
        gate.check_compaction(pool, req.table, dense_k, dense_v, keep, query)
    pool.allocate(1)
    with pytest.raises(gate.GateError):
        gate.check_conservation(pool, [req.table])


def test_fails_without_a_result_when_the_source_is_missing(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "sweep", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
