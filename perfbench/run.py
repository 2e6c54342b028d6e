#!/usr/bin/env python3
"""The masskv benchmark: one workload, one seed, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload sweep --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/`` tree and nowhere else, so a directory without that tree fails with
exit code 2 and prints no result. Workloads are described in
``perfbench/README.md`` and built in ``workloads.py``.

``--trace 0`` times untraced units of the workload for ``--seconds`` and
reports every end-to-end metric. ``--trace 1`` alternates untraced and traced
units (spans recorded by ``tracing.py``) and reports every per-layer metric,
including the tracing overhead. Every output is checked by ``gate.py``
between timed calls. The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the lines before it, and
``.perfbench/result_<workload>_seed<seed>_trace<t>.json``, carry the full
report. Exit codes: 0 correct, 1 a gate violation, 2 bad usage or no source.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

# Every workload is single-threaded and masskv makes no BLAS calls, so the
# BLAS and OpenMP pools get one thread. Their idle workers would otherwise
# only add start-up noise to setup_s. Set before NumPy is first imported;
# the setup probes inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
WORKLOAD_NAMES = ("sweep", "longctx", "paged_churn")
SETUP_PROBES = 7


class NoSource(RuntimeError):
    """The checkout holds no masskv source tree to benchmark."""


def load_package():
    """Import masskv from this checkout's src/ tree, never from elsewhere."""
    init = SRC / "masskv" / "__init__.py"
    if not init.is_file():
        raise NoSource(f"no package source at {init}")
    sys.path.insert(0, str(SRC))
    import masskv

    if Path(masskv.__file__).resolve() != init.resolve():
        raise NoSource(f"masskv was imported from {masskv.__file__}, not {init}")
    return masskv


def setup_probe(workload: str, seed: int, size: str) -> float:
    """Seconds to import the package and build the workload's inputs."""
    t0 = perf_counter()
    load_package()
    import workloads

    workloads.build(workload, seed, OUT / "tmp", size)
    return perf_counter() - t0


def setup_seconds(workload: str, seed: int, size: str) -> float:
    """Median over fresh processes, so every probe pays the import again."""
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--setup-probe", size],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def run_units(wl, seconds: float, trace: bool):
    """Run units until the next one would overrun ``seconds``.

    Untraced only, or (with ``trace``) untraced and traced in turn, at least
    one of each. Returns (untraced records, traced records, tracer).
    A workload's optional ``prepare`` runs before each unit, outside tracing.
    """
    import gate
    import tracing

    plain, traced = [], []
    tracer = tracing.Tracer() if trace else None
    prepare = getattr(wl, "prepare", lambda: None)
    start = perf_counter()
    longest = 0.0
    while True:
        t0 = perf_counter()
        before = gate.checked
        prepare()
        if trace and len(plain) > len(traced):
            first = tracer.span_count()
            with tracing.patched(tracer):
                rec = wl.unit(tracer)
            rec["spans"] = tracing.summarize(tracer, first)
            rec["gather_bytes"] = tracer.gather_bytes
            tracer.gather_bytes = 0
            traced.append(rec)
        else:
            rec = wl.unit()
            plain.append(rec)
        rec["counts"]["checked"] = gate.checked - before
        longest = max(longest, perf_counter() - t0)
        enough = bool(plain) and (bool(traced) or not trace)
        if enough and perf_counter() - start + longest > seconds:
            return plain, traced, tracer


def check_repeats(records: list, gate) -> None:
    """Identical units must give identical counts and byte-identical traces."""
    first = records[0]
    for rec in records[1:]:
        if rec["counts"] != first["counts"]:
            raise gate.GateError(f"counts differ between units: {rec['counts']} vs {first['counts']}")
        for name, digest in rec["hashes"].items():
            if first["hashes"].get(name, digest) != digest:
                raise gate.GateError(f"trace {name} is not byte-identical across units")


def _mean(values) -> float:
    values = list(values)
    return float(sum(values) / len(values)) if values else 0.0


def _pct(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q)) if len(values) else 0.0


def end_to_end(plain: list, setup_s: float) -> dict:
    """Medians over units. Event percentiles are taken per unit first, so one
    unit slowed by a noisy neighbour does not own the tail."""
    return {
        "setup_s": (setup_s, "s"),
        "decode_tok_per_s": (
            statistics.median(rec["tokens"] / rec["decode_s"] for rec in plain), "tok/s"),
        "event_ms_p50": (statistics.median(_pct(rec["event_ms"], 50) for rec in plain), "ms"),
        "event_ms_p90": (statistics.median(_pct(rec["event_ms"], 90) for rec in plain), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def extras(plain: list) -> dict:
    """The issue's remaining end-to-end figures; zero where a workload has none."""
    rec = plain[0]
    return {
        "event_samples": (sum(len(r["event_ms"]) for r in plain), "count"),
        "trace_write_s": (statistics.median(r["trace_write_s"] for r in plain), "s"),
        "trace_bytes": (rec["trace_json_bytes"] + rec["trace_csv_bytes"], "B"),
        "retained_iou": (_mean(rec["retained_iou"]), "frac"),
        "wipeout_rate": (_mean(rec["wipeout_rate"]), "frac"),
        "failed_frac": (rec["failed_ops"] / rec["ops"] if rec["ops"] else 0.0, "frac"),
        "preemptions": (rec["preemptions"], "count"),
        "pool_occupancy_mean": (rec["occupancy_mean"], "frac"),
    }


def per_layer(plain: list, traced: list) -> dict:
    """Per-layer figures: means over the traced units, so that the layers'
    self times still add up to the traced wall time."""

    def avg(fn):
        return _mean(fn(rec) for rec in traced)

    def s(name):
        return avg(lambda rec: rec["spans"]["names"].get(name, {}).get("s", 0.0))

    def self_s(name):
        return avg(lambda rec: rec["spans"]["names"].get(name, {}).get("self_s", 0.0))

    def calls(name):
        return avg(lambda rec: rec["spans"]["names"].get(name, {}).get("calls", 0))

    def pct(name, q):
        return avg(lambda rec: _pct(rec["spans"]["names"].get(name, {}).get("ms", []), q))

    def layer(name):
        return avg(lambda rec: rec["spans"]["layer_self_s"].get(name, 0.0))

    wall = avg(lambda rec: rec["wall_s"])
    untraced_wall = _mean(rec["wall_s"] for rec in plain)
    self_sum = avg(lambda rec: rec["spans"]["self_sum_s"])
    rec = traced[0]
    return {
        "sim.run_schedule.s": (s("sim.run_schedule"), "s"),
        "sim.self_s": (layer("sim"), "s"),
        "sim.project.s": (s("sim.project"), "s"),
        "sim.attention_rows.s": (s("sim.attention_rows"), "s"),
        "sim.trace_to_dict.s": (s("sim.trace_to_dict"), "s"),
        "sim.write_trace_json.s": (s("sim.write_trace_json"), "s"),
        "sim.write_trace_csv.s": (s("sim.write_trace_csv"), "s"),
        "sim.trace_json_bytes": (rec["trace_json_bytes"], "B"),
        "sim.trace_csv_bytes": (rec["trace_csv_bytes"], "B"),
        "engine.compress_event.calls": (calls("engine.compress_event"), "count"),
        "engine.compress_event.ms_p50": (pct("engine.compress_event", 50), "ms"),
        "engine.compress_event.ms_p90": (pct("engine.compress_event", 90), "ms"),
        "engine.self_s": (layer("engine"), "s"),
        "mass.UsageWindow.s": (s("mass.UsageWindow"), "s"),
        "mass.UsageWindow.calls": (calls("mass.UsageWindow"), "count"),
        "mass.aggregate_usage.s": (s("mass.aggregate_usage"), "s"),
        "mass.aggregate_usage.calls": (calls("mass.aggregate_usage"), "count"),
        "mass.smooth.s": (s("mass.smooth"), "s"),
        "mass.normalize_mass.s": (s("mass.normalize_mass"), "s"),
        "mass.ema.s": (s("mass.ema"), "s"),
        "scorers.score.s": (self_s("scorers.score"), "s"),
        "scorers.score.calls": (calls("scorers.score"), "count"),
        "segmentation.segment.s": (s("segmentation.segment"), "s"),
        "segmentation.segments_per_head_event": (_mean(rec["segments"]), "count"),
        "allocation.must_keep.s": (s("allocation.must_keep"), "s"),
        "allocation.reconcile_budget.s": (s("allocation.reconcile_budget"), "s"),
        "allocation.compute_quotas.s": (s("allocation.compute_quotas"), "s"),
        "selector.select.s": (s("selector.select"), "s"),
        "selector.baselines.s": (s("selector.baselines"), "s"),
        "selector.gather_cache.s": (s("selector.gather_cache"), "s"),
        "selector.gather_bytes": (rec["gather_bytes"], "B"),
        "core.advance_ledger.s": (s("core.advance_ledger"), "s"),
        "core.advance_ledger.calls": (calls("core.advance_ledger"), "count"),
        "diagnostics.s": (s("diagnostics.metric"), "s"),
        "diagnostics.retained_iou": (_mean(rec["retained_iou"]), "frac"),
        "diagnostics.wipeout_rate": (_mean(rec["wipeout_rate"]), "frac"),
        "paged.append.s": (s("paged.append"), "s"),
        "paged.append.calls": (calls("paged.append"), "count"),
        "paged.compact.s": (s("paged.compact"), "s"),
        "paged.compact.calls": (calls("paged.compact"), "count"),
        "paged.allocate.s": (s("paged.allocate"), "s"),
        "paged.free.s": (s("paged.free"), "s"),
        "paged.self_s": (layer("paged"), "s"),
        "paged.compact_ok_ratio": (
            rec["compactions_ok"] / rec["compactions"] if rec["compactions"] else 0.0, "frac"),
        "paged.preemptions": (rec["preemptions"], "count"),
        "paged.failed_frac": (rec["failed_ops"] / rec["ops"] if rec["ops"] else 0.0, "frac"),
        "paged.pool_occupancy_mean": (rec["occupancy_mean"], "frac"),
        "paged.pool_occupancy_peak": (rec["occupancy_peak"], "frac"),
        "paged.copy_bytes": (rec["copy_bytes"], "B"),
        "trace.wall_s": (wall, "s"),
        "trace.untraced_wall_s": (untraced_wall, "s"),
        "trace.overhead_s": (wall - untraced_wall, "s"),
        "trace.self_sum_s": (self_sum, "s"),
        "trace.accounted_frac": (self_sum / wall if wall else 0.0, "frac"),
    }


def check_traced(traced: list, wrapped: list, gate) -> None:
    """Tracing saw every event the schedule recorded, identically each unit."""
    for rec in traced:
        names = rec["spans"]["names"]
        for name, count in (("engine.compress_event", rec["counts"].get("events", 0)),
                            ("paged.compact", rec["compactions"])):
            if name in wrapped and count and names.get(name, {}).get("calls", 0) != count:
                raise gate.GateError(f"{name} traced {names.get(name, {}).get('calls', 0)} "
                                     f"calls for {count} events")
    for name in ("mass.aggregate_usage", "engine.compress_event", "paged.compact"):
        counts = {rec["spans"]["names"].get(name, {}).get("calls", 0) for rec in traced}
        if len(counts) > 1:
            raise gate.GateError(f"{name} call count differs between traced units: {counts}")


def measure(workload: str, seed: int, seconds: float, trace: bool, size: str = "full") -> dict:
    """Build, run, check and summarize one workload; raises GateError."""
    import gate
    import workloads

    checked_before = gate.checked
    setup_s = 0.0 if trace else setup_seconds(workload, seed, size)
    (OUT / "tmp").mkdir(parents=True, exist_ok=True)
    wl = workloads.build(workload, seed, OUT / "tmp", size)
    plain, traced, tracer = run_units(wl, seconds, trace)
    # end_to_end reads the memory peak, so it comes before the memory-heavy
    # checks a workload leaves out of its timed units
    metrics = per_layer(plain, traced) if trace else end_to_end(plain, setup_s)
    getattr(wl, "check_after_peak", lambda first: None)(plain[0])
    check_repeats(plain, gate)
    if trace:
        check_repeats(traced, gate)
        check_traced(traced, tracer.names, gate)
        tracer.write(OUT / f"spans_{workload}_seed{seed}.npz")
    import numpy

    return {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "env": {"python": platform.python_version(), "numpy": numpy.__version__,
                "nproc": os.cpu_count()},
        "shape": workloads.describe(workloads.SIZES[size][workload]),
        "units": {"untraced": len(plain), "traced": len(traced)},
        "attempted": gate.checked - checked_before,
        "metrics": metrics,
        "extras": extras(plain),
        "hashes": plain[0]["hashes"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", choices=("full", "tiny"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.setup_probe:
            print(setup_probe(args.workload, args.seed, args.setup_probe))
            return 0
        load_package()
    except NoSource as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    import gate

    try:
        report = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except gate.GateError as exc:
        print(f"perfbench: correctness gate failed: {exc}", file=sys.stderr)
        # the gate stops at the first violation, after gate.checked outputs
        print(json.dumps({"correct": False, "attempted": max(gate.checked, 1), "failed": 1,
                          "metrics": {}}))
        return 1
    print(f"# masskv benchmark: workload={report['workload']} seed={report['seed']} "
          f"trace={report['trace']} units={report['units']}")
    print("# env: " + " ".join(f"{k}={v}" for k, v in report["env"].items()))
    print("# shape: " + " ".join(f"{k}={v}" for k, v in report["shape"].items()))
    for section in ("metrics", "extras"):
        for name, (value, unit) in report[section].items():
            print(f"{name} = {value!r} {unit}")
    for name, digest in report["hashes"].items():
        print(f"sha256 {name} = {digest}")
    with open(OUT / f"result_{args.workload}_seed{args.seed}_trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    print(json.dumps({
        "correct": True,
        "attempted": report["attempted"],
        "failed": 0,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in report["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
