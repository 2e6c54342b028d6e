"""Spans for the traced benchmark run, recorded from outside the package.

``patched(tracer)`` replaces each public function of masskv at the name its
caller looks it up by (a module global or a class attribute) with a wrapper
that records one span per call, and restores every original on exit. No
source file of the package is changed. Spans stay in memory as flat int64
rows and are written out once, when the run ends.

A span row is (id, parent, name, req, event, t0_ns, t1_ns). ``parent`` is the
id of the enclosing span or -1; ``req`` is the schedule run or paged request
the benchmark was driving; ``event`` is the compression event (the
``compress_event`` call, or the paged ``compact`` call) the span belongs to,
or -1 outside one. A span's layer is the part of its name before the first
dot.
"""

from __future__ import annotations

import itertools
from array import array
from contextlib import contextmanager
from time import perf_counter_ns

import numpy as np

FIELDS = ("id", "parent", "name", "req", "event", "t0_ns", "t1_ns")
WIDTH = len(FIELDS)


class Tracer:
    """In-memory span store plus the request/event ids new spans carry."""

    def __init__(self):
        self.rows = array("q")
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._stack: list[int] = []
        self.req = -1
        self.event = -1
        self.gather_bytes = 0

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn):
        """``fn`` with one span recorded around every call."""
        nid = self._name_id(name)
        rows, stack = self.rows, self._stack

        def traced(*args, **kwargs):
            sid = len(rows) // WIDTH
            rows.extend((sid, stack[-1] if stack else -1, nid, self.req, self.event,
                         perf_counter_ns(), 0))
            stack.append(sid)
            try:
                return fn(*args, **kwargs)
            finally:
                rows[sid * WIDTH + 6] = perf_counter_ns()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def span_count(self) -> int:
        return len(self.rows) // WIDTH

    def table(self, first: int = 0) -> np.ndarray:
        """Spans from id ``first`` on, as an [n, 7] int64 array."""
        return np.frombuffer(self.rows, dtype=np.int64).reshape(-1, WIDTH)[first:].copy()

    def write(self, path) -> None:
        """Save every span: ``rows`` [n, 7] with columns ``fields``, and the
        span ``names`` that column 2 indexes. Load with ``np.load(path)``."""
        np.savez_compressed(path, rows=self.table(), fields=np.array(FIELDS),
                            names=np.array(self.names))


def summarize(tracer: Tracer, first: int = 0) -> dict:
    """Inclusive seconds, self seconds, call counts and per-call milliseconds
    for each span name, from span id ``first`` on.

    Self time is a span's duration minus the durations of its direct children,
    so the self times of all spans add up to the time covered by top-level
    spans.
    """
    t = tracer.table(first)
    out: dict = {"names": {}, "layer_self_s": {}, "self_sum_s": 0.0}
    if not len(t):
        return out
    dur = (t[:, 6] - t[:, 5]).astype(np.float64) * 1e-9
    parent = t[:, 1] - first
    child = parent >= 0
    child_sum = np.bincount(parent[child], weights=dur[child], minlength=len(t))
    self_s = dur - child_sum
    for nid, name in enumerate(tracer.names):
        sel = t[:, 2] == nid
        if not sel.any():
            continue
        layer = name.split(".", 1)[0]
        out["names"][name] = {
            "s": float(dur[sel].sum()),
            "self_s": float(self_s[sel].sum()),
            "calls": int(sel.sum()),
            "ms": dur[sel] * 1e3,
        }
        out["layer_self_s"][layer] = out["layer_self_s"].get(layer, 0.0) + float(self_s[sel].sum())
    out["self_sum_s"] = float(self_s.sum())
    return out


@contextmanager
def patched(tracer: Tracer):
    """Route every traced call through ``tracer`` for the duration of the block."""
    import masskv.diagnostics as diagnostics
    import masskv.engine as engine
    import masskv.mass as mass
    import masskv.paged as paged
    import masskv.scorers as scorers
    import masskv.sim as sim

    targets = [
        # sim: the benchmark's own calls, the decoder, and trace serialization
        (sim, "run_schedule", "sim.run_schedule"),
        (sim.ToyDecoder, "project", "sim.project"),
        (sim.ToyDecoder, "attention_rows", "sim.attention_rows"),
        (sim, "trace_to_dict", "sim.trace_to_dict"),
        (sim, "write_trace_json", "sim.write_trace_json"),
        (sim, "write_trace_csv", "sim.write_trace_csv"),
        # core, mass and selector stages that run_schedule calls itself
        (sim, "advance_ledger", "core.advance_ledger"),
        (sim, "UsageWindow", "mass.UsageWindow"),
        (mass.EmaCreditStore, "grow_to", "mass.ema"),
        (mass.EmaCreditStore, "update_and_mix", "mass.ema"),
        (mass.EmaCreditStore, "remap", "mass.ema"),
        # the stages of one event, as the engine looks them up
        (engine, "aggregate_usage", "mass.aggregate_usage"),
        (scorers, "aggregate_usage", "mass.aggregate_usage"),
        (engine, "smooth", "mass.smooth"),
        (engine, "normalize_mass", "mass.normalize_mass"),
        (engine, "segment", "segmentation.segment"),
        (engine, "must_keep", "allocation.must_keep"),
        (engine, "reconcile_budget", "allocation.reconcile_budget"),
        (engine, "compute_quotas", "allocation.compute_quotas"),
        (engine, "select", "selector.select"),
        (engine, "baseline_global_topk", "selector.baselines"),
        (engine, "baseline_streaming", "selector.baselines"),
        (engine, "baseline_fixed_chunk", "selector.baselines"),
        # diagnostics, looked up on the module by sim
        (diagnostics, "metric_retained_iou", "diagnostics.metric"),
        (diagnostics, "metric_wipeout_rate", "diagnostics.metric"),
        (diagnostics, "metric_spatial_histogram", "diagnostics.metric"),
        # paged: the benchmark's calls and the pool calls they make
        (paged, "compact", "paged.compact"),
        (paged.PagedRequest, "append", "paged.append"),
        (paged.BlockPool, "allocate", "paged.allocate"),
        (paged.BlockPool, "free", "paged.free"),
    ]
    saved = []

    def replace(obj, attr, make):
        # A function a later refactor removes is skipped; its spans read 0.
        original = vars(obj).get(attr)
        if original is not None:
            saved.append((obj, attr, original))
            setattr(obj, attr, make(original))

    def numbered(compress_event):
        traced = tracer.wrap("engine.compress_event", compress_event)
        events = itertools.count()

        def wrapper(*args, **kwargs):
            tracer.event = next(events)
            try:
                return traced(*args, **kwargs)
            finally:
                tracer.event = -1

        return wrapper

    def counted(gather_cache):
        traced = tracer.wrap("selector.gather_cache", gather_cache)

        def wrapper(*args, **kwargs):
            new_k, new_v = traced(*args, **kwargs)
            tracer.gather_bytes += new_k.nbytes + new_v.nbytes
            return new_k, new_v

        return wrapper

    try:
        for obj, attr, name in targets:
            replace(obj, attr, lambda fn, name=name: tracer.wrap(name, fn))
        replace(sim, "compress_event", numbered)
        replace(sim, "gather_cache", counted)
        replace(engine, "get_scorer",
                lambda get: lambda name: tracer.wrap("scorers.score", get(name)))
        yield tracer
    finally:
        for obj, attr, original in reversed(saved):
            setattr(obj, attr, original)
