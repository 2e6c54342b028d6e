"""The benchmark's workloads: sweep, longctx and paged_churn.

Each workload is built once from the seed, so its inputs exist before any
timing starts. It then runs as identical units of work: every unit replays
the same inputs, so every count and every trace hash must repeat exactly
from unit to unit. Only calls into the package are timed. The correctness
gate runs between those calls, never inside them. All three workloads are
closed-loop, single process and single thread. No unit keeps a schedule
trace past the checks of its own run, so the process holds at most one
trace at a time, as ``masskv run --plan`` does. Checks that need much memory
live in a workload's ``check_after_peak``, which the benchmark runs once the
memory peak is read.

A unit returns a record (see ``_record``); the benchmark turns records into
metrics.
"""

from __future__ import annotations

import hashlib
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

import gate
import masskv.paged as paged
import masskv.sim as sim
from masskv.core import default_config


def _record() -> dict:
    return {
        "wall_s": 0.0,           # timed calls into the package, trace writes included
        "decode_s": 0.0,         # timed calls that produce tokens
        "tokens": 0,             # tokens decoded and not lost to preemption
        "event_ms": [],          # one latency per compression event
        "counts": {},            # must repeat exactly from unit to unit
        "hashes": {},            # sha256 of AMS trace JSON; must repeat too
        "trace_write_s": 0.0,
        "trace_json_bytes": 0,
        "trace_csv_bytes": 0,
        "retained_iou": [],      # AMS runs only
        "wipeout_rate": [],
        "segments": [],          # segments per head, per AMS event
        "ops": 0,
        "failed_ops": 0,
        "compactions": 0,
        "compactions_ok": 0,
        "preemptions": 0,
        "occupancy_mean": 0.0,
        "occupancy_peak": 0.0,
        "copy_bytes": 0,
    }


def _ams_quality(rec: dict, trace) -> None:
    rec["retained_iou"].append(trace.summaries["mean_retained_iou"])
    rec["wipeout_rate"].append(trace.summaries["wipeout_rate"])
    rec["segments"] += [len(b) - 1 for ev in trace.events for b in ev.segments]


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _check_run(rec: dict, trace) -> None:
    """Gate one schedule run's keep sets and record its event latencies."""
    gate.check_trace(trace)
    rec["event_ms"] += [ev.wall_time * 1e3 for ev in trace.events]


@dataclass(frozen=True)
class SweepShape:
    steps: int = 4096
    kv_heads: int = 8
    head_dim: int = 64
    t_keep: int = 1024
    interval: int = 512


# (trace name, policy, scorer, decoder mode); the last run drives a ToyDecoder
SWEEP_RUNS = (
    ("ams_expected", "ams", "expected", False),
    ("global_topk_expected", "global_topk", "expected", False),
    ("streaming", "streaming", "expected", False),
    ("fixed_chunk_expected", "fixed_chunk", "expected", False),
    ("ams_toy", "ams", "expected", True),
)


class Sweep:
    """``drifting_focus`` once per policy plus one AMS run in ToyDecoder mode,
    each writing its JSON + CSV trace, as ``masskv run --plan`` does."""

    def __init__(self, seed: int, shape: SweepShape, scratch: Path):
        self.seed = seed
        self.shape = shape
        self.scratch = scratch
        self.cfg = default_config().replace(t_keep=shape.t_keep, interval=shape.interval)
        self.spec = sim.WorkloadSpec("drifting_focus", shape.steps, seed=seed)
        self.decoder = sim.ToyDecoder(seed, kv_heads=shape.kv_heads, head_dim=shape.head_dim)

    def unit(self, tracer=None) -> dict:
        s = self.shape
        rec = _record()
        out = Path(tempfile.mkdtemp(prefix="sweep-", dir=self.scratch))
        try:
            for req, (name, policy, scorer, toy) in enumerate(SWEEP_RUNS):
                if tracer is not None:
                    tracer.req = req
                source = self.decoder if toy else self.spec
                stem = out / f"{name}_seed{self.seed}"
                t0 = perf_counter()
                trace = sim.run_schedule(
                    source, policy, self.cfg, steps=s.steps, scorer=scorer,
                    kv_heads=s.kv_heads, head_dim=s.head_dim,
                )
                t1 = perf_counter()
                sim.write_trace_json(trace, stem.with_suffix(".json"))
                sim.write_trace_csv(trace, stem.with_suffix(".csv"))
                t2 = perf_counter()
                rec["decode_s"] += t1 - t0
                rec["trace_write_s"] += t2 - t1
                rec["tokens"] += s.steps
                _check_run(rec, trace)
                rec["trace_json_bytes"] += stem.with_suffix(".json").stat().st_size
                rec["trace_csv_bytes"] += stem.with_suffix(".csv").stat().st_size
                if policy == "ams":
                    rec["hashes"][name] = _sha256(stem.with_suffix(".json"))
                    _ams_quality(rec, trace)
        finally:
            shutil.rmtree(out)
        rec["wall_s"] = rec["decode_s"] + rec["trace_write_s"]
        rec["counts"] = {
            "events": len(rec["event_ms"]),
            "trace_json_bytes": rec["trace_json_bytes"],
            "trace_csv_bytes": rec["trace_csv_bytes"],
        }
        return rec


@dataclass(frozen=True)
class LongCtxShape:
    events: int = 32
    kv_heads: int = 4
    head_dim: int = 64
    t_keep: int = 4096
    interval: int = 128   # also the usage window

    @property
    def steps(self) -> int:
        # the first event fires one interval after the cache passes t_keep
        return self.t_keep + self.events * self.interval


class LongCtx:
    """``heavy_hitter`` under AMS with the ``expected`` scorer: a long cache
    and an event every ``interval`` tokens."""

    def __init__(self, seed: int, shape: LongCtxShape, scratch: Path):
        self.seed = seed
        self.shape = shape
        self.scratch = scratch
        self.cfg = default_config().replace(
            t_keep=shape.t_keep, interval=shape.interval, window=shape.interval
        )
        self.spec = sim.WorkloadSpec("heavy_hitter", shape.steps, seed=seed)

    def _run(self):
        s = self.shape
        return sim.run_schedule(
            self.spec, "ams", self.cfg, scorer="expected",
            kv_heads=s.kv_heads, head_dim=s.head_dim,
        )

    def unit(self, tracer=None) -> dict:
        rec = _record()
        if tracer is not None:
            tracer.req = 0
        t0 = perf_counter()
        trace = self._run()
        rec["decode_s"] = rec["wall_s"] = perf_counter() - t0
        rec["tokens"] = self.shape.steps
        _check_run(rec, trace)
        _ams_quality(rec, trace)
        rec["counts"] = {"events": len(rec["event_ms"])}
        return rec

    def _trace_hash(self) -> str:
        path = Path(tempfile.mkdtemp(prefix="longctx-", dir=self.scratch)) / "ams.json"
        try:
            sim.write_trace_json(self._run(), path)
            return _sha256(path)
        finally:
            shutil.rmtree(path.parent)

    def check_after_peak(self, first: dict) -> None:
        """Serialize the traces of two more runs; they must be byte-identical.
        The hash goes into ``first``, a timed unit's record.

        Serializing this trace takes about half a unit's time and holds a
        second copy of it in memory, so timed units skip it.
        """
        digest = self._trace_hash()
        if self._trace_hash() != digest:
            raise gate.GateError("the AMS trace is not byte-identical across runs")
        first["hashes"]["ams_longctx"] = digest


# The pool holds this share of the summed peak demand, so it fills.
POOL_FRAC = 0.9


@dataclass(frozen=True)
class PagedShape:
    requests: int = 8
    block_size: int = 16
    kv_heads: int = 8
    head_dim: int = 64
    t_keep: int = 1024
    slack: int = 128          # a request compacts once it holds t_keep + slack tokens
    turns: int = 4096         # turns per unit; each request appends once per turn
    keep_bank: int = 64       # distinct pre-generated keep sets, used in turn
    token_bank: int = 1024    # distinct pre-generated token KV rows

    @property
    def num_blocks(self) -> int:
        """``POOL_FRAC`` of the blocks for every request at its peak length
        plus one compaction's fresh blocks."""
        peak = -(-(self.t_keep + self.slack) // self.block_size)
        fresh = -(-self.t_keep // self.block_size)
        return int(POOL_FRAC * (self.requests * peak + fresh))


class PagedChurn:
    """Requests sharing one BlockPool take turns appending a token each and
    compact when they reach ``t_keep + slack`` tokens. The pool holds
    ``POOL_FRAC`` of the demand of every request at its peak length plus one
    compaction's fresh blocks, so the pool fills: a request whose append or
    compaction finds it full is preempted (blocks freed, restart at length 0)
    and the tokens it had decoded in the unit are lost."""

    def __init__(self, seed: int, shape: PagedShape, scratch: Path):
        s = shape
        self.seed = seed
        self.shape = s
        self.pool = paged.BlockPool(s.num_blocks, s.block_size, s.kv_heads, s.head_dim)
        rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0x9A6E]))
        self.keys = rng.normal(size=(s.token_bank, s.kv_heads, s.head_dim))
        self.values = rng.normal(size=(s.token_bank, s.kv_heads, s.head_dim))
        span = s.t_keep + s.slack
        # sorted, head-distinct keep sets over the pre-compaction cache
        self.keeps = np.sort(
            rng.random((s.keep_bank, s.kv_heads, span)).argsort(axis=-1)[..., : s.t_keep],
            axis=-1,
        )
        self.starts = [s.t_keep + i * (s.slack // s.requests) for i in range(s.requests)]
        self.requests: list = []

    def _token(self, r: int, req) -> tuple[np.ndarray, np.ndarray]:
        i = (r * 257 + req.decode_pos) % self.shape.token_bank
        return self.keys[i], self.values[i]

    def _tables(self) -> list:
        return [req.table for req in self.requests]

    def prepare(self) -> None:
        """Return every block, then prefill each request to its staggered start.

        Runs before each unit and outside tracing; the prefill is not timed."""
        for req in self.requests:
            self.pool.free(req.table.blocks)
        self.requests = [paged.PagedRequest(self.pool) for _ in self.starts]
        for r, (req, length) in enumerate(zip(self.requests, self.starts)):
            for _ in range(length):
                req.append(*self._token(r, req))
        gate.check_conservation(self.pool, self._tables())
        gate.check_disjoint(self._tables())

    def unit(self, tracer=None, verify: bool = False) -> dict:
        """One unit of turns. With ``verify``, every compaction is also checked
        against a dense gather, which allocates a request's whole cache twice;
        timed units skip that and ``check_after_peak`` runs it."""
        s = self.shape
        pool, reqs = self.pool, self.requests
        rec = _record()
        query_rng = np.random.default_rng(np.random.SeedSequence([int(self.seed), 0x5E1F]))
        trigger = s.t_keep + s.slack
        fresh = [0] * len(reqs)      # tokens each request decoded in this unit
        appended = lost = 0
        occ_sum = occ_peak = 0

        def preempt(r: int) -> None:
            nonlocal lost
            t0 = perf_counter()
            pool.free(reqs[r].table.blocks)
            rec["wall_s"] += perf_counter() - t0
            rec["ops"] += 1
            rec["preemptions"] += 1
            lost += fresh[r]
            fresh[r] = 0
            reqs[r] = paged.PagedRequest(pool)
            gate.check_conservation(pool, self._tables())

        for _ in range(s.turns):
            for r in range(len(reqs)):
                req = reqs[r]
                k_vec, v_vec = self._token(r, req)
                if tracer is not None:
                    tracer.req = r
                t0 = perf_counter()
                try:
                    req.append(k_vec, v_vec)
                    ok = True
                except paged.AllocationError:
                    ok = False
                rec["wall_s"] += perf_counter() - t0
                rec["ops"] += 1
                if not ok:
                    rec["failed_ops"] += 1
                    preempt(r)
                else:
                    fresh[r] += 1
                    appended += 1
                    gate.check_conservation(pool, self._tables())
                if ok and req.table.logical_len >= trigger:
                    keep = self.keeps[rec["compactions"] % s.keep_bank]
                    if verify:
                        dense_k, dense_v = req.dense_view()
                    if tracer is not None:
                        tracer.event = rec["compactions"]
                    rec["compactions"] += 1
                    t0 = perf_counter()
                    try:
                        table = paged.compact(pool, req.table, keep)
                        ok = True
                    except paged.AllocationError:
                        ok = False
                    dt = perf_counter() - t0
                    if tracer is not None:
                        tracer.event = -1
                    rec["wall_s"] += dt
                    rec["ops"] += 1
                    if not ok:
                        rec["failed_ops"] += 1
                        preempt(r)
                    else:
                        req.table = table
                        rec["event_ms"].append(dt * 1e3)
                        rec["compactions_ok"] += 1
                        rec["copy_bytes"] += 2 * keep.size * s.head_dim * pool.keys.itemsize
                        gate.check_length(table, s.t_keep)
                        gate.check_conservation(pool, self._tables())
                        gate.check_disjoint(self._tables())
                        if verify:
                            query = query_rng.normal(size=(s.kv_heads, s.head_dim))
                            gate.check_compaction(pool, table, dense_k, dense_v, keep, query)
                used = pool.num_blocks - pool.num_free
                occ_sum += used
                occ_peak = max(occ_peak, used)
        rec["decode_s"] = rec["wall_s"]
        rec["tokens"] = appended - lost
        rec["occupancy_mean"] = occ_sum / (s.turns * len(reqs)) / pool.num_blocks
        rec["occupancy_peak"] = occ_peak / pool.num_blocks
        rec["counts"] = {
            key: rec[key]
            for key in ("ops", "failed_ops", "compactions", "compactions_ok", "preemptions")
        }
        rec["counts"].update(appended=appended, lost=lost)
        return rec

    def check_after_peak(self, first: dict) -> None:
        """Replay one unit with every compaction verified; it must repeat the
        counts of ``first``, a timed unit."""
        self.prepare()
        counts = self.unit(verify=True)["counts"]
        if any(first["counts"][k] != v for k, v in counts.items()):
            raise gate.GateError(f"the verified unit's counts {counts} differ from "
                                 f"the timed units' {first['counts']}")


WORKLOADS = {"sweep": Sweep, "longctx": LongCtx, "paged_churn": PagedChurn}

FULL = {"sweep": SweepShape(), "longctx": LongCtxShape(), "paged_churn": PagedShape()}

# Small enough for the smoke test to run every workload in a few seconds.
TINY = {
    "sweep": SweepShape(steps=96, kv_heads=2, head_dim=8, t_keep=32, interval=16),
    "longctx": LongCtxShape(events=4, kv_heads=2, head_dim=8, t_keep=64, interval=16),
    "paged_churn": PagedShape(
        requests=4, block_size=4, kv_heads=2, head_dim=8, t_keep=32, slack=8,
        turns=256, keep_bank=8, token_bank=64,
    ),
}

SIZES = {"full": FULL, "tiny": TINY}


def describe(shape) -> dict:
    """A shape's fields plus its derived sizes (its properties)."""
    derived = [k for k, v in vars(type(shape)).items() if isinstance(v, property)]
    return {**vars(shape), **{k: getattr(shape, k) for k in derived}}


def build(name: str, seed: int, scratch: Path, size: str = "full"):
    return WORKLOADS[name](seed, SIZES[size][name], scratch)
