"""Toy-attention decoding harness.

Streams synthetic tokens through a single-layer decoder, fires a compression
event every ``interval`` generated tokens, and records keep sets (as original
token ids, too), segment boundaries, quotas, and mass vectors into
a RunTrace for the structural diagnostics. Attention rows come either from
the decoder's own softmax attention or from a synthetic workload generator
that shapes where attention mass sits. A run keeps no values, which nothing
reads, and keeps keys, projected once per interval, only for the decoder's
own attention or a scorer in ``READS_KEYS``; a policy outside ``READS_ROWS``
reads no rows and no keys, so its run builds neither. A row is built only if
an event reads it: the rows of its last ``window`` steps since the previous
event. Every other row is skipped; a workload generator advances its random
stream past a skipped row, so the rows that are built have the same bits as
when every row was. In ToyDecoder mode an event's rows are scored one
chunk of at most ``QUERY_CHUNK`` queries at a time. Each built row goes
straight into the event's ``UsageAccumulator``; no run holds a window of rows.
"""

from __future__ import annotations

import dataclasses
import json
import time
from dataclasses import dataclass, field

import numpy as np

from masskv import diagnostics
from masskv.core import CompressionConfig, ConfigError, check_name, is_value, shown
from masskv.engine import POLICIES, READS_ROWS, compress_event
from masskv.mass import EmaCreditStore, UsageAccumulator
from masskv.paged import attention_weights
from masskv.scorers import READS_KEYS, SCORERS

SCHEMA_VERSION = 1

WORKLOADS = ("uniform", "heavy_hitter", "drifting_focus", "low_region_adversarial")

# the most queries a ToyDecoder run scores in one attention_rows call
QUERY_CHUNK = 16


def _count(v) -> bool:
    return is_value(v, "int") and v >= 0


class _Default(int):
    """A dimension left at its default: a ToyDecoder run takes its decoder's."""


def _check_dims(kv_heads, head_dim) -> None:
    for name, v in (("kv_heads", kv_heads), ("head_dim", head_dim)):
        if not (_count(v) and v >= 1):
            raise ConfigError(f"{name} must be an integer >= 1, got {shown(v)}")


# every workload parameter: the workload that reads it (None: all), its
# default, whose type is the kind of value it takes and casts a given value,
# and the values it may take. A drift of 1 wraps the cache once per step, and
# a suppress above 1 would boost the region.
WORKLOAD_PARAMS = {
    "noise": (None, 0.05, "a number in [0, 1)", lambda v: 0 <= v < 1),
    "hitter_count": ("heavy_hitter", 4, "an integer >= 0", lambda v: v >= 0),
    "hitter_weight": ("heavy_hitter", 0.5, "a number in [0, 1)", lambda v: 0 <= v < 1),
    "width": ("drifting_focus", 0.05, "a number > 0", lambda v: v > 0),
    "drift": ("drifting_focus", 0.002, "a number in [-1, 1]", lambda v: -1 <= v <= 1),
    "phase": ("drifting_focus", 0.15, "a number", lambda v: True),
    "floor": ("drifting_focus", 0.25, "a number in [0, 1]", lambda v: 0 <= v <= 1),
    "region_start": ("low_region_adversarial", 32, "an integer >= 0", lambda v: v >= 0),
    "region_len": ("low_region_adversarial", 64, "an integer >= 0", lambda v: v >= 0),
    "suppress": ("low_region_adversarial", 0.05, "a number in [0, 1]", lambda v: 0 <= v <= 1),
}


def _read_params(name: str, given: dict) -> dict:
    """Every parameter workload ``name`` reads: its ``given`` value or its
    default, cast to the default's type (a float32 drift would make float32 rows)."""
    return {key: type(default)(given.get(key, default))
            for key, (reader, default, _, _) in WORKLOAD_PARAMS.items() if reader in (None, name)}


class ToyDecoder:
    """Single-layer decoder with fixed random projections and softmax attention.

    Deterministic given the seed; stands in for a backbone so the policies
    have real key rows to gather and live attention rows to observe.
    """

    def __init__(self, seed: int, kv_heads: int = 2, head_dim: int = 16):
        if not _count(seed):
            raise ConfigError(f"decoder seed must be an integer >= 0, got {shown(seed)}")
        _check_dims(kv_heads, head_dim)
        self.seed = seed
        self.kv_heads = kv_heads
        self.head_dim = head_dim
        rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0xD0DE]))
        scale = 1.0 / np.sqrt(head_dim)
        shape = (kv_heads, head_dim, head_dim)
        self.w_q = rng.normal(size=shape) * scale
        self.w_k = rng.normal(size=shape) * scale

    def project(self, w: np.ndarray, xs: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Per-head projections [heads, n, head_dim] of n input embeddings
        ``xs`` [n, head_dim] by one weight stack (``w_q`` or ``w_k``),
        written into ``out`` if given. Each vector has the bits of projecting
        its embedding alone."""
        return np.einsum("hij,sj->hsi", w, xs, out=out)

    def attention_rows(self, q: np.ndarray, keys: np.ndarray) -> np.ndarray:
        """Causal softmax attention, per head, of a chunk of queries
        [heads, n, head_dim], the live cache's last n tokens, over its keys
        [heads, T, head_dim]: [heads, n, T] rows, each 0 past its prefix."""
        return attention_weights(keys, q)


@dataclass
class WorkloadSpec:
    """Synthetic attention-shape generator plus run length and seed."""

    name: str
    steps: int
    seed: int = 0
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        check_name("workload", self.name, WORKLOADS)
        if not (_count(self.steps) and self.steps >= 1):
            raise ConfigError(f"workload steps must be an integer >= 1, got {shown(self.steps)}")
        if not _count(self.seed):
            raise ConfigError(f"workload seed must be an integer >= 0, got {shown(self.seed)}")
        if not isinstance(self.params, dict):
            raise ConfigError("workload params must be a mapping of names to numbers")
        unknown = set(self.params) - set(_read_params(self.name, {}))
        if unknown:
            names = ", ".join(sorted(map(shown, unknown)))
            raise ConfigError(f"workload {self.name!r} does not read params {names}")
        for key, value in self.params.items():
            _, default, rule, ok = WORKLOAD_PARAMS[key]
            if not (is_value(value, type(default).__name__) and ok(value)):
                raise ConfigError(f"workload param {key}={shown(value)} must be {rule}")
        if self.params.get("hitter_count", 0) > self.steps:
            raise ConfigError(f"workload param hitter_count must be <= steps ({self.steps})")
        # suppressing from position 0 to nothing zeroes every row of <= region_len tokens
        p = _read_params(self.name, self.params)
        if p.get("suppress") == 0 and p["region_start"] == 0 and p["region_len"] >= 1:
            raise ConfigError("workload params suppress=0 and region_start=0 need region_len=0")


def _jitter(base: np.ndarray, heads: int, rng, amp: float) -> np.ndarray:
    """Per-head multiplicative noise, bounded so score orderings with ratio
    gaps above (1+amp)/(1-amp) are preserved; rows renormalized."""
    # in place on the draw, in the order of base * (1 + amp * u) / sum, so
    # the rows keep their bits without four [heads, T] temporaries; the draw
    # is rng.uniform(-1.0, 1.0), which is -1 + 2 * random() from the same
    # 64-bit values, and 2 * u is exact, so u * 2 - 1 has its bits
    rows = rng.random(size=(heads, base.size))
    rows *= 2.0
    rows -= 1.0
    rows *= amp
    rows += 1.0
    rows *= base
    rows /= rows.sum(axis=-1, keepdims=True)
    return rows


class _WorkloadRows:
    """Stateful per-step attention-row generator for one workload."""

    def __init__(self, spec: WorkloadSpec, heads: int):
        self.name = spec.name
        self.heads = heads
        self.rng = np.random.default_rng(np.random.SeedSequence([int(spec.seed), 0xA77E]))
        self.params = _read_params(spec.name, spec.params)
        if spec.name == "heavy_hitter":
            self.hitter_fracs = self.rng.uniform(0.05, 0.85, size=self.params["hitter_count"])

    def rows(self, step: int, total: int) -> np.ndarray:
        name, p = self.name, self.params
        if name == "uniform":
            base = np.ones(total)
        elif name == "heavy_hitter":
            base = np.ones(total)
            pos = np.minimum((self.hitter_fracs * total).astype(np.int64), total - 1)
            boost = p["hitter_weight"] / (1.0 - p["hitter_weight"]) * total / max(len(pos), 1)
            base[pos] += boost
        elif name == "drifting_focus":
            center = ((p["phase"] + p["drift"] * step) % 1.0) * max(total - 1, 1)
            rel = np.arange(total) - center
            sigma = max(p["width"] * total, 1.0)
            bump = np.exp(-0.5 * (rel / sigma) ** 2)
            base = p["floor"] / total + (1.0 - p["floor"]) * bump / bump.sum()
        else:  # low_region_adversarial
            base = np.ones(total)
            lo = min(p["region_start"], total)
            hi = min(p["region_start"] + p["region_len"], total)
            base[lo:hi] *= p["suppress"]
        base = base / base.sum()
        return _jitter(base, self.heads, self.rng, p["noise"])

    def skip(self, total: int, count: int) -> None:
        """Leave the generator where ``count`` calls of ``rows``, over
        ``total``, ``total + 1``, ... tokens, would: a row draws one 64-bit
        value per uniform double, ``heads * total`` of them, which ``advance``
        takes only as a Python int."""
        tokens = count * total + count * (count - 1) // 2
        self.rng.bit_generator.advance(int(self.heads * tokens))


@dataclass
class EventRecord:
    """Everything one compression event contributed to the trace."""

    index: int
    step: int                 # tokens generated when the event fired
    cache_len: int            # pre-compression cache length
    keep_positions: np.ndarray  # [heads, k], pre-compression coordinates
    kept_ids: np.ndarray        # [heads, k], original token ids: a token's id is its step
    segments: list | None       # per head: boundaries [n_seg + 1]; AMS only
    quotas: list | None         # per head: quotas [n_seg]; AMS only
    mass: np.ndarray | None     # [heads, cache_len] mass; AMS only
    counters: dict              # always {}; schema 1 keeps the key
    wall_time: float            # seconds compress_event took


@dataclass
class RunTrace:
    """One schedule run: config echo, per-event records, metric summaries."""

    policy: str
    scorer: str
    workload: str | None
    workload_params: dict
    seed: int
    steps: int
    config: CompressionConfig
    kv_heads: int
    head_dim: int
    events: list = field(default_factory=list)
    summaries: dict = field(default_factory=dict)
    schema_version: int = SCHEMA_VERSION


def run_schedule(
    source,
    policy: str,
    cfg: CompressionConfig,
    steps: int | None = None,
    scorer: str = "expected",
    kv_heads: int = _Default(2),
    head_dim: int = _Default(16),
) -> RunTrace:
    """Decode ``steps`` tokens, compressing to ``t_keep`` every ``interval``.

    ``source`` is a WorkloadSpec (synthetic attention rows over a toy KV
    stream) or a ToyDecoder (its own attention rows). Events fire only when
    the cache actually exceeds the budget. The module docstring says which
    rows, queries and keys a run builds; a workload run with a scorer
    outside ``READS_KEYS`` builds no decoder and draws no input embeddings,
    and in ToyDecoder mode only the queries of built rows are projected.
    A ToyDecoder run has its decoder's ``kv_heads`` and ``head_dim``; a
    given value that differs from them is a ConfigError.
    """
    # checked here, as a run with no event would never look either name up
    check_name("policy", policy, POLICIES)
    check_name("scorer", scorer, SCORERS)
    t_keep = cfg.require_t_keep()
    reads_rows = policy in READS_ROWS
    decoder = row_gen = None
    if isinstance(source, WorkloadSpec):
        workload = source
        steps = steps if steps is not None else workload.steps
        seed = workload.seed
        _check_dims(kv_heads, head_dim)
        heads, dim = int(kv_heads), int(head_dim)
        if reads_rows:
            row_gen = _WorkloadRows(workload, heads)
            if scorer in READS_KEYS:
                decoder = ToyDecoder(seed, kv_heads=heads, head_dim=dim)
    elif isinstance(source, ToyDecoder):
        workload = None
        seed = source.seed
        heads, dim = source.kv_heads, source.head_dim
        for name, given, own in (("kv_heads", kv_heads, heads), ("head_dim", head_dim, dim)):
            if not isinstance(given, _Default) and given != own:
                raise ConfigError(f"{name}={shown(given)} differs from the decoder's {own}")
        if reads_rows:
            decoder = source
    else:
        raise ConfigError(f"source must be a WorkloadSpec or ToyDecoder, got {type(source)}")
    if not _count(steps):  # None too: a ToyDecoder run has no default
        raise ConfigError(f"steps must be an integer >= 0, got {shown(steps)}")
    interval = cfg.interval
    # an interval starts with t_cur <= t_keep, so its tokens always fit, and
    # the cache never holds more than steps tokens
    capacity = min(t_keep + interval, steps)
    ids = np.empty((heads, capacity), dtype=np.int64)  # the step each token was born at
    per_token = [ids]  # every cache-aligned array: each event gathers them all
    keys = credit = None
    if decoder is not None:
        rng_in = np.random.default_rng(np.random.SeedSequence([int(seed), 0x117]))
        keys = np.zeros((heads, capacity, dim))
        per_token.append(keys)
    if policy == "ams" and cfg.ema_on:
        credit = EmaCreditStore(cfg.ema_decay, cfg.mass_mix, heads, capacity)
        per_token.append(credit.credit)
    t_cur = 0
    usage = UsageAccumulator()

    trace = RunTrace(
        policy=policy,
        scorer=scorer,
        workload=workload.name if workload else None,
        workload_params=dict(workload.params) if workload else {},
        seed=int(seed),
        steps=int(steps),
        config=cfg,
        kv_heads=heads,
        head_dim=dim,
    )

    for start in range(0, steps, interval):
        n = min(interval, steps - start)
        ids[:, t_cur : t_cur + n] = np.arange(start, start + n)
        if credit is not None:  # a token is born with no credit
            credit.credit[:, t_cur : t_cur + n] = 0.0
        if decoder is not None:
            xs = rng_in.normal(size=(n, dim))
            decoder.project(decoder.w_k, xs, out=keys[:, t_cur : t_cur + n])
        # The next event fires at the first interval end (step e, 0-based)
        # whose cache exceeds t_keep; it reads the rows of steps > e - window.
        e = (start + max(0, t_keep - t_cur)) // interval * interval + interval - 1
        first = min(n, max(0, e - cfg.window + 1 - start)) if e < steps and reads_rows else n
        if row_gen is not None:
            row_gen.skip(t_cur + 1, first)
            for i in range(first, n):
                usage.add(row_gen.rows(start + i, t_cur + i + 1))
        elif first < n:
            qs = decoder.project(decoder.w_q, xs[first:])
            for c in range(first, n, QUERY_CHUNK):
                m = min(QUERY_CHUNK, n - c)
                rows = decoder.attention_rows(qs[:, c - first : c - first + m],
                                              keys[:, : t_cur + c + m])
                for j in range(m):
                    row = rows[:, j, : t_cur + c + j + 1]
                    usage.add(row if j < m - 1 else row.copy())
                # usage keeps its newest row, a copy, so no view pins the chunk
                del rows, row
        t_cur += n

        if start + n - 1 != e:
            continue

        t0 = time.perf_counter()
        keep, segs, quotas, mass = compress_event(
            policy, heads, t_cur, usage, None if keys is None else keys[:, :t_cur], cfg,
            scorer=scorer, credit=credit,
        )
        wall_time = time.perf_counter() - t0
        usage = UsageAccumulator()  # frees the spent triangle before the gather and record
        kept = keep.shape[1]
        for a in per_token:  # a [heads, kept] index carries the keys' head_dim axis along
            a[:, :kept] = a[np.arange(heads)[:, None], keep]
        trace.events.append(
            EventRecord(
                index=len(trace.events),
                step=start + n,
                cache_len=t_cur,
                keep_positions=keep,
                kept_ids=ids[:, :kept].copy(),
                segments=None if segs is None else segs.per_head(),
                quotas=None if segs is None else np.split(quotas, segs.offsets[1:-1]),
                mass=mass,
                counters={},
                wall_time=wall_time,
            )
        )
        t_cur = kept

    _summarize(trace)
    return trace


def _summarize(trace: RunTrace) -> None:
    iou = diagnostics.metric_retained_iou(trace)
    trace.summaries = {
        "events": len(trace.events),
        "mean_retained_iou": float(np.mean(iou)) if iou.size else None,
        "wipeout_rate": diagnostics.metric_wipeout_rate(trace) if trace.events else None,
        "spatial_histogram": (
            diagnostics.metric_spatial_histogram(trace).tolist() if trace.events else None
        ),
    }


def _plain(value):
    """``value`` with every dataclass as a dict of its fields, and every array
    and NumPy scalar as Python lists and numbers, all the way down."""
    if isinstance(value, (np.ndarray, np.generic)):
        return value.tolist()
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_plain(v) for v in value]
    if dataclasses.is_dataclass(value):
        return {f.name: _plain(getattr(value, f.name)) for f in dataclasses.fields(value)}
    return value


def trace_to_dict(trace: RunTrace, include_timing: bool = False) -> dict:
    """JSON-ready dict of every RunTrace and EventRecord field, plus schema 1's
    ``id_watermark`` (the event's step). Timing is excluded by default so that
    repeated runs with the same (seed, config, policy) serialize byte-identically."""
    doc = _plain(trace)
    for ev in doc["events"]:
        ev["id_watermark"] = ev["step"]
        if not include_timing:
            del ev["wall_time"]
    return doc


def write_trace_json(trace: RunTrace, path, include_timing: bool = False) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(trace_to_dict(trace, include_timing), fh, sort_keys=True, indent=1)
        fh.write("\n")


def write_trace_csv(trace: RunTrace, path) -> None:
    """Flat ``event,metric,value`` rows; run-level summaries use event=-1."""
    lines = ["event,metric,value"]
    iou = diagnostics.metric_retained_iou(trace)
    for ev in trace.events:
        lines.append(f"{ev.index},cache_len,{ev.cache_len}")
        lines.append(f"{ev.index},kept,{ev.keep_positions.shape[1]}")
        if ev.segments is not None:
            mean_segs = float(np.mean([len(b) - 1 for b in ev.segments]))
            lines.append(f"{ev.index},segments_mean,{mean_segs!r}")
        if ev.index >= 1:
            lines.append(f"{ev.index},retained_iou,{float(iou[ev.index - 1])!r}")
    for key in ("mean_retained_iou", "wipeout_rate"):
        value = trace.summaries.get(key)
        if value is not None:
            lines.append(f"-1,{key},{value!r}")
    hist = trace.summaries.get("spatial_histogram")
    if hist:
        for i, v in enumerate(hist):
            lines.append(f"-1,spatial_bin_{i},{v!r}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
