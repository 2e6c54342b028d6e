import importlib

import pytest

# Every function the benchmark's tracer (perfbench/tracing.py) wraps, at the
# name its caller looks it up by: a module global or a class attribute. The
# tracer skips a name it cannot find, so its span would silently read 0;
# deleting or renaming one of these must update the tracer too.
SPAN_TARGETS = [
    ("sim", "run_schedule"),
    ("sim.ToyDecoder", "project"),
    ("sim.ToyDecoder", "attention_rows"),
    ("sim", "trace_to_dict"),
    ("sim", "write_trace_json"),
    ("sim", "write_trace_csv"),
    ("sim", "compress_event"),
    ("mass.EmaCreditStore", "update_and_mix"),
    ("engine", "get_scorer"),
    ("engine", "smooth"),
    ("engine", "normalize_mass"),
    ("engine", "segment"),
    ("engine", "must_keep"),
    ("engine", "reconcile_budget"),
    ("engine", "compute_quotas"),
    ("engine", "select"),
    ("engine", "baseline_global_topk"),
    ("engine", "baseline_streaming"),
    ("engine", "baseline_fixed_chunk"),
    ("diagnostics", "metric_retained_iou"),
    ("diagnostics", "metric_wipeout_rate"),
    ("diagnostics", "metric_spatial_histogram"),
    ("paged", "compact"),
    ("paged.PagedRequest", "append"),
    ("paged.BlockPool", "allocate"),
    ("paged.BlockPool", "free"),
]


@pytest.mark.parametrize("owner,name", SPAN_TARGETS, ids=[f"{o}.{n}" for o, n in SPAN_TARGETS])
def test_every_benchmark_span_target_exists(owner, name):
    module, _, cls = owner.partition(".")
    obj = importlib.import_module(f"masskv.{module}")
    if cls:
        obj = getattr(obj, cls)
    # the tracer looks in the owner's own namespace, not an inherited one
    assert callable(vars(obj).get(name)), f"masskv.{owner} has no {name}"
