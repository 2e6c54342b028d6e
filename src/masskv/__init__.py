"""Mass-segmented KV-cache compression policies, paged-cache compaction, and
structural retention diagnostics, all runnable at desk scale on synthetic
attention workloads."""

from masskv.core import (
    CompressionConfig,
    ConfigError,
    ContractViolation,
    default_config,
)
from masskv.mass import (
    EmaCreditStore,
    UsageAccumulator,
    normalize_mass,
    smooth,
)
from masskv.segmentation import SegmentSet, cut_points, merge_short, segment, split_long
from masskv.allocation import (
    MustKeepSet,
    QuotaVector,
    compute_quotas,
    must_keep,
    reconcile_budget,
)
from masskv.scorers import (
    SCORERS,
    get_scorer,
    score_constant,
    score_expected_attention_proxy,
    score_key_diff,
    score_recent_attention,
)
from masskv.selector import (
    baseline_fixed_chunk,
    baseline_global_topk,
    baseline_streaming,
    select,
)
from masskv.engine import POLICIES, compress_event
from masskv.paged import BlockPool, BlockTable, compact, verify_compaction
from masskv.sim import RunTrace, ToyDecoder, WorkloadSpec, run_schedule
from masskv.diagnostics import (
    metric_retained_iou,
    metric_spatial_histogram,
    metric_wipeout_rate,
)

__version__ = "0.1.0"
