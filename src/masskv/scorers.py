"""Plug-and-play token-importance scorers.

Each scorer returns one real score per cache position (higher = keep). The
selection stage only consumes the ordering, so any deterministic scorer can
drive the pipeline.
"""

from __future__ import annotations

import numpy as np

from masskv.core import CompressionConfig, ConfigError, ContractViolation
from masskv.mass import UsageWindow, aggregate_usage


def score_recent_attention(
    window: UsageWindow, keys: np.ndarray, cfg: CompressionConfig
) -> np.ndarray:
    """Attention paid to each position by the single most recent query.

    Suffix positions that query never saw get the row's max over what it did
    see, mirroring the usage padding rule.
    """
    if window is None:
        raise ContractViolation("no usage evidence")
    row = window.rows[-1]
    seen = int(window.visible[-1])
    g = row.astype(np.float64).copy()
    if seen < g.size:
        g[seen:] = g[:seen].max()
    return g


def score_expected_attention_proxy(
    window: UsageWindow, keys: np.ndarray, cfg: CompressionConfig
) -> np.ndarray:
    """Mean attention over the recent-query window with causal max-padding.

    Stands in for expectation-based scorers; shares its machinery with the
    usage aggregation that feeds the mass distribution.
    """
    return aggregate_usage(window, cfg.window)


def score_key_diff(window: UsageWindow, keys: np.ndarray, cfg: CompressionConfig) -> np.ndarray:
    """L2 difference between consecutive key vectors; the first position
    copies its neighbor so sinks are neither favored nor punished here."""
    if keys is None:
        raise ContractViolation("keydiff scorer needs key vectors")
    keys = np.asarray(keys, dtype=np.float64)
    if keys.ndim != 2 or keys.shape[0] < 1:
        raise ContractViolation(f"keys must be [T, D] with T >= 1, got {keys.shape}")
    t = keys.shape[0]
    if t == 1:
        return np.zeros(1, dtype=np.float64)
    g = np.empty(t, dtype=np.float64)
    g[1:] = np.linalg.norm(np.diff(keys, axis=0), axis=1)
    g[0] = g[1]
    return g


def score_constant(window: UsageWindow, keys: np.ndarray, cfg: CompressionConfig) -> np.ndarray:
    """Flat scores of 1.0; useful as a tie-break and plumbing fixture."""
    total = window.cache_len if window is not None else keys.shape[0]
    return np.ones(total, dtype=np.float64)


SCORERS = {
    "recent": score_recent_attention,
    "expected": score_expected_attention_proxy,
    "keydiff": score_key_diff,
    "constant": score_constant,
}


def get_scorer(name: str):
    """Scorer by registry name; each takes (window, keys, cfg) per head."""
    if name not in SCORERS:
        raise ConfigError(f"unknown scorer {name!r}; choose from {sorted(SCORERS)}")
    return SCORERS[name]
