"""Plug-and-play token-importance scorers.

Each scorer takes the newest attention rows, the usage the engine folded
from the recent rows once per event, and the keys, one row per head, and
returns one real score per head and cache position (higher = keep). The
selection stage only consumes the ordering, so any deterministic scorer can
drive the pipeline.
"""

from __future__ import annotations

import numpy as np

from masskv.core import ContractViolation, check_name


def score_recent_attention(newest: np.ndarray, usage: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Attention paid to each position by the single most recent query,
    which saw the whole cache."""
    return np.array(newest, dtype=np.float64)


def score_expected_attention_proxy(
    newest: np.ndarray, usage: np.ndarray, keys: np.ndarray
) -> np.ndarray:
    """Mean attention over the recent-query window with causal max-padding.

    Stands in for expectation-based scorers; it is the usage vector that
    also feeds the mass distribution, computed once per event.
    """
    return usage


def score_key_diff(newest: np.ndarray, usage: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """L2 difference between consecutive key vectors; the first position
    copies its neighbor so sinks are neither favored nor punished here."""
    if keys is None:
        raise ContractViolation("keydiff scorer needs key vectors")
    keys = np.asarray(keys, dtype=np.float64)
    if keys.ndim < 2 or keys.shape[-2] < 1:
        raise ContractViolation(f"keys must be [..., T, D] with T >= 1, got {keys.shape}")
    if keys.shape[-2] == 1:
        return np.zeros(keys.shape[:-1], dtype=np.float64)
    g = np.empty(keys.shape[:-1], dtype=np.float64)
    g[..., 1:] = np.linalg.norm(np.diff(keys, axis=-2), axis=-1)
    g[..., 0] = g[..., 1]
    return g


def score_constant(newest: np.ndarray, usage: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Flat scores of 1.0; useful as a tie-break and plumbing fixture."""
    return np.ones(newest.shape, dtype=np.float64)


SCORERS = {
    "recent": score_recent_attention,
    "expected": score_expected_attention_proxy,
    "keydiff": score_key_diff,
    "constant": score_constant,
}

# the scorers that read key vectors; a run keeps a key cache only for these
# (or for a decoder's own attention), and passes keys=None to the others
READS_KEYS = frozenset({"keydiff"})


def get_scorer(name: str):
    """Scorer by registry name; each takes (newest, usage, keys): the [..., T]
    attention rows of the newest query, the [..., T] usage folded from the
    recent rows, and the [..., T, D] keys (None when the caller has none),
    one leading index per head."""
    check_name("scorer", name, SCORERS)
    return SCORERS[name]
