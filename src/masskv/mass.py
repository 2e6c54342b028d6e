"""Quality-mass construction from recent attention usage.

The attention rows of the last W decoding queries, one [W, T] block per head,
are validated and averaged once per compression event for all heads (with
causal max-padding for suffix positions that fewer queries could see), then
smoothed with a short 1D average pool and normalized into a positive mass
distribution over cache positions. An EMA credit array, [heads, capacity]
and remapped by each event's keep gather, makes the mass history-aware.
"""

from __future__ import annotations

import numpy as np

from masskv.core import ConfigError, ContractViolation


def aggregate_usage(rows: np.ndarray, max_rows: int) -> np.ndarray:
    """Mean attention each position received from the newest ``max_rows`` queries.

    ``rows`` is [..., w, T]: the attention rows of the last w decoding
    queries, oldest first, for any leading axes (one per head, say), with
    1 <= w <= T. The queries are consecutive and end at the cache tip, so
    by causal masking row j saw only the first T - w + 1 + j positions;
    entries past that prefix are ignored. Every row must be non-negative
    and sum to 1 over its prefix; all w rows are checked, once, for every
    leading index.

    Positions seen by fewer queries have their missing observations padded
    with the maximum score the aggregated rows observed, so newly generated
    tokens are not underestimated. The padded rows are summed one by one,
    oldest first, and divided by their count.
    """
    if max_rows < 1:
        raise ConfigError("aggregation window must be >= 1 row")
    rows = np.asarray(rows)
    if rows.ndim < 2 or not 1 <= rows.shape[-2] <= rows.shape[-1]:
        raise ContractViolation(f"rows must be [..., w, T] with 1 <= w <= T, got {rows.shape}")
    w, t = rows.shape[-2:]
    cut = t - w + 1  # columns [0, cut) were seen by every row
    seen = np.tri(w, w - 1, -1, dtype=bool)  # row j saw column cut + c iff c < j
    head = rows[..., :cut]
    tri = np.where(seen, rows[..., cut:], 0.0)
    if not (head.min(initial=0.0) >= 0.0 and tri.min(initial=0.0) >= 0.0):
        raise ContractViolation("attention rows must be non-negative and not NaN")
    sums = head.sum(axis=-1, dtype=np.float64) + tri.sum(axis=-1, dtype=np.float64)
    if not np.allclose(sums, 1.0, atol=1e-6):
        raise ContractViolation("each attention row must sum to 1 over its causal prefix")
    n = min(w, max_rows)
    pad = np.maximum(
        head[..., w - n :, :].max(axis=(-2, -1), initial=0.0),
        tri[..., w - n :, :].max(axis=(-2, -1), initial=0.0),
    )[..., None]
    total = np.zeros(rows.shape[:-2] + (t,))
    # one row at a time: NumPy may sum a reduced axis pairwise, which would
    # change the last bits of the mean
    for j in range(w - n, w):
        total[..., :cut] += head[..., j, :]
        total[..., cut:] += np.where(seen[j], tri[..., j, :], pad)
    return total / n


def smooth(u: np.ndarray, kernel: int) -> np.ndarray:
    """Centered moving average; the window shrinks at sequence edges.

    kernel=1 is the identity. Shrinking (rather than zero-padding) avoids
    inventing phantom mass outside the cache.
    """
    if kernel < 1 or kernel % 2 == 0:
        raise ConfigError(f"smoothing kernel must be odd and >= 1, got {kernel}")
    u = np.asarray(u, dtype=np.float64)
    if kernel == 1 or u.size <= 1:
        return u.copy()
    t = u.size
    r = kernel // 2
    csum = np.concatenate([[0.0], np.cumsum(u)])
    lo = np.maximum(np.arange(t) - r, 0)
    hi = np.minimum(np.arange(t) + r + 1, t)
    return (csum[hi] - csum[lo]) / (hi - lo)


def normalize_mass(u: np.ndarray, epsilon: float) -> np.ndarray:
    """Clip negatives, add epsilon, normalize to a strictly positive distribution."""
    if epsilon <= 0.0:
        raise ConfigError(f"epsilon must be > 0, got {epsilon}")
    u = np.asarray(u, dtype=np.float64)
    if u.size < 1:
        raise ContractViolation("cannot normalize an empty usage vector")
    num = np.maximum(u, 0.0) + epsilon
    return num / num.sum()


def _normalize(v: np.ndarray) -> np.ndarray:
    total = v.sum()
    if total <= 0.0:
        raise ContractViolation("cannot normalize a non-positive vector")
    return v / total


class EmaCreditStore:
    """Decayed accumulation of past mass assignments: one [heads, capacity]
    array whose row h, column i is the credit of head h's cache position i.

    Credit follows surviving tokens through the event's keep gather
    (``remap``), so tokens born after an event start at zero, and is mixed
    into the current mass so that consistently useful regions keep their
    budget share across events.
    """

    def __init__(self, decay: float, mix: float, heads: int, capacity: int):
        if not (0.0 < decay < 1.0):
            raise ConfigError(f"ema decay must be in (0, 1), got {decay}")
        if not (0.0 <= mix <= 1.0):
            raise ConfigError(f"mass mix must be in [0, 1], got {mix}")
        self.decay = decay
        self.mix = mix
        self.credit = np.zeros((heads, capacity))

    def update_and_mix(self, head: int, m_cur: np.ndarray) -> np.ndarray:
        """Decay-update the credit of head ``head``'s first ``m_cur.size``
        positions with the current mass and return the history-aware mass
        used for segmentation and quotas."""
        m_cur = np.asarray(m_cur, dtype=np.float64)
        c = self.credit[head, : m_cur.size]
        c[:] = self.decay * c + (1.0 - self.decay) * m_cur
        mixed = self.mix * m_cur + (1.0 - self.mix) * _normalize(c)
        return _normalize(mixed)

    def remap(self, keep: np.ndarray) -> None:
        """Gather every head's credit by its keep positions ``keep`` [heads,
        k]; the positions from k on start at zero."""
        k = keep.shape[1]
        self.credit[:, :k] = np.take_along_axis(self.credit, keep, axis=1)
        self.credit[:, k:] = 0.0
