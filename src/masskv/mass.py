"""Quality-mass construction from recent attention usage.

The attention rows of the last W decoding queries are taken one [heads, t]
row at a time as they are decoded: a ``UsageAccumulator``, the only way to
build usage, validates each once, adds the columns every row saw into a
running sum and writes the rest into a triangle it owns. At a compression
event one masked copy pads the triangle's unseen entries with the window's
maximum (causal max-padding for the suffix positions fewer queries could
see) and one sum folds it, for all heads, into their mean usage, which is
then smoothed with a short 1D average pool and normalized into a positive
mass distribution over cache positions. An EMA credit array, [heads,
capacity], which the run gathers with its other per-token arrays at each
event, makes the mass history-aware.
"""

from __future__ import annotations

import numpy as np

from masskv.core import ConfigError, ContractViolation


def _check_rows(rows: np.ndarray) -> None:
    """Every [..., t] attention row is non-negative, not NaN and sums to 1."""
    if not rows.min(initial=0.0) >= 0.0:
        raise ContractViolation("attention rows must be non-negative and not NaN")
    # the test np.allclose(sums, 1.0, atol=1e-6) makes, without its per-call cost
    if not (np.abs(rows.sum(axis=-1, dtype=np.float64) - 1.0) <= 1e-6 + 1e-5).all():
        raise ContractViolation("each attention row must sum to 1 over its causal prefix")


class UsageAccumulator:
    """Mean attention each position received from one event's queries, taken
    one attention row at a time.

    Rows come from consecutive decoding queries that end at the cache tip,
    oldest first, each [..., t] for any leading axes (one per head, say). The
    first row fixes ``cut``; row j must be cut + j long, since by causal
    masking it saw only that prefix. A row is checked as it is added, then
    its first ``cut`` entries join a running [..., cut] sum, its j later ones
    go into row j of a [cap, ..., cap - 1] triangle that starts at 16 rows and
    doubles when full, and its maximum raises the pad; a rejected row changes
    nothing. Memory is O(cut + w^2) per leading index for w rows. ``newest``
    is the last row added, which saw every position.
    """

    def __init__(self):
        self.rows = 0
        self.newest = None
        self._head = None  # running sum of the columns every row saw
        self._tri = None  # [cap, ..., cap - 1]; row j's first j entries are its tail
        self._pad = None

    def add(self, row) -> None:
        row = np.asarray(row)
        if row.ndim < 1 or row.shape[-1] < 1:
            raise ContractViolation(f"a row must be [..., t] with t >= 1, got {row.shape}")
        last = self.newest
        if last is not None and row.shape != last.shape[:-1] + (last.shape[-1] + 1,):
            raise ContractViolation(f"row {self.rows} must be [..., t + 1] after {last.shape}")
        _check_rows(row)
        j = self.rows
        if last is None:
            self._head = np.zeros(row.shape)
            self._tri = np.empty((16,) + row.shape[:-1] + (15,))
            self._pad = np.zeros(row.shape[:-1])
        elif j == len(self._tri):  # full: double it, keeping the rows filled
            grown = np.empty((2 * j,) + self._pad.shape + (2 * j - 1,))
            grown[:j, ..., : j - 1] = self._tri
            self._tri = grown
        cut = self._head.shape[-1]
        self._head += row[..., :cut]
        self._tri[j, ..., :j] = row[..., cut:]
        self._pad = np.maximum(self._pad, row.max(axis=-1))
        self.newest = row
        self.rows += 1

    def fold(self) -> np.ndarray:
        """The [..., T] mean usage of the rows added, T the newest row's length.

        Positions seen by fewer rows have their missing observations padded
        with the maximum score any row observed, so newly generated tokens
        are not underestimated. One masked copy writes the pad over the
        upper part of the triangle's [w, ..., w - 1] corner (entries j..w - 2
        of row j, which no row owns, so a fold can be repeated and rows added
        after it), and one sum along its first axis, which NumPy adds one row
        at a time, oldest first, totals it. A pairwise sum, which NumPy may
        use along the innermost axis, would change the last bits of the mean.
        """
        if self.newest is None:
            raise ContractViolation("no attention rows to aggregate")
        cut = self._head.shape[-1]
        total = np.empty(self.newest.shape)
        total[..., :cut] = self._head
        w = self.rows
        tri = self._tri[:w, ..., : w - 1]
        upper = ~np.tri(w, w - 1, -1, dtype=bool)  # column i >= row j
        upper = upper.reshape((w,) + (1,) * self._pad.ndim + (w - 1,))
        np.copyto(tri, self._pad[..., None], where=upper)
        total[..., cut:] = np.add.reduce(tri, axis=0)
        return total / w


def smooth(u: np.ndarray, kernel: int) -> np.ndarray:
    """Centered moving average along the last axis of [..., T] usage; the
    window shrinks at sequence edges.

    kernel=1 is the identity. Shrinking (rather than zero-padding) avoids
    inventing phantom mass outside the cache.
    """
    if kernel < 1 or kernel % 2 == 0:
        raise ConfigError(f"smoothing kernel must be odd and >= 1, got {kernel}")
    u = np.asarray(u, dtype=np.float64)
    t = u.shape[-1]
    if kernel == 1 or t <= 1:
        return u.copy()
    r = kernel // 2
    # each row's running sums from 0, held level for r columns on either side,
    # so that column i's window sum is ext[i + kernel] - ext[i] at every column
    ext = np.zeros(u.shape[:-1] + (t + kernel,))
    np.cumsum(u, axis=-1, out=ext[..., r + 1 : t + r + 1])
    ext[..., t + r + 1 :] = ext[..., t + r : t + r + 1]
    i = np.arange(t, dtype=np.float64)
    out = ext[..., kernel:] - ext[..., :t]
    out /= np.minimum(i + r + 1, t) - np.maximum(i - r, 0)
    return out


def normalize_mass(u: np.ndarray, epsilon: float) -> np.ndarray:
    """Clip negatives, add epsilon, normalize each [..., T] row to a strictly
    positive distribution."""
    if epsilon <= 0.0:
        raise ConfigError(f"epsilon must be > 0, got {epsilon}")
    u = np.asarray(u, dtype=np.float64)
    if u.ndim < 1 or u.shape[-1] < 1:
        raise ContractViolation("cannot normalize an empty usage vector")
    num = np.maximum(u, 0.0)
    num += epsilon
    num /= num.sum(axis=-1, keepdims=True)
    return num


def _normalize(v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    total = v.sum(axis=-1, keepdims=True)
    if not (total > 0.0).all():
        raise ContractViolation("cannot normalize a non-positive vector")
    return np.divide(v, total, out=out)


class EmaCreditStore:
    """Decayed accumulation of past mass assignments: one [heads, capacity]
    array whose row h, column i is the credit of head h's cache position i.

    ``run_schedule`` writes 0 for each newborn token and gathers ``credit``
    by each event's keep set with its other per-token arrays, so credit
    follows surviving tokens. It is mixed into the current mass so that
    consistently useful regions keep their budget share across events.
    """

    def __init__(self, decay: float, mix: float, heads: int, capacity: int):
        if not (0.0 < decay < 1.0):
            raise ConfigError(f"ema decay must be in (0, 1), got {decay}")
        if not (0.0 <= mix <= 1.0):
            raise ConfigError(f"mass mix must be in [0, 1], got {mix}")
        self.decay = decay
        self.mix = mix
        self.credit = np.zeros((heads, capacity))

    def update_and_mix(self, m_cur: np.ndarray) -> np.ndarray:
        """Decay-update every head's credit at its first T positions with the
        current [heads, T] mass and return the history-aware mass used for
        segmentation and quotas."""
        m_cur = np.asarray(m_cur, dtype=np.float64)
        heads, capacity = self.credit.shape
        if m_cur.shape[:-1] != (heads,) or m_cur.shape[-1] > capacity:
            raise ContractViolation(f"mass {m_cur.shape} does not fit credit {self.credit.shape}")
        c = self.credit[:, : m_cur.shape[-1]]
        c *= self.decay
        c += (1.0 - self.decay) * m_cur
        mixed = _normalize(c)
        mixed *= 1.0 - self.mix
        mixed += self.mix * m_cur
        return _normalize(mixed, out=mixed)
