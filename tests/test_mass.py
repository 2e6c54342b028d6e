import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from masskv.core import ConfigError, ContractViolation, default_config
from masskv.mass import (
    EmaCreditStore,
    UsageAccumulator,
    normalize_mass,
    smooth,
)
from masskv.sim import WorkloadSpec, run_schedule

from reference import aggregate_usage_reference


def _causal_rows(rng, heads, w, t, dtype=np.float64):
    """[heads, w, t] rows ending at the cache tip; row j sums to 1 over its
    first t - w + 1 + j entries and is zero past them."""
    rows = np.zeros((heads, w, t), dtype=dtype)
    for j in range(w):
        seen = t - w + 1 + j
        raw = rng.random((heads, seen)) + 1e-3
        rows[:, j, :seen] = raw / raw.sum(axis=-1, keepdims=True)
    return rows


def _accumulate(rows):
    """A UsageAccumulator fed the [heads, w, t] causal rows one by one."""
    w, t = rows.shape[-2:]
    acc = UsageAccumulator()
    for j in range(w):
        acc.add(rows[:, j, : t - w + 1 + j])
    return acc


def _usage(rows):
    """The folded usage of one head's [w, t] causal rows."""
    return _accumulate(np.asarray(rows)[None]).fold()[0]


def test_aggregate_usage_padding_hand_trace():
    # the older query could not see position 2; its missing observation is
    # padded with the window max (0.5) before averaging
    u = _usage([[0.5, 0.5, 0.0], [0.2, 0.3, 0.5]])
    np.testing.assert_allclose(u, [0.35, 0.4, 0.5])


def test_aggregate_usage_single_row_uniform():
    np.testing.assert_allclose(_usage(np.full((1, 4), 0.25)), np.full(4, 0.25))


def test_aggregate_usage_identical_rows():
    # identical rows average to themselves on the columns every row saw;
    # column 2, hidden from the older row, mixes in the pad (0.6)
    rows = np.tile([0.6, 0.4, 0.0], (2, 1))
    np.testing.assert_allclose(_usage(rows), [0.6, 0.4, 0.3])


def test_aggregate_usage_rejects_bad_shapes():
    for row in (np.float64(1.0), np.ones(0), np.ones((2, 0))):
        with pytest.raises(ContractViolation, match="t >= 1"):
            UsageAccumulator().add(row)


@settings(max_examples=100)
@given(st.data())
def test_aggregate_usage_matches_reference(data):
    # per head, bit for bit: the reference sums the padded rows one by one,
    # oldest first, and divides by their count; an accumulator fed only the
    # last max_rows rows of a window aggregates just those, and w = t covers
    # a single column that every row saw
    t = data.draw(st.integers(1, 24))
    w = data.draw(st.sampled_from([t, *range(1, min(t, 6) + 1)]))
    heads = data.draw(st.integers(1, 3))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    rows = _causal_rows(rng, heads, w, t)
    max_rows = data.draw(st.integers(1, w))
    acc = UsageAccumulator()
    for j in range(w - max_rows, w):
        acc.add(rows[:, j, : t - w + 1 + j])
    u = acc.fold()
    assert u.shape == (heads, t)
    visible = t - w + 1 + np.arange(w)
    for h in range(heads):
        np.testing.assert_array_equal(
            u[h], aggregate_usage_reference(rows[h], visible, max_rows)
        )


def test_aggregate_usage_validates_rows():
    with pytest.raises(ContractViolation):
        _usage([[0.5, 0.4, 0.0]])  # sums to 0.9
    with pytest.raises(ContractViolation):
        _usage([[1.2, -0.2]])
    # the oldest row is checked too: it sees position 0 only, and 0.9 there
    with pytest.raises(ContractViolation):
        _usage([[0.9, 0.0], [0.5, 0.5]])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -0.1])
@pytest.mark.parametrize("where", [(1, 0, 0), (1, 2, 5), (0, 3, 6)])
def test_aggregate_usage_rejects_bad_visible_entry(bad, where):
    # (head, row, column): a column all rows saw, then a column only the
    # newer rows saw, then the newest row's last column
    rows = _causal_rows(np.random.default_rng(0), 2, 4, 7)
    rows[where] = bad
    with pytest.raises(ContractViolation):
        _accumulate(rows)


def test_aggregate_usage_accepts_float32_rows():
    rows = _causal_rows(np.random.default_rng(2), 3, 6, 40, dtype=np.float32)
    u = _accumulate(rows).fold()
    assert u.dtype == np.float64
    np.testing.assert_array_equal(u, _accumulate(rows.astype(np.float64)).fold())


@settings(max_examples=150)
@given(st.data())
def test_accumulator_matches_aggregate_usage_and_reference(data):
    # bit for bit, over every window up to w = t and float32 rows too: the
    # fold equals the reference's aggregate usage and the float64 fold of
    # the same rows
    t = data.draw(st.integers(1, 24))
    w = data.draw(st.integers(1, t))
    heads = data.draw(st.integers(1, 3))
    dtype = data.draw(st.sampled_from([np.float64, np.float32]))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    rows = _causal_rows(rng, heads, w, t, dtype=dtype)
    acc = _accumulate(rows)
    assert acc.rows == w
    np.testing.assert_array_equal(acc.newest, rows[:, -1])
    u = acc.fold()
    assert u.shape == (heads, t) and u.dtype == np.float64
    np.testing.assert_array_equal(u, _accumulate(rows.astype(np.float64)).fold())
    visible = t - w + 1 + np.arange(w)
    for h in range(heads):
        np.testing.assert_array_equal(u[h], aggregate_usage_reference(rows[h], visible, w))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -0.1])
@pytest.mark.parametrize("where", [(0, 0, 0), (1, 2, 1), (0, 3, 6)])
def test_accumulator_add_rejects_a_bad_entry(bad, where):
    # (head, row, column): the first row, a column every row saw, and the
    # newest row's last column
    rows = _causal_rows(np.random.default_rng(3), 2, 4, 7)
    head, j, col = where
    rows[head, j, col] = bad
    acc = UsageAccumulator()
    for i in range(j):
        acc.add(rows[:, i, : 4 + i])
    with pytest.raises(ContractViolation):
        acc.add(rows[:, j, : 4 + j])
    assert acc.rows == j  # a rejected row is not added


def test_accumulator_add_rejects_bad_sums_and_lengths():
    rows = _causal_rows(np.random.default_rng(4), 2, 3, 6)
    acc = UsageAccumulator()
    with pytest.raises(ContractViolation):
        acc.add(rows[:, 0, :4] * 0.9)  # sums to 0.9
    acc.add(rows[:, 0, :4])
    # the next row must be exactly one position longer, with the same heads
    for wrong in (rows[:, 1, :4], np.full((2, 6), 1 / 6), rows[:1, 1, :5], rows[:, 1, :5].T):
        with pytest.raises(ContractViolation):
            acc.add(wrong)
    assert acc.rows == 1
    acc.add(rows[:, 1, :5])
    acc.add(rows[:, 2, :6])
    np.testing.assert_array_equal(acc.fold(), _accumulate(rows).fold())
    with pytest.raises(ContractViolation):
        UsageAccumulator().fold()


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("lead", [(), (3,), (2, 3)])
@pytest.mark.parametrize("w", [1, 2, 15, 16, 17, 31, 32, 33, 64, 65, 128, 129])
def test_fold_matches_reference_across_triangle_growth(w, lead, dtype):
    # windows on both sides of every size the row store passes through, fed
    # as strided views of one [..., w, t] chunk the way decoder chunks are
    cut = 3
    t = cut + w - 1
    n = int(np.prod(lead))
    chunk = _causal_rows(np.random.default_rng(w), n, w, t, dtype=dtype).reshape(lead + (w, t))
    acc = UsageAccumulator()
    for j in range(w):
        acc.add(chunk[..., j, : cut + j])
    u = acc.fold()
    assert u.shape == lead + (t,) and u.dtype == np.float64
    visible = cut + np.arange(w)
    for idx in np.ndindex(lead):
        np.testing.assert_array_equal(u[idx], aggregate_usage_reference(chunk[idx], visible, w))


@pytest.mark.parametrize("split", [1, 10, 16, 17, 40])
def test_fold_repeats_and_takes_rows_added_after_it(split):
    # a fold after the first `split` rows, then the rest, then two folds:
    # each equals the fold of a fresh accumulator fed the same rows
    rows = _causal_rows(np.random.default_rng(split), 3, 48, 60)
    acc = UsageAccumulator()
    for j in range(split):
        acc.add(rows[:, j, : 13 + j])
    np.testing.assert_array_equal(acc.fold(), _accumulate(rows[:, :split, : 12 + split]).fold())
    for j in range(split, 48):
        acc.add(rows[:, j, : 13 + j])
    whole = _accumulate(rows).fold()
    np.testing.assert_array_equal(acc.fold(), whole)
    np.testing.assert_array_equal(acc.fold(), whole)


@pytest.mark.parametrize("bad_row", [16, 17, 32, 33])
def test_rejected_row_at_a_growth_step_changes_nothing(bad_row):
    # row 16 is the first to double the row store and row 32 the next; a row
    # rejected there or just after leaves the fold of the good rows unchanged
    rows = _causal_rows(np.random.default_rng(bad_row), 2, 40, 45)
    acc = UsageAccumulator()
    for j in range(40):
        if j == bad_row:
            with pytest.raises(ContractViolation):
                acc.add(rows[:, j, : 6 + j] * 0.9)
            assert acc.rows == j
        acc.add(rows[:, j, : 6 + j])
    np.testing.assert_array_equal(acc.fold(), _accumulate(rows).fold())


def test_fold_allocates_no_triangle():
    # the longctx shape: 4 heads, T = 4,224 and w = 128; a [w, heads, w - 1]
    # float64 triangle alone would be 3.8 times the [heads, T] usage
    heads, w, t = 4, 128, 4224
    acc = _accumulate(_causal_rows(np.random.default_rng(5), heads, w, t))
    tracemalloc.start()
    try:
        u = acc.fold()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * u.nbytes


def test_smooth_boundary_shrink():
    np.testing.assert_allclose(smooth(np.array([0.0, 1.0, 0.0]), 3), [0.5, 1 / 3, 0.5])


def test_smooth_identity_and_constant():
    u = np.array([0.3, 0.1, 0.6, 0.0])
    np.testing.assert_array_equal(smooth(u, 1), u)
    np.testing.assert_allclose(smooth(np.full(7, 0.2), 5), np.full(7, 0.2))


def test_smooth_rejects_even_kernel():
    with pytest.raises(ConfigError):
        smooth(np.ones(4), 2)


def test_smooth_interior_is_exact_moving_average():
    rng = np.random.default_rng(0)
    u = rng.random(50)
    out = smooth(u, 5)
    for t in range(2, 48):
        np.testing.assert_allclose(out[t], u[t - 2 : t + 3].mean())
    # with no boundary in play the total is preserved
    assert abs(out[2:48].sum() - sum(u[t - 2 : t + 3].mean() for t in range(2, 48))) < 1e-9


def _smooth_take(u, kernel):
    """The moving average as every window's sum gathered by ``take`` from
    the prefix sums and divided by its width."""
    u = np.asarray(u, dtype=np.float64)
    t = u.shape[-1]
    if kernel == 1 or t <= 1:
        return u.copy()
    r = kernel // 2
    csum = np.zeros(u.shape[:-1] + (t + 1,))
    np.cumsum(u, axis=-1, out=csum[..., 1:])
    lo = np.maximum(np.arange(t) - r, 0)
    hi = np.minimum(np.arange(t) + r + 1, t)
    return (csum.take(hi, axis=-1) - csum.take(lo, axis=-1)) / (hi - lo)


def _normalize_mass_plain(u, epsilon):
    num = np.maximum(np.asarray(u, dtype=np.float64), 0.0) + epsilon
    return num / num.sum(axis=-1, keepdims=True)


def _update_and_mix_plain(credit, decay, mix, m_cur):
    """The EMA step as one expression per line; updates ``credit`` and
    returns the mixed mass."""
    m_cur = np.asarray(m_cur, dtype=np.float64)
    c = credit[:, : m_cur.shape[-1]]
    c[:] = decay * c + (1.0 - decay) * m_cur
    n = c / c.sum(axis=-1, keepdims=True)
    mixed = mix * m_cur + (1.0 - mix) * n
    return mixed / mixed.sum(axis=-1, keepdims=True)


@pytest.mark.parametrize("lead", [(), (3,), (2, 3)])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_mass_chain_keeps_the_bits_of_its_plain_formulas(lead, dtype):
    # smooth, normalize_mass and update_and_mix work in place on their own
    # temporaries; every float, and the credit, equals the plain formulas'
    rng = np.random.default_rng(len(lead) + (dtype == np.float32))
    for t in [*range(1, 12), 40, 257]:
        u = (rng.random(lead + (t,)) ** 3).astype(dtype)
        for kernel in (1, 3, 5, 7, 9):
            np.testing.assert_array_equal(smooth(u, kernel), _smooth_take(u, kernel))
        m = normalize_mass(smooth(u, 5) - 0.1, 1e-6)
        np.testing.assert_array_equal(m, _normalize_mass_plain(_smooth_take(u, 5) - 0.1, 1e-6))
        rows = m.reshape(-1, t).astype(dtype)
        store = EmaCreditStore(0.9, 0.7, len(rows), t + 3)
        store.credit[:] = rng.random(store.credit.shape)
        credit = store.credit.copy()
        for _ in range(3):  # the credit carries over from one event to the next
            np.testing.assert_array_equal(
                store.update_and_mix(rows), _update_and_mix_plain(credit, 0.9, 0.7, rows)
            )
            np.testing.assert_array_equal(store.credit, credit)


def test_normalize_mass_examples():
    np.testing.assert_allclose(normalize_mass(np.array([1.0, 3.0]), 1e-12), [0.25, 0.75], atol=1e-9)
    np.testing.assert_allclose(normalize_mass(np.array([-2.0, 2.0]), 0.5), [1 / 6, 5 / 6])
    np.testing.assert_allclose(normalize_mass(np.zeros(3), 0.3), np.full(3, 1 / 3))


@settings(max_examples=150)
@given(
    hnp.arrays(
        np.float64,
        hnp.array_shapes(min_dims=1, max_dims=1, min_side=1, max_side=64),
        elements=st.floats(-100, 100, allow_nan=False),
    ),
    st.floats(1e-9, 1.0),
)
def test_normalize_mass_properties(u, eps):
    m = normalize_mass(u, eps)
    assert abs(m.sum() - 1.0) <= 1e-9
    assert (m > 0).all()
    # order preservation on clipped usage
    cu = np.maximum(u, 0.0)
    order = np.argsort(cu, kind="stable")
    assert (np.diff(m[order]) >= -1e-15).all()


def test_ema_symmetric_fixed_point():
    store = EmaCreditStore(decay=0.9, mix=0.9, heads=1, capacity=2)
    m = np.array([0.5, 0.5])
    out = store.update_and_mix(m[None])
    np.testing.assert_allclose(store.credit[0], [0.05, 0.05])
    np.testing.assert_allclose(out, [[0.5, 0.5]])


def test_ema_mix_degenerates_at_beta_one():
    store = EmaCreditStore(decay=0.5, mix=1.0, heads=1, capacity=3)
    store.credit[0] = [0.2, 0.5, 0.3]
    m = np.array([0.7, 0.2, 0.1])
    np.testing.assert_allclose(store.update_and_mix(m[None]), m[None])


def test_ema_hand_evaluation():
    # two heads mixed at once, each from its own credit row; the positions
    # past the mass stay put
    store = EmaCreditStore(decay=0.5, mix=0.5, heads=2, capacity=3)
    store.credit[:, :2] = [[0.5, 0.5], [1.0, 0.0]]
    store.credit[:, 2] = 7.0
    out = store.update_and_mix(np.array([[0.5, 0.5], [0.0, 1.0]]))
    np.testing.assert_allclose(store.credit, [[0.5, 0.5, 7.0], [0.5, 0.5, 7.0]])
    np.testing.assert_allclose(out, [[0.5, 0.5], [0.25, 0.75]])


def test_ema_output_is_distribution_and_converges():
    rng = np.random.default_rng(7)
    store = EmaCreditStore(decay=0.9, mix=0.9, heads=1, capacity=16)  # zero credit
    m = rng.dirichlet(np.ones(16))
    for _ in range(50):
        out = store.update_and_mix(m[None])
        assert abs(out.sum() - 1.0) < 1e-9
    credit = store.credit[0]
    assert np.abs(credit / credit.sum() - m).sum() < 1e-3


def test_ema_credit_decays_geometrically():
    # from a perturbed start the normalized-credit error contracts at the
    # decay rate each stationary event
    rng = np.random.default_rng(8)
    store = EmaCreditStore(decay=0.9, mix=0.9, heads=1, capacity=16)
    c = store.credit[0]
    c[:] = rng.dirichlet(np.ones(16))
    m = rng.dirichlet(np.ones(16))
    err0 = np.abs(c / c.sum() - m).sum()
    errors = []
    for _ in range(50):
        store.update_and_mix(m[None])
        errors.append(np.abs(c / c.sum() - m).sum())
    assert errors[-1] <= 1.5 * (0.9**50) * err0
    assert all(b <= a + 1e-12 for a, b in zip(errors, errors[1:]))


@pytest.mark.parametrize("heads", [1, 3])
@pytest.mark.parametrize("interval, window", [(32, 16), (16, 40)])
def test_credit_follows_each_heads_keep_set_and_starts_at_zero(monkeypatch, heads, interval, window):
    # the credit an AMS event updates is, head by head, the previous event's
    # updated credit gathered by that head's keep set, then 0 for every token
    # born since
    seen = []
    update = EmaCreditStore.update_and_mix

    def spying(self, m_cur):
        before = self.credit[:, : m_cur.shape[-1]].copy()
        mixed = update(self, m_cur)
        seen.append((before, self.credit[:, : m_cur.shape[-1]].copy()))
        return mixed

    monkeypatch.setattr(EmaCreditStore, "update_and_mix", spying)
    cfg = default_config().replace(t_keep=24, interval=interval, window=window, n_last=4)
    trace = run_schedule(WorkloadSpec("drifting_focus", steps=200, seed=3), "ams", cfg,
                         kv_heads=heads)
    assert len(seen) == len(trace.events) >= 6
    assert not seen[0][0].any()
    for prev, ev, (before, _), (_, after) in zip(trace.events, trace.events[1:], seen[1:], seen):
        k = prev.keep_positions.shape[1]
        assert before.shape == (heads, ev.cache_len)
        for h in range(heads):
            np.testing.assert_array_equal(before[h, :k], after[h, prev.keep_positions[h]])
            assert not before[h, k:].any()
