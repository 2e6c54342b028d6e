import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from masskv.allocation import (
    MustKeepSet,
    apportion_with_caps,
    compute_quotas,
    largest_remainder,
    must_keep,
    reconcile_budget,
)
from masskv.core import ConfigError, ContractViolation, default_config
from masskv.segmentation import SegmentSet, cut_points, prefix_sums


def _segset(lengths):
    return SegmentSet(np.concatenate([[0], np.cumsum(lengths)]).astype(np.int64))


def _mass_for(lengths, masses):
    m = np.zeros(int(np.sum(lengths)))
    pos = 0
    for length, mass in zip(lengths, masses):
        m[pos : pos + length] = mass / length
        pos += length
    return m


def test_must_keep_examples():
    cfg = default_config().replace(n_sink=4, n_last=8)
    mk = must_keep(100, cfg)
    assert mk.indices.tolist() == [0, 1, 2, 3] + list(range(92, 100))

    mk = must_keep(6, cfg)
    assert mk.indices.tolist() == [0, 1, 2, 3, 4, 5]

    mk = must_keep(100, cfg.replace(n_sink=0, n_last=0))
    assert mk.size == 0


def test_reconcile_budget_examples():
    cfg = default_config().replace(n_sink=4, n_last=8)
    mk = must_keep(100, cfg)
    out, t_rem = reconcile_budget(mk, 512)
    assert out.indices.tolist() == mk.indices.tolist()
    assert t_rem == 500

    out, t_rem = reconcile_budget(mk, 8)
    assert t_rem == 0
    assert out.sinks.tolist() == [0, 1, 2, 3]
    assert out.recent.tolist() == [96, 97, 98, 99]  # oldest suffix entries dropped

    with pytest.raises(ConfigError):
        reconcile_budget(mk, 3)


def test_largest_remainder_basics():
    np.testing.assert_array_equal(largest_remainder(np.array([1.5, 0.9, 0.6]), 3), [1, 1, 1])
    np.testing.assert_array_equal(largest_remainder(np.array([3.0, 1.0]), 3), [2, 1])
    # ties resolve toward the lower index
    np.testing.assert_array_equal(largest_remainder(np.ones(3), 2), [1, 1, 0])
    assert largest_remainder(np.zeros(3), 3).sum() == 3  # uniform fallback


def test_apportion_with_caps_redistributes():
    q = apportion_with_caps(np.array([10.0, 1.0, 1.0]), 6, np.array([2, 5, 5]))
    assert q.sum() == 6
    assert q[0] == 2  # capped; surplus went to the others
    with pytest.raises(ContractViolation):
        apportion_with_caps(np.ones(2), 5, np.array([2, 2]))


@pytest.mark.parametrize(
    "call, match",
    [
        (lambda: largest_remainder([1.0, 1.0], 2.9), "total must be integers"),
        (lambda: largest_remainder([1.0, 1.0], True), "total must be integers"),
        (lambda: largest_remainder([1.0, 1.0], [1, 1], [0.0, 1.0, 2.0]), "bounds must be integers"),
        (lambda: largest_remainder([1.0, 1.0], [1, 2], [0, 0, 2]), "positive total over nothing"),
        (lambda: largest_remainder([], 1), "positive total over nothing"),
        (lambda: apportion_with_caps([1.0, 1.0], 3, [1.9, 2.9]), "caps must be integers"),
        (lambda: apportion_with_caps([1.0, 1.0], 3.0, [2, 2]), "total must be integers"),
        (lambda: apportion_with_caps([1.0], -1, [3]), "total must be >= 0"),
        (lambda: MustKeepSet([0.7], [5.5]), "sinks must be integers"),
        (lambda: MustKeepSet([0], [True]), "recent must be integers"),
    ],
    ids=["float-total", "bool-total", "float-bounds", "empty-group", "empty", "float-caps",
         "float-caps-total", "negative-caps-total", "float-must-keep", "bool-recent"],
)
def test_allocation_rejects_inputs_it_would_truncate(call, match):
    # each of these was once truncated (2.9 became 2, 5.5 became 5) or
    # apportioned to a wrong total
    with pytest.raises(ContractViolation, match=match):
        call()


_TWO_ROWS = np.full((2, 8), 1 / 8)


@pytest.mark.parametrize(
    "call",
    [
        # a [10] mass over T = 8: only its first 8 entries were read
        lambda cfg: compute_quotas(_segset([4, 4]), np.full(10, 0.1), 4, cfg),
        # a [2, 8] mass over one head of 16: row 1's prefix sums were read
        lambda cfg: compute_quotas(_segset([8, 8]), _TWO_ROWS / 2, 4, cfg),
        # a [6] mass over T = 8: a bare IndexError
        lambda cfg: compute_quotas(_segset([4, 4]), np.full(6, 1 / 6), 4, cfg),
        # two heads' mass with one head's prefix sums
        lambda cfg: compute_quotas(
            SegmentSet(np.array([0, 4, 8, 16]), 2), _TWO_ROWS, 4, cfg, prefix_sums(_TWO_ROWS[0])
        ),
        # one row's prefix sums for two rows of mass: row 0's cuts alone
        lambda cfg: cut_points(_TWO_ROWS, 0.25, prefix_sums(_TWO_ROWS[0])),
        # prefix sums that are [T + 1], not [rows, T + 1]
        lambda cfg: cut_points(_TWO_ROWS[0], 0.25, prefix_sums(_TWO_ROWS[0])[0]),
    ],
    ids=["longer-mass", "two-rows-one-head", "shorter-mass", "one-row-csum-quotas",
         "one-row-csum-cuts", "flat-csum"],
)
def test_a_mass_or_prefix_sums_that_do_not_tile_the_segments_are_rejected(call):
    with pytest.raises(ContractViolation, match="tile|prefix sums"):
        call(default_config())


def test_allocation_takes_integers_of_any_width():
    assert largest_remainder([1.0, 1.0], np.int32(3)).tolist() == [2, 1]
    bounds = np.array([0, 1, 2], np.int16)
    assert largest_remainder([1.0, 1.0], [np.uint8(1), 2], bounds).tolist() == [1, 2]
    assert apportion_with_caps([1.0, 1.0], 3, np.array([1, 2], np.int32)).tolist() == [1, 2]
    assert MustKeepSet(np.array([0], np.int32), [5]).indices.tolist() == [0, 5]
    assert MustKeepSet([], []).indices.tolist() == [] and largest_remainder([], 0).size == 0


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_grouped_apportionment_equals_each_group_alone(data):
    # the cap rounds serve every group at once, yet each group must get, bit
    # for bit, the shares it gets apportioned alone: empty groups, zero,
    # flat and huge or tiny weights, zero caps and several rounds included
    weights, caps, totals, bounds = [], [], [], [0]
    for _ in range(data.draw(st.integers(1, 6))):
        size = data.draw(st.integers(0, 8))
        scale = data.draw(st.sampled_from([0.0, 1.0, 1e-300, 1e300]))
        if data.draw(st.booleans()):
            weights += [scale] * size
        else:
            weights += [scale * data.draw(st.floats(0.0, 1.0)) for _ in range(size)]
        group_caps = [data.draw(st.integers(0, 6)) for _ in range(size)]
        caps += group_caps
        totals.append(data.draw(st.integers(0, sum(group_caps))))
        bounds.append(bounds[-1] + size)
    weights, caps = np.array(weights, dtype=np.float64), np.array(caps, dtype=np.int64)
    grouped = apportion_with_caps(weights, totals, caps, bounds)
    for a, b, total in zip(bounds[:-1], bounds[1:], totals):
        assert grouped[a:b].tolist() == apportion_with_caps(weights[a:b], total, caps[a:b]).tolist()


def test_compute_quotas_hand_case():
    cfg = default_config()
    segs = _segset([4, 2, 2])
    m = _mass_for([4, 2, 2], [0.5, 0.3, 0.2])
    qv = compute_quotas(segs, m, 6, cfg)
    assert qv.quotas.tolist() == [2, 2, 2]
    assert qv.quotas.sum() == 6


def test_compute_quotas_single_segment_and_symmetry():
    cfg = default_config()
    qv = compute_quotas(_segset([10]), np.full(10, 0.1), 7, cfg)
    assert qv.quotas.tolist() == [7]

    qv = compute_quotas(_segset([5, 5, 5]), np.full(15, 1 / 15), 9, cfg)
    assert qv.quotas.tolist() == [3, 3, 3]


def test_compute_quotas_degenerate_budget():
    cfg = default_config()
    segs = _segset([4, 4, 4])
    m = np.full(12, 1 / 12)
    qv = compute_quotas(segs, m, 2, cfg)  # cannot cover all three floors
    assert qv.quotas.sum() == 2
    assert qv.quotas.max() <= 1
    qv = compute_quotas(segs, m, 0, cfg)
    assert qv.quotas.tolist() == [0, 0, 0]


def test_compute_quotas_length_weighted_ablation():
    cfg = default_config().replace(mass_weighted_quotas_on=False, min_quota=0)
    segs = _segset([30, 10])
    m = _mass_for([30, 10], [0.1, 0.9])  # mass says favor the short segment
    qv = compute_quotas(segs, m, 20, cfg)
    assert qv.quotas.tolist() == [15, 5]  # but shares follow length


def test_mass_scaling_invariance():
    cfg = default_config()
    rng = np.random.default_rng(11)
    for _ in range(300):
        n = int(rng.integers(1, 9))
        lengths = rng.integers(1, 12, size=n)
        segs = _segset(lengths)
        m = rng.random(int(lengths.sum())) + 1e-9
        t_rem = int(rng.integers(0, lengths.sum() + 1))
        base = compute_quotas(segs, m, t_rem, cfg).quotas
        for c in (0.25, 2.0, 7.3, 1e3):
            scaled = compute_quotas(segs, m * c, t_rem, cfg).quotas
            np.testing.assert_array_equal(base, scaled)


def test_quota_monotonicity_mostly_holds():
    # Hamilton apportionment can exhibit paradoxes; we only require that
    # raising one segment's mass rarely and mildly lowers its quota.
    cfg = default_config()
    rng = np.random.default_rng(5)
    violations = trials = 0
    for _ in range(400):
        n = int(rng.integers(2, 8))
        lengths = rng.integers(2, 16, size=n)
        segs = _segset(lengths)
        m = rng.random(int(lengths.sum())) + 1e-6
        t_rem = int(rng.integers(n, lengths.sum() + 1))
        before = compute_quotas(segs, m, t_rem, cfg).quotas
        i = int(rng.integers(0, n))
        bump = m.copy()
        seg_slice = slice(int(segs.starts[i]), int(segs.ends[i]))
        bump[seg_slice] *= 1.5
        after = compute_quotas(segs, bump, t_rem, cfg).quotas
        trials += 1
        if after[i] < before[i]:
            violations += 1
    assert trials > 0
    assert violations / trials < 0.05


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_quota_exact_sum_and_bounds(data):
    cfg = default_config().replace(
        min_quota=data.draw(st.integers(0, 3)),
        mass_weighted_quotas_on=data.draw(st.booleans()),
    )
    n = data.draw(st.integers(1, 10))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    lengths = rng.integers(1, 20, size=n)
    segs = _segset(lengths)
    m = rng.random(int(lengths.sum())) + 1e-9
    t_rem = int(rng.integers(0, lengths.sum() + 1))
    qv = compute_quotas(segs, m, t_rem, cfg)
    assert qv.quotas.sum() == t_rem
    assert (qv.quotas >= 0).all() and (qv.quotas <= lengths).all()
    floors = np.minimum(cfg.min_quota, lengths)
    if t_rem >= floors.sum():
        assert (qv.quotas >= floors).all()
