import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from masskv.core import ContractViolation, default_config
from masskv.segmentation import (
    SegmentSet,
    cut_points,
    fixed_length_segments,
    merge_short,
    prefix_sums,
    segment,
    split_long,
)

from reference import (
    cut_points_reference,
    merge_short_reference,
    segment_reference,
    split_long_reference,
)


def _segs(*boundaries):
    return SegmentSet(np.array(boundaries, dtype=np.int64))


def test_cut_points_hand_trace():
    m = np.array([0.1, 0.2, 0.3, 0.4])
    cuts = cut_points(m, 0.25)
    assert cuts.tolist() == [2, 3, 4]
    segs = segment(m, default_config().replace(min_seg_len=1, max_seg_len=256, segment_mass=0.25))
    assert list(segs) == [(0, 2), (2, 3), (3, 4)]
    # prefix sums whose quotient by delta rounds below, then above, the count
    # of thresholds fl(j * delta) they reach
    assert cut_points(np.array([2.53, 0.11]), 0.11).tolist() == [1]
    assert cut_points(np.array([3.0, 2.1, 1.7000000000000002, 0.1]), 0.1).tolist() == [1, 2, 3, 4]


def test_cut_points_uniform_symmetry():
    m = np.full(8, 1 / 8)
    segs = segment(m, default_config().replace(min_seg_len=1, segment_mass=0.5))
    assert list(segs) == [(0, 4), (4, 8)]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_cut_points_at_exact_threshold_hits_match_reference(data):
    # masses that are whole multiples (or halves) of delta put prefix sums on
    # or next to the thresholds, where a rounded quotient could miscount
    delta = data.draw(st.sampled_from([0.1, 0.25, 1 / 3, 0.05, 0.3, 0.11, 0.01]))
    units = data.draw(st.lists(st.integers(0, 40), min_size=1, max_size=40))
    m = np.array(units) * delta / data.draw(st.sampled_from([1, 2]))
    assert cut_points(m, delta).tolist() == cut_points_reference(m, delta)


@pytest.mark.parametrize("delta", [1e-300, 5e-324])
def test_cut_points_tiny_delta_cuts_every_position(delta):
    # 1 / delta thresholds could never be built; every prefix sum crosses one
    m = np.random.default_rng(1).dirichlet(np.ones(50), size=3)
    assert cut_points(m, delta).tolist() == list(range(1, 151))
    assert cut_points(m[0], delta).tolist() == list(range(1, 51))


def _cut_forms(monkeypatch):
    """A list that gets one entry per cut_points call that searched the
    thresholds; a call that counted them adds none."""
    searched, search = [], np.searchsorted

    def spy(*args, **kwargs):
        searched.append(1)
        return search(*args, **kwargs)

    monkeypatch.setattr(np, "searchsorted", spy)
    return searched


@pytest.mark.parametrize(
    "m, delta, searched",
    [
        ([0.25, 0.25, 0.25, 0.25], 0.5, True),  # 2 thresholds over 4 positions
        ([0.25, 0.25, 0.25, 0.25], 0.25, False),  # as many thresholds as positions
        ([2.53, 0.11], 0.11, False),  # a total above 1
        ([0.0, 0.5, 0.5], 0.4, True),
        ([0.5, -0.25, 0.5], 0.25, False),  # a falling row
        ([[0.5, 0.5], [0.1, 0.1]], 0.6, True),  # rows of different totals
    ],
)
def test_cut_points_form_follows_the_threshold_count(monkeypatch, m, delta, searched):
    # the thresholds are searched while they are fewer than the positions
    # and every row rises; otherwise they are counted
    forms = _cut_forms(monkeypatch)
    cuts = cut_points(np.array(m), delta)
    assert bool(forms) == searched
    rows = np.atleast_2d(m)
    t = rows.shape[1]
    if (rows >= 0).all():
        assert cuts.tolist() == [
            h * t + c for h, row in enumerate(rows) for c in cut_points_reference(row, delta)
        ]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_cut_points_matches_reference_on_both_sides_of_the_switch(data):
    # thresholds top / delta land at T - 1, T or T + 1, around the count at
    # which the search gives way to the floor count; totals need not be 1
    rows = data.draw(st.sampled_from([1, 4]))
    t = data.draw(st.integers(1, 60))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    m = rng.random((rows, t)) * (rng.random((rows, t)) < data.draw(st.sampled_from([0.3, 1.0])))
    m = m * data.draw(st.sampled_from([0.3, 1.0, 2.53, 40.0])) / max(m.sum(axis=-1).max(), 1e-9)
    m = m.astype(data.draw(st.sampled_from([np.float64, np.float32])))
    top = float(np.cumsum(m.astype(np.float64), axis=-1)[:, -1].max())
    count = t + data.draw(st.sampled_from([-1, 0, 1]))
    delta = top / count if top > 0 and count > 0 and top <= count else 0.05
    expected = [h * t + c for h, row in enumerate(m) for c in cut_points_reference(row, delta)]
    assert cut_points(m if rows > 1 else m[0], delta).tolist() == expected


def test_cut_points_delta_one_single_segment():
    m = np.random.default_rng(0).dirichlet(np.ones(17))
    segs = segment(m, default_config().replace(min_seg_len=1, segment_mass=1.0))
    assert list(segs) == [(0, 17)]


def _bounds(*boundaries):
    return np.array(boundaries, dtype=np.int64)


def test_split_long_balanced():
    assert split_long(_bounds(0, 10), 4).tolist() == [0, 4, 7, 10]


def test_split_long_identity_and_minimal_violation():
    assert split_long(_bounds(0, 4, 8), 4).tolist() == [0, 4, 8]
    lengths = np.diff(split_long(_bounds(0, 5), 4))
    assert len(lengths) == 2 and lengths.max() - lengths.min() <= 1


def test_merge_short_sweep():
    assert np.diff(merge_short(_bounds(0, 2, 4, 24), 4)).tolist() == [4, 20]


def test_merge_short_identity_and_exhaustion():
    assert merge_short(_bounds(0, 4, 24), 4).tolist() == [0, 4, 24]
    assert merge_short(_bounds(0, 1, 3), 16).tolist() == [0, 3]


def test_merge_short_final_leftward():
    assert merge_short(_bounds(0, 20, 22), 4).tolist() == [0, 22]


def _pairs(bounds):
    return list(zip(bounds[:-1].tolist(), bounds[1:].tolist()))


@settings(max_examples=300, deadline=None)
@given(
    t=st.integers(1, 30),
    cuts=st.lists(st.sets(st.integers(1, 29)), min_size=1, max_size=4),
    max_len=st.integers(1, 12),
    min_len=st.integers(1, 12),
)
@example(t=10, cuts=[{4, 9}, {2, 5}], max_len=10, min_len=3)  # head 0's trailing run is short
@example(t=5, cuts=[{2}, set(), {1, 3}], max_len=8, min_len=8)  # head 1 is one short segment
def test_flat_split_and_merge_match_the_per_head_references(t, cuts, max_len, min_len):
    # one flat pass over every head's boundaries equals the naive interval
    # rules run on each head alone, shifted by h * T and laid end to end
    heads = len(cuts)
    per_head = [sorted({0, t} | {c for c in cut if c < t}) for cut in cuts]
    intervals = [list(zip(b[:-1], b[1:])) for b in per_head]
    bounds = np.unique(np.concatenate([np.array(b) + h * t for h, b in enumerate(per_head)]))

    def laid_out(rule):
        return [(a + h * t, b + h * t) for h, iv in enumerate(intervals) for a, b in rule(iv)]

    split = split_long(bounds, max_len)
    assert split.dtype == np.int64
    assert _pairs(split) == laid_out(lambda iv: split_long_reference(iv, max_len))
    assert _pairs(merge_short(bounds, min_len, heads)) == laid_out(
        lambda iv: merge_short_reference(iv, min_len)
    )
    assert _pairs(merge_short(split, min_len, heads)) == laid_out(
        lambda iv: merge_short_reference(split_long_reference(iv, max_len), min_len)
    )


def test_fixed_length_mode():
    cfg = default_config().replace(fixed_length_segments_on=True, max_seg_len=256)
    segs = segment(np.full(600, 1 / 600), cfg)
    assert list(segs) == [(0, 256), (256, 512), (512, 600)]
    assert list(fixed_length_segments(5, 10)) == [(0, 5)]


def test_segment_uniform_default_shape():
    cfg = default_config()
    segs = segment(np.full(512, 1 / 512), cfg.replace(t_keep=256))
    lengths = segs.lengths
    assert len(segs) == 10
    assert lengths.min() >= 51 and lengths.max() <= 52


def test_segment_spike_gets_fine_cuts():
    t = 200
    m = np.full(t, 0.1 / (t - 1))
    m[100] = 0.9
    cuts = cut_points(m, 0.1)
    # every threshold from the spike's mass lands on the spike position
    assert (cuts == 101).sum() == 1  # deduplicated
    inside = ((cuts > 90) & (cuts <= 110)).sum()
    outside = ((cuts > 0) & (cuts <= 20)).sum()
    assert inside >= outside


def test_segmentset_validation():
    with pytest.raises(ContractViolation):
        _segs(1, 4)
    with pytest.raises(ContractViolation):
        _segs(0, 4, 4)
    with pytest.raises(ContractViolation, match="at least one head"):
        SegmentSet(np.array([0, 4]), heads=0)  # before any division by it
    with pytest.raises(ContractViolation):
        cut_points(np.array([0.5, 0.5]), 0.0)


def test_masses_prefix_differences():
    m = np.array([0.1, 0.2, 0.3, 0.4])
    segs = _segs(0, 2, 4)
    np.testing.assert_allclose(segs.masses(prefix_sums(m)), [0.3, 0.7])


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_pipeline_matches_reference_and_tiles(data):
    t = data.draw(st.integers(1, 96))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    m = rng.dirichlet(np.full(t, data.draw(st.sampled_from([0.2, 1.0, 5.0]))))
    delta = data.draw(st.sampled_from([0.03, 0.1, 0.25, 0.5, 1.0]))
    lmax = data.draw(st.integers(1, 64))
    lmin = data.draw(st.integers(1, lmax))
    fixed = data.draw(st.booleans())
    cfg = default_config().replace(
        segment_mass=delta,
        min_seg_len=lmin,
        max_seg_len=lmax,
        fixed_length_segments_on=fixed,
    )
    segs = segment(m, cfg)
    # exact tiling of [0, T)
    assert segs.boundaries[0] == 0 and segs.boundaries[-1] == t
    assert (np.diff(segs.boundaries) > 0).all()
    # exact agreement with the naive reference
    assert list(segs) == segment_reference(m, delta, lmin, lmax, fixed=fixed)
    # length floor holds unless merging was impossible (single segment);
    # the fixed-length ablation ignores the floor by design
    if not fixed and len(segs) > 1:
        assert segs.lengths.min() >= min(lmin, t)


def test_high_mass_regions_get_more_raw_cuts():
    # window A carries at least twice window B's mass => at least as many cuts
    rng = np.random.default_rng(3)
    for _ in range(200):
        t = 80
        m = rng.dirichlet(np.ones(t))
        a, b = (slice(0, 20), slice(40, 60))
        if m[a].sum() < 2 * m[b].sum():
            continue
        cuts = cut_points(m, 0.05)
        in_a = ((cuts > 0) & (cuts <= 20)).sum()
        in_b = ((cuts > 40) & (cuts <= 60)).sum()
        assert in_a >= in_b
