import numpy as np
import pytest

from masskv.core import ConfigError, ContractViolation, default_config
from masskv.mass import UsageWindow, aggregate_usage
from masskv.scorers import (
    get_scorer,
    score_constant,
    score_expected_attention_proxy,
    score_key_diff,
    score_recent_attention,
)


CFG = default_config()


def test_recent_attention_is_last_row():
    win = UsageWindow(np.array([[0.3, 0.7, 0.0], [0.1, 0.6, 0.3]]))
    np.testing.assert_allclose(score_recent_attention(win, None, CFG), [0.1, 0.6, 0.3])


def test_recent_attention_uniform_ties():
    win = UsageWindow(np.full((1, 4), 0.25))
    g = score_recent_attention(win, None, CFG)
    assert (g == 0.25).all()


def test_recent_attention_pads_masked_suffix():
    win = UsageWindow(np.array([[0.4, 0.6, 0.0]]), visible=np.array([2]))
    np.testing.assert_allclose(score_recent_attention(win, None, CFG), [0.4, 0.6, 0.6])


def test_expected_proxy_equals_aggregate():
    rng = np.random.default_rng(0)
    for _ in range(50):
        t = int(rng.integers(2, 30))
        w = int(rng.integers(1, min(t, 8) + 1))
        rows = np.zeros((w, t))
        for j in range(w):
            vis = t - w + 1 + j
            raw = rng.random(vis) + 1e-3
            rows[j, :vis] = raw / raw.sum()
        win = UsageWindow(rows)
        np.testing.assert_array_equal(
            score_expected_attention_proxy(win, None, CFG), aggregate_usage(win, CFG.window)
        )


def test_expected_proxy_single_row_equals_recent():
    rng = np.random.default_rng(1)
    raw = rng.random(6)
    row = raw / raw.sum()
    win = UsageWindow(row[None, :])
    np.testing.assert_allclose(
        score_expected_attention_proxy(win, None, CFG.replace(window=4)),
        score_recent_attention(win, None, CFG),
    )


def test_expected_proxy_constant_rows():
    win = UsageWindow(np.full((3, 5), 0.2), visible=np.array([5, 5, 5]))
    np.testing.assert_allclose(score_expected_attention_proxy(win, None, CFG.replace(window=3)), np.full(5, 0.2))


def test_key_diff_examples():
    g = score_key_diff(None, np.array([[0.0, 0.0], [3.0, 4.0]]), CFG)
    np.testing.assert_allclose(g, [5.0, 5.0])
    np.testing.assert_allclose(score_key_diff(None, np.ones((4, 3)), CFG), np.zeros(4))
    np.testing.assert_allclose(score_key_diff(None, np.ones((1, 3)), CFG), [0.0])


def test_score_constant():
    win = UsageWindow(np.full((1, 3), 1 / 3))
    np.testing.assert_array_equal(score_constant(win, None, CFG), [1.0, 1.0, 1.0])
    np.testing.assert_array_equal(score_constant(None, np.zeros((2, 4)), CFG), [1.0, 1.0])
    assert score_constant(None, np.zeros((0, 4)), CFG).size == 0


def test_registry_dispatch():
    win = UsageWindow(np.full((1, 4), 0.25))
    keys = np.arange(8, dtype=np.float64).reshape(4, 2)
    np.testing.assert_allclose(get_scorer("recent")(win, keys, CFG), np.full(4, 0.25))
    np.testing.assert_allclose(get_scorer("constant")(win, keys, CFG), np.ones(4))
    assert get_scorer("keydiff")(win, keys, CFG).shape == (4,)
    with pytest.raises(ConfigError):
        get_scorer("nope")
    with pytest.raises(ContractViolation):
        get_scorer("keydiff")(win, None, CFG)
