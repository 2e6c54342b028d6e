import numpy as np
import pytest

from masskv.core import ConfigError, ContractViolation
from masskv.scorers import (
    get_scorer,
    score_constant,
    score_expected_attention_proxy,
    score_key_diff,
    score_recent_attention,
)

from test_mass import _usage


def test_recent_attention_is_last_row():
    rows = np.array([[0.3, 0.7, 0.0], [0.1, 0.6, 0.3]])
    g = score_recent_attention(rows[-1], _usage(rows), None)
    np.testing.assert_allclose(g, [0.1, 0.6, 0.3])


def test_recent_attention_uniform_ties():
    rows = np.full((1, 4), 0.25)
    g = score_recent_attention(rows[-1], _usage(rows), None)
    assert (g == 0.25).all()


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
        usage = _usage(rows)
        g = score_expected_attention_proxy(rows[-1], usage, None)
        np.testing.assert_array_equal(g, usage)


def test_expected_proxy_single_row_equals_recent():
    rng = np.random.default_rng(1)
    raw = rng.random(6)
    rows = (raw / raw.sum())[None, :]
    usage = _usage(rows)
    np.testing.assert_allclose(
        score_expected_attention_proxy(rows[-1], usage, None),
        score_recent_attention(rows[-1], usage, None),
    )


def test_expected_proxy_constant_rows():
    # three identical rows over a cache of 6: the two newest columns were
    # hidden from the older rows and mix in the pad (0.25)
    rows = np.tile([0.25, 0.25, 0.25, 0.25, 0.0, 0.0], (3, 1))
    usage = _usage(rows)
    np.testing.assert_allclose(
        score_expected_attention_proxy(rows[-1], usage, None),
        [0.25, 0.25, 0.25, 0.25, 0.25 / 3, 0.5 / 3],
    )


def test_key_diff_examples():
    g = score_key_diff(None, None, np.array([[0.0, 0.0], [3.0, 4.0]]))
    np.testing.assert_allclose(g, [5.0, 5.0])
    np.testing.assert_allclose(score_key_diff(None, None, np.ones((4, 3))), np.zeros(4))
    np.testing.assert_allclose(score_key_diff(None, None, np.ones((1, 3))), [0.0])


def test_score_constant():
    rows = np.full((1, 3), 1 / 3)
    np.testing.assert_array_equal(score_constant(rows[-1], _usage(rows), None), [1.0] * 3)
    assert score_constant(np.zeros(5), None, np.zeros((5, 4))).size == 5


def test_registry_dispatch():
    newest = np.full(4, 0.25)
    usage = _usage(newest[None, :])
    keys = np.arange(8, dtype=np.float64).reshape(4, 2)
    np.testing.assert_allclose(get_scorer("recent")(newest, usage, keys), np.full(4, 0.25))
    np.testing.assert_allclose(get_scorer("expected")(newest, usage, keys), np.full(4, 0.25))
    np.testing.assert_allclose(get_scorer("constant")(newest, usage, keys), np.ones(4))
    assert get_scorer("keydiff")(newest, usage, keys).shape == (4,)
    for name in ("nope", {}, [], None):  # a dict or list is unhashable
        with pytest.raises(ConfigError, match="unknown scorer"):
            get_scorer(name)
    with pytest.raises(ContractViolation):
        get_scorer("keydiff")(newest, usage, None)
