import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from masskv.core import (
    CompressionConfig,
    ConfigError,
    ContractViolation,
    TokenLedger,
    advance_ledger,
    default_config,
    load_config,
    save_config,
)


def test_default_config_values():
    cfg = default_config()
    assert cfg.segment_mass == 0.1
    assert cfg.min_seg_len == 16
    assert cfg.max_seg_len == 256
    assert cfg.min_quota == 1
    assert cfg.ema_decay == 0.9
    assert cfg.mass_mix == 0.9
    assert cfg.window == 128
    assert cfg.n_sink == 4
    assert cfg.interval == 512
    assert cfg.t_keep is None  # caller supplies 256/512/1024


def test_config_rejects_out_of_range():
    with pytest.raises(ConfigError):
        CompressionConfig(segment_mass=0.0)
    with pytest.raises(ConfigError):
        CompressionConfig(segment_mass=1.5)
    with pytest.raises(ConfigError):
        CompressionConfig(ema_decay=1.0)
    with pytest.raises(ConfigError):
        CompressionConfig(smooth_kernel=4)
    with pytest.raises(ConfigError):
        CompressionConfig(min_seg_len=32, max_seg_len=16)
    with pytest.raises(ConfigError):
        CompressionConfig(epsilon=0.0)


@pytest.mark.parametrize(
    "bad",
    [{"t_keep": "16"}, {"t_keep": 16.0}, {"window": 2.5}, {"n_sink": True},
     {"ema_decay": False}, {"epsilon": float("nan")}, {"epsilon": float("inf")},
     {"ema_on": "false"}, {"ema_on": 1}, {"fixed_length_segments_on": None}],
)
def test_config_rejects_wrong_types(bad):
    with pytest.raises(ConfigError):
        CompressionConfig(**bad)


def test_config_accepts_numpy_numbers():
    cfg = CompressionConfig(
        t_keep=np.int64(64), window=np.int32(8), epsilon=1, ema_decay=np.float32(0.5)
    )
    assert (cfg.t_keep, cfg.window, cfg.epsilon, cfg.ema_decay) == (64, 8, 1, 0.5)


def test_require_t_keep():
    with pytest.raises(ConfigError):
        default_config().require_t_keep()
    assert default_config().replace(t_keep=256).require_t_keep() == 256
    with pytest.raises(ConfigError):
        default_config().replace(t_keep=3, n_sink=4).require_t_keep()


def test_config_file_roundtrip_bit_exact(tmp_path):
    for cfg in (
        default_config(),  # t_keep unset
        default_config().replace(t_keep=512, epsilon=1e-7, segment_mass=0.07),
    ):
        path = tmp_path / "run.cfg"
        save_config(cfg, path)
        loaded = load_config(path)
        assert loaded == cfg
        for f in dataclasses.fields(CompressionConfig):
            assert getattr(loaded, f.name) == getattr(cfg, f.name)


def test_config_file_rejects_invalid(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("segment_mass = 0.0\n")
    with pytest.raises(ConfigError):
        load_config(path)
    path.write_text("not_a_key = 3\n")
    with pytest.raises(ConfigError, match="line 1"):
        load_config(path)
    path.write_text("segment_mass\n")
    with pytest.raises(ConfigError, match="key=value"):
        load_config(path)


def test_config_file_comments_and_overrides(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("# comment\n t_keep = 256 # inline\nema_on = false\n\n")
    cfg = load_config(path)
    assert cfg.t_keep == 256
    assert cfg.ema_on is False
    assert cfg.window == 128  # untouched default


def _ledger1d(ids):
    ids = np.asarray(ids, dtype=np.int64)[None, :]
    return TokenLedger(ids, next_id=int(ids.max()) + 1 if ids.size else 0)


def test_advance_ledger_examples():
    led = advance_ledger(_ledger1d([0, 1, 2, 3]), 1, np.array([[0, 2, 4]]))
    assert led.ids[0].tolist() == [0, 2, 4]

    led = advance_ledger(_ledger1d([5, 6, 7]), 0, np.array([[0, 1, 2]]))
    assert led.ids[0].tolist() == [5, 6, 7]

    led = advance_ledger(_ledger1d(list(range(10))), 2, np.array([[0, 9, 10, 11]]))
    assert led.ids[0].tolist() == [0, 9, 10, 11]
    assert led.next_id == 12


def test_advance_ledger_out_of_range():
    with pytest.raises(ContractViolation):
        advance_ledger(_ledger1d([0, 1]), 0, np.array([[0, 5]]))
    with pytest.raises(ContractViolation):
        advance_ledger(_ledger1d([0, 1]), 1, np.array([[0, 3]]))  # only 3 ids after append
    with pytest.raises(ContractViolation):
        advance_ledger(_ledger1d([0, 1]), 0, np.array([[[0, 1]]]))  # [heads, k] only


def test_advance_ledger_per_head_keeps():
    led = TokenLedger.fresh(2, 4)
    keep = np.array([[0, 2, 4], [1, 3, 4]])
    led = advance_ledger(led, 1, keep)
    assert led.ids[0].tolist() == [0, 2, 4]
    assert led.ids[1].tolist() == [1, 3, 4]
    assert led.next_id == 5


@settings(max_examples=150)
@given(st.data())
def test_advance_ledger_preserves_monotonicity(data):
    length = data.draw(st.integers(1, 40))
    led = TokenLedger.fresh(2, length)
    for _ in range(data.draw(st.integers(1, 4))):
        new = data.draw(st.integers(0, 5))
        k = data.draw(st.integers(1, led.length + new))
        keeps = []
        for _ in range(2):
            idx = data.draw(
                st.lists(
                    st.integers(0, led.length + new - 1), min_size=k, max_size=k, unique=True
                )
            )
            keeps.append(sorted(idx))
        led = advance_ledger(led, new, np.array(keeps))
        assert (np.diff(led.ids, axis=-1) > 0).all()
        assert led.ids.max() < led.next_id
