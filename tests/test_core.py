import json

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
)
from masskv.cli import main


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


def test_replace_rejects_unknown_fields():
    with pytest.raises(ConfigError, match="unknown config keys \\['t_kep'\\]"):
        default_config().replace(t_kep=3)
    with pytest.raises(ConfigError, match="unknown config keys"):
        default_config().replace(**{"self": 1})
    assert default_config().replace(t_keep=3).t_keep == 3


def test_config_file_roundtrip_bit_exact(tmp_path):
    # a trace's "config" object, written as a --config file, reproduces the trace
    run = ["run", "--policy", "ams", "--workload", "drifting_focus", "--steps", "256"]
    plan = {"entries": [{"name": "ams_expected_drifting_focus", "policy": "ams",
                         "workload": "drifting_focus", "steps": 256,
                         "config": {"t_keep": 40, "interval": 64, "window": 32,
                                    "epsilon": 1e-7, "segment_mass": 0.07, "ema_on": False}}]}
    (tmp_path / "plan.json").write_text(json.dumps(plan))
    assert main(["run", "--plan", str(tmp_path / "plan.json"), "--out", str(tmp_path / "a")]) == 0
    first = tmp_path / "a" / "ams_expected_drifting_focus_seed0.json"
    (tmp_path / "run.json").write_text(json.dumps(json.loads(first.read_text())["config"]))
    assert main(run + ["--config", str(tmp_path / "run.json"), "--out", str(tmp_path / "b")]) == 0
    for suffix in (".json", ".csv"):
        again = (tmp_path / "b" / first.name).with_suffix(suffix)
        assert again.read_bytes() == first.with_suffix(suffix).read_bytes()


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
