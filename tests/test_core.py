import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from masskv.core import CompressionConfig, ConfigError, default_config
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
     {"ema_on": "false"}, {"ema_on": 1}, {"fixed_length_segments_on": None},
     {"ema_decay": 10**400}, {"mass_mix": -(10**400)}, {"n_last": 2**63}],
)
def test_config_rejects_wrong_types(bad):
    with pytest.raises(ConfigError):
        CompressionConfig(**bad)


def test_config_accepts_numpy_numbers():
    cfg = CompressionConfig(
        t_keep=np.int64(64), window=np.int32(8), epsilon=1, ema_decay=np.float32(0.5)
    )
    assert (cfg.t_keep, cfg.window, cfg.epsilon, cfg.ema_decay) == (64, 8, 1, 0.5)
    # the int64 range's ends, which the CLI test checks one past
    assert CompressionConfig(window=2**63 - 1, min_quota=np.uint64(2**63 - 1)).window == 2**63 - 1


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


# JSON-like values at and past the ends of every kind a run input may take:
# int64's ends, integers too large for a float, NaN and infinities, and
# strings, lists and objects, which no number field takes
JSON_LIKE = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 300),
    st.sampled_from([2**63 - 1, 2**63, -(2**63), -(2**63) - 1, 10**400, -(10**400)]),
    st.floats(),
    st.text(max_size=4),
    st.lists(st.integers(0, 3), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(0, 3), max_size=2),
)


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(st.sampled_from([f.name for f in dataclasses.fields(CompressionConfig)]),
                       JSON_LIKE))
def test_no_config_value_raises_anything_but_a_config_error(changes):
    try:
        default_config().replace(**changes).require_t_keep()
    except ConfigError:
        pass
