import dataclasses
import json
import tempfile
from concurrent.futures import Future
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from masskv import cli
from masskv.cli import ExperimentPlan, PlanEntry, cmd_run, load_plan, main
from masskv.core import CompressionConfig, ConfigError, default_config

from test_core import JSON_LIKE


def test_single_run_via_flags(tmp_path):
    out = tmp_path / "traces"
    rc = main(
        [
            "run",
            "--policy", "ams",
            "--scorer", "expected",
            "--workload", "uniform",
            "--t-keep", "48",
            "--interval", "96",
            "--steps", "192",
            "--seed", "3",
            "--out", str(out),
        ]
    )
    assert rc == 0
    stem = out / "ams_expected_uniform_seed3"
    assert stem.with_suffix(".json").exists()
    assert stem.with_suffix(".csv").exists()
    doc = json.loads(stem.with_suffix(".json").read_text())
    assert doc["policy"] == "ams" and doc["seed"] == 3
    assert len(doc["events"]) == 2


def test_config_file_and_flag_precedence(tmp_path):
    cfg_file = tmp_path / "run.json"
    cfg_file.write_text(json.dumps({"t_keep": 32, "interval": 64, "n_last": 4}))
    out = tmp_path / "o"
    rc = main(
        [
            "run", "--config", str(cfg_file), "--steps", "128",
            "--interval", "128",  # flag overrides the file
            "--out", str(out), "--policy", "streaming",
        ]
    )
    assert rc == 0
    doc = json.loads(next(out.glob("*.json")).read_text())
    assert doc["config"]["t_keep"] == 32       # from file
    assert doc["config"]["interval"] == 128    # flag wins
    assert doc["config"]["n_last"] == 4


def test_invalid_config_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"segment_mass": 0.0}))
    rc = main(["run", "--config", str(bad), "--t-keep", "32", "--out", str(tmp_path / "x")])
    assert rc == 2


def test_missing_t_keep_exits_2(tmp_path):
    rc = main(["run", "--out", str(tmp_path / "x"), "--steps", "64"])
    assert rc == 2


def test_plan_run_multiple_entries(tmp_path):
    plan = {
        "out_dir": str(tmp_path / "traces"),
        "entries": [
            {
                "name": "a",
                "policy": "ams",
                "workload": "uniform",
                "steps": 128,
                "seeds": [0, 1],
                "config": {"t_keep": 32, "interval": 64, "window": 32},
            },
            {
                "name": "b",
                "policy": "streaming",
                "workload": "heavy_hitter",
                "steps": 128,
                "seeds": [0],
                "config": {"t_keep": 32, "interval": 64},
            },
        ],
    }
    ppath = tmp_path / "plan.json"
    ppath.write_text(json.dumps(plan))
    rc = main(["run", "--plan", str(ppath)])
    assert rc == 0
    made = sorted(p.name for p in (tmp_path / "traces").glob("*.json"))
    assert made == ["a_seed0.json", "a_seed1.json", "b_seed0.json"]


def test_plan_rejects_collisions_and_unknown_keys(tmp_path):
    entry = {"name": "x", "policy": "ams", "seeds": [0]}
    with pytest.raises(ConfigError, match="collide"):
        ExperimentPlan(entries=[PlanEntry(**entry), PlanEntry(**entry)], out_dir=tmp_path)
    ppath = tmp_path / "plan.json"
    ppath.write_text(json.dumps({"entries": [{"policy": "ams", "wat": 1}]}))
    with pytest.raises(ConfigError, match="unknown keys"):
        load_plan(ppath)
    ppath.write_text(json.dumps({"entries": [{"name": "x", "policy": "ams"}, {"steps": 64}]}))
    with pytest.raises(ConfigError, match="plan entry 1: missing key 'policy'"):
        load_plan(ppath)
    ppath.write_text("{not json")
    with pytest.raises(ConfigError, match="line"):
        load_plan(ppath)
    ppath.write_text(json.dumps({"entries": []}))
    with pytest.raises(ConfigError, match="no entries"):
        load_plan(ppath)


def test_plan_rejects_unknown_top_level_keys(tmp_path, monkeypatch):
    # a misspelt out_dir must not fall back to ./traces
    monkeypatch.chdir(tmp_path)
    entry = {"name": "x", "policy": "ams", "steps": 64, "config": {"t_keep": 32}}
    ppath = tmp_path / "plan.json"
    ppath.write_text(json.dumps({"entries": [entry], "out_dri": "x"}))
    with pytest.raises(ConfigError, match="out_dri"):
        load_plan(ppath)
    assert main(["run", "--plan", str(ppath)]) == 2
    assert not (tmp_path / "traces").exists() and not (tmp_path / "x").exists()


def test_plan_bad_policy_exits_2(tmp_path):
    ppath = tmp_path / "plan.json"
    ppath.write_text(json.dumps({"entries": [{"name": "x", "policy": "nope"}]}))
    rc = main(["run", "--plan", str(ppath), "--out", str(tmp_path / "o")])
    assert rc == 2


def test_parallel_jobs_match_serial(tmp_path):
    base = {
        "policy": "ams",
        "workload": "drifting_focus",
        "steps": 128,
        "config": {"t_keep": 32, "interval": 64, "window": 32},
    }
    plan = {
        "entries": [
            dict(base, name="p0", seeds=[0]),
            dict(base, name="p1", seeds=[1]),
        ]
    }
    ppath = tmp_path / "plan.json"
    ppath.write_text(json.dumps(plan))
    rc = main(["run", "--plan", str(ppath), "--out", str(tmp_path / "serial")])
    assert rc == 0
    rc = main(["run", "--plan", str(ppath), "--out", str(tmp_path / "par"), "--jobs", "2"])
    assert rc == 0
    for name in ("p0_seed0.json", "p1_seed1.json"):
        assert (tmp_path / "serial" / name).read_bytes() == (tmp_path / "par" / name).read_bytes()


def test_compact_check_cli():
    assert main(["compact-check", "--cases", "40", "--seed", "0"]) == 0
    assert main(["compact-check", "--cases", "8", "--seed", "0", "--corrupt"]) == 1


@pytest.mark.parametrize("cases", ["0", "-5"])
def test_compact_check_bad_case_count_exits_2(capsys, cases):
    assert main(["compact-check", "--cases", cases]) == 2
    out, err = capsys.readouterr()
    assert "passed" not in out and "--cases must be >= 1" in err


def test_compact_check_negative_seed_exits_2(capsys):
    assert main(["compact-check", "--cases", "1", "--seed", "-1"]) == 2
    out, err = capsys.readouterr()
    assert "passed" not in out and "--seed must be >= 0" in err


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_run_bad_job_count_exits_2_before_any_run(tmp_path, capsys, jobs):
    out = tmp_path / "o"
    rc = main(["run", "--t-keep", "32", "--interval", "64", "--steps", "128",
               "--out", str(out), "--jobs", jobs])
    assert rc == 2
    assert "--jobs must be >= 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("policy", ["ams", "streaming"])
def test_negative_seed_flag_exits_2_before_any_run(tmp_path, capsys, policy):
    out = tmp_path / "o"
    rc = main(["run", "--policy", policy, "--t-keep", "32", "--interval", "64",
               "--steps", "128", "--seed", "-1", "--out", str(out)])
    assert rc == 2
    assert "seed must be an integer >= 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "seeds, jobs, pool_sizes",
    [([0], "8", []), ([0, 1], "8", [2]), ([0, 1, 2], "2", [2]), ([0, 1], "1", [])],
)
def test_jobs_start_no_more_workers_than_runs(tmp_path, monkeypatch, seeds, jobs, pool_sizes):
    sizes = []

    class RecordingPool:
        """Records its size and runs each task inline; starts no process."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            fut = Future()
            fut.set_result(fn(*args))
            return fut

    monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
    plan = {"entries": [{"name": "x", "policy": "streaming", "steps": 128, "seeds": seeds}]}
    ppath = tmp_path / "plan.json"
    ppath.write_text(json.dumps(plan))
    out = tmp_path / "o"
    rc = main(["run", "--plan", str(ppath), "--t-keep", "32", "--interval", "64",
               "--out", str(out), "--jobs", jobs])
    assert rc == 0
    assert sizes == pool_sizes
    assert sorted(p.name for p in out.glob("*.json")) == [f"x_seed{s}.json" for s in seeds]


def test_cmd_run_library_parity(tmp_path):
    # the CLI is a thin shell over the library path
    from masskv.sim import WorkloadSpec, run_schedule, trace_to_dict

    entry = PlanEntry(
        name="z",
        policy="global_topk",
        workload="uniform",
        steps=128,
        seeds=[5],
        config={"t_keep": 32, "interval": 64},
    )
    plan = ExperimentPlan(entries=[entry], out_dir=tmp_path / "o")
    assert cmd_run(plan, default_config()) == 0
    via_cli = json.loads((tmp_path / "o" / "z_seed5.json").read_text())

    cfg = default_config().replace(t_keep=32, interval=64)
    trace = run_schedule(WorkloadSpec("uniform", steps=128, seed=5), "global_topk", cfg)
    assert via_cli == json.loads(json.dumps(trace_to_dict(trace)))


@pytest.mark.parametrize(
    "plan",
    [
        [{"name": "x", "policy": "ams"}],  # top level is not an object
        {"entries": [{"name": "x", "policy": "ams", "config": {"t_kep": 32}}]},
        {"entries": [{"name": "x", "policy": "ams", "steps": "128"}]},
        {"entries": [{"name": "x", "policy": "ams", "seeds": [0, "1"]}]},
        {"entries": 5},
        {"entries": [5]},
        {"entries": [{"name": "x", "policy": "ams", "config": [1]}]},
        {"entries": [{"name": "x", "policy": "streaming"},
                     {"name": "y", "policy": "ams", "config": {"segment_mass": 0.0}}]},
        {"entries": [{"name": "x", "policy": "streaming"},
                     {"name": "y", "policy": "ams", "steps": 0}]},
        {"entries": [{"name": "x", "policy": "ams", "config": {"t_keep": "16"}}]},
        {"entries": [{"name": "x", "policy": "ams", "config": {"ema_on": "false"}}]},
        {"entries": [{"name": "x", "policy": "ams", "config": {"window": 2.5}}]},
        {"entries": [{"name": "x", "policy": "ams", "config": {"n_sink": True}}]},
        {"entries": [{"name": "x", "policy": "ams", "config": {"epsilon": True}}]},
        {"entries": [{"name": "x", "policy": "ams", "workload": "heavy_hitter",
                      "workload_params": {"hitter_count": "many"}}]},
        {"entries": [{"name": "x", "policy": "ams", "workload": "heavy_hitter",
                      "workload_params": {"hitter_count": True}}]},
        {"entries": [{"name": "x", "policy": "streaming"},
                     {"name": "y", "policy": "ams", "workload": "uniform",
                      "workload_params": {"hitter_count": 3}}]},
        {"entries": [{"name": "x", "policy": "ams", "workload_params": [1]}]},
        {"entries": [{"name": "x", "policy": "ams", "workload": "heavy_hitter",
                      "workload_params": {"hitter_count": -1}}]},
        {"entries": [{"name": "x", "policy": "streaming"},
                     {"name": "y", "policy": "ams", "workload": "uniform",
                      "workload_params": {"noise": 3}}]},
        {"entries": [{"name": "x", "policy": "ams", "workload": "low_region_adversarial",
                      "workload_params": {"region_len": -5}}]},
        # json.dumps writes 10**400 as a 401-digit integer literal
        {"entries": [{"name": "x", "policy": "streaming"},
                     {"name": "y", "policy": "ams", "workload": "drifting_focus",
                      "workload_params": {"drift": 10**400}}]},
        {"entries": [{"name": "x", "policy": "ams", "workload": "low_region_adversarial",
                      "workload_params": {"suppress": 10**400}}]},
        # finite floats, but past the documented bounds
        {"entries": [{"name": "x", "policy": "streaming"},
                     {"name": "y", "policy": "ams", "workload": "drifting_focus",
                      "workload_params": {"drift": 1e308}}]},
        {"entries": [{"name": "x", "policy": "ams", "workload": "low_region_adversarial",
                      "workload_params": {"suppress": 1e308}}]},
        {"entries": [{"name": "x", "policy": "ams", "workload": "heavy_hitter", "steps": 128,
                      "workload_params": {"hitter_count": 129}}]},
        # every row of at most region_len tokens would be all zero
        {"entries": [{"name": "x", "policy": "ams", "workload": "low_region_adversarial",
                      "workload_params": {"region_start": 0, "suppress": 0},
                      "config": {"t_keep": 32, "interval": 16, "window": 16}, "steps": 256}]},
        # traces that would land outside the out directory, have no name, or never be written
        {"entries": [{"name": "../escaped", "policy": "streaming"}]},
        {"entries": [{"name": "sub/x", "policy": "streaming"}]},
        {"entries": [{"name": "", "policy": "streaming"}]},
        {"entries": [{"name": 7, "policy": "streaming"}]},
        {"entries": [{"name": "a\0b", "policy": "streaming"}]},
        {"entries": [{"name": "x", "policy": "streaming", "seeds": []}]},
        {"out_dir": 5, "entries": [{"name": "x", "policy": "streaming"}]},
        {"out_dir": None, "entries": [{"name": "x", "policy": "streaming"}]},
        {"entries": [{"name": "x", "policy": "streaming"},
                     {"name": "y", "policy": "streaming", "seeds": [0, -1]}]},
        {"entries": [{"name": "x", "policy": "streaming", "seeds": [0, [1]]}]},
        # a scorer or policy name that is no string (and unhashable), no policy
        # at all, and an integer too large for a float in a float field
        {"entries": [{"name": "x", "policy": "ams", "scorer": {}}]},
        {"entries": [{"name": "x", "policy": []}]},
        {"entries": [{"name": "x", "policy": "streaming"}, {"name": "y", "steps": 64}]},
        {"entries": [{"name": "x", "policy": "ams", "config": {"ema_decay": 10**400}}]},
    ],
    ids=["not_an_object", "unknown_config_key", "non_integer_steps", "seeds_not_ints",
         "entries_not_a_list", "entry_not_an_object", "config_not_an_object",
         "later_entry_bad_config_value", "later_entry_zero_steps",
         "string_t_keep", "string_bool", "float_int_field", "bool_int_field",
         "bool_float_field", "string_workload_param", "bool_workload_param",
         "later_entry_unread_workload_param", "workload_params_not_an_object",
         "negative_hitter_count", "later_entry_noise_out_of_range", "negative_region_len",
         "later_entry_drift_too_big_for_a_float", "suppress_too_big_for_a_float",
         "later_entry_drift_1e308", "suppress_1e308",
         "more_hitters_than_steps", "zero_rows_at_region_start", "name_escapes_out_dir",
         "name_with_a_directory", "empty_name", "name_not_a_string", "name_with_a_nul", "no_seeds",
         "out_dir_not_a_string", "out_dir_null", "later_entry_negative_seed",
         "unhashable_seed", "scorer_not_a_string", "policy_not_a_string",
         "later_entry_without_a_policy", "float_config_value_too_big_for_a_float"],
)
def test_bad_plan_exits_2_before_any_run(tmp_path, capsys, plan):
    ppath = tmp_path / "plan.json"
    ppath.write_text(json.dumps(plan))
    rc = main(["run", "--plan", str(ppath), "--t-keep", "32", "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "configuration error:" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["plan.json"]


def test_plan_with_an_integer_too_long_to_convert_exits_2(tmp_path, capsys):
    ppath = tmp_path / "plan.json"
    ppath.write_text('{"entries": [{"name": "x", "policy": "ams", "steps": %s}]}' % ("9" * 5000))
    rc = main(["run", "--plan", str(ppath), "--t-keep", "32", "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "configuration error:" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()



@pytest.mark.parametrize(
    "text",
    [
        "{not json",
        json.dumps([{"t_keep": 32}]),
        json.dumps({"t_keep": 32, "t_kep": 32}),
        json.dumps({"t_keep": "32"}),
        json.dumps({"t_keep": 32, "ema_on": "false"}),
        json.dumps({"t_keep": 32, "segment_mass": 0.0}),
        '{"t_keep": %s}' % ("9" * 5000),
    ],
    ids=["not_json", "top_level_list", "unknown_key", "string_t_keep", "string_bool",
         "segment_mass_zero", "integer_too_long_to_convert"],
)
def test_bad_config_exits_2_before_any_run(tmp_path, capsys, text):
    cpath = tmp_path / "run.json"
    cpath.write_text(text)
    rc = main(["run", "--config", str(cpath), "--steps", "128", "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "configuration error:" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["run.json"]


@pytest.mark.parametrize(
    "name", [f.name for f in dataclasses.fields(CompressionConfig) if f.type.startswith("int")]
)
def test_config_integer_beyond_int64_exits_2_before_any_run(tmp_path, capsys, name):
    cpath = tmp_path / "run.json"
    cpath.write_text(json.dumps({"t_keep": 32, name: 2**63}))
    rc = main(["run", "--config", str(cpath), "--steps", "128", "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "configuration error:" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["run.json"]


@pytest.mark.parametrize(
    "name", [f.name for f in dataclasses.fields(CompressionConfig) if f.type == "float"]
)
def test_config_float_beyond_a_float_exits_2_before_any_run(tmp_path, capsys, name):
    cpath = tmp_path / "run.json"
    cpath.write_text(json.dumps({"t_keep": 32, name: 10**400}))
    rc = main(["run", "--config", str(cpath), "--steps", "128", "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "configuration error:" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["run.json"]


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(st.sampled_from([f.name for f in dataclasses.fields(PlanEntry)]),
                       JSON_LIKE))
def test_no_plan_entry_raises_anything_but_a_config_error(changes):
    # through JSON, as the CLI reads a plan, and every pre-run check; no run starts
    entry = {"name": "x", "policy": "ams", "steps": 64, **changes}
    with tempfile.TemporaryDirectory() as out, pytest.MonkeyPatch.context() as m:
        m.setattr(cli, "_run_one", lambda *args: None)
        ppath = Path(out) / "plan.json"
        ppath.write_text(json.dumps({"entries": [entry]}))
        try:
            cmd_run(load_plan(ppath, out_dir=Path(out) / "o"), default_config().replace(t_keep=32))
        except ConfigError:
            pass


@pytest.mark.parametrize("flags", [["--t-keep", "32", "--interval", str(2**62)],
                                   ["--t-keep", str(2**62), "--interval", "16"]],
                         ids=["huge_interval", "huge_t_keep"])
def test_budget_or_interval_beyond_the_run_finishes_with_no_events(tmp_path, flags):
    # ams keeps EMA credit and keydiff keeps keys, both sized by the cache
    rc = main(["run", "--policy", "ams", "--scorer", "keydiff", "--steps", "64",
               "--out", str(tmp_path), *flags])
    assert rc == 0
    doc = json.loads((tmp_path / "ams_keydiff_uniform_seed0.json").read_text())
    assert doc["events"] == []


def test_tiny_segment_mass_runs(tmp_path):
    cpath = tmp_path / "run.json"
    cpath.write_text(json.dumps({"t_keep": 32, "interval": 32, "segment_mass": 1e-300}))
    rc = main(["run", "--config", str(cpath), "--steps", "128", "--out", str(tmp_path / "o")])
    assert rc == 0
    doc = json.loads((tmp_path / "o" / "ams_expected_uniform_seed0.json").read_text())
    assert len(doc["events"]) == 3


@pytest.mark.parametrize("flag", ["--plan", "--config"])
@pytest.mark.parametrize("kind", ["missing", "directory"])
def test_missing_or_unreadable_input_path_exits_2(tmp_path, capsys, flag, kind):
    path = tmp_path / "input.json"
    if kind == "directory":
        path.mkdir()
    rc = main(["run", flag, str(path), "--t-keep", "32", "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "configuration error:" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == (["input.json"] if kind == "directory" else [])


@pytest.mark.parametrize("kind", ["file", "under_a_file"])
def test_output_directory_that_cannot_be_made_exits_2_before_any_run(tmp_path, capsys, kind):
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    out = blocker if kind == "file" else blocker / "o"
    rc = main(["run", "--t-keep", "32", "--steps", "64", "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "configuration error:" in err and str(out) in err
    assert [p.name for p in tmp_path.iterdir()] == ["blocker"] and blocker.read_text() == ""


@pytest.mark.parametrize(
    "flag, value",
    [("--policy", "streaming"), ("--scorer", "keydiff"), ("--workload", "heavy_hitter"),
     ("--steps", "5"), ("--seed", "0")],
)
def test_single_run_flag_beside_plan_exits_2(tmp_path, capsys, flag, value):
    ppath = tmp_path / "plan.json"
    ppath.write_text(json.dumps({"entries": [{"name": "x", "policy": "ams", "steps": 64}]}))
    out = tmp_path / "o"
    rc = main(["run", "--plan", str(ppath), flag, value, "--t-keep", "16", "--out", str(out)])
    assert rc == 2
    assert flag in capsys.readouterr().err
    assert not out.exists()


def test_shipped_ablation_plan_passes_every_pre_run_check(tmp_path, monkeypatch):
    # the README points users at this plan; load and check it, but run nothing
    runs = []
    monkeypatch.setattr(cli, "_run_one", lambda entry, spec, cfg, out: runs.append(spec))
    plan = load_plan(Path(__file__).resolve().parent.parent / "demos" / "plan_ablations.json",
                     out_dir=tmp_path / "o")
    assert cmd_run(plan, default_config()) == 0
    assert len(runs) == sum(len(e.seeds) for e in plan.entries) == 15
    assert list((tmp_path / "o").iterdir()) == []
