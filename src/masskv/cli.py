"""Experiment driver.

``masskv run`` executes either a single run described by flags or a JSON plan
file of independent entries (policy, scorer, config overrides, workload,
seeds), writing one JSON + one CSV trace per entry/seed. ``masskv
compact-check`` runs the paged-compaction equivalence fuzz. Exit codes:
0 success, 1 contract/test failure, 2 configuration error.

Precedence for settings: built-in defaults < --config file < command flags.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

from masskv.core import (CompressionConfig, ConfigError, ContractViolation, check_name,
                         default_config)
from masskv.engine import POLICIES
from masskv.paged import run_equivalence_fuzz
from masskv.scorers import SCORERS
from masskv.sim import WORKLOADS, WorkloadSpec, run_schedule, write_trace_csv, write_trace_json


def _read_json_object(path) -> dict:
    """The top-level JSON object of a plan or config file; a file that is
    missing, unreadable or not such an object is a ConfigError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: not JSON, or an integer too long
        raise ConfigError(f"{path}: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    return raw


@dataclass
class PlanEntry:
    name: str
    policy: str
    scorer: str = "expected"
    workload: str = "uniform"
    workload_params: dict = field(default_factory=dict)
    steps: int = 1024
    seeds: list[int] = field(default_factory=lambda: [0])
    config: dict = field(default_factory=dict)

    def __post_init__(self):
        # the name is a file stem inside the plan's out_dir; the workload,
        # steps, each seed and the config are checked where cmd_run builds
        # its WorkloadSpecs and CompressionConfigs
        plain = isinstance(self.name, str) and Path(self.name).name == self.name
        if not plain or not self.name or "\0" in self.name:
            raise ConfigError(f"plan entry name {self.name!r} must be a plain file name")
        check_name("policy", self.policy, POLICIES, where=f"plan entry {self.name!r}: ")
        check_name("scorer", self.scorer, SCORERS, where=f"plan entry {self.name!r}: ")
        if not (isinstance(self.seeds, list) and self.seeds):
            raise ConfigError(f"plan entry {self.name!r}: seeds must be a non-empty list")
        if not isinstance(self.config, dict):
            raise ConfigError(f"plan entry {self.name!r}: config must be an object")


@dataclass
class ExperimentPlan:
    entries: list[PlanEntry]
    out_dir: Path

    def __post_init__(self):
        # output stems, as _run_one writes them: hashable whatever a seed is
        names = [f"{e.name}_seed{s}" for e in self.entries for s in e.seeds]
        if len(names) != len(set(names)):
            raise ConfigError("plan output names collide; entry names/seeds must be unique")


def load_plan(path, out_dir=None) -> ExperimentPlan:
    raw = _read_json_object(path)
    unknown = set(raw) - {"entries", "out_dir"}
    if unknown:
        raise ConfigError(f"plan {path}: unknown top-level keys {sorted(unknown)}")
    items = raw.get("entries", [])
    if not isinstance(items, list):
        raise ConfigError(f"plan {path}: entries must be a list")
    entries = []
    for i, item in enumerate(items):
        if not isinstance(item, dict):
            raise ConfigError(f"plan entry {i}: must be a JSON object")
        unknown = set(item) - {f.name for f in dataclasses.fields(PlanEntry)}
        if unknown:
            raise ConfigError(f"plan entry {i}: unknown keys {sorted(unknown)}")
        if "policy" not in item:
            raise ConfigError(f"plan entry {i}: missing key 'policy'")
        item.setdefault("name", f"entry{i}")
        entries.append(PlanEntry(**item))
    if not entries:
        raise ConfigError("plan has no entries")
    if not isinstance(raw.get("out_dir", ""), str):
        raise ConfigError(f"plan {path}: out_dir must be a string")
    out = Path(out_dir) if out_dir else Path(raw.get("out_dir", "traces"))
    return ExperimentPlan(entries=entries, out_dir=out)


def _run_one(entry: PlanEntry, spec: WorkloadSpec, cfg: CompressionConfig, out_dir: str) -> str:
    trace = run_schedule(spec, entry.policy, cfg, scorer=entry.scorer)
    stem = Path(out_dir) / f"{entry.name}_seed{spec.seed}"
    write_trace_json(trace, stem.with_suffix(".json"))
    write_trace_csv(trace, stem.with_suffix(".csv"))
    return str(stem)


def cmd_run(plan: ExperimentPlan, base_cfg: CompressionConfig, jobs: int = 1) -> int:
    # every entry's config and workload is checked before the first run starts
    if jobs < 1:
        raise ConfigError(f"--jobs must be >= 1, got {jobs}")
    tasks = []
    for entry in plan.entries:
        cfg = base_cfg.replace(**entry.config)
        cfg.require_t_keep()
        tasks += [
            (entry, WorkloadSpec(entry.workload, entry.steps, seed, entry.workload_params), cfg)
            for seed in entry.seeds
        ]
    try:
        plan.out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {plan.out_dir}: {exc}") from None
    # a pool starts all its workers at the first submit, so start no more than
    # there are runs
    workers = min(jobs, len(tasks))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [
                pool.submit(_run_one, entry, spec, cfg, str(plan.out_dir))
                for entry, spec, cfg in tasks
            ]
            for fut in futures:
                fut.result()
    else:
        for entry, spec, cfg in tasks:
            _run_one(entry, spec, cfg, str(plan.out_dir))
    return 0


def cmd_compact_check(n_cases: int, seed: int, corrupt: bool = False) -> int:
    if n_cases < 1:
        raise ConfigError(f"--cases must be >= 1, got {n_cases}")
    if seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {seed}")
    passed, failed = run_equivalence_fuzz(n_cases, seed, corrupt=corrupt)
    print(f"compact-check: {passed} passed, {failed} failed out of {n_cases}")
    return 0 if failed == 0 else 1


# the flags that describe a single run, and their defaults; a plan entry names its own
SINGLE_RUN = dict(policy="ams", scorer="expected", workload="uniform", steps=1024, seed=0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="masskv", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a policy schedule (flags or plan file)")
    run_p.add_argument("--plan", help="JSON plan file of entries to run")
    run_p.add_argument("--policy", choices=POLICIES)
    run_p.add_argument("--scorer", choices=sorted(SCORERS))
    run_p.add_argument("--workload", choices=WORKLOADS)
    run_p.add_argument("--t-keep", type=int, help="post-compression cache budget")
    run_p.add_argument("--interval", type=int, help="tokens between compression events")
    run_p.add_argument("--steps", type=int)
    run_p.add_argument("--seed", type=int)
    run_p.add_argument("--config", help="JSON object of config fields, as in a plan entry's config")
    run_p.add_argument("--out", help="output directory (default: plan's out_dir, else ./traces)")
    run_p.add_argument("--jobs", type=int, default=1, help="parallel plan entries")

    chk = sub.add_parser("compact-check", help="paged compaction vs dense gather fuzz")
    chk.add_argument("--cases", type=int, default=1000)
    chk.add_argument("--seed", type=int, default=42)
    chk.add_argument("--corrupt", action="store_true",
                     help="inject a post-copy corruption (sensitivity check)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "compact-check":
            return cmd_compact_check(args.cases, args.seed, corrupt=args.corrupt)
        cfg = default_config()
        if args.config:
            cfg = cfg.replace(**_read_json_object(args.config))
        overrides = {}
        if args.t_keep is not None:
            overrides["t_keep"] = args.t_keep
        if args.interval is not None:
            overrides["interval"] = args.interval
        if overrides:
            cfg = cfg.replace(**overrides)
        given = {k: v for k in SINGLE_RUN if (v := getattr(args, k)) is not None}
        if args.plan:
            if given:
                raise ConfigError(f"--{', --'.join(given)}: single-run flags cannot go with --plan")
            plan = load_plan(args.plan, out_dir=args.out)
        else:
            run = {**SINGLE_RUN, **given}
            seed = run.pop("seed")
            name = "{policy}_{scorer}_{workload}".format(**run)
            entry = PlanEntry(name=name, seeds=[seed], **run)
            plan = ExperimentPlan(entries=[entry], out_dir=Path(args.out or "traces"))
        return cmd_run(plan, cfg, jobs=args.jobs)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except ContractViolation as exc:
        print(f"contract violation: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
