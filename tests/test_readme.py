"""README's config and workload tables list exactly what the code checks."""

import dataclasses
import json
from pathlib import Path

import pytest

from masskv.core import CompressionConfig, ConfigError
from masskv.sim import WORKLOAD_PARAMS, WORKLOADS

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def _table(header: str) -> list:
    """The body rows, as stripped cells, of README's table under ``header``."""
    lines = README.splitlines()
    rows = []
    for line in lines[lines.index(header) + 2:]:
        if not line.startswith("|"):
            break
        rows.append([cell.strip() for cell in line.strip().strip("|").split("|")])
    return rows


def _rule(name: str) -> str:
    """The rule that the error for a string in config field ``name`` states."""
    with pytest.raises(ConfigError) as exc:
        CompressionConfig(**{name: "?"})
    return str(exc.value).split(" must be ", 1)[1]


def test_config_table_lists_every_field_with_its_default_and_rule():
    assert _table("| Field | Default | Rule |") == [
        [f"`{f.name}`", f"`{json.dumps(f.default)}`", _rule(f.name)]
        for f in dataclasses.fields(CompressionConfig)
    ]


def test_workload_table_lists_every_parameter_with_its_reader_default_and_rule():
    rows = _table("| Workload | Row shape | Parameter | Default | Rule |")
    assert [row[0] for row in rows if row[0]] == ["all"] + [f"`{w}`" for w in WORKLOADS]
    listed, reader = [], None
    for row in rows:
        reader = row[0] or reader
        if row[2]:
            listed.append([reader, *row[2:]])
    assert listed == [
        ["all" if reader is None else f"`{reader}`", f"`{key}`", json.dumps(default), rule]
        for key, (reader, default, rule, _) in WORKLOAD_PARAMS.items()
    ]
