"""Smoke test of the end-to-end benchmark: ``pytest benchmarks/e2e``.

Runs every workload once at ``--scale smoke`` (simulations of at most
2e5 us, one round), then one traced round of ``sweep_short``, and
checks the benchmark's own contract: entries agree, metric names match
``BENCHMARK.json`` exactly, and the traced spans are consistent.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
#: A printed metric line: name, value, unit, sample count.
METRIC_LINE = re.compile(r"^\s+(\S+)\s+(\S+)\s+(\S+)\s+n=(\d+)$")


def run_bench(tmp_path, *args):
    out = tmp_path / "report.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "bench.py"), "--scale", "smoke",
         "--seconds", "0", "--out", str(out), *args],
        capture_output=True,
        text=True,
        cwd=str(ROOT),
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-4000:]
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1]), json.loads(out.read_text())


def printed_metrics(lines):
    return {
        m.group(1): m.group(3)
        for m in map(METRIC_LINE.match, lines[:-1])
        if m is not None
    }


def test_spec_names_and_counts():
    workloads = [w["name"] for w in SPEC["workloads"]]
    e2e = [m["name"] for m in SPEC["end_to_end"]]
    layers = [m["name"] for m in SPEC["per_layer"]]
    assert 2 <= len(workloads) <= 8
    assert 1 <= len(e2e) <= 16
    assert 1 <= len(layers) <= 128
    names = workloads + e2e + layers
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])


def test_entries_agree_and_print_exactly_the_declared_metrics(tmp_path):
    lines, result, report = run_bench(tmp_path, "--workload", "all")
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] > 0
    declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    for summary in report["summaries"]:
        assert summary["failed"] == 0, summary["workload"]
        assert summary["result_sha256"]
    printed = printed_metrics(lines)
    assert printed == declared
    for name, metric in result["metrics"].items():
        workload, _, metric_name = name.partition(".")
        assert workload in {w["name"] for w in SPEC["workloads"]}
        assert metric["unit"] == declared[metric_name]
        assert metric["value"] > 0


def test_attribute_splits_the_window_among_innermost_spans():
    sys.path.insert(0, str(HERE))
    import tracing

    def span(name, pid, span_id, parent, start, end):
        return {"name": name, "pid": pid, "id": span_id, "parent": parent,
                "tid": 1, "trace": "t", "start": start, "end": end}

    spans = [
        # Child listed before its parent, both cut to the window start.
        span("child", 1, 1, 0, -1.0, 2.0),
        span("parent", 1, 0, None, -2.0, 4.0),
        span("other", 2, 0, None, 1.0, 3.0),
        span("service.serve", 3, 0, None, 0.0, 10.0),
    ]
    shares, unattributed = tracing.attribute(spans, 0.0, 10.0)
    # [0,1) child; [1,2) child+other; [2,3) parent+other; [3,4) parent;
    # [4,10) only the polling loop, which takes what nothing else does.
    assert shares == pytest.approx(
        {"child": 1.5, "other": 1.0, "parent": 1.5, "service.serve": 6.0}
    )
    assert unattributed == 0.0


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    return run_bench(
        tmp_path_factory.mktemp("traced"),
        "--workload", "sweep_short", "--trace", "1",
    )


def test_traced_run_prints_exactly_the_per_layer_metrics(traced):
    lines, result, _report = traced
    assert result["correct"]
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert printed_metrics(lines) == declared
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_traced_spans_nest_and_account_for_the_wall_time(traced):
    _lines, _result, report = traced
    (summary,) = report["summaries"]
    assert summary["nesting_problems"] == []
    for entry, table in summary["tables"].items():
        rows = table["layers"].values()
        assert all(row["self_s"] >= 0 and row["wall_s"] >= 0 for row in rows)
        wall = sum(row["wall_s"] for row in rows) + table["unattributed_s"]
        assert wall == pytest.approx(table["sweep_s"], rel=1e-6), entry
    serial = summary["tables"]["serial"]
    # One thread: own times of distinct spans cannot exceed the window.
    own = sum(row["self_s"] for row in serial["layers"].values())
    assert own <= serial["sweep_s"] * (1 + 1e-9)
