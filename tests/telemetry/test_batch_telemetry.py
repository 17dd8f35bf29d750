"""BatchRunner telemetry: spans, trace events, and run_id stamping.

Regression suite for the batch path specifically — its trace events
are emitted from vectorized code, not from ``ExperimentRunner``, so
the scalar propagation tests do not cover it (a ``task.kind.value``
crash on the cache-hit path once slipped through exactly this gap).
"""

import json

from repro.core import ScenarioConfig
from repro.runner import BatchRunner
from repro.telemetry.openmetrics import validate_openmetrics

SIM_TIME_US = 1e5


def _scenarios():
    return [
        ScenarioConfig.homogeneous(2, sim_time_us=SIM_TIME_US),
        ScenarioConfig.homogeneous(3, sim_time_us=SIM_TIME_US),
    ]


def _read_jsonl(path):
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def test_batch_run_emits_correlated_telemetry(tmp_path):
    scenarios = _scenarios() + [
        ScenarioConfig.homogeneous(4, sim_time_us=SIM_TIME_US)
    ]
    tel = tmp_path / "tel"
    runner = BatchRunner(telemetry_dir=tel)
    runner.run_scenarios(scenarios, root_seed=3)

    trace = _read_jsonl(tel / "trace.jsonl")
    spans = _read_jsonl(tel / "spans.jsonl")
    assert trace and spans
    for record in trace + spans:
        assert record["run_id"] == runner.run_id

    events = [r["event"] for r in trace]
    assert events[0] == "run_start"
    assert events[-1] == "run_end"
    # One queued + started + finished triple per point, kind stamped
    # as the plain string the scalar runner uses.
    per_point = [r for r in trace if r["event"] == "queued"]
    assert len(per_point) == 3
    assert all(r["kind"] == "simulate" for r in per_point)
    assert sum(1 for r in trace if r["event"] == "finished") == 3

    names = {r["name"] for r in spans if r["event"] == "span_start"}
    assert "batch_sweep" in names
    assert "batch_chunk" in names
    started = {r["span_id"] for r in spans if r["event"] == "span_start"}
    ended = {r["span_id"] for r in spans if r["event"] == "span_end"}
    assert started == ended

    prom = (tel / "metrics.prom").read_text(encoding="utf-8")
    assert validate_openmetrics(prom) == []
    assert runner.run_id in prom


def test_batch_cache_hits_traced(tmp_path):
    cache = tmp_path / "cache"
    scenarios = _scenarios()
    cold = BatchRunner(cache_dir=cache, telemetry_dir=tmp_path / "t1")
    warm = BatchRunner(cache_dir=cache, telemetry_dir=tmp_path / "t2")
    baseline = cold.run_scenarios(scenarios, root_seed=3)
    resumed = warm.run_scenarios(scenarios, root_seed=3)
    assert baseline == resumed

    warm_trace = _read_jsonl(tmp_path / "t2" / "trace.jsonl")
    hits = [r for r in warm_trace if r["event"] == "cache_hit"]
    assert len(hits) == len(scenarios)
    assert all(r["kind"] == "simulate" for r in hits)
    assert all(r["run_id"] == warm.run_id for r in warm_trace)
    assert not any(r["event"] == "queued" for r in warm_trace)


def test_batch_results_identical_with_and_without_telemetry(tmp_path):
    scenarios = _scenarios()
    bare = BatchRunner().run_scenarios(scenarios, root_seed=5)
    traced = BatchRunner(telemetry_dir=tmp_path / "tel").run_scenarios(
        scenarios, root_seed=5
    )
    assert bare == traced


def test_batch_zero_cost_when_disabled(tmp_path):
    runner = BatchRunner()
    assert runner.trace is None
    assert runner.spans is None
    assert runner.run_id is None
    runner.run_scenarios(_scenarios(), root_seed=5)
    assert not list(tmp_path.rglob("*.jsonl"))
