"""Locks in the telemetry cost model: <5 % enabled, ~zero disabled.

A direct with/without wall-clock comparison is hopelessly noisy on
shared CI hardware, so — like ``tests/obs/test_overhead.py`` — the
bounds are established deterministically:

1. run a fixed collision-test point once through an uninstrumented
   runner (the baseline wall time) and once through a telemetry-enabled
   runner, counting every lifecycle and span record it flushes to its
   one trace file;
2. each record corresponds to one guarded emission site, so the record
   count is the number of ``span_id is not None``-shaped guard passes a
   telemetry-free run pays for the same work;
3. micro-benchmark the guard and the actual recording calls (loop
   overhead included, i.e. conservatively high) and assert that
   ``sites x cost`` stays under 5 % of the baseline in both modes.

The key property being locked in: telemetry cost scales with the
number of *lifecycle* records (a handful per task), never with the
number of simulated events.
"""

import json
import time
import timeit

from repro.core import ScenarioConfig
from repro.runner import ExperimentRunner, Task, TaskKind
from repro.runner.seeding import SeedSpec
from repro.runner.serialize import scenario_to_jsonable
from repro.obs.recording import read_jsonl
from repro.runner.telemetry import TraceRecorder

STATIONS = 3
SIM_TIME_US = 1.0e6
SEED = 11


class _Site:
    """Stand-in for a guarded emission site: same shape as the runner."""

    __slots__ = ("span_id",)

    def __init__(self):
        self.span_id = None


def _task() -> Task:
    return Task(
        kind=TaskKind.SIMULATE,
        payload={
            "scenario": scenario_to_jsonable(
                ScenarioConfig.homogeneous(
                    num_stations=STATIONS, sim_time_us=SIM_TIME_US, seed=SEED
                )
            ),
        },
        seed=SeedSpec(root_seed=SEED, point_index=0, repetition=0),
    )


def _guard_cost_s() -> float:
    """Seconds per ``span_id is not None`` guard, loop overhead included."""
    site = _Site()
    number = 200_000
    return (
        timeit.timeit(
            "site.span_id is not None", globals={"site": site}, number=number
        )
        / number
    )


def _record_cost_s() -> float:
    """Seconds per in-memory trace record (the enabled-path unit cost)."""
    trace = TraceRecorder()
    number = 20_000
    return (
        timeit.timeit(
            'trace.record("started", kind="simulate", task_index=0)',
            globals={"trace": trace},
            number=number,
        )
        / number
    )


def _span_pair_cost_s() -> float:
    """Seconds per start+end span pair, ids and timestamps included."""
    spans = TraceRecorder(run_id="f" * 16)
    number = 5_000
    return (
        timeit.timeit(
            'spans.end(spans.start("attempt"))',
            globals={"spans": spans},
            number=number,
        )
        / number
    )


def test_telemetry_budget_under_5_percent(tmp_path):
    started = time.perf_counter()
    (baseline,) = ExperimentRunner(max_workers=1).run([_task()])
    baseline_s = time.perf_counter() - started

    telemetry_dir = tmp_path / "tel"
    traced_runner = ExperimentRunner(
        max_workers=1, telemetry_dir=telemetry_dir
    )
    (traced,) = traced_runner.run([_task()])
    assert traced == baseline  # telemetry never perturbs results

    records = read_jsonl(telemetry_dir / "trace.jsonl")
    span_records = sum(
        1 for r in records if r["event"] in ("span_start", "span_end")
    )
    trace_records = len(records) - span_records
    assert trace_records > 0 and span_records > 0
    sites = trace_records + span_records
    # Lifecycle telemetry is a handful of records per task — if this
    # ever scales with simulated events the budget math below is moot.
    assert sites < 200, f"{sites} records for one task: per-event leak?"

    # Disabled mode: every emission site degenerates to one guard.
    guard_budget_s = sites * _guard_cost_s()
    assert guard_budget_s < 0.05 * baseline_s, (
        f"{sites} guards x {_guard_cost_s()*1e9:.0f} ns "
        f"= {guard_budget_s*1e3:.3f} ms, over 5% of the "
        f"{baseline_s*1e3:.0f} ms baseline"
    )

    # Enabled mode: records are appended in memory and flushed once.
    span_pairs = span_records // 2
    recording_budget_s = (
        trace_records * _record_cost_s() + span_pairs * _span_pair_cost_s()
    )
    assert recording_budget_s < 0.05 * baseline_s, (
        f"{trace_records} trace records + {span_pairs} span pairs "
        f"= {recording_budget_s*1e3:.1f} ms, over 5% of the "
        f"{baseline_s*1e3:.0f} ms baseline"
    )


def test_jsonl_stamp_is_skipped_without_active_run(tmp_path):
    """The per-line run_id stamp costs one dict lookup when inactive."""
    from repro.obs.recording import append_jsonl

    path = tmp_path / "events.jsonl"
    append_jsonl(path, [{"event": "slot"}])
    with open(path, encoding="utf-8") as handle:
        (line,) = handle.readlines()
    assert "run_id" not in json.loads(line)
