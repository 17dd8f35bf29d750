"""One task identity on every execution path: the conformance matrix.

One small workload — the golden ``sim_1901`` points, the golden Table 2
tests and the CA1 model curve — runs on five paths: serial, pool,
``BatchRunner`` (simulate points packed into kernel dispatches, the
other kinds one at a time), service-local, and service-HTTP with one
``work --connect`` worker.  Each path runs clean and under every fault
point that can fire on it.  Every cell must leave cache entry files
byte-identical to the clean serial cell's, and the pins must hold.
The warm-cache axis computes the workload on path A and answers it on
path B with zero executions, for every ordered pair.  A new path or
fault point gets its identity check here.
"""

import itertools
import json
import shutil
import time
import types

import pytest

from repro.core.config import CsmaConfig, ScenarioConfig, TimingConfig
from repro.faults import InjectedFault
from repro.core.parameters import PriorityClass
from repro.experiments.collision_probability import figure2_data, table2_data
from repro.experiments.sweeps import standard_protocol_sweep
from repro.runner import BatchRunner, ExperimentRunner, SeedSpec, Task, TaskKind
from repro.runner.cache import ResultCache, cache_key
from repro.runner.runner import RunnerTaskError, rehydrate_simulation
from repro.runner.serialize import (
    csma_to_jsonable,
    scenario_to_jsonable,
    timing_to_jsonable,
)
from repro.service import (
    Orchestrator,
    ServiceConfig,
    build_submission,
    fold_journal,
    write_submission,
)
from repro.service.net import http_json, serve_http
from repro.service.orchestrator import ServicePaths
from repro.service.submit import standard_sweep_tasks
from tests.integration.test_golden_table2 import (
    GOLDEN_SIM_1901,
    GOLDEN_TABLE2,
    _sim_1901_scenario,
)
from tests import support


class _Captured(Exception):
    """Carries the tasks a builder hands its runner, unrun."""


def captured(builder, **kwargs):
    def run(tasks):
        raise _Captured(list(tasks))

    with pytest.raises(_Captured) as info:
        builder(runner=types.SimpleNamespace(run=run), **kwargs)
    return info.value.args[0]


SIM_COUNTS = sorted(GOLDEN_SIM_1901)
TASKS = [
    Task(
        kind=TaskKind.SIMULATE,
        payload={"scenario": scenario_to_jsonable(_sim_1901_scenario(n))},
        seed=SeedSpec(explicit_seed=11),
    )
    for n in SIM_COUNTS
] + captured(table2_data, station_counts=(1, 2, 3), duration_us=4e6, seed=7) + [
    standard_sweep_tasks((1, 2, 3), repetitions=0)[0]
]

PATHS = ("serial", "pool", "batch", "service", "http")
SERVICE_PATHS = ("service", "http")
KILL_POINTS = ("journal_append", "lease_grant", "result_commit")
#: ``REPRO_FAULT`` of each condition that is not its point alone.
SPECS = {
    # Fires on each incarnation's first record: kills three of them.
    "journal_append": "journal_append:times=3",
    "net_partition": "net_partition:times=2,role=worker",
    "checkpoint_write": "checkpoint_write:seq=1,times=2",
}
CELLS = (
    [(path, None) for path in PATHS]
    + [(path, "task_raise") for path in ("serial", "batch")]
    + [(path, "task_exit") for path in ("pool", "service", "http")]
    + [(path, point) for path in SERVICE_PATHS for point in KILL_POINTS]
    + [("http", "net_partition")]
    + [(path, "checkpoint_write") for path in ("pool", "service")]
)
CHECKPOINT_EVERY_US = 1e6


def _cache_dir(path, root):
    if path in SERVICE_PATHS:
        return ServicePaths(root / "svc").cache
    return root / "cache"


def _runner(root, workers, fault=None):
    checkpoints = {}
    if fault == "checkpoint_write":
        checkpoints = dict(
            checkpoint_dir=root / "ckpt", checkpoint_every_us=CHECKPOINT_EVERY_US
        )
    return ExperimentRunner(
        max_workers=workers, cache_dir=root / "cache", retries=2,
        **checkpoints,
    )


def _run_service(root, fault_env):
    sdir = root / "svc"
    write_submission(ServicePaths(sdir).inbox, build_submission(TASKS))
    serve = ["serve", "--service-dir", sdir, "--workers", 2, "--exit-when-idle",
             "--checkpoint-every-us", CHECKPOINT_EVERY_US]
    kills = 0
    while True:
        code, out = support.finish(support.cli(serve, fault_env), name="serve")
        if code == 0:
            return {"kills": kills}
        assert code == 113 and kills < 5, out[-3000:]
        kills += 1


def _run_http(root, server_env, worker_env):
    """``serve --http`` and one ``work --connect`` worker; a server
    killed by a fault point is restarted (with a fresh worker), a dead
    worker is replaced."""
    sdir, port = root / "svc", support.free_port()
    serve = support.serve_args(sdir, port, lease_ttl=1, idle_grace=1.5)
    kills, worker_exits, worker_ids = 0, [], itertools.count()

    def work():
        worker_id = f"w{next(worker_ids)}"
        return support.cli(
            support.work_args(port, worker_id, idle_grace=0.5), worker_env
        )

    while True:
        server, worker = support.cli(serve, server_env), None
        try:
            client = support.wait_serving(port, server)
            if client is not None:
                client.submit(build_submission(TASKS))
                worker = work()
                while server.poll() is None:
                    if worker.poll() not in (None, 0):
                        worker_exits.append(worker.returncode)
                        worker = work()
                    time.sleep(0.05)
            code, out = support.finish(server, name="server")
            if code == 0:
                assert worker is not None, out[-3000:]
                assert support.finish(worker, name="worker")[0] == 0
                return {"kills": kills, "worker_exits": worker_exits}
        finally:
            for proc in (server, worker):
                if proc is not None and proc.poll() is None:
                    proc.kill()
                    proc.wait()
        assert code == 113 and kills < 5, out[-3000:]
        kills += 1


def run_path(path, root, fault, monkeypatch):
    """Run the workload on ``path`` with ``fault`` armed where it fires."""
    fault_env = None
    if fault is not None:
        fault_env = {
            "REPRO_FAULT": SPECS.get(fault, fault),
            "REPRO_FAULT_DIR": str(root / "faults"),
        }
        if path not in SERVICE_PATHS:
            for name, value in fault_env.items():
                monkeypatch.setenv(name, value)
    if path in ("serial", "pool"):
        runner = _runner(root, 1 if path == "serial" else 2, fault)
        runner.run(TASKS)
        return {"executed": runner.counters.executed, "runner": runner}
    if path == "batch":
        runner = BatchRunner(cache_dir=_cache_dir("batch", root))
        if fault is not None:
            # No retries: the faulted point fails the run, and a rerun
            # on the same cache completes it (one firing per task).
            with pytest.raises(RunnerTaskError) as info:
                runner.run(TASKS)
            assert isinstance(info.value.__cause__, InjectedFault)
            assert runner.counters.failed == 1
            runner = BatchRunner(cache_dir=_cache_dir("batch", root))
        runner.run(TASKS)
        return {"executed": runner.counters.executed, "runner": runner}
    if path == "service":
        return _run_service(root, fault_env)
    server_env, worker_env = fault_env, None
    if fault in ("task_exit", "net_partition"):  # fire in the remote worker
        server_env, worker_env = None, fault_env
    return _run_http(root, server_env, worker_env)


def entry_files(path, root):
    cache = ResultCache(_cache_dir(path, root))
    return {p.name: p.read_bytes() for p in cache.entry_paths()}


def check_pins(entries):
    results = [
        json.loads(entries[f"{cache_key(task.describe())}.json"])["result"]
        for task in TASKS
    ]
    for n, entry in zip(SIM_COUNTS, results):
        sim = rehydrate_simulation(_sim_1901_scenario(n), entry).result
        got = (sim.collision_probability, sim.normalized_throughput)
        assert got == pytest.approx(GOLDEN_SIM_1901[n], abs=1e-9)
    tests = results[len(SIM_COUNTS) : -1]
    assert len(tests) == len(GOLDEN_TABLE2)
    for golden, entry in zip(GOLDEN_TABLE2, tests):
        _macs, acked, collided = zip(*entry["per_station"])
        got = (entry["num_stations"], sum(collided), sum(acked))
        assert got == golden


@pytest.fixture(scope="module")
def clean_runs(tmp_path_factory):
    """Each path's clean run, made once: ``path -> (root, evidence)``."""
    runs = {}

    def clean(path):
        if path not in runs:
            root = tmp_path_factory.mktemp(f"clean-{path}")
            with pytest.MonkeyPatch.context() as monkeypatch:
                runs[path] = root, run_path(path, root, None, monkeypatch)
        return runs[path]

    return clean


@pytest.fixture(scope="module")
def reference(clean_runs):
    root, _ = clean_runs("serial")
    entries = entry_files("serial", root)
    assert len(entries) == len(TASKS)
    check_pins(entries)
    return entries


def _check_evidence(path, fault, root, evidence):
    """The fault fired, and recovery left the trail it should."""
    if path not in SERVICE_PATHS:
        assert evidence["executed"] == len(TASKS)
        runner = evidence.get("runner")
        if runner is not None:
            assert runner.counters.failed == 0 and not runner.failures
            charged = {"task_raise": 1, "task_exit": 1, "checkpoint_write": 2}
            if path == "batch":
                charged = {}  # its faulted run failed in run_path
            assert runner.counters.retried == charged.get(fault, 0)
            if path == "pool":
                assert runner.counters.pool_rebuilds == charged.get(fault, 0)
            if fault == "checkpoint_write":
                assert runner.trace.of_kind("checkpoint_resume")
        return
    sdir = root / "svc"
    state = fold_journal(sdir)
    assert state.corrupt_records == 0
    events = [record["event"] for record in support.events(sdir)]
    assert events.count("service_stop") == 1  # only the clean exit
    kills = {"journal_append": 3}.get(fault, int(fault in KILL_POINTS))
    assert evidence["kills"] == kills
    assert ("service_resume" in events) == bool(kills)
    failed = support.events(sdir, "task_failed")
    attempts = sorted(task.attempts for task in state.tasks.values())
    # A dead local worker charges the task it held one attempt; a
    # silent remote worker may merely be partitioned, so its lease is
    # reclaimed without one.
    code = {"task_exit": 117, "checkpoint_write": 96}.get(fault)
    dead = {"task_exit": 1, "checkpoint_write": 2}.get(fault, 0)
    if path == "http":
        dead = 0
        exits = [code] if fault == "task_exit" else []
        assert evidence["worker_exits"] == exits
        granted = support.events(sdir, "lease_granted")
        assert granted and all(r["worker"].startswith("w") for r in granted)
    assert len(failed) == dead
    assert all(f"exitcode={code}" in f["error"] for f in failed)
    assert attempts == [0] * (len(TASKS) - dead) + [1] * dead
    if fault == "checkpoint_write":
        journals = (sdir / "checkpoints").glob("*/journal.jsonl")
        assert any("checkpoint_resume" in j.read_text() for j in journals)
    if path == "http" and fault == "task_exit":
        reclaims = support.events(sdir, "lease_reclaimed")
        assert any("watchdog: remote" in r["reason"] for r in reclaims)
    if fault == "net_partition":
        assert len(list((root / "faults").glob("slot-*"))) == 2


@pytest.mark.parametrize(
    "path,fault", CELLS, ids=[f"{p}-{f or 'clean'}" for p, f in CELLS]
)
def test_cell_matches_clean_serial(
    path, fault, tmp_path, monkeypatch, clean_runs, reference
):
    if fault is None:
        root, evidence = clean_runs(path)
    else:
        root = tmp_path
        evidence = run_path(path, root, fault, monkeypatch)
    entries = entry_files(path, root)
    assert entries == reference
    check_pins(entries)
    _check_evidence(path, fault, root, evidence)


@pytest.mark.parametrize(
    "source,target",
    list(itertools.permutations(PATHS, 2)),
    ids=[f"{a}-to-{b}" for a, b in itertools.permutations(PATHS, 2)],
)
def test_warm_cache_answers_every_path(
    source, target, tmp_path, monkeypatch, clean_runs, reference
):
    cold_root, _ = clean_runs(source)
    shutil.copytree(
        _cache_dir(source, cold_root), _cache_dir(target, tmp_path)
    )
    evidence = run_path(target, tmp_path, None, monkeypatch)
    assert entry_files(target, tmp_path) == reference
    if target in SERVICE_PATHS:
        records = support.events(tmp_path / "svc")
        assert not [r for r in records if r["event"] == "lease_granted"]
        completed = [r for r in records if r["event"] == "task_completed"]
        assert len(completed) == len(TASKS)
        assert {r["source"] for r in completed} == {"cache"}
    else:
        assert evidence["executed"] == 0


CA1 = CsmaConfig.for_priority(PriorityClass.CA1)
COUNTS = (2, 3)
SIM_TIME_US = 2e5


def _admitted_keys(tmp_path, descriptions):
    """Task ids the inbox scan and ``POST /v1/sweeps`` admit for one
    hand-written description list."""
    keys = []
    for channel in ("inbox", "http"):
        orch = Orchestrator(
            ServiceConfig(service_dir=tmp_path / channel, max_workers=0)
        )
        submission = {"tasks": descriptions}
        if channel == "http":
            with serve_http(orch) as server:
                url = server.url + "/v1/sweeps"
                assert http_json("POST", url, body=submission)[0] == 202
        else:
            orch.paths.inbox.mkdir(parents=True)
            (orch.paths.inbox / "s.json").write_text(json.dumps(submission))
            with orch.lock:
                orch._scan_inbox()
        orch.journal.close()
        keys.append(list(orch.state.tasks))
    return keys


def test_one_key_per_computation(tmp_path):
    """The CA1 N=2 rep-0 point and the CA1 curve get one key each from
    every builder and from both admission channels."""
    scenario = ScenarioConfig.homogeneous(
        num_stations=2, csma=CA1, sim_time_us=SIM_TIME_US, seed=1
    )
    kwargs = dict(station_counts=COUNTS, sim_time_us=SIM_TIME_US)
    sweep = standard_sweep_tasks(COUNTS, SIM_TIME_US, repetitions=1)
    protocol = captured(standard_protocol_sweep, repetitions=1, **kwargs)
    figure2 = captured(
        figure2_data, test_repetitions=1, sim_repetitions=1, **kwargs
    )
    points = {cache_key(t.describe()) for t in (sweep[1], protocol[1])}
    points.add(cache_key(figure2[len(COUNTS)].describe()))
    curves = {cache_key(t.describe()) for t in (sweep[0], protocol[0])}
    for runner in (
        ExperimentRunner(cache_dir=tmp_path / "runner"),
        BatchRunner(cache_dir=tmp_path / "batch"),
    ):
        runner.run_scenarios([scenario], root_seed=1)
        points.update(p.stem for p in runner.cache.entry_paths())
    hand_written = [
        {
            "kind": "simulate",
            "payload": {"scenario": scenario_to_jsonable(scenario)},
            "seed": {"root_seed": 1, "point_index": 0, "repetition": 0},
        },
        {
            "kind": "model_curve",
            "payload": {
                "csma": csma_to_jsonable(CA1),
                "timing": timing_to_jsonable(TimingConfig()),
                "station_counts": list(COUNTS),
            },
        },
    ]
    for point, curve in _admitted_keys(tmp_path, hand_written):
        points.add(point)
        curves.add(curve)
    assert (len(points), len(curves)) == (1, 1)


def test_standard_sweep_tasks_are_the_protocol_sweeps_tasks():
    seen = []

    class Recording(ExperimentRunner):
        def run(self, tasks):
            seen.extend(tasks)
            return super().run(tasks)

    standard_protocol_sweep(
        COUNTS, sim_time_us=2e4, repetitions=1, runner=Recording()
    )
    built = standard_sweep_tasks(COUNTS, sim_time_us=2e4, repetitions=1)
    assert [t.describe() for t in built] == [t.describe() for t in seen]
