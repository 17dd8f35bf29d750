"""End-to-end sweep benchmark: every workload through all five entry points.

Usage (from the repository root)::

    python3 benchmarks/e2e/bench.py --workload sweep_short --seed 1
    python3 benchmarks/e2e/bench.py --workload all --seed 1 --out run.json
    python3 benchmarks/e2e/bench.py --workload fig2_paper --trace 1
    python3 benchmarks/e2e/bench.py --list

One invocation measures one workload (or each of ``all`` in turn) for
``--seconds`` seconds, its build included.  The load is a closed loop
from one process: a round hands the workload's task list to each entry
point in turn (``serial``, ``pool``, ``batch``, ``service``, ``http``;
the order rotates every round), each in a fresh child process, and
waits for every result before the next.  After the first round an
entry runs only if it would still end in time, so the last rounds may
be partial.  Every timing is the median over an entry's runs (for
``http``, the mean over the hand-off phases its runs step through),
scaled to a reference host speed by a calibration loop timed before
each child.

Every result is hashed and compared with the ``serial`` entry's, and
at seed 1 with the pins in ``pins.json``; a mismatch, a missing result
or a failed child counts in ``failed`` and makes the exit code 1.

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` runs each entry once traced and once untraced per round
and prints the per-layer metrics, a per-entry table of where the wall
time went, and the tracing overhead.  The last line of standard output
is always one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import launch  # noqa: E402

#: Upper bound on one child process, in seconds (the longest entry run
#: at the default sizes takes under 10).
CHILD_LIMIT_S = 60.0

#: Entry points whose per-task latencies come from the service journal.
JOURNALED = ("service", "http")

#: Iterations of :func:`calibrate`'s loop, and the seconds they take
#: on the reference host, to which every end-to-end time is scaled.
CALIBRATION_LOOPS = 350_000
CALIBRATION_REFERENCE_S = 0.05

#: Metrics reported as the mean over runs, not the median.  An http run
#: waits a whole number of the client's 0.5 s status polls, so a median
#: jumps by a poll when the sweep's compute time crosses one; the mean
#: over the hand-off phases the runs step through moves smoothly.
MEAN_METRICS = frozenset({"sweep_s.http"})


def load_spec() -> Dict[str, Any]:
    path = ROOT / "BENCHMARK.json"
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"cannot read {path}: {exc}\n")
        raise SystemExit(2)


def load_pins() -> Dict[str, Any]:
    return json.loads((HERE / "pins.json").read_text(encoding="utf-8"))


def median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def mean(values: List[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def calibrate() -> float:
    """Seconds a fixed piece of interpreter work takes right now.

    The entries spend their time in the interpreter (imports, the event
    loops of the simulator and the testbed), so on a host that is slower
    for a while, or shared with a busier neighbour, their wall times
    grow with this one.
    """
    started = time.perf_counter()
    table: Dict[int, int] = {}
    total = 0
    for i in range(CALIBRATION_LOOPS):
        total += i * i % 7
        table[i & 1023] = total
    return time.perf_counter() - started


# -- child processes ----------------------------------------------------------


def run_child(spec: Dict[str, Any], workdir: Path) -> Optional[Dict[str, Any]]:
    """Run one entry in a fresh interpreter; ``None`` if it failed."""
    workdir.mkdir(parents=True, exist_ok=True)
    spec = dict(spec, workdir=str(workdir), out=str(workdir / "out.json"))
    spec_path = workdir / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    cmd = [sys.executable, str(HERE / "launch.py"), "entry", str(spec_path)]
    # Its own session, so a hung child goes down with every process it
    # started (pool workers, the HTTP server and workers).
    proc = subprocess.Popen(
        cmd,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
        env=launch.child_env(workdir),
        cwd=str(workdir),
        start_new_session=True,
    )
    try:
        _out, err = proc.communicate(timeout=CHILD_LIMIT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        sys.stderr.write(f"{spec['entry']}: timed out\n")
        return None
    if proc.returncode != 0 or not Path(spec["out"]).is_file():
        sys.stderr.write(f"{spec['entry']}: exit {proc.returncode}\n{err[-4000:]}\n")
        return None
    return json.loads(Path(spec["out"]).read_text(encoding="utf-8"))


# -- per-layer metrics from one traced entry run ------------------------------


def journal_stats(
    service_dir: Path, epoch0: float, epoch1: float
) -> Dict[str, Any]:
    """Per-task waits and overheads from the journal's ``epoch_s``."""
    from repro.obs.recording import read_jsonl

    records = [
        r
        for r in read_jsonl(service_dir / "journal.jsonl")
        if epoch0 <= r.get("epoch_s", 0.0) <= epoch1
    ]
    enqueued: Dict[str, float] = {}
    first_move: Dict[str, float] = {}
    waits, overheads, busy = [], [], 0.0
    leases_to_remote = failed = 0
    for r in records:
        task_id, event = r.get("task_id"), r["event"]
        if event == "task_enqueued":
            enqueued[task_id] = r["epoch_s"]
        elif event == "lease_granted":
            first_move.setdefault(task_id, r["epoch_s"])
            leases_to_remote += "worker" in r
        elif event == "task_completed" and task_id in enqueued:
            first_move.setdefault(task_id, r["epoch_s"])
            elapsed = r.get("elapsed_s") or 0.0
            busy += elapsed
            waits.append(first_move[task_id] - enqueued[task_id])
            overheads.append(r["epoch_s"] - enqueued[task_id] - elapsed)
        elif event in ("task_failed", "task_quarantined"):
            failed += 1
    return {
        "records": len(records),
        "queue_wait": waits,
        "overhead": overheads,
        "busy_s": busy,
        "remote_leases": leases_to_remote,
        "failed": failed,
    }


def layer_of(span_name: str) -> str:
    """The layer a span belongs to: its name up to the first dot."""
    return span_name.partition(".")[0]


def layer_metrics(outcome: Dict[str, Any], workdir: Path) -> Dict[str, Any]:
    """Per-layer numbers and the wall-time table of one traced run."""
    import tracing
    from repro.obs.recording import read_jsonl

    entry = outcome["entry"]
    t0, t1 = outcome["window"]
    e0, e1 = outcome["epoch_window"]
    sweep = t1 - t0
    tasks = outcome["tasks"]
    spans, roles = tracing.load_spans(str(workdir / "trace"))
    clipped = tracing.clip(spans, t0, t1)
    selfs = tracing.self_times(clipped)
    shares, unattributed = tracing.attribute(spans, t0, t1)

    def named(name):
        return [s for s in clipped if s["name"] == name]

    def total(name):
        return sum(s["end"] - s["start"] for s in named(name))

    def share(*names):
        return sum(shares.get(name, 0.0) for name in names) / sweep

    gets = named("cache.get")
    m: Dict[str, float] = {
        "cache.get_calls": len(gets),
        "cache.get_s": total("cache.get"),
        "cache.hit_ratio": (
            sum(1 for s in gets if s.get("hit")) / len(gets) if gets else 0.0
        ),
        "cache.put_calls": len(named("cache.put")),
        "cache.put_share": share("cache.put"),
        "task.calls": sum(1 for s in clipped if s["name"].startswith("task.")),
        "task.collision_test_share": share("task.collision_test"),
        "task.model_curve_share": share("task.model_curve"),
        "model.solve_calls": len(named("model.solve")),
        "model.solve_share": share("model.solve"),
        "testbed.run_share": share("testbed.run"),
        "import_share": share("import"),
        "unattributed_share": unattributed / sweep,
    }
    if entry != "batch":
        m["task.simulate_share"] = share("task.simulate")
        m["slotsim.share"] = share("slotsim.run", "slotsim.advance")
    if entry == "batch":
        runs = named("kernel.run")
        kernel_s = sum(s["end"] - s["start"] for s in runs)
        m.update(
            {
                "kernel.run_s": kernel_s,
                "kernel.rng_draw_s": total("kernel.rng_draw"),
                "kernel.advance_self_s": sum(
                    selfs[(s["pid"], s["id"])] for s in named("kernel.advance")
                ),
                "kernel.sim_us_per_s": (
                    sum(s.get("sim_us", 0.0) for s in runs) / kernel_s
                    if kernel_s
                    else 0.0
                ),
                "kernel.rounds": sum(s["rounds"] for s in runs),
                "kernel.lane_occupancy": (
                    sum(s["active_lane_rounds"] for s in runs)
                    / sum(s["lane_rounds"] for s in runs)
                    if runs
                    else 0.0
                ),
            }
        )
    if entry == "pool":
        events = outcome.get("runner_trace", [])
        busy = sum(
            e.get("duration_s") or 0.0 for e in events if e["event"] == "finished"
        )
        m["pool.worker_util"] = busy / (2 * sweep)
        m["pool.retried"] = sum(1 for e in events if e["event"] == "retried")
    if entry in JOURNALED:
        service_dir = workdir / "service"
        stats = outcome["journal"]
        m.update(
            {
                "journal.append_calls": stats["records"],
                "journal.append_s": total("journal.append"),
                "journal.records_per_task": stats["records"] / tasks,
                "service.admit_s": total("service.admit"),
            }
        )
    if entry == "service":
        m.update(
            {
                "spawn.calls": len(named("spawn.start")),
                "spawn.start_share": share("spawn.start"),
                "service.worker_util": stats["busy_s"] / (2 * sweep),
                # Instants when only the scheduling loop ran: poll waits.
                "service.scheduler_wall_s": shares.get("service.serve", 0.0),
                "service.failed": stats["failed"],
            }
        )
    if entry == "http":
        access = [
            r
            for r in read_jsonl(service_dir / "telemetry" / "http_access.jsonl")
            if e0 <= r.get("t_s", 0.0) <= e1
        ]
        claims = sum(1 for r in access if r["path"] == "/v1/claims")
        entry_pids = {pid for pid, role in roles.items() if role == "entry"}
        m.update(
            {
                "http.requests_per_task": len(access) / tasks,
                "http.claim_idle_ratio": (
                    (claims - stats["remote_leases"]) / claims if claims else 0.0
                ),
                "http.status_polls": sum(
                    1 for r in access if r["path"].startswith("/v1/sweeps/")
                ),
                "http.result_fetches": sum(
                    1 for r in access if r["path"].endswith("/result")
                    and r["method"] == "GET"
                ),
                "http.server_s": sum(r["duration_s"] for r in access),
                "http.client_s": sum(
                    s["end"] - s["start"]
                    for s in named("http.request")
                    if s["pid"] in entry_pids
                ),
                "http.errors": sum(
                    1 for r in access if r["status"] >= 500 or r["status"] == 429
                ),
                "remote.worker_util": stats["busy_s"] / (2 * sweep),
            }
        )

    table: Dict[str, Dict[str, float]] = {}
    for span in clipped:
        if span["name"] == tracing.SWEEP_SPAN:
            continue
        row = table.setdefault(
            layer_of(span["name"]), {"calls": 0, "self_s": 0.0, "wall_s": 0.0}
        )
        row["calls"] += 1
        row["self_s"] += selfs[(span["pid"], span["id"])]
    for name, wall in shares.items():
        table[layer_of(name)]["wall_s"] += wall
    return {
        "metrics": m,
        "table": table,
        "unattributed_s": unattributed,
        "sweep_s": sweep,
        "nesting_problems": tracing.check_nesting(spans),
    }


# -- one workload -------------------------------------------------------------


def run_workload(
    name: str,
    seed: int,
    deadline: float,
    traced: bool,
    scale: str,
    workroot: Path,
) -> Dict[str, Any]:
    """Run entries in rotating rounds until ``deadline`` (monotonic).

    The first round always runs whole.  After it, an entry starts only
    if its longest run so far would still end before the deadline, so
    the last rounds may hold only the quicker entries.
    """
    from workloads import ENTRIES, build_tasks

    # This process builds the inputs; children only rebuild Task objects,
    # so no input-building import runs ahead of an entry's clock.
    workroot.mkdir(parents=True, exist_ok=True)
    tasks_file = workroot / "tasks.json"
    tasks_file.write_text(
        json.dumps([t.describe() for t in build_tasks(name, seed, scale)]),
        encoding="utf-8",
    )
    outcomes: List[Dict[str, Any]] = []
    layers: Dict[str, List[Dict[str, Any]]] = {e: [] for e in ENTRIES}
    longest: Dict[str, float] = {}
    calibrations: List[float] = []
    handoffs = 0
    rounds = 0
    while True:
        shift = rounds % len(ENTRIES)
        ran = False
        for entry in ENTRIES[shift:] + ENTRIES[:shift]:
            if rounds and time.monotonic() + longest[entry] > deadline:
                continue
            ran = True
            started = time.monotonic()
            modes = [False]
            if traced:
                modes = [True, False] if rounds % 2 == 0 else [False, True]
            for with_trace in modes:
                workdir = workroot / f"r{rounds}-{entry}-{int(with_trace)}"
                spec = {"tasks_file": str(tasks_file), "entry": entry}
                if entry == "http":
                    spec["handoff_s"] = launch.handoff_delay(handoffs)
                    handoffs += 1
                if with_trace:
                    spec.update(
                        trace_dir=str(workdir / "trace"),
                        trace_id=f"{name}-{entry}-r{rounds}",
                    )
                calibrations.append(calibrate())
                outcome = run_child(spec, workdir)
                if outcome is None:
                    outcome = {"entry": entry, "failed_child": True}
                outcome["traced"] = with_trace
                if traced and entry in JOURNALED and "window" in outcome:
                    outcome["journal"] = journal_stats(
                        workdir / "service", *outcome["epoch_window"]
                    )
                if with_trace and "window" in outcome:
                    layers[entry].append(layer_metrics(outcome, workdir))
                outcomes.append(outcome)
                shutil.rmtree(workdir, ignore_errors=True)
            longest[entry] = max(
                longest.get(entry, 0.0), time.monotonic() - started
            )
        if not ran:
            break
        rounds += 1
    return summarize(name, seed, scale, outcomes, layers, rounds, calibrations)


def summarize(
    name, seed, scale, outcomes, layers, rounds, calibrations
) -> Dict[str, Any]:
    import numpy
    from workloads import ENTRIES

    reference = next(
        (o for o in outcomes if o["entry"] == "serial" and "digests" in o), None
    )
    ref = reference["digests"] if reference else []
    tasks = len(ref) or max((o.get("tasks", 0) for o in outcomes), default=0)
    pins = load_pins()
    pin = pins["sha256"].get(name) if (seed, scale) == (
        pins["seed"],
        pins["scale"],
    ) else None
    attempted = failed = 0
    for o in outcomes:
        attempted += tasks
        digests = o.get("digests")
        if digests is None:
            failed += tasks
            continue
        bad = sum(
            1
            for i, d in enumerate(digests)
            if d is None or i >= len(ref) or d != ref[i]
        )
        if pin is not None and o.get("result_sha256") != pin:
            bad = tasks
        failed += bad

    untraced = [o for o in outcomes if not o["traced"] and "sweep_s" in o]

    def sampled(entry: str, key: str) -> List[float]:
        return [o[key] for o in untraced if o["entry"] == entry and key in o]

    samples = {f"sweep_s.{e}": sampled(e, "sweep_s") for e in ENTRIES}
    samples["setup_s"] = sampled("http", "setup_s")
    # Times are scaled to the reference host's speed, as this run's
    # calibration loops measured it, so that a host that is slower for
    # minutes does not read as a slower program.
    slowdown = median(calibrations) / CALIBRATION_REFERENCE_S
    end_to_end = {}
    for metric, values in samples.items():
        raw = (mean if metric in MEAN_METRICS else median)(values)
        end_to_end[metric] = {
            "value": raw / slowdown,
            "raw": raw,
            "n": len(values),
            "samples": values,
        }
    # The entry with the largest typical peak; each entry's median keeps
    # the value independent of how many runs of each fit in the time.
    rss = {e: sampled(e, "peak_rss_mb") for e in ENTRIES}
    end_to_end["peak_rss_mb"] = {
        "value": max(median(values) for values in rss.values()),
        "n": sum(len(values) for values in rss.values()),
        "samples": rss,
    }

    per_layer: Dict[str, Dict[str, Any]] = {}
    tables: Dict[str, Any] = {}
    overhead: Dict[str, float] = {}
    for entry, runs in layers.items():
        if not runs:
            continue
        keys = sorted({k for run in runs for k in run["metrics"]})
        for key in keys:
            values = [run["metrics"][key] for run in runs if key in run["metrics"]]
            per_layer[f"{entry}.{key}"] = {"value": median(values), "n": len(values)}
        # Per-task latencies pool every run of the entry, traced or not:
        # they come from the journal, which tracing does not change.
        journals = [
            o["journal"] for o in outcomes if o["entry"] == entry and "journal" in o
        ]
        pooled = {}
        if entry == "service":
            pooled["service.queue_wait_s"] = "queue_wait"
            pooled["service.task_overhead_s"] = "overhead"
        elif entry == "http":
            pooled["remote.task_overhead_s"] = "overhead"
        for key, field in pooled.items():
            values = [v for journal in journals for v in journal[field]]
            for q in (50, 90):
                per_layer[f"{entry}.{key}.p{q}"] = {
                    "value": float(numpy.percentile(values, q)) if values else 0.0,
                    "n": len(values),
                }
        traced_sweep = median([run["sweep_s"] for run in runs])
        untraced_sweep = samples[f"sweep_s.{entry}"]
        if untraced_sweep:
            overhead[entry] = traced_sweep / median(untraced_sweep) - 1.0
        tables[entry] = merge_tables(runs)
    return {
        "workload": name,
        "seed": seed,
        "scale": scale,
        "rounds": rounds,
        "tasks": tasks,
        "attempted": attempted,
        "failed": failed,
        "result_sha256": reference.get("result_sha256") if reference else None,
        "pin": pin,
        "end_to_end": end_to_end,
        "slowdown": slowdown,
        "calibrations": calibrations,
        "per_layer": per_layer,
        "tables": tables,
        "tracing_overhead": overhead,
        "nesting_problems": sorted(
            {p for runs in layers.values() for run in runs
             for p in run["nesting_problems"]}
        ),
    }


def merge_tables(runs: List[Dict[str, Any]]) -> Dict[str, Any]:
    """The layer table of the traced run with the median ``sweep_s``."""
    run = sorted(runs, key=lambda r: r["sweep_s"])[(len(runs) - 1) // 2]
    return {
        "sweep_s": run["sweep_s"],
        "unattributed_s": run["unattributed_s"],
        "layers": run["table"],
    }


# -- output -------------------------------------------------------------------


def machine_info() -> Dict[str, Any]:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def print_report(
    summary: Dict[str, Any], traced: bool, units: Dict[str, str]
) -> None:
    """Human-readable lines; metric lines read ``name value unit n=N``."""
    name = summary["workload"]
    print(
        f"== {name}: seed {summary['seed']}, scale {summary['scale']}, "
        f"{summary['rounds']} round(s), {summary['tasks']} tasks, "
        f"failed {summary['failed']}/{summary['attempted']}, "
        f"host slowdown {summary['slowdown']:.3f}"
    )
    pin_state = (
        "no pin at this seed/scale"
        if summary["pin"] is None
        else ("matches pin" if summary["result_sha256"] == summary["pin"] else "PIN MISMATCH")
    )
    print(f"   result_sha256 {summary['result_sha256']} ({pin_state})")
    metrics = summary["per_layer"] if traced else summary["end_to_end"]
    for key, unit in units.items():
        metric = metrics.get(key, {"value": 0.0, "n": 0})
        print(f"   {key:<44} {metric['value']:.6g} {unit} n={metric['n']}")
    if not traced:
        return
    for entry, table in summary["tables"].items():
        sweep = table["sweep_s"]
        print(
            f"   -- {entry}: traced sweep_s {sweep:.4f} s, "
            f"tracing overhead {summary['tracing_overhead'].get(entry, 0.0):+.1%}"
        )
        print(f"      {'layer':<10} {'calls':>8} {'self_s':>10} {'wall_s':>10} {'share':>7}")
        ranked = sorted(table["layers"].items(), key=lambda kv: -kv[1]["wall_s"])
        for layer, row in ranked:
            print(
                f"      {layer:<10} {row['calls']:>8.0f} {row['self_s']:>10.4f} "
                f"{row['wall_s']:>10.4f} {row['wall_s'] / sweep:>7.1%}"
            )
        print(
            f"      {'(unattr.)':<10} {'':>8} {'':>10} "
            f"{table['unattributed_s']:>10.4f} {table['unattributed_s'] / sweep:>7.1%}"
        )
    service = summary["tables"].get("service")
    if service and service["layers"]:
        top = max(service["layers"].items(), key=lambda kv: kv[1]["wall_s"])
        print(
            f"   largest layer behind sweep_s.service: {top[0]} "
            f"({top[1]['wall_s'] / service['sweep_s']:.1%})"
        )


def declared(spec: Dict[str, Any], traced: bool) -> Dict[str, str]:
    group = spec["per_layer"] if traced else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in group}


def result_line(summaries, spec, traced) -> Dict[str, Any]:
    units = declared(spec, traced)
    metrics: Dict[str, Any] = {}
    for summary in summaries:
        source = summary["per_layer"] if traced else summary["end_to_end"]
        prefix = f"{summary['workload']}." if len(summaries) > 1 else ""
        for name, unit in units.items():
            value = source.get(name, {}).get("value", 0.0)
            metrics[prefix + name] = {"value": value, "unit": unit}
    failed = sum(s["failed"] for s in summaries)
    pins_ok = all(s["pin"] is None or s["pin"] == s["result_sha256"] for s in summaries)
    nesting_ok = not any(s["nesting_problems"] for s in summaries)
    return {
        "correct": failed == 0 and pins_ok and nesting_ok,
        "attempted": sum(s["attempted"] for s in summaries),
        "failed": failed,
        "metrics": metrics,
    }


def list_spec(spec: Dict[str, Any]) -> None:
    from workloads import ENTRIES

    print("workloads:")
    for w in spec["workloads"]:
        print(f"  {w['name']:<14} {w['why']}")
    print("entries:")
    print("  " + " ".join(ENTRIES))
    print("end-to-end metrics (--trace 0):")
    for m in spec["end_to_end"]:
        print(f"  {m['name']:<18} {m['unit']:<6} {m['better']} is better, bound {m['bound']:.0%}")
    print("per-layer metrics (--trace 1):")
    for m in spec["per_layer"]:
        print(f"  {m['name']:<44} {m['unit']:<8} {m['better']} is better")


def main(argv: Optional[List[str]] = None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=names + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("default", "smoke"), default="default")
    parser.add_argument("--out", type=Path, help="write the full report as JSON")
    parser.add_argument("--list", action="store_true", help="print names and exit")
    args = parser.parse_args(argv)
    if args.list:
        list_spec(spec)
        return 0
    # Each workload's measuring time starts when its turn does; the
    # first one's includes the build, so a run ends near --seconds.
    started = time.monotonic()
    launch.build()
    launch.bootstrap()
    workroot = launch.BUILD / "work" / str(os.getpid())
    workloads = names if args.workload == "all" else [args.workload]
    summaries = []
    try:
        for name in workloads:
            summary = run_workload(
                name,
                args.seed,
                started + args.seconds,
                bool(args.trace),
                args.scale,
                workroot / name,
            )
            started = time.monotonic()
            print_report(summary, bool(args.trace), declared(spec, bool(args.trace)))
            summaries.append(summary)
    finally:
        shutil.rmtree(workroot, ignore_errors=True)
        try:
            workroot.parent.rmdir()
        except OSError:
            pass  # another run is using it
    line = result_line(summaries, spec, bool(args.trace))
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(
            json.dumps(
                {
                    "command": sys.argv,
                    "machine": machine_info(),
                    "summaries": summaries,
                    "result": line,
                },
                indent=1,
                sort_keys=True,
            )
            + "\n",
            encoding="utf-8",
        )
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
