"""Command-line interface: ``repro-plc``.

Subcommands map to the paper's artifacts:

- ``sim`` — the reference simulator with Table 3's inputs;
- ``table2`` — regenerate Table 2 (ΣC, ΣA per N);
- ``figure2`` — regenerate Figure 2 (three collision-probability
  curves) as a table and an ASCII plot;
- ``testbed`` — one §3.2 test on the emulated testbed;
- ``overhead`` — the §3.3 MME-overhead measurement;
- ``sweep`` — throughput/collision vs. N for the standard protocols;
- ``boost`` — search for and report a boosted configuration;
- ``batch`` — the same saturated sweep through the vectorized batch
  kernel (``repro.batch``): bit-identical numbers, one lockstep numpy
  pass over all (N, repetition) points, sharing the scalar runner's
  result cache;
- ``load`` / ``errors`` / ``delay`` / ``coexist`` — the extension
  experiments (unsaturated load, channel errors + ARQ, access-delay
  model, boosted/legacy coexistence);
- ``cache`` — inspect, clear, or prune the experiment result cache
  (``prune --max-bytes/--max-age`` bounds disk growth; with
  ``--service-dir`` it is journal-aware and never evicts a key held
  by an active lease);
- ``serve`` / ``submit`` / ``status`` / ``drain`` — the durable sweep
  service (:mod:`repro.service`): ``serve`` runs the journaled,
  lease-based orchestrator on a service directory (``kill -9`` safe;
  restart resumes bit-identically), ``submit`` drops a sweep into its
  inbox deduped against the sha256 result cache, ``status`` folds the
  journal + telemetry streams into one frame, ``drain`` requests a
  graceful stop;
- ``checkpoint`` — inspect/verify a checkpoint store, or resume an
  interrupted simulation from its newest valid snapshot (bit-identical
  to the uninterrupted run);
- ``validity`` — the large-N model-vs-simulation validity map
  (``repro.validity``): sweep every (regime, N) cell on the batch
  kernel, flag model errors against committed pins, export the JSON
  artifact (``run``) or re-check a saved artifact's flags against a
  pins file (``check``, non-zero exit on violation);
- ``trace`` — capture JSONL MAC + sniffer-style SoF traces of an
  experiment and cross-check the trace-derived metrics against the
  direct computation (exits non-zero on disagreement > 1e-9);
- ``profile`` — run an experiment under the engine profiler and report
  events/sec, wall time per process type, simulated-µs per wall-second;
- ``chaos`` — run a §3.2 test under an in-simulation fault-injection
  plan (bursty channel errors, station churn, SACK loss, firmware
  glitches) with the runtime MAC invariant checker; exits non-zero if
  any invariant is violated.  ``--recovery`` instead measures
  baseline → fault → recovery collision probabilities and exits
  non-zero unless the MAC re-converges;
- ``top`` — the live sweep console: tail a run's trace/span JSONL
  (``--telemetry-dir`` of a running sweep) and render per-kind
  progress, retry/timeout/cache-hit rates, ETA and active chaos
  episodes; ``--once`` renders a single frame (also correct for
  finished runs);
- ``report`` — post-hoc run summary from a telemetry directory: span
  tree, critical path, slowest points, failure table (text or
  ``--json``);
- ``metrics`` — render a metrics snapshot as OpenMetrics text, or
  validate an existing ``metrics.prom`` (``--check`` exits non-zero
  on any format problem).

Experiment subcommands backed by :mod:`repro.runner` (``sweep``,
``figure2``, ``boost``) accept ``--workers N`` to simulate points on
``N`` worker processes and ``--cache-dir DIR`` to memoize completed
points on disk; results are bit-identical for any ``--workers`` value.
Long sweeps survive faults with ``--retries K`` (re-run a crashed
point up to ``K`` times, same seed — retry cannot change the numbers)
and ``--task-timeout S`` (kill points hung longer than ``S`` seconds);
``--trace FILE`` appends the per-task lifecycle trace as JSONL.
``--checkpoint-dir DIR`` snapshots every long point's full simulation
state under ``DIR/<cache_key>/`` as it runs (cadence via
``--checkpoint-every-us``), so a crashed or killed point resumes from
its newest valid snapshot instead of recomputing — with bit-identical
results; ``--no-resume`` ignores existing snapshots.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

__all__ = ["main", "build_parser"]


def _worker_count(value: str) -> int:
    count = int(value)
    if count < 0:
        raise argparse.ArgumentTypeError(
            "--workers must be >= 0 (0 = one per CPU)"
        )
    return count


def _retry_count(value: str) -> int:
    count = int(value)
    if count < 0:
        raise argparse.ArgumentTypeError("--retries must be >= 0")
    return count


def _timeout_seconds(value: str) -> float:
    seconds = float(value)
    if seconds <= 0:
        raise argparse.ArgumentTypeError("--task-timeout must be > 0")
    return seconds


def _interval_us(value: str) -> float:
    interval = float(value)
    if interval <= 0:
        raise argparse.ArgumentTypeError(
            "--checkpoint-every-us must be > 0"
        )
    return interval


def _add_runner_args(parser: argparse.ArgumentParser) -> None:
    """Runner knobs for runner-backed subcommands."""
    parser.add_argument(
        "--workers",
        type=_worker_count,
        default=1,
        help="worker processes for simulation points (0 = one per CPU)",
    )
    parser.add_argument(
        "--cache-dir",
        type=str,
        default=None,
        help="directory for the on-disk result cache (default: off)",
    )
    parser.add_argument(
        "--retries",
        type=_retry_count,
        default=0,
        help="retry attempts per failed/crashed point (same seed, "
        "so results are unchanged; default: 0)",
    )
    parser.add_argument(
        "--task-timeout",
        type=_timeout_seconds,
        default=None,
        metavar="SECONDS",
        help="per-point wall-clock limit; hung workers are killed and "
        "the point is retried (default: no limit)",
    )
    parser.add_argument(
        "--trace",
        type=str,
        default=None,
        metavar="FILE",
        help="append the per-task lifecycle trace to FILE as JSONL",
    )
    parser.add_argument(
        "--checkpoint-dir",
        type=str,
        default=None,
        metavar="DIR",
        help="snapshot each point's simulation state under "
        "DIR/<cache_key>/ so crashed points resume instead of "
        "recomputing (default: off)",
    )
    parser.add_argument(
        "--checkpoint-every-us",
        type=_interval_us,
        default=None,
        metavar="US",
        help="snapshot cadence in simulated microseconds "
        "(default: per-kind defaults)",
    )
    parser.add_argument(
        "--no-resume",
        action="store_true",
        help="ignore existing snapshots and recompute from scratch "
        "(fresh snapshots are still written)",
    )
    parser.add_argument(
        "--telemetry-dir",
        type=str,
        default=None,
        metavar="DIR",
        help="write full run telemetry (trace.jsonl, spans.jsonl, "
        "metrics.prom) under DIR — the input of 'repro-plc top' and "
        "'repro-plc report' (default: off)",
    )


def _runner_from_args(args: argparse.Namespace):
    from ..runner import ExperimentRunner

    return ExperimentRunner(
        max_workers=args.workers,
        cache_dir=args.cache_dir,
        retries=args.retries,
        task_timeout_s=args.task_timeout,
        trace_path=args.trace,
        checkpoint_dir=args.checkpoint_dir,
        checkpoint_every_us=args.checkpoint_every_us,
        resume=not args.no_resume,
        telemetry_dir=args.telemetry_dir,
    )


def _print_runner_counters(runner) -> None:
    c = runner.counters
    line = (
        f"[runner] points={c.points_total} executed={c.executed} "
        f"cache_hits={c.cache_hits} corrupt={c.cache_corrupt} "
        f"workers={c.workers} wall={c.wall_time_s:.2f}s"
    )
    if c.retried or c.failed or c.timeouts or c.pool_rebuilds:
        line += (
            f" retried={c.retried} failed={c.failed} "
            f"timeouts={c.timeouts} pool_rebuilds={c.pool_rebuilds}"
        )
    if c.degraded_serial:
        line += f" degraded_serial={c.degraded_serial}"
    print(line)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-plc",
        description=(
            "Reproduction toolkit for 'Analyzing and Boosting the "
            "Performance of Power-Line Communication Networks'"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("sim", help="run the §4.2 reference simulator")
    sim.add_argument("-n", "--stations", type=int, default=2)
    sim.add_argument("--sim-time", type=float, default=5e7)
    sim.add_argument("--tc", type=float, default=2542.64)
    sim.add_argument("--ts", type=float, default=2920.64)
    sim.add_argument("--frame", type=float, default=2050.0)
    sim.add_argument(
        "--cw", type=int, nargs="+", default=[8, 16, 32, 64]
    )
    sim.add_argument("--dc", type=int, nargs="+", default=[0, 1, 3, 15])
    sim.add_argument("--seed", type=int, default=1)

    table2 = sub.add_parser("table2", help="regenerate Table 2")
    table2.add_argument("--duration", type=float, default=24e6)
    table2.add_argument("--max-n", type=int, default=7)
    table2.add_argument("--seed", type=int, default=1)
    _add_runner_args(table2)

    figure2 = sub.add_parser("figure2", help="regenerate Figure 2")
    figure2.add_argument("--duration", type=float, default=24e6)
    figure2.add_argument("--reps", type=int, default=3)
    figure2.add_argument("--max-n", type=int, default=7)
    figure2.add_argument("--seed", type=int, default=1)
    _add_runner_args(figure2)

    testbed = sub.add_parser("testbed", help="one §3.2 emulated test")
    testbed.add_argument("-n", "--stations", type=int, default=2)
    testbed.add_argument("--duration", type=float, default=24e6)
    testbed.add_argument("--seed", type=int, default=1)

    overhead = sub.add_parser("overhead", help="§3.3 MME overhead")
    overhead.add_argument("-n", "--stations", type=int, default=2)
    overhead.add_argument("--duration", type=float, default=24e6)
    overhead.add_argument("--seed", type=int, default=1)

    sweep = sub.add_parser("sweep", help="throughput vs N per protocol")
    sweep.add_argument(
        "--counts", type=int, nargs="+", default=[1, 2, 5, 10, 20]
    )
    sweep.add_argument("--sim-time", type=float, default=2e7)
    sweep.add_argument("--seed", type=int, default=1)
    sweep.add_argument("--reps", type=int, default=3)
    _add_runner_args(sweep)

    boost = sub.add_parser("boost", help="search boosted configurations")
    boost.add_argument(
        "--counts", type=int, nargs="+", default=[2, 5, 10, 20]
    )
    _add_runner_args(boost)

    batch = sub.add_parser(
        "batch",
        help="throughput/collision vs N through the vectorized batch "
        "kernel (bit-exact vs the scalar simulator, one process)",
    )
    batch.add_argument(
        "--counts", type=int, nargs="+", default=[2, 5, 10, 20, 50]
    )
    batch.add_argument("--sim-time", type=float, default=2e7)
    batch.add_argument("--seed", type=int, default=1)
    batch.add_argument("--reps", type=int, default=3)
    batch.add_argument(
        "--cache-dir", type=str, default=None,
        help="on-disk result cache, shared bit-for-bit with the "
        "scalar runner (default: off)",
    )
    batch.add_argument(
        "--chunk-size", type=int, default=1024,
        help="points per kernel dispatch (default: 1024)",
    )
    batch.add_argument(
        "--telemetry-dir", type=str, default=None, metavar="DIR",
        help="write run telemetry (trace.jsonl, spans.jsonl, "
        "metrics.prom) under DIR (default: off)",
    )

    cache = sub.add_parser(
        "cache",
        help="inspect, clear, or prune the experiment result cache",
    )
    cache.add_argument("action", choices=["info", "clear", "prune"])
    cache.add_argument(
        "--cache-dir", type=str, default=None,
        help="cache directory to operate on (default with "
        "--service-dir: its cache/ subdirectory)",
    )
    cache.add_argument(
        "--max-bytes", type=int, default=None, metavar="BYTES",
        help="prune: evict oldest entries until the cache fits in "
        "BYTES (default: no size bound)",
    )
    cache.add_argument(
        "--max-age", type=float, default=None, metavar="SECONDS",
        help="prune: evict entries older than SECONDS "
        "(default: no age bound)",
    )
    cache.add_argument(
        "--service-dir", type=str, default=None, metavar="DIR",
        help="service directory whose journal guards the prune: keys "
        "held by an active lease are never evicted",
    )

    checkpoint = sub.add_parser(
        "checkpoint",
        help="inspect/verify a checkpoint store or resume a simulation "
        "from its newest valid snapshot",
    )
    checkpoint.add_argument(
        "action",
        choices=["inspect", "verify", "resume"],
        help="inspect: list snapshots; verify: exit non-zero unless "
        "every snapshot verifies and one is resumable; resume: run "
        "the checkpointed simulation to completion",
    )
    checkpoint.add_argument(
        "--dir", type=str, required=True,
        help="checkpoint store directory (one simulation per store)",
    )
    checkpoint.add_argument(
        "--json", type=str, default=None, metavar="FILE",
        help="also write the inspection rows (inspect/verify) or the "
        "result summary (resume) to FILE as JSON",
    )

    serve = sub.add_parser(
        "serve",
        help="run the durable sweep orchestrator on a service "
        "directory (journaled queue, leased workers, quarantine; "
        "kill -9 safe — restart resumes bit-identically)",
    )
    serve.add_argument(
        "--service-dir", type=str, required=True, metavar="DIR",
        help="service state root (journal, inbox, cache, telemetry)",
    )
    serve.add_argument(
        "--workers", type=_worker_count, default=2,
        help="concurrent worker processes (default: 2)",
    )
    serve.add_argument(
        "--max-retries", type=_retry_count, default=2,
        help="deterministic retries before a task is quarantined "
        "(default: 2)",
    )
    serve.add_argument(
        "--lease-ttl", type=_timeout_seconds, default=10.0,
        metavar="SECONDS",
        help="heartbeat silence before the watchdog reclaims a lease "
        "(default: 10)",
    )
    serve.add_argument(
        "--task-timeout", type=_timeout_seconds, default=None,
        metavar="SECONDS",
        help="hard per-attempt wall-clock limit (default: none)",
    )
    serve.add_argument(
        "--max-queue-depth", type=int, default=10000,
        help="admission control: reject submissions that would push "
        "pending+leased past this depth (default: 10000)",
    )
    serve.add_argument(
        "--checkpoint-every-us", type=_interval_us, default=None,
        metavar="US",
        help="checkpoint cadence for long points (default: per-kind "
        "defaults)",
    )
    serve.add_argument(
        "--exit-when-idle", action="store_true",
        help="return once the inbox is empty and no task is pending "
        "or leased (instead of serving until drained)",
    )
    serve.add_argument(
        "--http", type=str, default=None, metavar="HOST:PORT",
        help="also expose the HTTP front end (sweep submission, "
        "status, metrics, remote worker sharding) on HOST:PORT "
        "(':0' binds an ephemeral port); --workers 0 serves "
        "remote workers only",
    )
    serve.add_argument(
        "--idle-grace", type=_timeout_seconds, default=None,
        metavar="SECONDS",
        help="with --exit-when-idle: stay up until the service has "
        "been continuously idle this long (default: 0, or 2s when "
        "--http is set, so a fresh server survives until its first "
        "remote submission)",
    )

    work = sub.add_parser(
        "work",
        help="run a remote sweep worker: claim (point, rep) shards "
        "from one or more 'serve --http' front ends, execute them "
        "with the standard task runner, commit results back over HTTP",
    )
    work.add_argument(
        "--connect", type=str, action="append", required=True,
        metavar="URL",
        help="front end base URL (http://HOST:PORT); repeat for "
        "failover across hosts",
    )
    work.add_argument(
        "--worker-id", type=str, default=None,
        help="stable identity for leases/telemetry "
        "(default: <hostname>-<pid>)",
    )
    work.add_argument(
        "--poll", type=_timeout_seconds, default=0.5, metavar="SECONDS",
        help="longest the server holds an idle claim before answering "
        "it idle (default: 0.5)",
    )
    work.add_argument(
        "--exit-when-idle", action="store_true",
        help="return once the service reports nothing left to claim",
    )
    work.add_argument(
        "--idle-grace", type=_timeout_seconds, default=0.0,
        metavar="SECONDS",
        help="with --exit-when-idle: only exit after the service has "
        "been idle this long continuously (lets a worker start "
        "before the first submission arrives; default: 0)",
    )
    work.add_argument(
        "--give-up-after", type=_timeout_seconds, default=None,
        metavar="SECONDS",
        help="exit after the service has been unreachable this long "
        "(default: keep polling forever — workers outlive restarts)",
    )
    work.add_argument(
        "--max-tasks", type=int, default=None, metavar="N",
        help="exit after claiming N shards (testing/smoke)",
    )

    submit = sub.add_parser(
        "submit",
        help="submit a standard protocol sweep to a service — into "
        "its inbox directory, or over HTTP with --connect "
        "(deduped against the sha256 result cache either way)",
    )
    submit.add_argument(
        "--service-dir", type=str, default=None, metavar="DIR",
        help="service directory whose inbox receives the submission "
        "(local mode; exactly one of --service-dir/--connect)",
    )
    submit.add_argument(
        "--connect", type=str, action="append", default=None,
        metavar="URL",
        help="POST the submission to a 'serve --http' front end "
        "instead of an inbox; repeat for failover",
    )
    submit.add_argument(
        "--counts", type=int, nargs="+", default=[1, 2, 5, 10, 20]
    )
    submit.add_argument("--sim-time", type=float, default=2e7)
    submit.add_argument("--reps", type=int, default=3)
    submit.add_argument("--seed", type=int, default=1)
    submit.add_argument(
        "--label", type=str, default=None,
        help="human-readable tag carried through journal and status",
    )

    status = sub.add_parser(
        "status",
        help="one status frame of a service directory: queue counts, "
        "submissions, quarantine, folded telemetry",
    )
    status.add_argument(
        "--service-dir", type=str, required=True, metavar="DIR",
    )
    status.add_argument(
        "--json", action="store_true",
        help="emit the status document as JSON instead of text",
    )

    drain = sub.add_parser(
        "drain",
        help="ask the orchestrator owning a service directory to "
        "finish in-flight work, flush, and stop",
    )
    drain.add_argument(
        "--service-dir", type=str, required=True, metavar="DIR",
    )
    drain.add_argument(
        "--wait", type=float, default=0.0, metavar="SECONDS",
        help="block up to SECONDS for the orchestrator to exit "
        "(default: return immediately)",
    )

    load = sub.add_parser("load", help="unsaturated offered-load sweep")
    load.add_argument("-n", "--stations", type=int, default=3)
    load.add_argument(
        "--fractions", type=float, nargs="+",
        default=[0.25, 0.5, 0.8, 1.0, 1.5],
    )
    load.add_argument("--sim-time", type=float, default=2e7)
    load.add_argument("--seed", type=int, default=1)

    errors = sub.add_parser("errors", help="channel-error sweep (ARQ)")
    errors.add_argument("-n", "--stations", type=int, default=2)
    errors.add_argument(
        "--rates", type=float, nargs="+", default=[0.0, 0.02, 0.05, 0.1]
    )
    errors.add_argument("--duration", type=float, default=12e6)
    errors.add_argument("--seed", type=int, default=1)

    delay = sub.add_parser("delay", help="access-delay model vs simulation")
    delay.add_argument(
        "--counts", type=int, nargs="+", default=[1, 2, 5, 10]
    )
    delay.add_argument("--sim-time", type=float, default=2e7)

    coexist = sub.add_parser(
        "coexist", help="boosted/legacy mixed-population sweep"
    )
    coexist.add_argument("--total", type=int, default=10)
    coexist.add_argument(
        "--boosted", type=int, nargs="+", default=[0, 2, 5, 8, 10]
    )
    coexist.add_argument("--sim-time", type=float, default=2e7)

    trace = sub.add_parser(
        "trace",
        help="capture MAC + SoF traces of one experiment and "
        "cross-check the trace-derived metrics",
    )
    trace.add_argument(
        "experiment", nargs="?", choices=["testbed"], default="testbed",
        help="what to trace (currently the §3.2 emulated testbed)",
    )
    trace.add_argument("-n", "--stations", type=int, default=2)
    trace.add_argument("--duration", type=float, default=24e6)
    trace.add_argument("--seed", type=int, default=1)
    trace.add_argument(
        "--out-dir", type=str, default="traces",
        help="directory receiving the JSONL artifacts (default: traces/)",
    )
    trace.add_argument(
        "--no-mac-trace", action="store_true",
        help="skip the full MAC event trace",
    )
    trace.add_argument(
        "--no-sof-trace", action="store_true",
        help="skip the sniffer-compatible SoF trace",
    )
    trace.add_argument(
        "--metrics", action="store_true",
        help="also export the metrics-registry snapshot",
    )

    profile = sub.add_parser(
        "profile",
        help="profile the engine while running one experiment "
        "(events/sec, wall time per process type)",
    )
    profile.add_argument(
        "experiment", nargs="?", choices=["testbed"], default="testbed",
        help="what to profile (currently the §3.2 emulated testbed)",
    )
    profile.add_argument("-n", "--stations", type=int, default=2)
    profile.add_argument("--duration", type=float, default=24e6)
    profile.add_argument("--seed", type=int, default=1)
    profile.add_argument(
        "--json", type=str, default=None, metavar="FILE",
        help="also write the profile report to FILE as JSON",
    )

    validity = sub.add_parser(
        "validity",
        help="large-N model-vs-simulation validity map on the batch "
        "kernel, flagged against committed error pins",
    )
    validity.add_argument(
        "action",
        choices=["run", "check"],
        help="run: sweep the (regime, N) grid and report/export the "
        "map; check: re-derive a saved map's flags against a pins "
        "file and exit non-zero on any violation",
    )
    validity.add_argument(
        "--counts", type=int, nargs="+", default=[5, 10, 25, 50, 100, 150],
        help="station counts to sweep (default: 5..150)",
    )
    # Keep in sync with repro.validity.regimes.REGIMES (hardcoded so
    # parser construction stays import-light).
    validity.add_argument(
        "--regimes", type=str, nargs="+", default=None,
        metavar="NAME",
        choices=[
            "saturated", "fractional_load", "heterogeneous",
            "retry_limited",
        ],
        help="regime subset (default: all registered regimes)",
    )
    validity.add_argument("--sim-time", type=float, default=1e7)
    validity.add_argument("--reps", type=int, default=2)
    validity.add_argument("--seed", type=int, default=1)
    validity.add_argument(
        "--method", choices=["markov", "recursive"], default="markov"
    )
    validity.add_argument(
        "--out", type=str, default=None, metavar="FILE",
        help="write the validity-map artifact to FILE as JSON",
    )
    validity.add_argument(
        "--map", type=str, default=None, metavar="FILE",
        help="(check) saved validity-map artifact to verify",
    )
    validity.add_argument(
        "--pins", type=str, default=None, metavar="FILE",
        help="pins JSON file (default: the built-in pins)",
    )
    validity.add_argument(
        "--cache-dir", type=str, default=None,
        help="on-disk result cache, shared bit-for-bit with the "
        "scalar runner (default: off)",
    )
    validity.add_argument(
        "--chunk-size", type=int, default=None,
        help="points per kernel dispatch (default: 1024)",
    )
    validity.add_argument(
        "--strict", action="store_true",
        help="(run) exit non-zero if any cell is flagged",
    )
    validity.add_argument(
        "--no-figure", action="store_true",
        help="(run) skip the ASCII error figure",
    )

    chaos = sub.add_parser(
        "chaos",
        help="fault-injected collision test with the runtime MAC "
        "invariant checker",
    )
    # Keep in sync with repro.chaos.plan.PRESETS (hardcoded so parser
    # construction stays import-light like every other subcommand).
    chaos.add_argument(
        "--preset", choices=["ge", "churn", "full"], default="full",
        help="ready-made ChaosPlan scaled to the run duration "
        "(default: full)",
    )
    chaos.add_argument(
        "--plan", type=str, default=None, metavar="FILE",
        help="JSON ChaosPlan file (overrides --preset)",
    )
    chaos.add_argument("-n", "--stations", type=int, default=3)
    chaos.add_argument("--duration", type=float, default=12e6)
    chaos.add_argument("--seed", type=int, default=1)
    chaos.add_argument(
        "--plan-seed", type=int, default=0,
        help="entropy for the plan's per-fault RNG streams (default: 0)",
    )
    chaos.add_argument(
        "--invariants", choices=["raise", "log", "count"],
        default="raise",
        help="violation policy for preset plans (default: raise)",
    )
    chaos.add_argument(
        "--recovery", action="store_true",
        help="run the recovery experiment (baseline/faulty/recovered "
        "windows of --duration each) instead of a single test",
    )
    chaos.add_argument(
        "--checkpoint-dir", type=str, default=None, metavar="DIR",
        help="(with --recovery) snapshot the post-fault state into DIR "
        "so 'repro-plc checkpoint resume' can re-enter the experiment",
    )
    chaos.add_argument(
        "--json", type=str, default=None, metavar="FILE",
        help="also write the chaos report to FILE as JSON",
    )

    top = sub.add_parser(
        "top",
        help="live sweep console: tail a run's trace/span JSONL and "
        "render progress, rates, ETA and active chaos episodes",
    )
    top.add_argument(
        "path",
        help="telemetry directory of the run (a --telemetry-dir), or "
        "a trace JSONL file directly (a --trace FILE)",
    )
    top.add_argument(
        "--spans", type=str, default=None, metavar="FILE",
        help="span JSONL to fold in (default: spans.jsonl next to a "
        "directory path; none for a bare trace file)",
    )
    top.add_argument(
        "--interval", type=float, default=1.0, metavar="SECONDS",
        help="poll/render interval (default: 1.0)",
    )
    top.add_argument(
        "--once", action="store_true",
        help="render a single frame from the current file contents "
        "and exit (CI mode; also correct for finished runs)",
    )
    top.add_argument(
        "--frames", type=int, default=None, metavar="N",
        help="stop after N rendered frames (default: until run_end)",
    )
    top.add_argument(
        "--json", action="store_true",
        help="print the final status snapshot as JSON instead of the "
        "text frame history",
    )

    report = sub.add_parser(
        "report",
        help="post-hoc run summary from a telemetry directory: span "
        "tree, critical path, slowest points, failures",
    )
    report.add_argument(
        "run_dir",
        help="telemetry directory holding trace.jsonl / spans.jsonl",
    )
    report.add_argument(
        "--slowest", type=int, default=10, metavar="N",
        help="how many slowest points to list (default: 10)",
    )
    report.add_argument(
        "--json", type=str, default=None, metavar="FILE",
        help="also write the full report to FILE as JSON "
        "('-' prints JSON to stdout instead of the text view)",
    )

    metrics = sub.add_parser(
        "metrics",
        help="render a metrics snapshot as OpenMetrics text, or "
        "validate an existing exposition file",
    )
    metrics.add_argument(
        "path",
        help="a metrics-registry JSON snapshot (e.g. the obs "
        "metrics_*.json artifact), an OpenMetrics .prom file, or a "
        "telemetry directory holding metrics.prom",
    )
    metrics.add_argument(
        "--check", action="store_true",
        help="validate only: exit non-zero on any OpenMetrics format "
        "problem, printing each problem",
    )
    metrics.add_argument(
        "--out", type=str, default=None, metavar="FILE",
        help="also write the rendered exposition to FILE (atomic, "
        "textfile-collector friendly)",
    )
    return parser


def _cmd_sim(args: argparse.Namespace) -> int:
    from ..core.simulator import sim_1901

    collision_pr, throughput = sim_1901(
        args.stations,
        args.sim_time,
        args.tc,
        args.ts,
        args.frame,
        args.cw,
        args.dc,
        seed=args.seed,
    )
    print(f"collision_pr     = {collision_pr:.6f}")
    print(f"norm_throughput  = {throughput:.6f}")
    return 0


def _cmd_table2(args: argparse.Namespace) -> int:
    from ..experiments.collision_probability import table2_data
    from ..report.tables import format_scientific, format_table

    rows = table2_data(
        station_counts=range(1, args.max_n + 1),
        duration_us=args.duration,
        seed=args.seed,
        runner=_runner_from_args(args),
    )
    print(
        format_table(
            ["N", "sum C_i", "sum A_i", "C/A"],
            [
                (
                    row.num_stations,
                    format_scientific(row.sum_collided),
                    format_scientific(row.sum_acked),
                    f"{row.collision_probability:.4f}",
                )
                for row in rows
            ],
            title=f"Table 2 (duration {args.duration/1e6:.0f}s per test)",
        )
    )
    return 0


def _cmd_figure2(args: argparse.Namespace) -> int:
    from ..experiments.collision_probability import figure2_data
    from ..report.figures import ascii_plot
    from ..report.tables import format_table

    points = figure2_data(
        station_counts=range(1, args.max_n + 1),
        test_duration_us=args.duration,
        test_repetitions=args.reps,
        seed=args.seed,
        runner=_runner_from_args(args),
    )
    print(
        format_table(
            ["N", "measured", "simulated", "analysis"],
            [
                (
                    p.num_stations,
                    f"{p.measured:.4f}",
                    f"{p.simulated:.4f}",
                    f"{p.analytical:.4f}",
                )
                for p in points
            ],
            title="Figure 2: collision probability vs number of stations",
        )
    )
    ns = [p.num_stations for p in points]
    print(
        ascii_plot(
            {
                "measured": (ns, [p.measured for p in points]),
                "simulated": (ns, [p.simulated for p in points]),
                "analysis": (ns, [p.analytical for p in points]),
            },
            title="Figure 2",
            xlabel="number of stations",
            ylabel="collision probability",
            y_min=0.0,
        )
    )
    return 0


def _cmd_testbed(args: argparse.Namespace) -> int:
    from ..experiments.procedures import run_collision_test

    test = run_collision_test(
        args.stations, duration_us=args.duration, seed=args.seed
    )
    print(f"stations              = {test.num_stations}")
    print(f"duration              = {test.duration_us/1e6:.1f} s")
    for mac, acked, collided in test.per_station:
        print(f"  {mac}: acked={acked} collided={collided}")
    print(f"sum acked             = {test.sum_acked}")
    print(f"sum collided          = {test.sum_collided}")
    print(f"collision probability = {test.collision_probability:.4f}")
    print(f"goodput at D          = {test.goodput_mbps:.2f} Mbps")
    return 0


def _cmd_overhead(args: argparse.Namespace) -> int:
    from ..experiments.mme_overhead import measure_mme_overhead

    result = measure_mme_overhead(
        args.stations, duration_us=args.duration, seed=args.seed
    )
    print(f"data bursts       = {result.data_bursts}")
    print(f"management bursts = {result.management_bursts}")
    print(f"MME overhead      = {result.overhead:.6f}")
    print(f"burst sizes       = {result.burst_size_histogram}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from ..experiments.sweeps import standard_protocol_sweep
    from ..report.tables import format_table

    runner = _runner_from_args(args)
    series = standard_protocol_sweep(
        station_counts=args.counts,
        sim_time_us=args.sim_time,
        repetitions=args.reps,
        seed=args.seed,
        runner=runner,
    )
    rows = []
    for label, points in series.items():
        for p in points:
            rows.append(
                (
                    label,
                    p.num_stations,
                    f"{p.sim_throughput:.4f}",
                    f"{p.model_throughput:.4f}",
                    f"{p.sim_collision_probability:.4f}",
                )
            )
    print(
        format_table(
            ["protocol", "N", "sim S", "model S", "sim p"],
            rows,
            title="Saturation throughput / collision probability vs N",
        )
    )
    _print_runner_counters(runner)
    return 0


def _cmd_boost(args: argparse.Namespace) -> int:
    from ..boost.adaptive import boost_report
    from ..report.tables import format_table

    runner = _runner_from_args(args)
    boosted, rows = boost_report(args.counts, runner=runner)
    print(f"boosted configuration: {boosted.describe()}")
    print(
        format_table(
            ["N", "default S", "boosted S", "upper bound", "gain %"],
            [
                (
                    r.num_stations,
                    f"{r.default_throughput:.4f}",
                    f"{r.boosted_throughput:.4f}",
                    f"{r.upper_bound:.4f}",
                    f"{r.gain_percent:+.1f}",
                )
                for r in rows
            ],
        )
    )
    _print_runner_counters(runner)
    return 0


def _cmd_batch(args: argparse.Namespace) -> int:
    from ..core import ScenarioConfig
    from ..core.results import aggregate
    from ..report.tables import format_table
    from ..runner import BatchRunner

    scenarios = [
        ScenarioConfig.homogeneous(
            num_stations=n, sim_time_us=args.sim_time, seed=args.seed
        )
        for n in args.counts
    ]
    runner = BatchRunner(
        cache_dir=args.cache_dir,
        chunk_size=args.chunk_size,
        telemetry_dir=args.telemetry_dir,
    )
    grouped = runner.run_scenarios(
        scenarios, root_seed=args.seed, repetitions=args.reps
    )
    rows = []
    for n, reps in zip(args.counts, grouped):
        runs = [point.result for point in reps]
        agg = aggregate(runs)
        jain = sum(run.jain_fairness() for run in runs) / len(runs)
        rows.append(
            (
                n,
                f"{agg.normalized_throughput:.4f}",
                f"{agg.collision_probability:.4f}",
                f"{jain:.4f}",
            )
        )
    print(
        format_table(
            ["N", "throughput S", "collision p", "Jain fairness"],
            rows,
            title=(
                f"Batch kernel sweep ({args.reps} rep(s), "
                f"{args.sim_time / 1e6:g} s simulated per point)"
            ),
        )
    )
    c = runner.counters
    print(
        f"[batch] points={c.points_total} executed={c.executed} "
        f"cache_hits={c.cache_hits}"
    )
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    from ..runner import ResultCache

    cache_dir = args.cache_dir
    if cache_dir is None:
        if args.service_dir is None:
            print(
                "cache: --cache-dir is required (or --service-dir to "
                "use its cache/)",
                file=sys.stderr,
            )
            return 2
        from pathlib import Path

        from ..service.orchestrator import ServicePaths

        cache_dir = str(ServicePaths(Path(args.service_dir)).cache)
    cache = ResultCache(cache_dir)
    if args.action == "clear":
        removed = cache.clear()
        print(f"removed {removed} cached result(s) from {cache_dir}")
    elif args.action == "prune":
        if args.max_bytes is None and args.max_age is None:
            print(
                "cache prune: at least one of --max-bytes/--max-age "
                "is required",
                file=sys.stderr,
            )
            return 2
        protect = set()
        if args.service_dir is not None:
            # Journal-aware guard: a key under an active lease is a
            # result the orchestrator is about to commit (or a
            # resubmission is about to dedupe against) — never evict.
            from ..service.state import TaskState, fold_journal

            state = fold_journal(args.service_dir)
            protect = {
                record.task_id
                for record in state.by_state(TaskState.LEASED)
            }
        report = cache.prune(
            max_bytes=args.max_bytes,
            max_age_s=args.max_age,
            protect=protect,
        )
        print(
            f"pruned {report['removed']} entr(ies) from {cache_dir}: "
            f"{report['kept']} kept ({report['bytes']} bytes)"
            + (
                f", {report['protected']} lease-protected"
                if report["protected"]
                else ""
            )
        )
    else:
        orphans = sum(1 for _ in cache.temp_paths())
        print(f"cache dir : {cache_dir}")
        print(f"entries   : {len(cache)}")
        if orphans:
            print(f"orphaned  : {orphans} temp file(s) (swept by 'clear')")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import contextlib

    from ..service import Orchestrator, ServiceConfig

    http_spec = getattr(args, "http", None)
    idle_grace = getattr(args, "idle_grace", None)
    if idle_grace is None:
        # An HTTP server that exits on its first idle poll dies before
        # any client can reach it; give it a grace window by default.
        idle_grace = 2.0 if http_spec else 0.0
    orchestrator = Orchestrator(
        ServiceConfig(
            service_dir=args.service_dir,
            max_workers=args.workers if http_spec else (args.workers or 2),
            max_retries=args.max_retries,
            lease_ttl_s=args.lease_ttl,
            task_timeout_s=args.task_timeout,
            max_queue_depth=args.max_queue_depth,
            checkpoint_every_us=args.checkpoint_every_us,
            idle_grace_s=idle_grace,
        )
    )
    with contextlib.ExitStack() as stack:
        if http_spec:
            from ..service.net import serve_http

            front = stack.enter_context(serve_http(orchestrator, http_spec))
            print(
                f"serving {args.service_dir} on {front.url} "
                f"(pid {os.getpid()}, "
                f"workers={orchestrator.config.max_workers})",
                flush=True,
            )
        else:
            print(
                f"serving {args.service_dir} "
                f"(pid {os.getpid()}, "
                f"workers={orchestrator.config.max_workers})",
                flush=True,
            )
        state = orchestrator.serve(exit_when_idle=args.exit_when_idle)
    counts = state.counts()
    print(
        f"[serve] completed={counts['completed']} "
        f"pending={counts['pending']} leased={counts['leased']} "
        f"quarantined={counts['quarantined']}"
    )
    if orchestrator.shutdown_signum is not None:
        # Supervisor convention: a signal-triggered (clean) drain exits
        # 128 + signum, so SIGTERM reports 143 like any well-behaved
        # service — distinguishable from both success and crashes.
        return 128 + orchestrator.shutdown_signum
    return 0


def _cmd_work(args: argparse.Namespace) -> int:
    from ..service.net import work_loop

    print(
        f"worker connecting to {', '.join(args.connect)} "
        f"(pid {os.getpid()})",
        flush=True,
    )
    stats = work_loop(
        args.connect,
        worker_id=args.worker_id,
        poll_s=args.poll,
        exit_when_idle=args.exit_when_idle,
        idle_grace_s=args.idle_grace,
        give_up_after_s=args.give_up_after,
        max_tasks=args.max_tasks,
    )
    print(
        f"[work] {stats['worker_id']}: claims={stats['claims']} "
        f"completed={stats['completed']} duplicate={stats['duplicate']} "
        f"failed={stats['failed']} lost_leases={stats['lost_leases']}"
    )
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    from pathlib import Path

    from ..runner import ResultCache
    from ..service.orchestrator import ServicePaths
    from ..service.submit import (
        build_submission,
        dedupe_report,
        standard_sweep_tasks,
        write_submission,
    )

    if bool(args.service_dir) == bool(args.connect):
        print(
            "submit needs exactly one of --service-dir (inbox) or "
            "--connect URL (HTTP)",
            file=sys.stderr,
        )
        return 2
    tasks = standard_sweep_tasks(
        args.counts,
        sim_time_us=args.sim_time,
        repetitions=args.reps,
        seed=args.seed,
    )
    submission = build_submission(tasks, label=args.label)
    if args.connect:
        from ..service.net import AllHostsUnreachable, SweepClient

        client = SweepClient(args.connect)
        try:
            verdict = client.submit(submission)
        except AllHostsUnreachable as exc:
            print(f"submit failed: {exc}", file=sys.stderr)
            return 1
        if not verdict.get("accepted"):
            print(
                f"submission {verdict.get('submit_id', '?')[:12]} "
                f"REJECTED: {verdict.get('reason')}",
                file=sys.stderr,
            )
            return 1
        print(
            f"submitted {verdict['submit_id'][:12]} -> "
            f"{', '.join(args.connect)}"
        )
        print(
            f"[submit] tasks={verdict['task_count']} "
            f"deduped={verdict['deduped']} new={verdict['new']}"
        )
        return 0
    paths = ServicePaths(Path(args.service_dir))
    report = dedupe_report(
        submission["tasks"],
        ResultCache(paths.cache) if paths.cache.is_dir() else None,
    )
    path = write_submission(paths.inbox, submission)
    print(f"submitted {submission['submit_id'][:12]} -> {path}")
    print(
        f"[submit] tasks={report['tasks']} "
        f"cached={report['cached']} to_run={report['to_run']}"
    )
    return 0


def _cmd_status(args: argparse.Namespace) -> int:
    import json

    from ..service.status import render_service_status, service_status

    status = service_status(args.service_dir)
    if args.json:
        print(json.dumps(status, indent=2))
    else:
        print(render_service_status(status))
    return 0


def _cmd_drain(args: argparse.Namespace) -> int:
    import time
    from pathlib import Path

    from ..service.orchestrator import ServicePaths, request_drain
    from ..service.status import pid_alive

    paths = ServicePaths(Path(args.service_dir))
    request_drain(paths.root)
    print(f"drain requested for {paths.root}")
    if args.wait <= 0:
        return 0
    deadline = time.monotonic() + args.wait
    while time.monotonic() < deadline:
        try:
            pid = int(paths.pid_file.read_text(encoding="utf-8").strip())
        except (OSError, ValueError):
            print("orchestrator stopped")
            return 0
        if not pid_alive(pid):
            print("orchestrator stopped")
            return 0
        time.sleep(0.2)
    print(f"orchestrator still running after {args.wait:.0f}s")
    return 1


def _cmd_checkpoint(args: argparse.Namespace) -> int:
    from ..checkpoint import CheckpointStore
    from ..report.tables import format_table

    store = CheckpointStore(args.dir)
    if args.action in ("inspect", "verify"):
        rows = store.entries()
        print(f"checkpoint store : {store.directory}")
        print(f"snapshots        : {len(rows)}")
        if rows:
            print(
                format_table(
                    ["seq", "valid", "kind", "sim time (s)", "bytes"],
                    [
                        (
                            row["seq"],
                            "yes" if row["valid"] else "NO",
                            row.get("header", {}).get("kind", "?"),
                            (
                                f"{row['header']['sim_time_us'] / 1e6:.3f}"
                                if row["valid"]
                                else "-"
                            ),
                            row["bytes"],
                        )
                        for row in rows
                    ],
                )
            )
            for row in rows:
                if not row["valid"]:
                    print(f"  seq {row['seq']}: {row['error']}")
        if args.json:
            from ..report.export import write_json

            write_json(args.json, {"dir": store.directory, "entries": rows})
            print(f"inspection written to {args.json}")
        if args.action == "verify":
            invalid = [row for row in rows if not row["valid"]]
            valid = [row for row in rows if row["valid"]]
            if invalid:
                print(f"verify FAILED: {len(invalid)} corrupt snapshot(s)")
                return 1
            if not valid:
                print("verify FAILED: no resumable snapshot")
                return 1
            newest = valid[-1]
            print(
                f"verify OK: resumable from seq {newest['seq']} "
                f"(t = {newest['header']['sim_time_us'] / 1e6:.3f} s)"
            )
        return 0

    # resume
    newest = store.latest_valid()
    if newest is None:
        print(f"no valid snapshot in {store.directory}")
        return 1
    print(
        f"resuming {newest.kind} from seq {newest.seq} "
        f"(t = {newest.sim_time_us / 1e6:.3f} s)"
    )
    if newest.kind == "testbed" and newest.meta.get("experiment") == "recovery":
        from ..chaos.recovery import resume_recovery_experiment

        result = resume_recovery_experiment(store, checkpoint=newest)
        print(f"baseline p            = {result.baseline:.4f}")
        print(f"faulty p              = {result.faulty:.4f}")
        print(f"recovered p           = {result.recovered:.4f}")
        print(f"deviation             = {result.deviation:.4f} "
              f"(allowed {result.allowed_deviation:.4f})")
        print(f"converged             = {result.converged}")
        if args.json:
            from ..report.export import write_json

            write_json(args.json, result.as_dict())
            print(f"result written to {args.json}")
        return 0 if result.converged and result.invariants["green"] else 1
    if newest.kind == "testbed":
        from ..checkpoint import resume_collision_test

        outcome = resume_collision_test(store, checkpoint=newest)
        report = None
        if isinstance(outcome, tuple):
            test, report = outcome
        else:
            test = outcome
        print(f"stations              = {test.num_stations}")
        print(f"duration              = {test.duration_us / 1e6:.1f} s")
        print(f"sum acked             = {test.sum_acked}")
        print(f"sum collided          = {test.sum_collided}")
        print(f"collision probability = {test.collision_probability:.4f}")
        print(f"goodput at D          = {test.goodput_mbps:.2f} Mbps")
        summary = {
            "num_stations": test.num_stations,
            "duration_us": test.duration_us,
            "per_station": [list(row) for row in test.per_station],
            "collision_probability": test.collision_probability,
            "goodput_mbps": test.goodput_mbps,
        }
        if report is not None:
            for family, ledger in sorted(report["injection"].items()):
                print(f"  {family}: {ledger}")
            summary["chaos"] = report
    elif newest.kind == "slotsim":
        from ..checkpoint import (
            restore_slot_simulator,
            run_simulate_with_checkpoints,
        )
        from ..runner.serialize import scenario_from_jsonable

        scenario_json = (newest.meta.get("payload") or {}).get("scenario")
        if scenario_json is None:
            print(
                "snapshot meta carries no scenario; cannot rebuild the "
                "simulator (was this store written by the runner?)"
            )
            return 1
        sim = restore_slot_simulator(
            scenario_from_jsonable(scenario_json), newest.state
        )
        result = run_simulate_with_checkpoints(
            sim, store, meta=dict(newest.meta)
        )
        print(f"successes             = {result.successes}")
        print(f"collisions            = {result.collisions}")
        print(f"collision probability = {result.collision_probability:.6f}")
        summary = {
            "successes": result.successes,
            "collisions": result.collisions,
            "collision_probability": result.collision_probability,
        }
    else:
        print(f"unknown snapshot kind {newest.kind!r}")
        return 1
    if args.json:
        from ..report.export import write_json

        write_json(args.json, summary)
        print(f"result written to {args.json}")
    return 0


def _cmd_load(args: argparse.Namespace) -> int:
    from ..experiments.unsaturated import offered_load_sweep, saturation_rate_pps
    from ..report.tables import format_table

    knee = saturation_rate_pps(args.stations)
    points = offered_load_sweep(
        args.stations,
        load_fractions=args.fractions,
        sim_time_us=args.sim_time,
        seed=args.seed,
    )
    print(f"saturation knee ≈ {knee:.1f} frames/s per station")
    print(
        format_table(
            ["rate (fps)", "offered", "delivered", "collision p",
             "mean delay (ms)", "loss"],
            [
                (f"{p.arrival_rate_pps:.0f}", f"{p.offered_fps:.0f}",
                 f"{p.delivered_fps:.0f}",
                 f"{p.collision_probability:.4f}",
                 f"{p.mean_delay_us / 1000:.1f}",
                 f"{p.queue_loss_fraction:.3f}")
                for p in points
            ],
        )
    )
    return 0


def _cmd_errors(args: argparse.Namespace) -> int:
    from ..experiments.channel_errors import error_rate_sweep
    from ..report.tables import format_table

    points = error_rate_sweep(
        args.stations,
        error_probabilities=args.rates,
        duration_us=args.duration,
        seed=args.seed,
    )
    print(
        format_table(
            ["PB error rate", "goodput (Mbps)", "collision p",
             "retransmissions"],
            [
                (f"{p.pb_error_probability:.2f}", f"{p.goodput_mbps:.2f}",
                 f"{p.collision_probability:.4f}", p.retransmissions)
                for p in points
            ],
        )
    )
    return 0


def _cmd_delay(args: argparse.Namespace) -> int:
    import numpy as np

    from ..analysis.delay import DelayModel
    from ..core import ScenarioConfig, SlotSimulator
    from ..report.tables import format_table

    model = DelayModel()
    rows = []
    for n in args.counts:
        prediction = model.solve(n)
        scenario = ScenarioConfig.homogeneous(
            num_stations=n, sim_time_us=args.sim_time, seed=5
        )
        result = SlotSimulator(scenario, record_delays=True).run()
        rows.append(
            (n,
             f"{prediction.mean_us / 1000:.2f}",
             f"{float(result.delays_us.mean()) / 1000:.2f}",
             f"{prediction.p95_us / 1000:.1f}",
             f"{float(np.percentile(result.delays_us, 95)) / 1000:.1f}")
        )
    print(
        format_table(
            ["N", "model mean (ms)", "sim mean (ms)", "model p95 (ms)",
             "sim p95 (ms)"],
            rows,
        )
    )
    return 0


def _cmd_coexist(args: argparse.Namespace) -> int:
    from ..experiments.coexistence import adoption_sweep
    from ..report.tables import format_table

    results = adoption_sweep(
        total_stations=args.total,
        boosted_counts=args.boosted,
        sim_time_us=args.sim_time,
    )
    print(
        format_table(
            ["boosted", "total S", "per boosted", "per legacy",
             "collision p"],
            [
                (r.num_boosted, f"{r.total_throughput:.4f}",
                 f"{r.per_boosted_station:.4f}" if r.num_boosted else "-",
                 f"{r.per_legacy_station:.4f}" if r.num_legacy else "-",
                 f"{r.collision_probability:.4f}")
                for r in results
            ],
        )
    )
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from ..obs.capture import ObsConfig, observed_collision_test
    from ..report.tables import format_table

    config = ObsConfig(
        dir=args.out_dir,
        mac_trace=not args.no_mac_trace,
        sof_trace=not args.no_sof_trace,
        metrics=args.metrics,
        label=f"{args.experiment}_n{args.stations}_seed{args.seed}",
    )
    test, capture = observed_collision_test(
        args.stations, config, duration_us=args.duration, seed=args.seed
    )
    print(f"stations              = {test.num_stations}")
    print(f"duration              = {test.duration_us/1e6:.1f} s")
    print(f"collision probability = {test.collision_probability:.4f}")
    for name, path in sorted(capture["paths"].items()):
        print(f"{name:<21} -> {path}")
    if "mac_events" in capture:
        print(f"MAC events            = {capture['mac_events']}")
    if "sof_rows" in capture:
        print(f"SoF rows              = {capture['sof_rows']}")
    if "cross_check" in capture:
        print(
            format_table(
                ["metric", "trace", "direct", "abs err"],
                [
                    (
                        row["metric"],
                        f"{row['trace']:.10g}",
                        f"{row['direct']:.10g}",
                        f"{row['abs_err']:.3g}",
                    )
                    for row in capture["cross_check"]
                ],
                title="Trace vs direct RoundLog cross-check",
            )
        )
        if not capture["cross_check_ok"]:
            print("cross-check FAILED: trace disagrees with RoundLog "
                  "beyond 1e-9")
            return 1
        print("cross-check OK (all metrics within 1e-9)")
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from ..experiments.procedures import run_collision_test
    from ..experiments.testbed import build_testbed
    from ..obs.profiler import EngineProfiler

    testbed = build_testbed(args.stations, seed=args.seed)
    profiler = EngineProfiler().attach(testbed.env)
    run_collision_test(
        args.stations,
        duration_us=args.duration,
        seed=args.seed,
        testbed=testbed,
    )
    profiler.detach()
    report = profiler.report()
    print(report.format())
    if args.json:
        from ..report.export import write_json

        write_json(args.json, report.as_dict())
        print(f"\nprofile written to {args.json}")
    return 0


def _load_pins(path: Optional[str]):
    from ..validity import default_pins

    if path is None:
        return default_pins()
    import json

    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def _cmd_validity(args: argparse.Namespace) -> int:
    from ..validity import check_pins

    pins = _load_pins(args.pins)

    if args.action == "check":
        import json

        if args.map is None:
            print("validity check requires --map FILE")
            return 2
        with open(args.map, encoding="utf-8") as handle:
            map_data = json.load(handle)
        problems = check_pins(map_data, pins)
        cells = len(map_data.get("rows", []))
        if problems:
            print(f"pin check FAILED ({len(problems)} problem(s), "
                  f"{cells} cell(s)):")
            for problem in problems:
                print(f"  {problem}")
            return 1
        print(f"pin check OK: {cells} cell(s) within pins")
        return 0

    from ..runner import BatchRunner
    from ..validity import (
        build_validity_map,
        format_validity_map,
        validity_figure,
    )

    runner = BatchRunner(
        cache_dir=args.cache_dir,
        **({"chunk_size": args.chunk_size} if args.chunk_size else {}),
    )
    vmap = build_validity_map(
        counts=args.counts,
        regimes=args.regimes,
        sim_time_us=args.sim_time,
        repetitions=args.reps,
        seed=args.seed,
        method=args.method,
        pins=pins,
        runner=runner,
    )
    print(format_validity_map(vmap))
    if not args.no_figure:
        print(validity_figure(vmap))
    flagged = vmap.flagged_rows
    if flagged:
        print(f"{len(flagged)} flagged cell(s):")
        for row in flagged:
            print(
                f"  {row.regime}/N={row.num_stations}: "
                f"p err {row.collision_probability_error:.4f}, "
                f"S rel err {row.throughput_relative_error:.4f}"
            )
    else:
        print("all cells within pins")
    c = runner.counters
    print(
        f"[batch] points={c.points_total} executed={c.executed} "
        f"cache_hits={c.cache_hits}"
    )
    if args.out:
        from ..report.export import write_json

        write_json(args.out, vmap.as_dict())
        print(f"validity map written to {args.out}")
    if args.strict and flagged:
        return 1
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    import json

    from ..chaos import InvariantViolation, preset_plan
    from ..chaos.experiment import chaos_collision_test
    from ..chaos.recovery import run_recovery_experiment

    if args.recovery:
        checkpoint_store = None
        if args.checkpoint_dir:
            from ..checkpoint import CheckpointStore

            checkpoint_store = CheckpointStore(args.checkpoint_dir)
        result = run_recovery_experiment(
            args.stations,
            seed=args.seed,
            window_us=args.duration,
            plan_seed=args.plan_seed,
            checkpoint_store=checkpoint_store,
        )
        print(f"stations (baseline)   = {result.num_stations}")
        print(f"window                = {result.window_us/1e6:.1f} s")
        print(f"baseline p            = {result.baseline:.4f}")
        print(f"faulty p              = {result.faulty:.4f}")
        print(f"recovered p           = {result.recovered:.4f}")
        print(f"deviation             = {result.deviation:.4f} "
              f"(allowed {result.allowed_deviation:.4f})")
        print(f"invariants green      = {result.invariants['green']}")
        print(f"converged             = {result.converged}")
        if args.json:
            from ..report.export import write_json

            write_json(args.json, result.as_dict())
            print(f"report written to {args.json}")
        return 0 if result.converged and result.invariants["green"] else 1

    if args.plan:
        with open(args.plan, encoding="utf-8") as handle:
            plan = json.load(handle)
    else:
        plan = preset_plan(
            args.preset,
            args.duration,
            seed=args.plan_seed,
            invariants=args.invariants,
        )
    try:
        test, report = chaos_collision_test(
            args.stations, plan, duration_us=args.duration, seed=args.seed
        )
    except InvariantViolation as violation:
        print(f"INVARIANT VIOLATION: {violation}")
        return 1
    invariants = report["invariants"]
    print(f"stations              = {test.num_stations}")
    print(f"duration              = {test.duration_us/1e6:.1f} s")
    print(f"collision probability = {test.collision_probability:.4f}")
    print(f"goodput at D          = {test.goodput_mbps:.2f} Mbps")
    for family, ledger in sorted(report["injection"].items()):
        print(f"  {family}: {ledger}")
    print(f"probe events          = {invariants['events_seen']}")
    print(f"deep sweeps           = {invariants['deep_sweeps']}")
    print(f"violations            = {invariants['violation_count']}")
    if args.json:
        from ..report.export import write_json

        write_json(
            args.json,
            {
                "num_stations": test.num_stations,
                "duration_us": test.duration_us,
                "collision_probability": test.collision_probability,
                "goodput_mbps": test.goodput_mbps,
                **report,
            },
        )
        print(f"report written to {args.json}")
    if not invariants["green"]:
        print("invariant checker NOT green")
        return 1
    print("invariant checker green")
    return 0


def _telemetry_paths(path_arg: str, spans_arg: Optional[str]):
    """Resolve a ``top`` path argument to ``(trace, spans)`` paths."""
    from pathlib import Path

    from ..telemetry.report import SPANS_FILENAME, TRACE_FILENAME

    path = Path(path_arg)
    if path.is_dir():
        trace = path / TRACE_FILENAME
        # Tailers tolerate a not-yet-created spans file, so always
        # fold it in for directory inputs.
        spans = Path(spans_arg) if spans_arg else path / SPANS_FILENAME
        return trace, spans
    return path, (Path(spans_arg) if spans_arg else None)


def _cmd_top(args: argparse.Namespace) -> int:
    import json

    from ..telemetry.console import follow

    trace, spans = _telemetry_paths(args.path, args.spans)
    if not trace.exists() and not args.once and args.frames is None:
        print(f"no trace at {trace} (is the sweep running with "
              f"--telemetry-dir or --trace?)")
        return 1
    emit = (lambda frame: None) if args.json else print
    status = follow(
        trace,
        spans_path=spans,
        interval_s=args.interval,
        once=args.once,
        max_frames=args.frames,
        emit=emit,
    )
    if args.json:
        print(json.dumps(status.as_dict(), indent=2))
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    import json

    from ..telemetry.report import build_report, format_report

    report = build_report(args.run_dir, slowest=args.slowest)
    if not report["summary"]["run_id"] and not report["span_tree"]:
        print(f"no telemetry found under {args.run_dir} "
              f"(expected trace.jsonl and/or spans.jsonl)")
        return 1
    if args.json == "-":
        print(json.dumps(report, indent=2))
        return 0
    print(format_report(report))
    if args.json:
        from ..report.export import write_json

        write_json(args.json, report)
        print(f"report written to {args.json}")
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    from ..telemetry.openmetrics import (
        render_openmetrics,
        validate_openmetrics,
    )

    path = Path(args.path)
    if path.is_dir():
        path = path / "metrics.prom"
    if not path.exists():
        print(f"no metrics source at {path}")
        return 1
    if path.suffix == ".prom" or path.suffix == ".txt":
        text = path.read_text(encoding="utf-8")
    else:
        with open(path, encoding="utf-8") as handle:
            snapshot = json.load(handle)
        text = render_openmetrics(metrics=snapshot)
    problems = validate_openmetrics(text)
    if args.check:
        if problems:
            print(f"OpenMetrics check FAILED ({len(problems)} problem(s)):")
            for problem in problems:
                print(f"  {problem}")
            return 1
        families = sum(
            1 for line in text.splitlines() if line.startswith("# TYPE ")
        )
        print(f"OpenMetrics check OK: {families} metric familie(s)")
        return 0
    if args.out:
        import os

        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        tmp = out.with_suffix(out.suffix + ".tmp")
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, out)
        print(f"exposition written to {out}", file=sys.stderr)
    print(text, end="")
    if problems:
        print(f"WARNING: {len(problems)} format problem(s):", file=sys.stderr)
        for problem in problems:
            print(f"  {problem}", file=sys.stderr)
        return 1
    return 0


_COMMANDS = {
    "sim": _cmd_sim,
    "load": _cmd_load,
    "errors": _cmd_errors,
    "delay": _cmd_delay,
    "coexist": _cmd_coexist,
    "table2": _cmd_table2,
    "figure2": _cmd_figure2,
    "testbed": _cmd_testbed,
    "overhead": _cmd_overhead,
    "sweep": _cmd_sweep,
    "boost": _cmd_boost,
    "batch": _cmd_batch,
    "cache": _cmd_cache,
    "checkpoint": _cmd_checkpoint,
    "serve": _cmd_serve,
    "work": _cmd_work,
    "submit": _cmd_submit,
    "status": _cmd_status,
    "drain": _cmd_drain,
    "trace": _cmd_trace,
    "profile": _cmd_profile,
    "chaos": _cmd_chaos,
    "validity": _cmd_validity,
    "top": _cmd_top,
    "report": _cmd_report,
    "metrics": _cmd_metrics,
}


#: Commands that install their own SIGTERM/SIGINT disposition (the
#: serve loop drains on its first signal; a raise here would kill the
#: drain instead).
_OWN_SIGNALS = {"serve"}


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point for the ``repro-plc`` console script."""
    from ..service.signals import ShutdownRequested, handle_signals

    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command in _OWN_SIGNALS:
            return _COMMANDS[args.command](args)
        # SIGTERM/SIGINT raise at the interrupted frame, so
        # runner-backed commands (sweep, batch, figure2, ...) unwind
        # through their finally blocks: open telemetry spans close,
        # trace JSONL flushes, checkpoints stay valid — instead of the
        # default handler's truncated artifacts.
        with handle_signals(mode="raise"):
            return _COMMANDS[args.command](args)
    except ShutdownRequested as exc:
        print(f"\ninterrupted: {exc}", file=sys.stderr)
        return exc.exit_status
    except BrokenPipeError:
        # Downstream pipe closed early (e.g. ``repro-plc top | head``):
        # exit quietly like any well-behaved filter.  Re-point stdout
        # at devnull so the interpreter's shutdown flush cannot raise.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
