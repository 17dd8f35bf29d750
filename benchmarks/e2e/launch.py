"""Subprocess launcher: one entry point run, or the CLI under tracing.

Two forms, both started by ``bench.py`` as fresh interpreters::

    python launch.py entry SPEC.json
    python launch.py cli --role ROLE [--trace-dir DIR --trace-id ID] -- ARGS

``entry`` runs one (workload, entry point, repeat): it imports the
entry's public API, rebuilds the task list ``bench.py`` wrote, prepares
fresh cache and service directories, and only then starts the clock.
The clock stops when every result is in hand.  The outcome (wall
time, set-up time, peak RSS, one sha256 per result) goes to the
``out`` file named in the spec.

``cli`` installs the span wrappers when ``--trace-dir`` is given and
then calls ``repro.tools.cli.main(ARGS)``; the HTTP entry starts its
``serve --http`` and ``work`` processes this way.
"""

from __future__ import annotations

import compileall
import hashlib
import json
import os
import resource
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
#: The program's sources in this checkout.
SOURCE = ROOT / "src"
#: Everything the benchmark writes: the built program and working files.
BUILD = ROOT / ".bench_build"
#: The built copy of :data:`SOURCE` that every benchmark process imports.
SRC = BUILD / "src"

#: Upper bound on any single wait for a subprocess, in seconds.
WAIT_LIMIT_S = 30.0

#: The ``work`` command's default idle poll period, in seconds.
WORKER_POLL_S = 0.5


def handoff_delay(run: int) -> float:
    """Seconds from the workers' first claims to the ``run``-th hand-off.

    A user's sweep arrives at any phase of the workers' 0.5 s claim
    polls, and that phase decides on which of the client's 0.5 s status
    polls the sweep is seen done.  Successive runs step through the
    poll period by the golden ratio, so any number of them covers it
    evenly and their mean wait does not jump by a whole poll.
    """
    return (run * 0.6180339887498949) % 1.0 * WORKER_POLL_S


def build() -> None:
    """Copy :data:`SOURCE` to :data:`SRC` and byte-compile it, if changed.

    Entries then import the program from bytecode, as an installed copy
    does, instead of compiling it in their timed windows (even where the
    environment turns bytecode writing off), and nothing is written next
    to the sources.  Exits 2 when the checkout has no program.
    """
    if not (SOURCE / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"no program under {SOURCE}\n")
        raise SystemExit(2)
    digest = hashlib.sha256()
    for path in sorted(SOURCE.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SOURCE)).encode("utf-8"))
            digest.update(b"\0" + path.read_bytes() + b"\0")
    stamp = BUILD / "src.sha256"
    built = stamp.read_text() if stamp.is_file() else None
    if SRC.is_dir() and built == digest.hexdigest():
        return
    stamp.unlink(missing_ok=True)
    shutil.rmtree(SRC, ignore_errors=True)
    shutil.copytree(
        SOURCE, SRC, ignore=shutil.ignore_patterns("__pycache__", "*.pyc")
    )
    if not compileall.compile_dir(str(SRC), quiet=2):
        sys.stderr.write(f"byte-compiling {SRC} failed\n")
        raise SystemExit(2)
    stamp.write_text(digest.hexdigest())


def bootstrap() -> None:
    """Import ``repro`` from the built copy :data:`SRC` or exit 2."""
    for path in (str(HERE), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)
    try:
        import repro
    except ImportError as exc:
        sys.stderr.write(f"cannot import repro from {SRC}: {exc}\n")
        raise SystemExit(2)
    origin = Path(repro.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        sys.stderr.write(f"repro imported from {origin}, not from {SRC}\n")
        raise SystemExit(2)


def child_env(workdir: Path) -> Dict[str, str]:
    """Environment for every process the benchmark starts."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["TMPDIR"] = str(workdir)
    for name in list(env):
        # Fault injection would make the benchmark measure failures.
        if name.startswith(("REPRO_FAULT", "REPRO_SERVICE_KILL", "REPRO_NET")):
            del env[name]
    return env


def result_digest(result: Any) -> Optional[str]:
    """sha256 of the canonical JSON of a result (or of the ordered list)."""
    from repro.runner import canonical_json

    if result is None:
        return None
    return hashlib.sha256(canonical_json(result).encode("utf-8")).hexdigest()


def peak_rss_mb() -> float:
    """Largest RSS of this process and of any child it waited for.

    This process's own peak comes from ``VmHWM``: ``RUSAGE_SELF`` would
    also count the parent's memory from before this process's exec.
    """
    own_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    own_kb = int(line.split()[1])
    except OSError:
        pass
    kids_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own_kb, kids_kb) / 1024.0


# -- entry points -------------------------------------------------------------


def run_runner(tasks, cache_dir, workers):
    """``serial`` (1 worker, in-process) or ``pool`` (2 worker processes)."""
    from repro.runner import ExperimentRunner

    runner = ExperimentRunner(max_workers=workers, cache_dir=cache_dir)
    return runner.run(tasks), runner


def prepare_batch(tasks):
    from repro.runner import TaskKind
    from repro.runner.serialize import scenario_from_jsonable

    sims = [i for i, t in enumerate(tasks) if t.kind == TaskKind.SIMULATE]
    rest = [i for i, t in enumerate(tasks) if t.kind != TaskKind.SIMULATE]
    pairs = [
        (scenario_from_jsonable(tasks[i].payload["scenario"]), tasks[i].seed)
        for i in sims
    ]
    return sims, rest, pairs


def run_batch(tasks, cache_dir, prepared):
    """Simulate points through the kernel; other kinds run serially."""
    from repro.runner import BatchRunner, ExperimentRunner
    from repro.runner.tasks import simulation_result_dict

    sims, rest, pairs = prepared
    points = BatchRunner(cache_dir).run_points(pairs)
    runner = ExperimentRunner(max_workers=1, cache_dir=cache_dir)
    others = runner.run([tasks[i] for i in rest])
    results: List[Optional[Dict[str, Any]]] = [None] * len(tasks)
    for i, point in zip(sims, points):
        results[i] = simulation_result_dict(point.result)
    for i, result in zip(rest, others):
        results[i] = result
    return results, None


def run_service(tasks, service_dir):
    from repro.runner import cache_key
    from repro.service import Orchestrator, ServiceConfig
    from repro.service.submit import build_submission

    orchestrator = Orchestrator(ServiceConfig(service_dir, max_workers=2))
    orchestrator.admit_submission(build_submission(tasks))
    orchestrator.serve(exit_when_idle=True)
    results = [orchestrator.cache.get(cache_key(t.describe())) for t in tasks]
    return results, None


class HttpCluster:
    """``serve --http`` plus two ``work`` processes, CLI defaults."""

    def __init__(
        self, service_dir: Path, workdir: Path, trace_args: List[str]
    ) -> None:
        self.service_dir = service_dir
        self.workdir = workdir
        #: ``--trace-dir``/``--trace-id`` for traced runs, else empty.
        self.trace_args = trace_args
        self.procs: List[subprocess.Popen] = []
        self.url: Optional[str] = None

    def _launch(self, role: str, args: List[str]) -> Path:
        log = self.workdir / f"{role}-{len(self.procs)}.out"
        cmd = [sys.executable, str(HERE / "launch.py"), "cli", "--role", role]
        with open(log, "wb") as handle:
            proc = subprocess.Popen(
                cmd + self.trace_args + ["--"] + args,
                stdout=handle,
                stderr=subprocess.STDOUT,
                env=child_env(self.workdir),
                cwd=str(self.workdir),
            )
        self.procs.append(proc)
        return log

    def _wait_for(self, predicate, what: str) -> None:
        deadline = time.monotonic() + WAIT_LIMIT_S
        while not predicate():
            if any(p.poll() is not None for p in self.procs):
                raise RuntimeError(f"a service process exited before {what}")
            if time.monotonic() > deadline:
                raise RuntimeError(f"timed out waiting for {what}")
            time.sleep(0.002)

    def start(self, handoff_s: float) -> float:
        """Launch everything; seconds until each worker has claimed once.

        Returns ``handoff_s`` after those claims, when the sweep is due.
        """
        started = time.perf_counter()
        server_log = self._launch(
            "server",
            [
                "serve",
                "--service-dir",
                str(self.service_dir),
                "--http",
                "127.0.0.1:0",
                "--workers",
                "0",
            ],
        )

        def url_known() -> bool:
            text = server_log.read_text(encoding="utf-8", errors="replace")
            for word in text.split():
                if word.startswith("http://"):
                    self.url = word
                    return True
            return False

        self._wait_for(url_known, "the server URL")
        workers = [
            self._launch("worker", ["work", "--connect", self.url])
            for _ in range(2)
        ]
        access = self.service_dir / "telemetry" / "http_access.jsonl"

        def both_claimed() -> bool:
            # Each worker prints its banner right before its first claim
            # and then claims every 0.5 s, so once both banners are out
            # two logged claims include one from each worker.
            for log in workers:
                if b"worker connecting" not in log.read_bytes():
                    return False
            try:
                text = access.read_text(encoding="utf-8")
            except FileNotFoundError:
                return False
            return text.count('"/v1/claims"') >= 2

        self._wait_for(both_claimed, "the first claim of each worker")
        claimed = time.perf_counter()
        time.sleep(handoff_s)
        return claimed - started

    def stop(self) -> None:
        """Drain: SIGTERM the server and the workers together; reap all."""
        for proc in self.procs:
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
        for proc in self.procs:
            try:
                proc.wait(timeout=WAIT_LIMIT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()


def run_http(tasks, cluster: HttpCluster):
    from repro.service.net import SweepClient

    outcome = SweepClient(cluster.url).run_sweep(tasks)
    results = outcome["results"]
    if outcome["source"] != "remote":
        results = [None] * len(tasks)
    return results, None


# -- one entry run ------------------------------------------------------------


def import_entry_api(entry: str) -> None:
    """The public API the entry's caller imports before timing starts."""
    if entry in ("serial", "pool"):
        from repro.runner import ExperimentRunner  # noqa: F401
    elif entry == "batch":
        from repro.runner import BatchRunner, ExperimentRunner  # noqa: F401
    elif entry == "service":
        from repro.service import Orchestrator, ServiceConfig  # noqa: F401
        from repro.service.submit import build_submission  # noqa: F401
    elif entry == "http":
        from repro.service.net import SweepClient  # noqa: F401
    from repro.runner import canonical_json  # noqa: F401


def load_tasks(path: str) -> List:
    """Rebuild ``bench.py``'s task list from its ``describe()`` dicts."""
    from repro.runner import SeedSpec, Task

    return [
        Task(
            kind=d["kind"],
            payload=d["payload"],
            seed=SeedSpec.from_jsonable(d["seed"]) if d["seed"] else None,
        )
        for d in json.loads(Path(path).read_text(encoding="utf-8"))
    ]


def run_entry(spec: Dict[str, Any]) -> Dict[str, Any]:
    entry = spec["entry"]
    workdir = Path(spec["workdir"])
    import_entry_api(entry)
    recorder = None
    if spec.get("trace_dir"):
        import tracing

        recorder = tracing.SpanRecorder(
            spec["trace_dir"], spec["trace_id"], role="entry"
        )
        tracing.install(recorder)

    tasks = load_tasks(spec["tasks_file"])
    cache_dir = workdir / "cache"
    service_dir = workdir / "service"
    outcome: Dict[str, Any] = {"entry": entry, "tasks": len(tasks)}
    cluster = None
    prepared = prepare_batch(tasks) if entry == "batch" else None
    if entry == "http":
        trace_args = (
            ["--trace-dir", spec["trace_dir"], "--trace-id", spec["trace_id"]]
            if recorder is not None
            else []
        )
        cluster = HttpCluster(service_dir, workdir, trace_args)
    try:
        if cluster is not None:
            outcome["setup_s"] = cluster.start(spec["handoff_s"])
        window = recorder.open("bench.sweep") if recorder else None
        epoch0 = time.time()
        t0 = time.perf_counter()
        if entry in ("serial", "pool"):
            workers = 1 if entry == "serial" else 2
            results, runner = run_runner(tasks, cache_dir, workers)
        elif entry == "batch":
            results, runner = run_batch(tasks, cache_dir, prepared)
        elif entry == "service":
            results, runner = run_service(tasks, service_dir)
        else:
            results, runner = run_http(tasks, cluster)
        t1 = time.perf_counter()
        epoch1 = time.time()
        if window is not None:
            recorder.close(window)
    finally:
        if cluster is not None:
            cluster.stop()

    outcome.update(
        sweep_s=t1 - t0,
        window=[t0, t1],
        epoch_window=[epoch0, epoch1],
        peak_rss_mb=peak_rss_mb(),
        digests=[result_digest(r) for r in results],
        result_sha256=result_digest(results),
    )
    if runner is not None:
        outcome["runner_trace"] = [e.as_jsonable() for e in runner.trace.events]
    if recorder is not None:
        recorder.flush()
    return outcome


def run_cli(argv: List[str]) -> int:
    role = "cli"
    trace_dir = trace_id = None
    while argv and argv[0] != "--":
        flag, value, argv = argv[0], argv[1], argv[2:]
        if flag == "--role":
            role = value
        elif flag == "--trace-dir":
            trace_dir = value
        elif flag == "--trace-id":
            trace_id = value
        else:
            raise SystemExit(f"unknown launcher flag {flag}")
    recorder = None
    if trace_dir:
        import tracing

        recorder = tracing.SpanRecorder(trace_dir, trace_id or "", role=role)
        tracing.install(recorder)
    from repro.tools.cli import main

    try:
        return main(argv[1:])
    finally:
        if recorder is not None:
            recorder.flush()


def main(argv: List[str]) -> int:
    bootstrap()
    if argv[:1] == ["entry"] and len(argv) == 2:
        spec = json.loads(Path(argv[1]).read_text(encoding="utf-8"))
        outcome = run_entry(spec)
        Path(spec["out"]).write_text(json.dumps(outcome), encoding="utf-8")
        return 0
    if argv[:1] == ["cli"]:
        return run_cli(argv[1:])
    sys.stderr.write(__doc__)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
