"""Forensics satellites: correlation ids and torn-tail tolerance.

- quarantine records and rejected-submission reason files carry the
  orchestrator's ``run_id``/``span_id``, so an operator can jump from
  a parked task straight to the matching telemetry;
- ``repro-plc status`` (and its ``--json`` document) tolerates a torn
  trailing journal record — the fingerprint of ``kill -9`` mid-append —
  and *reports* it as ``journal_tail: "torn"`` instead of crashing;
- it reads the journal alone, so a killed service, which never flushed
  its telemetry, still shows its per-kind counts.
"""

import json

from repro.runner.cache import cache_key
from repro.service import Orchestrator, ServiceConfig, build_submission
from repro.service.journal import JournalWriter, journal_tail_state
from repro.service.orchestrator import ServicePaths
from repro.service.quarantine import (
    read_quarantine_records,
    write_quarantine_record,
)
from repro.service.status import render_service_status, service_status
from repro.service.submit import standard_sweep_tasks
from tests.support import sim_tasks


class TestQuarantineCorrelation:
    def test_record_carries_run_and_span_ids(self, tmp_path):
        path = write_quarantine_record(
            tmp_path / "q",
            task_id="t" * 64,
            description={"kind": "simulate", "payload": {}},
            failures=[{"error": "boom", "error_type": "ValueError"}],
            run_id="run-abc",
            span_id="span-def",
        )
        record = json.loads(path.read_text(encoding="utf-8"))
        assert record["run_id"] == "run-abc"
        assert record["span_id"] == "span-def"
        (loaded,) = read_quarantine_records(tmp_path / "q")
        assert loaded["run_id"] == "run-abc"

    def test_ids_optional_for_legacy_callers(self, tmp_path):
        path = write_quarantine_record(
            tmp_path / "q",
            task_id="t" * 64,
            description={"kind": "simulate", "payload": {}},
            failures=[],
        )
        record = json.loads(path.read_text(encoding="utf-8"))
        assert "run_id" not in record
        assert "span_id" not in record

    def test_rejected_reason_file_names_run_and_span(self, tmp_path):
        orch = Orchestrator(
            ServiceConfig(service_dir=tmp_path / "svc", max_workers=0)
        )
        paths = ServicePaths(tmp_path / "svc")
        bad = paths.inbox
        bad.mkdir(parents=True, exist_ok=True)
        garbage = bad / "junk.json"
        garbage.write_text("{not json", encoding="utf-8")
        with orch.lock:
            orch._scan_inbox()
        reasons = list(paths.rejected.glob("*.reason.txt"))
        assert len(reasons) == 1
        text = reasons[0].read_text(encoding="utf-8")
        assert text.splitlines()[0] == "malformed submission"
        assert f"run_id: {orch.trace.run_id}" in text
        orch.journal.close()


class TestTornJournalTail:
    def _journal_with_torn_tail(self, tmp_path):
        sdir = tmp_path / "svc"
        sdir.mkdir(parents=True, exist_ok=True)
        journal = JournalWriter(ServicePaths(sdir).journal)
        journal.append("service_start", pid=1)
        journal.append("service_stop", pid=1)
        journal.close()
        # kill -9 mid-append: the trailing record is half a line.
        with ServicePaths(sdir).journal.open("a", encoding="utf-8") as fh:
            fh.write('{"event": "task_enq')
        return sdir

    def test_tail_state_classifier(self, tmp_path):
        sdir = self._journal_with_torn_tail(tmp_path)
        assert journal_tail_state(ServicePaths(sdir).journal) == "torn"
        assert journal_tail_state(tmp_path / "nope.jsonl") == "missing"

    def test_clean_tail_reported_clean(self, tmp_path):
        sdir = tmp_path / "svc"
        journal = JournalWriter(ServicePaths(sdir).journal)
        journal.append("service_start", pid=1)
        journal.close()
        assert journal_tail_state(ServicePaths(sdir).journal) == "clean"

    def test_status_tolerates_and_reports_torn_tail(self, tmp_path):
        sdir = self._journal_with_torn_tail(tmp_path)
        status = service_status(sdir)  # must not raise
        assert status["journal_tail"] == "torn"
        assert status["corrupt_records"] == 1
        assert json.loads(json.dumps(status)) == status  # --json safe
        rendered = render_service_status(status)
        assert "[tail torn]" in rendered

    def test_status_of_a_killed_service_counts_per_kind(self, tmp_path):
        # A service killed with kill -9 leaves its journal and no
        # telemetry file: the per-kind rows come from the journal fold.
        curve = standard_sweep_tasks((2,), repetitions=0)[0]
        tasks = sim_tasks((2, 3)) + [curve]
        orch = Orchestrator(
            ServiceConfig(service_dir=tmp_path / "svc", max_workers=0)
        )
        cached = tasks[1].describe()
        orch.cache.put(cache_key(cached), {"n": 3}, cached)
        orch.admit_submission(build_submission(tasks))
        shard = orch.remote_claim("w1")
        orch.remote_fail(shard["task_id"], "w1", error="boom")
        orch.journal.close()  # killed: serve never ran, nothing flushed
        assert not orch.paths.telemetry.exists()
        status = service_status(orch.paths.root)
        assert status["kinds"]["simulate"] == {
            "pending": 1,
            "leased": 0,
            "completed": 1,
            "quarantined": 0,
            "failed_attempts": 1,
            "cache_hits": 1,
        }
        assert status["kinds"]["model_curve"]["pending"] == 1
        rendered = render_service_status(status)
        assert (
            "kind      : simulate 1 pending, 1 completed, "
            "1 failed attempts, 1 cache hits"
        ) in rendered.splitlines()
        assert "kind      : model_curve 1 pending" in rendered.splitlines()
