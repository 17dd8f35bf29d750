"""Post-hoc reports: span tree, critical path, slowest, failures."""

import json

from repro.telemetry.report import build_report, format_report


def _write_jsonl(path, records):
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record) + "\n")


def _make_run_dir(tmp_path, crashed=False):
    run_id = "a" * 16
    trace = [
        {"event": "run_start", "t_s": 0.0, "epoch_s": 1000.0,
         "run_id": run_id},
        {"event": "queued", "t_s": 0.0, "kind": "simulate",
         "task_index": 0, "run_id": run_id},
        {"event": "queued", "t_s": 0.0, "kind": "simulate",
         "task_index": 1, "run_id": run_id},
        {"event": "finished", "t_s": 1.0, "kind": "simulate",
         "task_index": 0, "duration_s": 1.0, "run_id": run_id},
        {"event": "finished", "t_s": 3.0, "kind": "simulate",
         "task_index": 1, "duration_s": 2.0, "run_id": run_id},
        {"event": "failed", "t_s": 3.5, "kind": "simulate",
         "task_index": 2, "attempt": 2, "error": "Boom",
         "run_id": run_id},
    ]
    spans = [
        {"event": "span_start", "run_id": run_id, "span_id": "sweep1",
         "name": "sweep", "t_s": 0.0},
        {"event": "span_start", "run_id": run_id, "span_id": "pt1",
         "name": "point", "parent_id": "sweep1", "t_s": 0.1},
        {"event": "span_end", "run_id": run_id, "span_id": "pt1",
         "name": "point", "t_s": 1.0, "duration_s": 0.9,
         "status": "ok"},
        {"event": "span_start", "run_id": run_id, "span_id": "pt2",
         "name": "point", "parent_id": "sweep1", "t_s": 1.0},
        {"event": "span_end", "run_id": run_id, "span_id": "pt2",
         "name": "point", "t_s": 3.0, "duration_s": 2.0,
         "status": "ok"},
    ]
    if not crashed:
        trace.append({"event": "run_end", "t_s": 4.0, "run_id": run_id})
        spans.append(
            {"event": "span_end", "run_id": run_id, "span_id": "sweep1",
             "name": "sweep", "t_s": 4.0, "duration_s": 4.0,
             "status": "ok"}
        )
    _write_jsonl(tmp_path / "trace.jsonl", trace)
    _write_jsonl(tmp_path / "spans.jsonl", spans)
    return run_id


class TestBuildReport:
    def test_span_tree(self, tmp_path):
        run_id = _make_run_dir(tmp_path)
        report = build_report(tmp_path)
        assert report["summary"]["run_id"] == run_id
        roots = report["span_tree"]
        assert len(roots) == 1
        assert roots[0]["name"] == "sweep"
        assert [c["name"] for c in roots[0]["children"]] == [
            "point",
            "point",
        ]

    def test_critical_path_descends_longest_child(self, tmp_path):
        _make_run_dir(tmp_path)
        report = build_report(tmp_path)
        path = report["critical_path"]
        assert [step["name"] for step in path] == ["sweep", "point"]
        assert path[1]["span_id"] == "pt2"  # 2.0s beats 0.9s

    def test_slowest_points_sorted(self, tmp_path):
        _make_run_dir(tmp_path)
        report = build_report(tmp_path, slowest=1)
        slowest = report["slowest_points"]
        assert len(slowest) == 1
        assert slowest[0]["task_index"] == 1
        assert slowest[0]["duration_s"] == 2.0

    def test_failures_table(self, tmp_path):
        _make_run_dir(tmp_path)
        report = build_report(tmp_path)
        assert report["failures"] == [
            {"task_index": 2, "kind": "simulate", "attempt": 2,
             "error": "Boom", "span_id": None}
        ]

    def test_crashed_run_shows_open_spans(self, tmp_path):
        _make_run_dir(tmp_path, crashed=True)
        report = build_report(tmp_path)
        assert report["open_span_count"] == 1
        assert not report["summary"]["run_ended"]
        roots = report["span_tree"]
        assert roots[0]["status"] == "open"

    def test_torn_lines_keep_every_complete_span(self, tmp_path):
        # kill -9 mid-append leaves a torn line; a non-object line is
        # skipped by the same rule.
        clean, torn = tmp_path / "clean", tmp_path / "torn"
        clean.mkdir()
        torn.mkdir()
        _make_run_dir(clean, crashed=True)
        _make_run_dir(torn, crashed=True)
        for name in ("trace.jsonl", "spans.jsonl"):
            with open(torn / name, "a", encoding="utf-8") as handle:
                handle.write('[1, 2]\n{"event": "span_start", "run_id": "aa')
        want, got = build_report(clean), build_report(torn)
        assert got["span_tree"] == want["span_tree"]
        assert got["summary"] == want["summary"]
        assert got["open_span_count"] == 1

    def test_report_is_jsonable(self, tmp_path):
        _make_run_dir(tmp_path)
        json.dumps(build_report(tmp_path))

    def test_empty_dir(self, tmp_path):
        report = build_report(tmp_path)
        assert report["span_tree"] == []
        assert report["critical_path"] == []


class TestFormatReport:
    def test_text_view(self, tmp_path):
        run_id = _make_run_dir(tmp_path)
        text = format_report(build_report(tmp_path))
        assert run_id in text
        assert "span tree:" in text
        assert "- sweep" in text
        assert "critical path:" in text
        assert "slowest points:" in text
        assert "failures (1):" in text
        assert "Boom" in text

    def test_crashed_run_marks_open(self, tmp_path):
        _make_run_dir(tmp_path, crashed=True)
        text = format_report(build_report(tmp_path))
        assert "(open)" in text
