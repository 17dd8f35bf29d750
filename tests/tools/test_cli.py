"""Smoke tests for the repro-plc CLI."""

import pytest

from repro.tools.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_sim_defaults(self):
        args = build_parser().parse_args(["sim"])
        assert args.stations == 2
        assert args.cw == [8, 16, 32, 64]
        assert args.dc == [0, 1, 3, 15]


class TestCommands:
    def test_sim(self, capsys):
        assert main(["sim", "-n", "2", "--sim-time", "1e6"]) == 0
        out = capsys.readouterr().out
        assert "collision_pr" in out
        assert "norm_throughput" in out

    def test_testbed(self, capsys):
        assert main(
            ["testbed", "-n", "1", "--duration", "2e6"]
        ) == 0
        out = capsys.readouterr().out
        assert "collision probability" in out
        assert "goodput" in out

    def test_overhead(self, capsys):
        assert main(["overhead", "-n", "1", "--duration", "2e6"]) == 0
        assert "MME overhead" in capsys.readouterr().out

    def test_boost(self, capsys):
        assert main(["boost", "--counts", "2", "5"]) == 0
        out = capsys.readouterr().out
        assert "boosted configuration" in out
        assert "upper bound" in out

    def test_table2(self, capsys):
        assert main(
            ["table2", "--duration", "2e6", "--max-n", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "Table 2" in out
        assert "sum C_i" in out

    def test_figure2(self, capsys):
        assert main(
            ["figure2", "--duration", "2e6", "--reps", "1", "--max-n", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "Figure 2" in out
        assert "measured" in out
        assert "legend" in out  # the ASCII plot

    def test_sweep(self, capsys):
        assert main(
            ["sweep", "--counts", "1", "2", "--sim-time", "1e6"]
        ) == 0
        out = capsys.readouterr().out
        assert "802.11 DCF" in out
        assert "1901 CA1" in out


class TestExtensionCommands:
    def test_load(self, capsys):
        assert main(
            ["load", "-n", "2", "--fractions", "0.5", "--sim-time", "2e6"]
        ) == 0
        out = capsys.readouterr().out
        assert "saturation knee" in out
        assert "delivered" in out

    def test_errors(self, capsys):
        assert main(
            ["errors", "-n", "1", "--rates", "0.0", "--duration", "2e6"]
        ) == 0
        assert "goodput" in capsys.readouterr().out

    def test_delay(self, capsys):
        assert main(["delay", "--counts", "1", "--sim-time", "2e6"]) == 0
        assert "model mean" in capsys.readouterr().out

    def test_coexist(self, capsys):
        assert main(
            ["coexist", "--total", "4", "--boosted", "0", "4",
             "--sim-time", "2e6"]
        ) == 0
        out = capsys.readouterr().out
        assert "per legacy" in out


class TestObservabilityCommands:
    def test_trace(self, capsys, tmp_path):
        assert main(
            ["trace", "testbed", "-n", "2", "--duration", "1e6",
             "--seed", "1", "--out-dir", str(tmp_path)]
        ) == 0
        out = capsys.readouterr().out
        assert "cross-check OK" in out
        assert "mac_trace" in out
        assert list(tmp_path.glob("mac_trace*.jsonl"))
        assert list(tmp_path.glob("sof_trace*.jsonl"))

    def test_trace_opt_out_flags(self, capsys, tmp_path):
        assert main(
            ["trace", "testbed", "-n", "2", "--duration", "1e6",
             "--out-dir", str(tmp_path), "--no-sof-trace", "--metrics"]
        ) == 0
        capsys.readouterr()
        assert not list(tmp_path.glob("sof_trace*.jsonl"))
        assert list(tmp_path.glob("metrics*.json"))

    def test_profile(self, capsys, tmp_path):
        json_path = tmp_path / "profile.json"
        assert main(
            ["profile", "testbed", "-n", "2", "--duration", "1e6",
             "--json", str(json_path)]
        ) == 0
        out = capsys.readouterr().out
        assert "events/sec" in out
        assert json_path.exists()


class TestCheckpointCommand:
    def _filled_store(self, tmp_path):
        from repro.checkpoint import (
            CheckpointStore,
            checkpointed_collision_test,
        )

        store_dir = tmp_path / "store"
        store = CheckpointStore(str(store_dir))
        checkpointed_collision_test(
            2,
            store,
            duration_us=2e6,
            warmup_us=2e6,
            seed=7,
            checkpoint_every_us=1e6,
        )
        return store, store_dir

    def test_inspect_writes_json_artifact(self, capsys, tmp_path):
        import json

        _store, store_dir = self._filled_store(tmp_path)
        json_path = tmp_path / "entries.json"
        assert main(
            ["checkpoint", "inspect", "--dir", str(store_dir),
             "--json", str(json_path)]
        ) == 0
        out = capsys.readouterr().out
        assert "snapshots" in out
        rows = json.loads(json_path.read_text())["entries"]
        assert rows and all(row["valid"] for row in rows)

    def test_verify_ok_then_fails_on_corruption(self, capsys, tmp_path):
        store, store_dir = self._filled_store(tmp_path)
        assert main(["checkpoint", "verify", "--dir", str(store_dir)]) == 0
        assert "verify OK" in capsys.readouterr().out
        seq = store.sequence_numbers()[-1]
        blob = bytearray(open(store.path_for(seq), "rb").read())
        blob[-1] ^= 0xFF
        open(store.path_for(seq), "wb").write(bytes(blob))
        assert main(["checkpoint", "verify", "--dir", str(store_dir)]) == 1
        assert "corrupt" in capsys.readouterr().out

    def test_verify_fails_on_empty_store(self, capsys, tmp_path):
        assert main(
            ["checkpoint", "verify", "--dir", str(tmp_path / "empty")]
        ) == 1
        assert "no resumable snapshot" in capsys.readouterr().out

    def test_resume_testbed_matches_plain(self, capsys, tmp_path):
        from repro.experiments.procedures import run_collision_test

        _store, store_dir = self._filled_store(tmp_path)
        plain = run_collision_test(
            2, duration_us=2e6, warmup_us=2e6, seed=7
        )
        assert main(["checkpoint", "resume", "--dir", str(store_dir)]) == 0
        out = capsys.readouterr().out
        assert "resuming testbed" in out
        assert f"{plain.collision_probability:.4f}" in out

    def test_resume_empty_store_fails(self, capsys, tmp_path):
        assert main(
            ["checkpoint", "resume", "--dir", str(tmp_path / "empty")]
        ) == 1
        assert "no valid snapshot" in capsys.readouterr().out

    def test_resume_slotsim_store(self, capsys, tmp_path):
        from repro.core.config import ScenarioConfig
        from repro.runner.runner import ExperimentRunner
        from repro.runner.seeding import SeedSpec
        from repro.runner.serialize import scenario_to_jsonable
        from repro.runner.tasks import Task, TaskKind

        scenario = ScenarioConfig.homogeneous(
            num_stations=3, sim_time_us=1e6, seed=2
        )
        task = Task(
            kind=TaskKind.SIMULATE,
            payload={"scenario": scenario_to_jsonable(scenario)},
            seed=SeedSpec(root_seed=1, point_index=0, repetition=0),
        )
        runner = ExperimentRunner(
            max_workers=1,
            checkpoint_dir=tmp_path / "ckpt",
            checkpoint_every_us=0.25e6,
        )
        (expected,) = runner.run([task])
        (store_dir,) = list((tmp_path / "ckpt").iterdir())
        assert main(["checkpoint", "resume", "--dir", str(store_dir)]) == 0
        out = capsys.readouterr().out
        assert "resuming slotsim" in out
        assert f"successes             = {expected['successes']}" in out

    def test_runner_checkpoint_flags(self, capsys, tmp_path):
        assert main(
            ["table2", "--duration", "2e6", "--max-n", "2",
             "--checkpoint-dir", str(tmp_path / "ckpt"),
             "--checkpoint-every-us", "1e6"]
        ) == 0
        assert "Table 2" in capsys.readouterr().out
        assert list((tmp_path / "ckpt").glob("*/ckpt-*.ckpt"))


class TestValidityCommand:
    def test_run_reports_and_exports(self, capsys, tmp_path):
        out_file = tmp_path / "map.json"
        assert main(
            ["validity", "run", "--counts", "2", "3",
             "--sim-time", "3e5", "--reps", "1",
             "--out", str(out_file), "--no-figure"]
        ) == 0
        out = capsys.readouterr().out
        assert "Validity map" in out
        assert "saturated" in out
        assert out_file.exists()
        import json

        data = json.loads(out_file.read_text())
        assert data["schema"] == "repro-plc/validity-map/v1"
        assert data["summary"]["cells"] == 8

    def test_run_warm_cache_hits(self, capsys, tmp_path):
        argv = ["validity", "run", "--counts", "2",
                "--regimes", "saturated", "--sim-time", "3e5",
                "--reps", "2", "--no-figure",
                "--cache-dir", str(tmp_path / "cache")]
        assert main(argv) == 0
        assert "executed=2" in capsys.readouterr().out
        assert main(argv) == 0
        assert "cache_hits=2" in capsys.readouterr().out

    def test_check_passes_on_consistent_artifact(self, capsys, tmp_path):
        import json

        from repro.validity import build_validity_map, default_pins

        pins = default_pins()
        for regime in pins["regimes"].values():
            regime["collision_probability_error"] = 1.0
            regime["throughput_relative_error"] = 10.0
        vmap = build_validity_map(
            counts=(2,), sim_time_us=3e5, repetitions=1, pins=pins
        )
        map_file = tmp_path / "map.json"
        map_file.write_text(json.dumps(vmap.as_dict()))
        pins_file = tmp_path / "pins.json"
        pins_file.write_text(json.dumps(pins))
        assert main(
            ["validity", "check", "--map", str(map_file),
             "--pins", str(pins_file)]
        ) == 0
        assert "pin check OK" in capsys.readouterr().out

    def test_check_fails_on_violation(self, capsys, tmp_path):
        import json

        from repro.validity import build_validity_map, default_pins

        vmap = build_validity_map(
            counts=(2,), sim_time_us=3e5, repetitions=1
        )
        map_file = tmp_path / "map.json"
        map_file.write_text(json.dumps(vmap.as_dict()))
        pins = default_pins()
        for regime in pins["regimes"].values():
            regime["collision_probability_error"] = 0.0
        pins_file = tmp_path / "pins.json"
        pins_file.write_text(json.dumps(pins))
        assert main(
            ["validity", "check", "--map", str(map_file),
             "--pins", str(pins_file)]
        ) == 1
        assert "pin check FAILED" in capsys.readouterr().out

    def test_check_requires_map(self, capsys):
        assert main(["validity", "check"]) == 2
