"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main

ALL_COMMANDS = (
    "provisioning", "make-trace", "delay-timer", "residency", "joint",
    "validate-server", "validate-switch", "faults", "facility-carbon",
    "ai-training", "scalability", "bench",
)
DURATION_COMMANDS = (
    "provisioning", "make-trace", "delay-timer", "residency",
    "validate-server", "validate-switch", "faults", "facility-carbon",
)
#: Every count flag, by subcommand.
COUNT_FLAGS = (
    ("provisioning", "--servers"),
    ("delay-timer", "--servers"), ("delay-timer", "--cores"),
    ("residency", "--servers"), ("residency", "--cores"),
    ("joint", "--num-jobs"),
    ("faults", "--servers"), ("faults", "--cores"),
    ("facility-carbon", "--servers"), ("facility-carbon", "--cores"),
    ("facility-carbon", "--zones"),
    ("ai-training", "--group-sizes"), ("ai-training", "--steps"),
    ("scalability", "--servers"), ("scalability", "--num-jobs"),
    ("scalability", "--sizes"),
)


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_delay_timer_defaults(self):
        args = build_parser().parse_args(["delay-timer"])
        assert args.workload == "web-search"
        assert 0.0 in args.taus

    def test_unknown_workload_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["delay-timer", "--workload", "hpc"])

    def test_tau_list_parsing(self):
        args = build_parser().parse_args(
            ["delay-timer", "--taus", "0", "0.5", "2"]
        )
        assert args.taus == [0.0, 0.5, 2.0]

    def test_jobs_flag_on_every_sweep_command(self):
        for command in (
            "provisioning", "delay-timer", "residency", "joint",
            "faults", "facility-carbon", "ai-training", "scalability",
            "bench",
        ):
            args = build_parser().parse_args([command, "--jobs", "4"])
            assert args.jobs == 4, command
            assert build_parser().parse_args([command]).jobs == 1, command

    def test_jobs_short_flag(self):
        assert build_parser().parse_args(["delay-timer", "-j", "2"]).jobs == 2

    @pytest.mark.parametrize("flag, value", [
        ("--jobs", "0"), ("--jobs", "two"),
        ("--point-timeout", "0"), ("--point-timeout", "-1"),
        ("--point-timeout", "nan"), ("--point-timeout", "inf"),
    ])
    def test_bad_sweep_flag_values_are_usage_errors(self, capsys, flag, value):
        for command in ALL_COMMANDS:
            extra = ["--out", "x.txt"] if command == "make-trace" else []
            with pytest.raises(SystemExit) as exc:
                build_parser().parse_args([command, *extra, f"{flag}={value}"])
            assert exc.value.code == 2, command
            err = capsys.readouterr().err
            assert "usage:" in err and flag in err, command

    @pytest.mark.parametrize("value", ["0", "-1", "nan"])
    def test_bad_duration_is_a_usage_error(self, capsys, value):
        for command in DURATION_COMMANDS:
            extra = ["--out", "x.txt"] if command == "make-trace" else []
            with pytest.raises(SystemExit) as exc:
                build_parser().parse_args([command, *extra, "--duration", value])
            assert exc.value.code == 2, command
            err = capsys.readouterr().err
            assert "usage:" in err and "--duration" in err, command

    @pytest.mark.parametrize("value", ["0", "-2", "1.5"])
    def test_bad_count_is_a_usage_error(self, capsys, value):
        for command, flag in COUNT_FLAGS:
            with pytest.raises(SystemExit) as exc:
                build_parser().parse_args([command, flag, value])
            assert exc.value.code == 2, (command, flag)
            err = capsys.readouterr().err
            assert "usage:" in err and flag in err and "integer >= 1" in err

    def test_count_flags_accept_one(self):
        for command, flag in COUNT_FLAGS:
            args = build_parser().parse_args([command, flag, "1"])
            value = getattr(args, flag[2:].replace("-", "_"))
            assert value in (1, [1]), (command, flag)

    @pytest.mark.parametrize("value", ["nan", "-1", "inf", "soon"])
    def test_bad_tau_is_a_usage_error(self, capsys, value):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["delay-timer", "--taus", "0.1", value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err and "--taus" in err

    def test_retries_flag_is_gone(self, capsys):
        for command in ALL_COMMANDS:
            extra = ["--out", "x.txt"] if command == "make-trace" else []
            with pytest.raises(SystemExit) as exc:
                build_parser().parse_args([command, *extra, "--retries", "1"])
            assert exc.value.code == 2, command
        capsys.readouterr()

    def test_sweep_options_always_built(self):
        from repro.cli import _sweep_options
        from repro.runner import SweepOptions

        args = build_parser().parse_args(["delay-timer"])
        assert _sweep_options(args) == SweepOptions()
        args = build_parser().parse_args(
            ["delay-timer", "--point-timeout", "0.5"]
        )
        assert _sweep_options(args) == SweepOptions(point_timeout_s=0.5)

    def test_sweep_thresholds_parsing(self):
        args = build_parser().parse_args(
            ["provisioning", "--sweep-thresholds", "0.25:1.0", "0.5:1.5"]
        )
        assert args.sweep_thresholds == ["0.25:1.0", "0.5:1.5"]

    def test_scalability_sizes_parsing(self):
        args = build_parser().parse_args(
            ["scalability", "--sizes", "100", "1000"]
        )
        assert args.sizes == [100, 1000]

    def test_facility_carbon_defaults(self):
        args = build_parser().parse_args(["facility-carbon"])
        assert args.setpoints == [22.0, 26.0, 30.0]
        assert args.carbon == ["solar", "evening-peak"]
        assert args.thermal_limit == 45.0

    def test_facility_carbon_rejects_unknown_profile(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["facility-carbon", "--carbon", "unobtainium"]
            )

    def test_durability_flags_on_scalability_only(self):
        args = build_parser().parse_args(
            ["scalability", "--checkpoint", "run.ckpt", "--checkpoint-every",
             "0.5", "--restore-from", "old.ckpt"]
        )
        assert args.checkpoint == "run.ckpt"
        assert args.checkpoint_every == 0.5
        assert args.restore_from == "old.ckpt"
        # Sweeps are durable point by point through --journal/--resume.
        for command in ("joint", "faults", "facility-carbon", "ai-training"):
            with pytest.raises(SystemExit):
                build_parser().parse_args([command, "--checkpoint", "run.ckpt"])

    def test_checkpoint_every_requires_checkpoint_path(self):
        from repro.cli import _durability

        args = build_parser().parse_args(
            ["scalability", "--checkpoint-every", "0.5"]
        )
        with pytest.raises(SystemExit, match="requires --checkpoint"):
            _durability(args)

    def test_durability_untouched_is_none(self):
        from repro.cli import _durability

        assert _durability(build_parser().parse_args(["scalability"])) is None
        # Commands without the durable-runs group never build a policy.
        assert _durability(build_parser().parse_args(["delay-timer"])) is None


class TestExecution:
    def test_provisioning_smoke(self, capsys):
        main([
            "provisioning", "--servers", "4", "--duration", "10",
            "--rate", "150", "--day-length", "5",
        ])
        out = capsys.readouterr().out
        assert "Fig. 4" in out

    def test_delay_timer_smoke(self, capsys):
        main([
            "delay-timer", "--taus", "0", "1", "--utilizations", "0.3",
            "--servers", "4", "--duration", "3",
        ])
        out = capsys.readouterr().out
        assert "Fig. 5" in out
        assert "optimal tau" in out

    def test_scalability_smoke(self, capsys):
        main(["scalability", "--servers", "100", "--num-jobs", "500"])
        out = capsys.readouterr().out
        assert "Table I" in out

    def test_validate_server_smoke(self, capsys):
        main(["validate-server", "--duration", "60", "--rate", "50"])
        out = capsys.readouterr().out
        assert "Fig. 12" in out

    def test_joint_smoke(self, capsys):
        main(["joint", "--num-jobs", "50", "--utilizations", "0.3"])
        out = capsys.readouterr().out
        assert "Fig. 11a" in out

    def test_provisioning_threshold_sweep_smoke(self, capsys):
        main([
            "provisioning", "--servers", "4", "--duration", "10",
            "--rate", "150", "--day-length", "5",
            "--sweep-thresholds", "0.25:1.0", "0.5:1.5",
        ])
        out = capsys.readouterr().out
        assert "0.25" in out and "0.50" in out

    def test_scalability_sizes_smoke(self, capsys):
        main(["scalability", "--sizes", "50", "100", "--num-jobs", "500"])
        out = capsys.readouterr().out
        assert "50" in out and "100" in out

    def test_facility_carbon_smoke(self, capsys):
        main([
            "facility-carbon", "--servers", "4", "--duration", "4",
            "--utilization", "0.3", "--setpoints", "22", "30",
            "--carbon", "solar", "--strict-invariants",
        ])
        out = capsys.readouterr().out
        assert "PUE" in out and "gCO2" in out
        assert "22.0" in out and "30.0" in out

    def test_ai_training_smoke(self, capsys):
        main([
            "ai-training", "--group-sizes", "4", "--algorithms", "ring",
            "--steps", "2", "--compute", "0.002", "--bytes", "40000",
            "--strict-invariants",
        ])
        out = capsys.readouterr().out
        assert "step(s)" in out and "ring" in out

    def test_ai_training_goal_roundtrip(self, capsys, tmp_path):
        goal = str(tmp_path / "train.goal")
        main([
            "ai-training", "--make-goal", goal, "--group-sizes", "4",
            "--steps", "2", "--compute", "0.002", "--bytes", "40000",
        ])
        assert "wrote" in capsys.readouterr().out
        main([
            "ai-training", "--goal-trace", goal, "--strict-invariants",
        ])
        out = capsys.readouterr().out
        assert "GOAL replay" in out

    def test_interrupt_and_restore_smoke(self, capsys, tmp_path, monkeypatch):
        import json
        import os
        import signal

        from repro.workload.driver import WorkloadDriver

        real_inject = WorkloadDriver._inject

        # Named like the method it replaces so the pending arrival event
        # pickles by that name and restores to the real method.
        def _inject(self, when):
            real_inject(self, when)
            if self.jobs_injected == 100:
                os.kill(os.getpid(), signal.SIGINT)

        ckpt = str(tmp_path / "run.ckpt")
        base = ["scalability", "--servers", "64", "--num-jobs", "300",
                "--strict-invariants"]
        monkeypatch.setattr(WorkloadDriver, "_inject", _inject)
        interrupted = tmp_path / "interrupted.json"
        with pytest.raises(SystemExit) as exc:
            main(base + ["--checkpoint", ckpt, "--metrics", str(interrupted)])
        monkeypatch.undo()
        assert exc.value.code == 130
        err = capsys.readouterr().err
        assert f"--restore-from {ckpt}" in err
        # The metrics were registered when the run opened, so the early
        # stop exports the run up to the interrupt.
        counters = json.loads(interrupted.read_text())["counters"]
        assert counters["engine.events_executed"] > 0
        assert counters["workload.jobs_injected"] == 100

        # That the restored run reproduces the plain one is the execution
        # matrix's durable column (tests/test_execution_matrix.py).
        with pytest.raises(SystemExit) as exc:
            main(base + ["--seed", "2", "--restore-from", ckpt])
        assert exc.value.code == 2
        assert "fingerprint" in capsys.readouterr().err

    def test_sweep_interrupt_and_resume_smoke(
        self, capsys, tmp_path, monkeypatch
    ):
        """Ctrl-C after a journaled sweep's first point: exit 130 with the
        resume hint.  That --resume then prints what a plain run does is the
        execution matrix's resume column (tests/test_execution_matrix.py)."""
        import os
        import signal

        from repro.runner.journal import SweepJournal

        real_record = SweepJournal.record

        def record(self, fingerprint, **fields):
            real_record(self, fingerprint, **fields)
            os.kill(os.getpid(), signal.SIGINT)

        journal = str(tmp_path / "sweep.jsonl")
        base = ["delay-timer", "--taus", "0", "0.1", "--utilizations", "0.3",
                "--servers", "2", "--duration", "2"]
        monkeypatch.setattr(SweepJournal, "record", record)
        with pytest.raises(SystemExit) as exc:
            main(base + ["--journal", journal])
        monkeypatch.undo()
        assert exc.value.code == 130
        err = capsys.readouterr().err
        assert "1/2 sweep points completed" in err
        assert f"--journal {journal} --resume" in err
        with open(journal) as fh:
            assert sum('"status": "ok"' in line for line in fh) >= 1

    def test_bench_quick_smoke(self, capsys, tmp_path):
        import json

        out_path = tmp_path / "bench.json"
        main([
            "bench", "--quick", "--skip-sweep", "--out", str(out_path),
        ])
        out = capsys.readouterr().out
        assert "events/s" in out
        doc = json.loads(out_path.read_text())
        assert doc["engine"]["events_per_s"] > 0
        assert doc["farm"]["jobs_per_s"] > 0
        assert doc["scalability"]["events_per_s"] > 0

    def test_bench_regression_gate(self, capsys, tmp_path, monkeypatch):
        import json

        from repro.runner import bench

        # test_bench_quick_smoke makes the real run; the gate reads a
        # canned result through the same CLI path.
        result = {
            "engine": {"events_per_s": 1_000_000, "schedule_cancel_per_s": 1},
            "farm": {"jobs_per_s": 1},
            "scalability": {"events_per_s": 1},
        }
        monkeypatch.setattr(bench, "run_bench", lambda **kwargs: result)
        argv = ["bench", "--quick", "--skip-sweep",
                "--out", str(tmp_path / "b.json"), "--check-against"]
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps(result))
        main(argv + [str(baseline)])
        assert "no regressions" in capsys.readouterr().out
        # An absurdly fast baseline must trip the regression gate.
        baseline.write_text(json.dumps(
            {**result, "engine": {"events_per_s": 10**12}}
        ))
        with pytest.raises(SystemExit) as exc:
            main(argv + [str(baseline)])
        assert exc.value.code == 1
        assert "REGRESSION: engine.events_per_s" in capsys.readouterr().err


class TestTraceCommands:
    def test_make_trace_and_replay(self, capsys, tmp_path):
        out = tmp_path / "trace.txt"
        main([
            "make-trace", "--style", "nlanr", "--duration", "30",
            "--rate", "40", "--out", str(out),
        ])
        assert "wrote" in capsys.readouterr().out
        assert out.exists()
        main([
            "provisioning", "--servers", "4", "--duration", "20",
            "--arrival-trace", str(out), "--day-length", "10",
        ])
        assert "Fig. 4" in capsys.readouterr().out

    def test_make_trace_wikipedia_style(self, capsys, tmp_path):
        out = tmp_path / "wiki.txt"
        main([
            "make-trace", "--style", "wikipedia", "--duration", "40",
            "--rate", "30", "--day-length", "20", "--out", str(out),
        ])
        text = out.read_text()
        assert text.startswith("#")
        assert len(text.splitlines()) > 100


class TestObservabilityFlags:
    def test_flags_parse_on_every_subcommand(self):
        for command in (
            "provisioning", "delay-timer", "residency", "joint", "faults",
            "facility-carbon", "scalability", "validate-server", "bench",
            "make-trace",
        ):
            extra = ["--out", "x.txt"] if command == "make-trace" else []
            args = build_parser().parse_args([
                command, *extra, "--trace", "t.json", "--metrics", "m.json",
                "--profile",
            ])
            assert args.trace == "t.json", command
            assert args.metrics == "m.json", command
            assert args.profile is True, command

    def test_flags_default_off(self):
        args = build_parser().parse_args(["delay-timer"])
        assert args.trace is None and args.metrics is None
        assert args.profile is False
        assert args.trace_categories is None

    def test_trace_categories_validated(self):
        args = build_parser().parse_args(
            ["delay-timer", "--trace", "t.json",
             "--trace-categories", "power", "task"]
        )
        assert args.trace_categories == ["power", "task"]
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["delay-timer", "--trace-categories", "bogus"]
            )

    def test_facility_trace_category_accepted(self):
        args = build_parser().parse_args(
            ["facility-carbon", "--trace", "t.json",
             "--trace-categories", "facility"]
        )
        assert args.trace_categories == ["facility"]

    def test_collective_trace_category_accepted(self):
        args = build_parser().parse_args(
            ["ai-training", "--trace", "t.json",
             "--trace-categories", "collective"]
        )
        assert args.trace_categories == ["collective"]

    def test_ai_training_defaults(self):
        args = build_parser().parse_args(["ai-training"])
        assert args.group_sizes == [4, 8, 16]
        assert args.algorithms == ["ring", "tree", "all_to_all"]
        assert args.fat_tree_k == 4
        assert args.steps == 4
        assert args.goal_trace is None
        assert args.make_goal is None

    def test_ai_training_rejects_unknown_algorithm(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["ai-training", "--algorithms", "bogus"])

    def test_provisioning_arrival_trace_renamed(self):
        # --trace on provisioning now means the telemetry trace; the arrival
        # trace file moved to --arrival-trace.
        args = build_parser().parse_args(
            ["provisioning", "--arrival-trace", "arrivals.txt"]
        )
        assert args.arrival_trace == "arrivals.txt"
        assert args.trace is None


class TestObservabilityExecution:
    _TINY = [
        "delay-timer", "--taus", "0", "0.1", "--utilizations", "0.3",
        "--servers", "2", "--duration", "2",
    ]

    @pytest.mark.usefixtures("real_pool")
    def test_trace_export_is_valid_and_jobs_invariant(self, capsys, tmp_path):
        from repro.telemetry import validate_chrome_trace

        paths = []
        for jobs, name in ((1, "t1.json"), (2, "t2.json")):
            path = tmp_path / name
            main(self._TINY + ["--jobs", str(jobs), "--trace", str(path)])
            capsys.readouterr()
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()
        import json

        doc = json.loads(paths[0].read_text())
        assert validate_chrome_trace(doc) == []
        tracks = {
            (ev["pid"], ev["tid"]) for ev in doc["traceEvents"]
            if ev["ph"] in ("X", "i")
        }
        assert tracks  # power/task tracks materialised
        names = {ev["name"] for ev in doc["traceEvents"] if ev["ph"] == "M"}
        assert {"process_name", "thread_name"} <= names

    def test_metrics_export_json_and_csv(self, capsys, tmp_path):
        import csv
        import json

        json_path = tmp_path / "m.json"
        main(self._TINY + ["--metrics", str(json_path)])
        capsys.readouterr()
        doc = json.loads(json_path.read_text())
        assert doc["points"]  # one entry per sweep point
        assert all("counters" in point for point in doc["points"])
        csv_path = tmp_path / "m.csv"
        main(self._TINY + ["--metrics", str(csv_path)])
        capsys.readouterr()
        rows = list(csv.reader(csv_path.open()))
        assert rows[0] == ["label", "kind", "metric", "value"]
        assert len(rows) > 1

    def test_profile_prints_hot_handler_table(self, capsys):
        main(self._TINY + ["--profile"])
        out = capsys.readouterr().out
        assert "event-loop profile" in out
        assert "handler" in out

    def test_profile_reports_gc_passes_outside_metrics(self, capsys, tmp_path):
        import gc
        import json

        callbacks = list(gc.callbacks)
        json_path = tmp_path / "m.json"
        main(self._TINY + ["--profile", "--metrics", str(json_path)])
        out = capsys.readouterr().out
        assert gc.callbacks == callbacks
        assert [ln for ln in out.splitlines() if ln.startswith("gc:")]
        assert "gc" not in json_path.read_text()

    def test_profile_reports_the_settled_heap_outside_metrics(self, tmp_path):
        import os
        import re
        import subprocess
        import sys
        from pathlib import Path

        import repro

        # A fresh interpreter: whether a build passes the freeze gate depends
        # on the heap it grows, and a test session's heap is large.
        env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).resolve().parents[1]))
        json_path = tmp_path / "m.json"
        out = subprocess.run(
            [sys.executable, "-m", "repro", "ai-training", "--group-sizes", "1024",
             "--algorithms", "tree", "--fat-tree-k", "16", "--steps", "1",
             "--compute", "0.001", "--bytes", "10000",
             "--profile", "--metrics", str(json_path)],
            capture_output=True, text=True, env=env, check=True,
        ).stdout
        lines = out.splitlines()
        at = next(i for i, ln in enumerate(lines) if ln.startswith("gc:"))
        settled = re.fullmatch(
            r"heap: (\d+) objects settled \(frozen out of cyclic GC\)", lines[at + 1]
        )
        assert settled and int(settled.group(1)) > 0
        assert "settled" not in json_path.read_text()

    def test_joint_points_report_metrics_and_profile_events(self, capsys, tmp_path):
        import json
        import re

        json_path = tmp_path / "m.json"
        main([
            "joint", "--num-jobs", "20", "--utilizations", "0.3",
            "--metrics", str(json_path), "--profile",
        ])
        out = capsys.readouterr().out
        profiled = re.search(r"event-loop profile: (\d+) events", out)
        assert profiled and int(profiled.group(1)) > 0
        points = json.loads(json_path.read_text())["points"]
        assert len(points) == 2  # balanced and network-aware
        for point in points:
            counters = point["counters"]
            assert counters["engine.events_executed"] > 0
            assert counters["scheduler.jobs_completed"] == 20
            assert counters["network.flows_completed"] > 0
            assert (
                counters["network.rate_recomputes"]
                >= counters["network.flows_completed"]
            )


class TestTelemetryOnEarlyStop:
    """--trace/--metrics/--profile are written however the command ends."""

    _SWEEP = [
        "delay-timer", "--taus", "0", "0.1", "--utilizations", "0.3",
        "--servers", "2", "--duration", "2",
    ]

    @staticmethod
    def _stop_second_point(monkeypatch, stop):
        """Call ``stop()`` after the second sweep point's 20th arrival."""
        from repro.workload.driver import WorkloadDriver

        real_inject = WorkloadDriver._inject
        drivers = []

        def _inject(self, when):
            real_inject(self, when)
            if self not in drivers:
                drivers.append(self)
            if len(drivers) == 2 and self.jobs_injected == 20:
                stop()

        monkeypatch.setattr(WorkloadDriver, "_inject", _inject)

    def _check_files(self, tmp_path, capsys):
        import json

        from repro.telemetry import validate_chrome_trace

        captured = capsys.readouterr()
        assert "event-loop profile" in captured.out
        assert "the run stopped early" in captured.err
        doc = json.loads((tmp_path / "t.json").read_text())
        assert validate_chrome_trace(doc) == []
        groups = [
            ev["args"]["name"] for ev in doc["traceEvents"]
            if ev["name"] == "process_name"
        ]
        # Both points: the finished one and the one that stopped the run.
        assert any(g.startswith("tau_s=0,") for g in groups)
        assert any(g.startswith("tau_s=0.1,") for g in groups)
        points = json.loads((tmp_path / "m.json").read_text())["points"]
        assert [p["label"].split(",")[0] for p in points] == [
            "tau_s=0", "tau_s=0.1",
        ]
        # The point that stopped the run registered its metrics when its
        # workload started, so it hands over the values at the stop.
        stopped = points[1]["counters"]
        assert stopped["engine.events_executed"] > 0
        assert stopped["workload.jobs_injected"] == 20

    def _outputs(self, tmp_path):
        return ["--trace", str(tmp_path / "t.json"),
                "--metrics", str(tmp_path / "m.json"), "--profile"]

    def test_written_when_a_point_fails(self, capsys, tmp_path, monkeypatch):
        from repro.runner import SweepError

        def fail():
            raise RuntimeError("injected point failure")

        self._stop_second_point(monkeypatch, fail)
        with pytest.raises(SweepError):
            main(self._SWEEP + self._outputs(tmp_path))
        self._check_files(tmp_path, capsys)

    def test_written_on_ctrl_c(self, capsys, tmp_path, monkeypatch):
        import os
        import signal

        self._stop_second_point(
            monkeypatch, lambda: os.kill(os.getpid(), signal.SIGINT)
        )
        with pytest.raises(SystemExit) as exc:
            main(self._SWEEP + self._outputs(tmp_path))
        assert exc.value.code == 130
        self._check_files(tmp_path, capsys)


class TestDroppedTraceEvents:
    """The trace line counts the oldest events each full ring dropped."""

    @staticmethod
    def _export(sess, tmp_path, capsys):
        import argparse

        from repro.cli import _export_telemetry

        args = argparse.Namespace(
            trace=str(tmp_path / "t.json"), metrics=None, profile=False,
            command="test",
        )
        _export_telemetry(args, sess)
        return capsys.readouterr().err

    def test_session_ring(self, capsys, tmp_path):
        from repro.telemetry import TelemetrySession

        sess = TelemetrySession(trace=True, metrics=False, max_events=3)
        for i in range(5):
            sess.recorder.instant("task", "tick", "sim", float(i))
        err = self._export(sess, tmp_path, capsys)
        assert "3 trace events (2 older events dropped)" in err

    def test_sweep_sums_its_points(self, capsys, tmp_path):
        from repro.runner import SweepSpec, run_sweep
        from repro.telemetry import session as telemetry
        from tests.runner import _workers as w

        spec = SweepSpec("traced")
        for x in range(2):
            spec.add(w.traced_work, x=x)  # two events per point
        with telemetry.session(trace=True, metrics=False, max_events=1) as sess:
            run_sweep(spec)
        err = self._export(sess, tmp_path, capsys)
        assert "2 trace events (2 older events dropped)" in err
