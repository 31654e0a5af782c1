"""The command line and BENCHMARK.json agree with the benchmark code."""

import json
import shutil
import subprocess
import sys

from bench.run import END_TO_END, LAYER_METRICS, LEDGER_ONLY, ROOT, render_pass, save_pass
from bench.stats import summarize

def test_spec_lists_the_metrics_the_code_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == LAYER_METRICS
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def _bench(args, cwd):
    return subprocess.run([sys.executable, "-m", "bench", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_refuses_to_run_without_simulator_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = _bench(["--workload", "table1-4k", "--seed", "1", "--seconds", "1",
                   "--trace", "0"], tmp_path)
    assert proc.returncode != 0
    assert "no simulator sources" in proc.stderr
    assert "{" not in proc.stdout


def test_unknown_workload_is_refused():
    proc = _bench(["--workload", "nope", "--seed", "1", "--seconds", "1"], ROOT)
    assert proc.returncode == 2 and "unknown workload" in proc.stderr


def test_timed_run_prints_one_result_line():
    proc = _bench(["--workload", "table1-4k", "--seed", "4", "--seconds", "1",
                   "--trace", "0"], ROOT)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == END_TO_END
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_full_pass_output_is_printed_saved_and_appended(tmp_path):
    samples = {name: [1.0, 1.1, 1.2] for name in END_TO_END}
    result = {
        "commit": "abc", "host": {"cpus": 2}, "seed": None, "runs": 3, "run_seconds": 10,
        "workloads": {"w": {
            "seed": 1, "digest": "d", "attempted": 4, "failed": 0, "failures": [],
            "samples": samples, "summary": {m: summarize(v) for m, v in samples.items()},
            "jobs": 10, "layers": {m: 0.5 for m in (*LAYER_METRICS, *LEDGER_ONLY)},
        }},
    }
    text = render_pass(result)
    for name, unit in {**END_TO_END, **LAYER_METRICS, **LEDGER_ONLY}.items():
        assert any(name in line and unit in line for line in text.splitlines()), name

    history = tmp_path / "history.jsonl"
    save_pass(result, tmp_path / "results", history)
    latest = save_pass(result, tmp_path / "results", history)
    assert json.loads(latest.read_text())["workloads"]["w"]["samples"] == samples
    rows = [json.loads(line) for line in history.read_text().splitlines()]
    assert len(rows) == 2
    assert rows[0]["workloads"]["w"]["run_s"]["median"] == 1.1
