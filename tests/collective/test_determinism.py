"""Byte-identical ai-training reports across jobs / resume.

Each test drives the real CLI in-process (``repro.cli.main``) under
``--strict-invariants`` and compares full stdout, so any nondeterminism
anywhere in the collective stack — templates, placement, packet trains,
sweep executor, journal — shows up as a diff.
"""

from __future__ import annotations

import pytest

from repro.cli import main

BASE = [
    "ai-training",
    "--group-sizes", "4", "8",
    "--algorithms", "ring", "tree",
    "--fat-tree-k", "4",
    "--steps", "2",
    "--compute", "0.002",
    "--bytes", "40000",
    "--seed", "11",
    "--strict-invariants",
]


def _run(capsys, argv) -> str:
    main(argv)
    return capsys.readouterr().out


@pytest.mark.timeout(300)
class TestAiTrainingDeterminism:
    @pytest.mark.usefixtures("real_pool")
    def test_identical_across_worker_counts(self, capsys):
        serial = _run(capsys, BASE + ["-j", "1"])
        assert "step(s)" in serial
        parallel = _run(capsys, BASE + ["-j", "4"])
        assert parallel == serial

    def test_resume_is_bit_identical(self, capsys, tmp_path):
        journal = str(tmp_path / "ai.jsonl")
        fresh = _run(capsys, BASE + ["--journal", journal])
        resumed = _run(capsys, BASE + ["--journal", journal, "--resume"])
        assert resumed == fresh

