"""Checkpoint envelope: atomic writes, verified reads, refused restores."""

from __future__ import annotations

import json
import os

import pytest

from repro.checkpoint import (
    CHECKPOINT_VERSION,
    CheckpointError,
    DurabilityOptions,
    check_restorable,
    read_checkpoint,
    scenario_fingerprint,
    write_checkpoint,
)
from repro.experiments.scalability import run_scalability

MODEL = {"n_servers": 64, "n_jobs": 400, "seed": 13, "pool": False}


def _fingerprint(**overrides):
    return scenario_fingerprint("scalability", {**MODEL, **overrides})


def _meta(sim_time=0.007):
    return {
        "experiment": "scalability",
        "fingerprint": _fingerprint(),
        "sim_time": sim_time,
    }


class TestEnvelope:
    def test_roundtrip(self, tmp_path):
        path = str(tmp_path / "run.ckpt")
        payload = b"\x80\x04 arbitrary payload bytes \x00\xff"
        write_checkpoint(path, payload, _meta())
        header, read_payload = read_checkpoint(path)
        assert read_payload == payload
        assert header["version"] == CHECKPOINT_VERSION
        assert header["sim_time"] == 0.007
        assert header["fingerprint"] == _fingerprint()

    def test_write_replaces_atomically_and_leaves_no_tmp(self, tmp_path):
        path = str(tmp_path / "run.ckpt")
        write_checkpoint(path, b"old", _meta(sim_time=0.001))
        write_checkpoint(path, b"new", _meta(sim_time=0.002))
        header, payload = read_checkpoint(path)
        assert payload == b"new"
        assert header["sim_time"] == 0.002
        assert [f for f in os.listdir(tmp_path) if f != "run.ckpt"] == []

    def test_corrupt_payload_refused(self, tmp_path):
        path = str(tmp_path / "run.ckpt")
        write_checkpoint(path, b"payload-bytes", _meta())
        with open(path, "r+b") as fh:
            fh.seek(-1, os.SEEK_END)
            fh.write(b"X")
        with pytest.raises(CheckpointError, match="digest"):
            read_checkpoint(path)

    def test_truncated_payload_refused(self, tmp_path):
        path = str(tmp_path / "run.ckpt")
        write_checkpoint(path, b"payload-bytes", _meta())
        data = open(path, "rb").read()
        open(path, "wb").write(data[:-4])
        with pytest.raises(CheckpointError, match="truncated"):
            read_checkpoint(path)

    def test_non_checkpoint_file_refused(self, tmp_path):
        path = str(tmp_path / "not.ckpt")
        open(path, "w").write(json.dumps({"kind": "something-else"}) + "\n")
        with pytest.raises(CheckpointError, match="not a checkpoint file"):
            read_checkpoint(path)

    def test_missing_file_refused(self, tmp_path):
        with pytest.raises(CheckpointError, match="cannot read checkpoint"):
            read_checkpoint(str(tmp_path / "absent.ckpt"))


class TestScenarioFingerprint:
    def test_stable_across_calls(self):
        assert _fingerprint() == _fingerprint()

    def test_model_fields_change_it(self):
        base = _fingerprint()
        assert _fingerprint(seed=99) != base
        assert _fingerprint(n_servers=128) != base
        assert _fingerprint(pool=True) != base
        assert scenario_fingerprint("faults", MODEL) != base

    def test_verification_knobs_do_not(self, tmp_path):
        # The audit level and the checkpoint cadence are not model
        # arguments: checkpoints of the same run under different ones agree.
        headers = []
        for audit, every in (("warn", 0.002), ("strict", 0.005)):
            path = str(tmp_path / f"{audit}.ckpt")
            run_scalability(
                n_servers=8, n_jobs=60, pool=False, audit=audit,
                durability=DurabilityOptions(
                    checkpoint_path=path, checkpoint_every_s=every
                ),
            )
            headers.append(read_checkpoint(path)[0])
        assert headers[0]["fingerprint"] == headers[1]["fingerprint"]


class TestCheckRestorable:
    def test_accepts_matching_run(self, tmp_path):
        path = str(tmp_path / "run.ckpt")
        write_checkpoint(path, b"p", _meta())
        header, _ = read_checkpoint(path)
        check_restorable(header, "scalability", _fingerprint(), path=path)

    def test_refuses_fingerprint_mismatch(self, tmp_path):
        path = str(tmp_path / "run.ckpt")
        write_checkpoint(path, b"p", _meta())
        header, _ = read_checkpoint(path)
        other = _fingerprint(seed=99)
        with pytest.raises(CheckpointError, match="fingerprint") as exc:
            check_restorable(header, "scalability", other, path=path)
        assert _fingerprint() in str(exc.value) and other in str(exc.value)
