"""On-disk checkpoint envelope: header + pickled world, written atomically.

A checkpoint file is one JSON header line followed by raw pickle bytes:

* the **header** carries the format ``kind``/``version``, the experiment
  name and its model fingerprint, the simulated time of the cut, and a
  blake2b digest + length of the payload — everything needed to refuse a
  bad restore *before* unpickling anything;
* the **payload** is the pickled simulation world (engine heap, servers and
  pool, scheduler, workload driver, RNG streams) captured between two
  events, where the world is a consistent cut.

Writes are atomic (tmp file + fsync + ``os.replace`` + directory fsync), so
a crash mid-checkpoint leaves the previous checkpoint intact — the file on
disk is always a complete, verified cut.

The model fingerprint hashes the experiment's *model* arguments through the
same :func:`~repro.runner.journal.stable_repr` machinery the sweep journal
uses.  Callers pass only what shapes the simulated world: the audit level
and the checkpoint cadence are verification and execution knobs, so a
checkpoint restores under any of them.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Any, Dict, Mapping, Tuple

#: First line's ``kind`` field; anything else is not a checkpoint file.
CHECKPOINT_KIND = "repro-checkpoint"

#: Bump when the envelope or payload schema changes incompatibly; restore
#: refuses a foreign version rather than mis-deserializing it.
CHECKPOINT_VERSION = 2


class CheckpointError(RuntimeError):
    """A checkpoint could not be written, read, or restored safely."""


def scenario_fingerprint(experiment: str, model: Mapping[str, Any]) -> str:
    """Stable identity of the *simulated world* an experiment run builds.

    ``model`` maps the experiment's model arguments (seed, sizes, resolved
    execution paths) to their values.  Two runs with the same fingerprint are
    bit-identical, so restoring a checkpoint into a run with a different one
    would silently compute garbage — :func:`check_restorable` refuses it.
    """
    # Deferred: repro.runner.journal takes this package's FileLock, so a
    # module-level import here would close an import cycle.
    from repro.runner.journal import stable_repr

    payload = f"{experiment}\x1f{stable_repr(dict(model))}"
    return hashlib.blake2b(payload.encode("utf-8"), digest_size=16).hexdigest()


def write_checkpoint(path: str, payload: bytes, meta: Dict[str, Any]) -> None:
    """Atomically write ``payload`` with ``meta`` merged into the header.

    The caller provides the run-level metadata (``experiment``,
    ``fingerprint``, ``sim_time``); this function adds the format fields and the payload digest.  On return the bytes are durable:
    the temp file is fsync'd before the rename and the directory after it.
    """
    header = dict(meta)
    header["kind"] = CHECKPOINT_KIND
    header["version"] = CHECKPOINT_VERSION
    header["payload_blake2b"] = hashlib.blake2b(
        payload, digest_size=16
    ).hexdigest()
    header["payload_len"] = len(payload)
    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    tmp = os.path.join(directory, f".{os.path.basename(path)}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(json.dumps(header, sort_keys=True).encode("utf-8"))
            fh.write(b"\n")
            fh.write(payload)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    # Make the rename itself durable (POSIX: fsync the containing directory).
    try:
        dir_fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - exotic filesystems
        return
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)


def read_checkpoint(path: str) -> Tuple[Dict[str, Any], bytes]:
    """Read and verify a checkpoint file; returns ``(header, payload)``.

    Every integrity property is checked before the payload is handed back:
    kind, version, payload length and blake2b digest.  A torn or corrupt
    file raises :class:`CheckpointError` with the specific mismatch.
    """
    try:
        with open(path, "rb") as fh:
            header_line = fh.readline()
            payload = fh.read()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path!r}: {exc}") from exc
    try:
        header = json.loads(header_line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(
            f"{path!r} is not a checkpoint file (bad header line)"
        ) from exc
    if not isinstance(header, dict) or header.get("kind") != CHECKPOINT_KIND:
        raise CheckpointError(
            f"{path!r} is not a checkpoint file "
            f"(kind={header.get('kind') if isinstance(header, dict) else header!r})"
        )
    if header.get("version") != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"{path!r} was written by checkpoint format version "
            f"{header.get('version')}, this build reads version "
            f"{CHECKPOINT_VERSION}; re-run from scratch"
        )
    if len(payload) != header.get("payload_len"):
        raise CheckpointError(
            f"{path!r} is truncated: header promises "
            f"{header.get('payload_len')} payload bytes, found {len(payload)} "
            "(interrupted checkpoint write?)"
        )
    digest = hashlib.blake2b(payload, digest_size=16).hexdigest()
    if digest != header.get("payload_blake2b"):
        raise CheckpointError(f"{path!r} payload digest mismatch (corrupt file)")
    return header, payload


def check_restorable(
    header: Dict[str, Any], experiment: str, fingerprint: str, path: str
) -> None:
    """Refuse to restore ``header`` into a run with another model.

    Restoring into a different world would not fail loudly on its own, it
    would just produce wrong numbers; the message names both fingerprints.
    """
    found = header.get("fingerprint")
    if found != fingerprint:
        raise CheckpointError(
            f"checkpoint {path!r} was taken from a {header.get('experiment')!r} "
            f"run with fingerprint {found}, but this {experiment!r} run has "
            f"fingerprint {fingerprint}; restore refused — rerun with the "
            "checkpointed run's parameters"
        )
