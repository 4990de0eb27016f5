"""Crash-safe file I/O shared by every on-disk artifact writer.

A killed run must never leave a *truncated* artifact: a half-written
``run_manifest.json`` that parses as garbage is worse than no manifest at
all, and a torn ``perf_history.jsonl`` line would poison every later
``repro compare``. Two primitives enforce that everywhere:

* :func:`write_atomic` — write-temp-then-rename. The destination either
  holds its previous content or the complete new payload; readers can never
  observe an intermediate state. Used by the result cache, the manifest
  writer, and BENCH snapshots.
* :func:`append_line` — append one newline-terminated record with a single
  ``write`` on an ``O_APPEND`` descriptor, which POSIX guarantees is not
  interleaved with concurrent appenders for ordinary files. Used by the
  perf-history stream. A writer that appends many records (the campaign
  journal) keeps one :func:`open_append` descriptor and makes the same
  single ``write`` per record on it.

Both create a missing parent directory, but only after the first attempt
reports it missing: the common case costs no ``mkdir``.

Every renderer reads those artifacts back through :func:`read_json` and
:func:`read_jsonl`, under one policy: an ``OSError`` propagates, a
malformed record raises :class:`~repro.errors.ObservabilityError` naming
``path:line``, and a torn final line (an append a kill cut short) is
skipped.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.errors import ObservabilityError
from repro.faults import runtime as faults_runtime


def write_atomic(
    path: Union[str, Path],
    payload: Union[bytes, str],
    encoding: str = "utf-8",
    fault_point: Optional[str] = None,
) -> Path:
    """Atomically replace ``path`` with ``payload`` (temp file + rename).

    The temp file is created in the destination directory so the final
    ``os.replace`` stays on one filesystem (rename atomicity). On *any*
    failure — including an injected one — the temp file is removed and the
    prior destination content is untouched.

    ``fault_point`` names a :mod:`repro.faults` point (``manifest.interrupt``)
    checked between temp-file write and rename; when armed, the write dies
    at exactly the worst moment, which is how the crash-safety contract is
    exercised end to end.
    """
    path = Path(path)
    data = payload.encode(encoding) if isinstance(payload, str) else payload
    try:
        descriptor, temp_name = tempfile.mkstemp(
            dir=str(path.parent), prefix=path.name, suffix=".tmp"
        )
    except FileNotFoundError:
        path.parent.mkdir(parents=True, exist_ok=True)
        descriptor, temp_name = tempfile.mkstemp(
            dir=str(path.parent), prefix=path.name, suffix=".tmp"
        )
    try:
        with os.fdopen(descriptor, "wb") as handle:
            handle.write(data)
        if fault_point is not None and faults_runtime.consume(fault_point):
            from repro.errors import InjectedFault

            raise InjectedFault(f"{fault_point}: write of {path.name} interrupted")
        os.replace(temp_name, path)
    except BaseException:
        try:
            os.unlink(temp_name)
        except OSError:
            pass
        raise
    return path


def open_append(path: Union[str, Path]) -> int:
    """An ``O_APPEND`` write descriptor on ``path`` (created along with
    parents); the caller closes it."""
    flags = os.O_WRONLY | os.O_CREAT | os.O_APPEND
    try:
        return os.open(str(path), flags, 0o644)
    except FileNotFoundError:
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        return os.open(str(path), flags, 0o644)


def append_line(
    path: Union[str, Path], line: str, encoding: str = "utf-8"
) -> Path:
    """Append one complete line to ``path`` (created along with parents).

    The record is newline-terminated and written with a single
    ``os.write`` on an ``O_APPEND`` descriptor: concurrent appenders from
    parallel runs cannot interleave bytes, and a kill between calls leaves
    only whole lines behind. A kill inside the write can still leave a
    final line without its newline; :func:`read_jsonl` skips that line
    when it does not parse.
    """
    path = Path(path)
    if not line.endswith("\n"):
        line += "\n"
    descriptor = open_append(path)
    try:
        os.write(descriptor, line.encode(encoding))
    finally:
        os.close(descriptor)
    return path


def _record(text: str, where: str, what: str) -> Dict[str, Any]:
    """One JSON object parsed from ``text``; ``where`` and ``what`` name it
    in the error."""
    try:
        record = json.loads(text)
    except ValueError as exc:
        raise ObservabilityError(f"{where}: malformed {what} ({exc})") from exc
    if not isinstance(record, dict):
        raise ObservabilityError(f"{where}: malformed {what} (not a JSON object)")
    return record


def read_json(path: Union[str, Path]) -> Dict[str, Any]:
    """The JSON object in ``path`` (a manifest or BENCH snapshot)."""
    return _record(Path(path).read_text(encoding="utf-8"), str(path), "JSON")


def read_jsonl(path: Union[str, Path], what: str) -> List[Dict[str, Any]]:
    """Every JSON object of a ``.jsonl`` stream, in file order.

    Blank lines are skipped, and so is a final line that has no newline
    and does not parse: a torn append (see :func:`append_line`). Any other
    malformed line raises :class:`~repro.errors.ObservabilityError`
    reading ``<path>:<line>: malformed <what> record (...)``.
    """
    with open(path, encoding="utf-8") as handle:
        lines = handle.readlines()
    records: List[Dict[str, Any]] = []
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            records.append(_record(line, f"{path}:{lineno}", f"{what} record"))
        except ObservabilityError:
            if lineno == len(lines) and not line.endswith("\n"):
                break
            raise
    return records
