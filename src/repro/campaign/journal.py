"""The campaign journal: an append-only, kill -9-tolerant progress log.

Every campaign state transition — opens, leases, heartbeats, retries,
completions, quarantines — is one JSONL record appended with a single
``write`` on the journal's one ``O_APPEND`` descriptor (no in-place
mutation ever). Crash recovery is therefore a *fold* over the file, and the
fold is hardened against exactly the damage a hard kill can inflict:

* **Torn trailing line** — a ``kill -9`` mid-append leaves a final line
  without its newline (or with truncated JSON). The fold drops it and
  reports ``torn_tail``; the at-most-one lost record is re-derived by
  re-running its point (whose *result*, if it completed, is still in the
  content-addressed cache).
* **Duplicate / stale seqs** — a resumed generation replaying records, or
  a lease/heartbeat arriving after its point reached a terminal state,
  is dropped and counted, never double-folded. First terminal record wins,
  which is what keeps resume byte-identical to an uninterrupted run.
* **Corrupt journal** — a malformed line *before* the tail cannot be a
  torn append (appends are strictly sequential), so the whole file is
  untrustworthy; :func:`load_journal` moves it into a ``quarantine/``
  sibling directory — exactly the :class:`~repro.runner.cache.ResultCache`
  convention: observable, autopsy-able, never silently destroyed — and
  recovery restarts from the cache alone.

The journal records *how* the campaign ran (attempts, leases, walls);
nothing in it feeds the campaign manifest's result bytes, which are a pure
function of spec + seed + cached results. That separation is what makes
"SIGKILL, resume, byte-identical manifest" hold.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.faults import runtime as faults_runtime
from repro.obs import runtime as obs_runtime
from repro.obs.ioutil import open_append

#: Bump on any breaking change to the journal record layout.
JOURNAL_SCHEMA_VERSION = 1

#: Default journal filename, written next to the campaign manifest.
JOURNAL_FILENAME = "campaign.jsonl"

#: Event types whose target point has reached its final state.
_TERMINAL_EVENTS = frozenset({"point.done", "point.quarantined"})

#: Fault point torn into an append when armed (see
#: :data:`repro.faults.plan.INFRA_FAULT_POINTS`).
CORRUPT_FAULT_POINT = "campaign.journal.corrupt"


class CampaignJournal:
    """Appender for one campaign's journal (sequential seqs, crash-safe).

    The file is opened once, with ``O_APPEND``, and every record is one
    ``os.write`` on that descriptor, so a kill leaves whole lines plus at
    most one torn tail. :meth:`close` releases the descriptor; the journal
    is also a context manager.

    ``start_seq`` continues a resumed campaign's numbering — the fold
    treats a restarted-from-1 generation's records as duplicates, so a
    resuming manager must pass the folded ``last_seq``.
    """

    def __init__(self, path: Union[str, Path], start_seq: int = 0) -> None:
        self.path = Path(path)
        self._seq = int(start_seq)
        self._fd = open_append(self.path)

    @property
    def seq(self) -> int:
        """The last sequence number appended (or inherited)."""
        return self._seq

    def close(self) -> None:
        """Close the descriptor; further appends raise ``OSError``."""
        if self._fd >= 0:
            os.close(self._fd)
            self._fd = -1

    def __enter__(self) -> "CampaignJournal":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def append(self, event_type: str, **fields: Any) -> Dict[str, Any]:
        """Append one record; returns it (including its ``seq``).

        When the ``campaign.journal.corrupt`` fault point is armed, the
        line is torn mid-byte without a newline — byte-for-byte what a
        ``kill -9`` between ``write`` and completion leaves behind. If the
        campaign dies right there the tail is torn (tolerated on fold); if
        it keeps appending, the next line glues onto the fragment and the
        fold sees mid-file corruption (journal quarantined on resume).
        """
        self._seq += 1
        record: Dict[str, Any] = {
            "schema": JOURNAL_SCHEMA_VERSION,
            "seq": self._seq,
            "type": event_type,
        }
        record.update(fields)
        line = json.dumps(record, sort_keys=True)
        if faults_runtime.consume(CORRUPT_FAULT_POINT):
            os.write(self._fd, line[: max(1, len(line) // 2)].encode("utf-8"))
            obs_runtime.get_registry().counter("campaign.journal.torn").inc()
            return record
        os.write(self._fd, (line + "\n").encode("utf-8"))
        return record


@dataclass
class JournalState:
    """The recovery fold's output: exact campaign progress at last append."""

    path: str = ""
    exists: bool = False
    #: Latest ``campaign.open`` record (the current generation's header).
    campaign: Optional[Dict[str, Any]] = None
    #: How many generations (``campaign.open`` records) the journal holds.
    generations: int = 0
    #: cache key → first ``point.done`` record.
    done: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    #: cache key → first ``point.quarantined`` record.
    quarantined: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    #: cache key → highest charged attempt number seen.
    attempts: Dict[str, int] = field(default_factory=dict)
    #: cache key → latest lease/heartbeat record for a non-terminal point
    #: (work that was in flight when the journal stopped).
    leases: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    #: Latest ``campaign.done`` of the current generation, if it finished.
    finished: Optional[Dict[str, Any]] = None
    last_seq: int = 0
    records: int = 0
    #: Duplicate-seq or stale (post-terminal) records dropped by the fold.
    dropped: int = 0
    #: Final line lacked its newline or failed to parse (kill mid-append).
    torn_tail: bool = False
    #: A non-final line was malformed — the journal cannot be trusted.
    corrupt: bool = False
    #: Set by :func:`load_journal` when a corrupt journal was moved aside.
    quarantined_path: Optional[str] = None

    def terminal_keys(self) -> frozenset:
        """Keys whose points need no further execution."""
        return frozenset(self.done) | frozenset(self.quarantined)


def fold_journal(path: Union[str, Path]) -> JournalState:
    """Reconstruct campaign progress from the journal file.

    Pure and total: never raises on damaged input, never mutates the file.
    The fold is associative over stream prefixes (like the live-watch
    replay), so the state after a crash is exactly the state the writer
    had after its last *complete* append.
    """
    state = JournalState(path=str(path))
    try:
        blob = Path(path).read_bytes()
    except OSError:
        return state
    state.exists = True
    lines = blob.splitlines(keepends=True)
    seen_seqs: set = set()
    for index, raw in enumerate(lines):
        final = index == len(lines) - 1
        if not raw.endswith(b"\n"):
            # Appends are newline-terminated; only a kill mid-write leaves
            # an unterminated line, and only ever at the tail.
            state.torn_tail = True
            break
        text = raw.strip()
        if not text:
            continue
        try:
            record = json.loads(text)
        except (ValueError, UnicodeDecodeError):
            record = None
        if not isinstance(record, dict) or not isinstance(
            record.get("seq"), int
        ):
            if final:
                state.torn_tail = True
                break
            state.corrupt = True
            break
        seq = record["seq"]
        if seq in seen_seqs:
            state.dropped += 1
            continue
        seen_seqs.add(seq)
        state.last_seq = max(state.last_seq, seq)
        state.records += 1
        _apply(state, record)
    return state


def _apply(state: JournalState, record: Dict[str, Any]) -> None:
    """Fold one well-formed record into the state."""
    kind = record.get("type")
    if kind == "campaign.open":
        state.campaign = record
        state.generations += 1
        # A new generation supersedes any earlier completion marker and
        # abandons leases that were in flight when the previous one died.
        state.finished = None
        state.leases.clear()
        return
    if kind == "campaign.done":
        state.finished = record
        return
    key = record.get("key")
    if not isinstance(key, str):
        return
    terminal = key in state.done or key in state.quarantined
    if kind == "point.done":
        if terminal:
            state.dropped += 1
            return
        state.done[key] = record
        state.leases.pop(key, None)
        return
    if kind == "point.quarantined":
        if terminal:
            state.dropped += 1
            return
        state.quarantined[key] = record
        state.leases.pop(key, None)
        return
    if terminal:
        # Lease/heartbeat/retry for an already-finished point: stale
        # delivery (e.g. a replayed generation); drop, never regress.
        state.dropped += 1
        return
    if kind in ("point.lease", "point.heartbeat"):
        state.leases[key] = record
    if kind in ("point.lease", "point.retry"):
        attempt = record.get("attempt")
        if isinstance(attempt, int):
            state.attempts[key] = max(state.attempts.get(key, 0), attempt)


def quarantine_journal(path: Union[str, Path]) -> Optional[Path]:
    """Move a corrupt journal into a ``quarantine/`` sibling directory.

    Mirrors :meth:`repro.runner.cache.ResultCache.quarantine`: the bytes
    stay available for autopsy, the event is counted on
    ``campaign.journal.quarantined``, and the caller starts a fresh
    journal. Returns the new location (``None`` when the file vanished
    first — nothing to preserve).
    """
    path = Path(path)
    quarantine_dir = path.parent / "quarantine"
    quarantine_dir.mkdir(parents=True, exist_ok=True)
    index = 0
    while True:
        target = quarantine_dir / f"{path.name}.{index}"
        if not target.exists():
            break
        index += 1
    try:
        os.replace(path, target)
    except OSError:
        return None
    obs_runtime.get_registry().counter("campaign.journal.quarantined").inc()
    return target


def load_journal(path: Union[str, Path]) -> JournalState:
    """Fold the journal, quarantining it first if the fold finds corruption.

    The double fold (probe, quarantine, return empty) keeps the contract
    simple for the manager: the returned state is always safe to resume
    from — a corrupt journal degrades to "no journal", and completed work
    still replays from the result cache.
    """
    state = fold_journal(path)
    if not state.corrupt:
        return state
    moved = quarantine_journal(path)
    fresh = JournalState(path=str(path))
    fresh.quarantined_path = str(moved) if moved is not None else None
    return fresh
