"""Content-addressed on-disk cache for experiment results.

Every runner task (one experiment, or one sweep part of it) is addressed by
a SHA-256 :func:`cache_key` over five inputs:

* the experiment id and part name,
* the driver's ``"module:callable"`` target,
* the fully resolved keyword arguments (canonicalised, order-independent),
* the seed,
* a :func:`code_fingerprint` of the whole ``repro`` source tree.

Identical inputs therefore replay instantly from ``.repro_cache/`` while
*any* change to the configuration, the seed, or the library source
invalidates exactly the runs it could have affected (the fingerprint is
deliberately whole-tree: cheaper and safer than per-module dependency
tracing — a one-line kernel change invalidates everything, which is the
conservative direction). Each entry is one file, the pickled result
object; unreadable entries are treated as misses and *quarantined*
(moved aside, counted, reported — never silently destroyed), so a corrupted
cache degrades to observable re-execution, never to wrong results and never
to an evidence-free disappearance.

Cache layout::

    .repro_cache/
      objects/
        <key>.pkl    # pickled result object
      quarantine/
        <key>.pkl    # unreadable entries moved here by get() for autopsy

See ``docs/running.md`` for the user-facing semantics and invalidation
rules.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import os
import pickle
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.obs import runtime as obs_runtime
from repro.obs.ioutil import write_atomic

#: Bump when the key construction or entry layout changes; stale-schema
#: entries then simply never match again.
CACHE_SCHEMA_VERSION = 1

#: Default cache directory, relative to the working directory.
DEFAULT_CACHE_DIR = ".repro_cache"


#: The running package's fingerprint, hashed by the first no-argument
#: :func:`code_fingerprint` call. The source a process imported cannot
#: change under it, so later calls (every warm campaign pass) reuse it.
_PACKAGE_FINGERPRINT: Optional[str] = None


def code_fingerprint(package_root: Optional[Path] = None) -> str:
    """SHA-256 over every ``.py`` file of the installed ``repro`` package.

    Files are folded in sorted-relative-path order with NUL separators, so
    the fingerprint is stable across machines and processes and changes
    whenever any source byte, file name, or file set changes. With no
    argument the running package is hashed once per process; an explicit
    ``package_root`` is re-read on every call.

    >>> fingerprint = code_fingerprint()
    >>> fingerprint == code_fingerprint()
    True
    >>> len(fingerprint)
    64
    """
    global _PACKAGE_FINGERPRINT
    if package_root is not None:
        return _hash_sources(package_root)
    if _PACKAGE_FINGERPRINT is None:
        import repro

        _PACKAGE_FINGERPRINT = _hash_sources(Path(repro.__file__).resolve().parent)
    return _PACKAGE_FINGERPRINT


def _hash_sources(package_root: Path) -> str:
    """The :func:`code_fingerprint` walk over one package directory."""
    digest = hashlib.sha256()
    for path in sorted(package_root.rglob("*.py")):
        if "__pycache__" in path.parts:
            continue
        digest.update(path.relative_to(package_root).as_posix().encode("utf-8"))
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()


def canonical_config(value: Any) -> Any:
    """Reduce driver kwargs to a JSON-safe, order-independent form.

    Dicts sort by key, tuples become lists, enums become ``Class.NAME``,
    dataclasses fold in their type name and fields; anything else falls
    back to ``repr``. Two kwargs dicts canonicalise equal exactly when the
    driver cannot tell them apart.
    """
    if isinstance(value, enum.Enum):
        return f"{type(value).__name__}.{value.name}"
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        fields = {
            f.name: canonical_config(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
        return {"__dataclass__": type(value).__name__, **fields}
    if isinstance(value, dict):
        return {str(key): canonical_config(value[key]) for key in sorted(value)}
    if isinstance(value, (list, tuple)):
        return [canonical_config(item) for item in value]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return repr(value)


def cache_key(
    experiment_id: str,
    part: str,
    target: str,
    kwargs: Dict[str, Any],
    seed: Optional[int],
    fingerprint: str,
) -> str:
    """The content address of one task's result (64 hex chars)."""
    payload = json.dumps(
        {
            "schema": CACHE_SCHEMA_VERSION,
            "experiment": experiment_id,
            "part": part,
            "target": target,
            "config": canonical_config(kwargs),
            "seed": seed,
            "code": fingerprint,
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def result_sha256(result: Any) -> str:
    """SHA-256 of a result's pickle bytes, the manifests' ``result_sha256``.

    Two runs regenerated the same artifact exactly when these match.
    """
    return hashlib.sha256(
        pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
    ).hexdigest()


class ResultCache:
    """The ``.repro_cache/`` store: pickled results addressed by key.

    Writes are atomic (temp file + ``os.replace``,
    :func:`repro.obs.ioutil.write_atomic`) so a parallel run interrupted
    mid-write can never leave a truncated entry that later reads as a hit.
    Reads that *do* find a corrupt entry (torn by a power loss, a bad disk,
    or an injected ``cache.corrupt`` fault) quarantine it under
    ``quarantine/``, count it on ``runner.cache.corrupt``, and report a
    miss — the entry stays available for autopsy instead of vanishing.
    """

    def __init__(self, root: str = DEFAULT_CACHE_DIR) -> None:
        self.root = Path(root)
        self.objects = self.root / "objects"
        self.quarantine_dir = self.root / "quarantine"
        #: Keys quarantined by this instance, in discovery order (the
        #: runner drains this to emit one progress line per event).
        self.quarantine_events: List[str] = []
        # Entry paths are string-joined: a Path per lookup cost a third of
        # a warm read.
        self._prefix = os.path.join(self.objects, "")

    def _object_path(self, key: str) -> str:
        return f"{self._prefix}{key}.pkl"

    def get(self, key: str) -> Tuple[bool, Any]:
        """``(hit, result)``; corrupt or unreadable entries count as misses
        and are quarantined (see :meth:`quarantine`)."""
        path = self._object_path(key)
        try:
            with open(path, "rb") as handle:
                return True, pickle.load(handle)
        except FileNotFoundError:
            return False, None
        except Exception:
            # Truncated/corrupt entry: move it aside so it cannot mask
            # re-execution, while keeping the bytes for post-mortems.
            self.quarantine(key)
            return False, None

    def quarantine(self, key: str) -> None:
        """Move one entry into ``quarantine/``."""
        self.quarantine_dir.mkdir(parents=True, exist_ok=True)
        try:
            os.replace(self._object_path(key), self.quarantine_dir / f"{key}.pkl")
        except OSError:
            pass
        self.quarantine_events.append(key)
        obs_runtime.get_registry().counter("runner.cache.corrupt").inc()

    def corrupt_entry(self, key: str) -> bool:
        """Deliberately truncate one stored entry (fault injection / tests).

        Returns False when no entry exists. The damage mimics a torn write:
        the object file keeps its first few bytes, which is exactly the
        shape :meth:`get` must survive.
        """
        path = self._object_path(key)
        if not os.path.exists(path):
            return False
        with open(path, "r+b") as handle:
            handle.truncate(4)
        return True

    def put(self, key: str, result: Any, meta: Optional[Dict[str, Any]] = None) -> None:
        """Store one result atomically, as the entry's single file.

        ``meta`` is accepted and ignored: nothing reads per-entry metadata.
        """
        write_atomic(
            self._object_path(key),
            pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL),
        )

    def contains(self, key: str) -> bool:
        """Whether an entry exists (without loading it)."""
        return os.path.exists(self._object_path(key))

    def discard(self, key: str) -> None:
        """Remove one entry, if present."""
        try:
            os.unlink(self._object_path(key))
        except OSError:
            pass

    def keys(self) -> Iterator[str]:
        """All stored entry keys."""
        if not self.objects.is_dir():
            return iter(())
        return (path.stem for path in self.objects.glob("*.pkl"))

    def __len__(self) -> int:
        return sum(1 for _ in self.keys())

    def clear(self) -> int:
        """Drop every entry; returns how many were removed."""
        removed = 0
        for key in list(self.keys()):
            self.discard(key)
            removed += 1
        return removed
