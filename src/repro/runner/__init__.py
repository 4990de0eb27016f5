"""Parallel experiment runner with content-addressed result caching.

The orchestration layer over the experiment registry: one call (or
``python -m repro run-all``) regenerates every table and figure of the
paper's evaluation, fanning independent experiments — and the sweep parts
inside them — across worker processes, replaying unchanged runs from the
on-disk cache, and recording the whole run in ``run_manifest.json``.

Public surface:

* :func:`~repro.runner.core.run_all` / :class:`~repro.runner.core.RunAllResult`
  — orchestrate a run;
* :class:`~repro.runner.cache.ResultCache`,
  :func:`~repro.runner.cache.cache_key`,
  :func:`~repro.runner.cache.code_fingerprint` — the cache layer;
* :func:`~repro.runner.manifest.write_manifest` — the run record.

See ``docs/running.md`` for the end-to-end workflow and
``docs/architecture.md`` for where this sits in the layering (above
``experiments/``; nothing below it knows it exists).
"""

from repro.runner.cache import (
    CACHE_SCHEMA_VERSION,
    DEFAULT_CACHE_DIR,
    ResultCache,
    cache_key,
    canonical_config,
    code_fingerprint,
)
from repro.runner.core import (
    ExperimentRun,
    RunAllResult,
    resolve_ids,
    run_all,
)
from repro.runner.manifest import (
    MANIFEST_FILENAME,
    MANIFEST_SCHEMA_VERSION,
    build_manifest,
    write_manifest,
)
from repro.runner.tasks import SpanContext, TaskOutcome, TaskSpec, execute_task

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "DEFAULT_CACHE_DIR",
    "MANIFEST_FILENAME",
    "MANIFEST_SCHEMA_VERSION",
    "ExperimentRun",
    "ResultCache",
    "RunAllResult",
    "SpanContext",
    "TaskOutcome",
    "TaskSpec",
    "build_manifest",
    "cache_key",
    "canonical_config",
    "code_fingerprint",
    "execute_task",
    "resolve_ids",
    "run_all",
    "write_manifest",
]
