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
