"""Whole-program flow analysis: cross-module determinism invariants.

The per-file rules (:mod:`repro.lint.checks`, PW001-PW007) see one module
at a time; the invariants that actually break reproducibility *between*
modules — two components forking the same RNG stream name, unseeded
entropy reachable from an experiment entry point, an unpicklable value
riding a :class:`~repro.runner.tasks.TaskSpec` across the process pool —
need a project-wide view. This package provides it:

* :mod:`repro.lint.flow.index` — per-module fact extraction (symbol table,
  import-resolved call facts) folded into a :class:`ProjectIndex` whose
  nodes use the registry's ``"module:callable"`` target format;
* :mod:`repro.lint.flow.cache` — an incremental cache keyed on per-module
  content hashes (the :class:`~repro.runner.cache.ResultCache` idiom), so
  a warm ``repro lint`` re-parses only what changed;
* five interprocedural rules with stable PW1xx codes:
  :mod:`~repro.lint.flow.rng_streams` (PW101),
  :mod:`~repro.lint.flow.reachability` (PW102),
  :mod:`~repro.lint.flow.pickle_safety` (PW103),
  :mod:`~repro.lint.flow.event_kinds` (PW104),
  :mod:`~repro.lint.flow.units_flow` (PW105).

:mod:`repro.lint.engine` drives it: every ``repro lint`` run parses each
module once and feeds that tree to both the per-file rules and
:func:`extract_facts`. See ``docs/lint.md`` for the PW1xx catalog and the
index/cache schema.
"""
