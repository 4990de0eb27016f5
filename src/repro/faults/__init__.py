"""Deterministic fault injection for the PoWiFi reproduction's runner.

A reproduction run must survive its own infrastructure: workers crash or
hang, cache entries rot, manifest writes and journal appends are cut off.
This package manufactures those failures on demand, and reproducibly. A
:class:`~repro.faults.plan.FaultPlan` is built from a seed and a list of
fault specs; every choice it makes — which task a worker crash hits, which
cache entry is corrupted — comes from named
:class:`~repro.sim.rng.RandomStreams`, so any chaos run replays exactly.
Every fault changes how a result was obtained, never the result bytes.

Layering:

* :mod:`repro.faults.plan` — the plan model, fault-point registry, parsing;
* :mod:`repro.faults.inject` — worker-side infrastructure fault firing
  (used by :mod:`repro.runner.tasks`);
* :mod:`repro.faults.runtime` — process-scoped armed faults
  (``manifest.interrupt``).

See ``docs/robustness.md`` for the fault-point registry and semantics.
"""
