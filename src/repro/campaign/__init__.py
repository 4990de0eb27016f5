"""Crash-safe campaign manager: journaled parameter sweeps over the registry.

A *campaign* is a declarative JSON grid — registry experiments x sweep axes
x seed replicates — expanded deterministically into content-addressed
points (:mod:`repro.campaign.spec`), executed through the hardened runner
machinery with lease-based dispatch, heartbeats, seeded retry backoff and
poisoned-point quarantine (:mod:`repro.campaign.manager`), with every state
transition appended to a crash-tolerant journal whose recovery fold
survives ``kill -9`` mid-write (:mod:`repro.campaign.journal`). The
flattened query surface over finished campaigns lives in
:mod:`repro.campaign.results`; the CLI verbs are ``repro campaign
run|status|results``. See ``docs/campaigns.md``.
"""
