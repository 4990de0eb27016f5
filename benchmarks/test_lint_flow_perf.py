"""Lint wall-time guard: the one-pass ``repro lint`` must stay CI-cheap.

``repro lint`` (per-file and whole-program rules in one pass) runs on
every PR, so its cost is part of the contract: a cold pass parses and
indexes the full ``src/repro`` tree once; a warm pass (the common case —
almost nothing changed) must replay per-module facts and findings from the
incremental cache instead of re-parsing. Two bounds are enforced against a throwaway cache directory:

* warm wall-clock under 2 s (absolute budget from the issue), and
* warm at least 5x faster than cold — the cache must actually shortcut
  the parse/extract work, not just shave constants.

Both runs include source hashing, index construction, and the PW1xx rule
pass, so the ratio reflects what a developer sees at the prompt.
"""

from pathlib import Path
from time import perf_counter

from conftest import write_report

from repro.lint.config import load_config
from repro.lint.engine import lint_paths

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Absolute warm-pass budget (seconds).
MAX_WARM_S = 2.0

#: The warm pass must beat the cold pass by at least this factor.
MIN_WARM_SPEEDUP = 5.0


def _run(config, cache_path):
    started = perf_counter()
    findings, stats = lint_paths(
        [str(REPO_ROOT / "src" / "repro")],
        config,
        use_baseline=False,
        use_cache=True,
        cache_path=cache_path,
    )
    return perf_counter() - started, findings, stats


def test_flow_lint_warm_cache_under_budget(tmp_path):
    config = load_config(REPO_ROOT / "pyproject.toml")
    cache_path = tmp_path / "flow_index.json"

    cold_s, cold_findings, cold_stats = _run(config, cache_path)
    assert cold_stats.reused == 0, "cache unexpectedly warm on first pass"

    warm_s, warm_findings, warm_stats = _run(config, cache_path)
    assert warm_stats.parsed == 0, "warm pass re-parsed unchanged modules"
    assert warm_stats.reused == warm_stats.files

    # Identical findings either way: the cache is an optimisation, not a
    # second analysis.
    as_dicts = lambda findings: [f.to_dict() for f in findings]  # noqa: E731
    assert as_dicts(cold_findings) == as_dicts(warm_findings)

    speedup = cold_s / warm_s if warm_s > 0 else float("inf")
    write_report(
        "lint_flow_perf",
        [
            "Flow lint wall-time — src/repro, throwaway cache",
            f"cold    {cold_s:8.3f} s  ({cold_stats.parsed} parsed)",
            f"warm    {warm_s:8.3f} s  ({warm_stats.reused} reused)",
            f"speedup {speedup:8.1f} x  (floor {MIN_WARM_SPEEDUP:.0f}x)",
        ],
    )
    assert warm_s < MAX_WARM_S, f"warm lint pass took {warm_s:.3f}s"
    assert speedup >= MIN_WARM_SPEEDUP, (
        f"warm pass only {speedup:.1f}x faster than cold "
        f"({cold_s:.3f}s -> {warm_s:.3f}s)"
    )
