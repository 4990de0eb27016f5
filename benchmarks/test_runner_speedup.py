"""Runner acceptance demo: parallel == sequential, warm cache is ~free.

Three claims over the *full* 17-experiment registry (this is the
heavyweight companion to ``tests/test_runner_run_all.py``, which pins the
same guarantees on sub-second experiments):

* a cold ``run_all(jobs=4)`` regenerates every experiment and all shape
  checks pass;
* a warm re-invocation serves at least 16/17 experiments from the
  content-addressed cache and finishes in under 10 % of the cold
  wall-clock;
* the parallel run is byte-identical (result SHA-256) to a sequential
  ``jobs=1`` run with caching disabled.

Expect several minutes of wall-clock: the cold parallel pass plus a full
sequential pass (~217 s of driver time) run once each, shared across the
tests via module-scoped fixtures.
"""

import pytest

from conftest import write_report

from repro.runner.core import run_all

JOBS = 4

#: Warm wall-clock budget, as a fraction of the cold run (acceptance: <10 %).
WARM_FRACTION_BUDGET = 0.10

#: Experiments that must replay from cache on the warm run (out of 17).
MIN_WARM_HITS = 16


@pytest.fixture(scope="module")
def cache_dir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("repro_cache"))


@pytest.fixture(scope="module")
def cold(cache_dir):
    """One cold parallel pass over the whole registry, shared by all tests."""
    return run_all(jobs=JOBS, cache_dir=cache_dir, progress=print)


def test_cold_run_regenerates_all_experiments(cold):
    assert len(cold.runs) == 17
    assert cold.cache_hits == 0
    for run in cold.runs:
        assert run.error is None, f"{run.id}: {run.error}"
        assert run.shape_ok is True, f"{run.id}: {run.shape_detail}"
    assert cold.ok


def test_warm_run_hits_cache_within_budget(cold, cache_dir):
    warm = run_all(jobs=JOBS, cache_dir=cache_dir, progress=print)
    write_report(
        "runner_speedup",
        [
            f"run-all over 17 experiments, jobs={JOBS}",
            f"cold wall   {cold.wall_s:8.2f} s  ({cold.cache_hits} cache hits)",
            f"warm wall   {warm.wall_s:8.2f} s  ({warm.cache_hits} cache hits)",
            f"speedup     {cold.wall_s / max(warm.wall_s, 1e-9):8.1f} x",
            "",
            f"budget: warm < {100 * WARM_FRACTION_BUDGET:.0f} % of cold, "
            f">= {MIN_WARM_HITS}/17 experiments from cache",
        ],
    )
    assert warm.cache_hits >= MIN_WARM_HITS
    assert warm.wall_s < WARM_FRACTION_BUDGET * cold.wall_s
    for run in warm.runs:
        assert (
            run.result_sha256 == cold.run_for(run.id).result_sha256
        ), f"{run.id}: cached replay differs from cold run"


def test_parallel_matches_sequential_byte_for_byte(cold):
    sequential = run_all(jobs=1, use_cache=False, progress=print)
    assert [r.id for r in sequential.runs] == [r.id for r in cold.runs]
    for run in sequential.runs:
        assert (
            run.result_sha256 == cold.run_for(run.id).result_sha256
        ), f"{run.id}: parallel (jobs={JOBS}) and sequential results differ"
