"""Runner orchestration: parallel == sequential, cache reuse, manifest shape.

The heavyweight full-registry demonstration lives in
``benchmarks/test_runner_speedup.py``; here the same guarantees are pinned
on the sub-second experiments so tier-1 stays fast.
"""

import json
import pickle

import pytest

from repro.errors import ConfigurationError
from repro.experiments.registry import SPECS, ExperimentSpec, resolve_target
from repro.experiments import sweeps
from repro.runner.core import run_all
from repro.runner.manifest import (
    EXPERIMENT_KEYS,
    MANIFEST_SCHEMA_VERSION,
    PART_KEYS,
    build_manifest,
    write_manifest,
)

#: Sub-second experiments covering a single-task run (fig9, table1), a
#: decomposed sweep (fig14: six homes), and a seedless driver (fig13).
FAST_IDS = ["fig9", "fig13", "fig14", "table1"]


@pytest.fixture()
def cache_dir(tmp_path):
    return str(tmp_path / "cache")


class TestParallelSequentialEquality:
    def test_parallel_matches_sequential_and_direct(self, cache_dir):
        parallel = run_all(ids=FAST_IDS, jobs=2, use_cache=False)
        sequential = run_all(ids=FAST_IDS, jobs=1, use_cache=False)
        assert [run.id for run in parallel.runs] == [run.id for run in sequential.runs]
        for key in FAST_IDS:
            assert (
                parallel.run_for(key).result_sha256
                == sequential.run_for(key).result_sha256
            ), f"{key}: parallel and sequential results differ"
        # And both match a plain monolithic driver call, byte for byte —
        # including fig14, which the runner decomposes into six home parts.
        for key in ("fig9", "fig14", "table1"):
            spec = SPECS[key]
            driver = resolve_target(spec.target)
            direct = driver(seed=0) if spec.accepts_seed() else driver()
            digest = __import__("hashlib").sha256(
                pickle.dumps(direct, protocol=pickle.HIGHEST_PROTOCOL)
            ).hexdigest()
            assert digest == parallel.run_for(key).result_sha256, key

    def test_shape_checks_pass_on_fast_ids(self):
        result = run_all(ids=FAST_IDS, jobs=2, use_cache=False)
        for run in result.runs:
            assert run.shape_ok is True, f"{run.id}: {run.shape_detail}"
        assert result.ok


#: One list object every part of the synthetic sweeps below can share.
_SITES = [f"site-{index}" for index in range(4)]


def _sites_part(index, shared):
    # Ints and floats are never memoized; the fresh list shares nothing.
    return (index, _SITES if shared else [float(n) for n in range(4)])


def _sites_sweep(shared):
    parts = tuple(
        sweeps.SweepPart(
            name=f"part={index}",
            target=f"{__name__}:_sites_part",
            kwargs={"index": index, "shared": shared},
        )
        for index in range(2)
    )
    return sweeps.SweepPlan(parts=parts, merge=list)


def _shared_sweep(seed):
    return _sites_sweep(shared=True)


def _fresh_sweep(seed):
    return _sites_sweep(shared=False)


class TestHashByValue:
    """``result_sha256`` hashes pickle bytes, and pickle writes a second
    reference to one object as a back-reference. Pool parts arrive
    unpickled one by one and share nothing, so in-process parts must hash
    the same way even when their results share objects."""

    @pytest.mark.parametrize("sweep", ["_shared_sweep", "_fresh_sweep"])
    def test_in_process_merge_hashes_like_the_pool(self, monkeypatch, sweep):
        monkeypatch.setitem(
            SPECS,
            "fig9",
            ExperimentSpec(
                id="fig9",
                target=f"{__name__}:_sites_part",
                sweep=f"{__name__}:{sweep}",
            ),
        )
        solo = run_all(ids=["fig9"], jobs=1, use_cache=False, slo_specs=[])
        pooled = run_all(ids=["fig9"], jobs=2, use_cache=False, slo_specs=[])
        assert solo.run_for("fig9").result == pooled.run_for("fig9").result
        assert (
            solo.run_for("fig9").result_sha256
            == pooled.run_for("fig9").result_sha256
        )


class TestSweepMergeFidelity:
    """Reduced-scale sweeps merge byte-identically to monolithic runs."""

    @pytest.mark.parametrize(
        "factory_name, factory_kwargs, driver_target, driver_kwargs",
        [
            (
                "fig5_sweep",
                dict(thresholds=(1, 5), delays_us=(10.0, 50.0), duration_s=0.2),
                "repro.experiments.fig05_delay_sweep:run_fig05",
                dict(thresholds=(1, 5), delays_us=(10.0, 50.0), duration_s=0.2),
            ),
            (
                "fig8_sweep",
                dict(neighbor_rates=(11.0, 24.0), duration_s=0.3),
                "repro.experiments.fig08_fairness:run_fig08",
                dict(neighbor_rates=(11.0, 24.0), duration_s=0.3),
            ),
            (
                "sec8c_sweep",
                dict(router_counts=(1, 2), duration_s=0.2),
                "repro.experiments.sec8c_multi_router:run_sec8c",
                dict(router_counts=(1, 2), duration_s=0.2),
            ),
        ],
        ids=["fig5", "fig8", "sec8c"],
    )
    def test_merge_equals_monolithic(
        self, factory_name, factory_kwargs, driver_target, driver_kwargs
    ):
        factory = getattr(sweeps, factory_name)
        plan = factory(seed=0, **factory_kwargs)
        assert len(plan.parts) >= 2
        merged = plan.merge(
            [resolve_target(part.target)(**part.kwargs) for part in plan.parts]
        )
        mono = resolve_target(driver_target)(seed=0, **driver_kwargs)
        assert pickle.dumps(merged) == pickle.dumps(mono)

    def test_fig14_parts_cover_all_homes(self):
        plan = sweeps.fig14_sweep(seed=0)
        assert [part.name for part in plan.parts] == [
            f"home={index}" for index in (1, 2, 3, 4, 5, 6)
        ]


class TestCacheBehaviour:
    def test_warm_run_serves_everything_from_cache(self, cache_dir):
        cold = run_all(ids=FAST_IDS, jobs=2, cache_dir=cache_dir)
        assert cold.cache_hits == 0
        warm = run_all(ids=FAST_IDS, jobs=2, cache_dir=cache_dir)
        assert warm.cache_hits == len(FAST_IDS)
        for key in FAST_IDS:
            assert (
                warm.run_for(key).result_sha256 == cold.run_for(key).result_sha256
            ), f"{key}: cached replay differs from cold run"

    def test_changed_seed_misses(self, cache_dir):
        run_all(ids=["fig14"], jobs=1, cache_dir=cache_dir, seed=0)
        rerun = run_all(ids=["fig14"], jobs=1, cache_dir=cache_dir, seed=1)
        assert rerun.cache_hits == 0

    def test_seedless_experiments_hit_across_seeds(self, cache_dir):
        """fig13 takes no seed, so a seed override must not invalidate it."""
        run_all(ids=["fig13"], jobs=1, cache_dir=cache_dir, seed=0)
        rerun = run_all(ids=["fig13"], jobs=1, cache_dir=cache_dir, seed=99)
        assert rerun.cache_hits == 1

    def test_no_cache_mode_writes_nothing(self, tmp_path):
        cache = str(tmp_path / "never")
        run_all(ids=["table1"], jobs=1, use_cache=False, cache_dir=cache)
        assert not (tmp_path / "never").exists()

    def test_unknown_id_raises_configuration_error(self):
        with pytest.raises(ConfigurationError, match="unknown experiment"):
            run_all(ids=["fig99"], jobs=1, use_cache=False)

    def test_padded_ids_normalise(self, cache_dir):
        result = run_all(ids=["fig09", "table1"], jobs=1, cache_dir=cache_dir)
        assert [run.id for run in result.runs] == ["fig9", "table1"]


class TestManifest:
    def test_schema_stability(self, cache_dir, tmp_path):
        result = run_all(ids=FAST_IDS, jobs=2, cache_dir=cache_dir)
        path = tmp_path / "run_manifest.json"
        manifest = write_manifest(result, str(path))
        on_disk = json.loads(path.read_text())
        assert on_disk["schema"] == MANIFEST_SCHEMA_VERSION
        for top_key in (
            "schema",
            "generated_unix_s",
            "jobs",
            "seed",
            "code_fingerprint",
            "interrupted",
            "retries",
            "task_timeout_s",
            "cache",
            "faults",
            "totals",
            "spans",
            "experiments",
        ):
            assert top_key in on_disk, top_key
        assert on_disk["interrupted"] is False
        assert on_disk["faults"] == {"plan": None, "events": []}
        assert on_disk["cache"]["quarantined"] == []
        assert on_disk["totals"]["experiments"] == len(FAST_IDS)
        assert on_disk["totals"]["ok"] == len(FAST_IDS)
        assert set(on_disk["spans"]) == {"schema", "count", "records"}
        assert on_disk["spans"]["count"] == len(on_disk["spans"]["records"])
        for entry in on_disk["experiments"]:
            assert set(entry) == set(EXPERIMENT_KEYS)
            for part in entry["parts"]:
                assert set(part) == set(PART_KEYS)
                assert len(part["key"]) == 64
                assert set(part["engine"]) >= {"dispatched", "heap_high_watermark"}
        fig14 = next(e for e in on_disk["experiments"] if e["id"] == "fig14")
        assert len(fig14["parts"]) == 6
        fig13 = next(e for e in on_disk["experiments"] if e["id"] == "fig13")
        assert fig13["seed"] is None  # seedless driver: no seed recorded

    def test_manifest_records_cache_hits(self, cache_dir):
        run_all(ids=["fig9"], jobs=1, cache_dir=cache_dir)
        warm = run_all(ids=["fig9"], jobs=1, cache_dir=cache_dir)
        manifest = build_manifest(warm)
        assert manifest["experiments"][0]["cache_hit"] is True
        assert manifest["cache"]["experiments_hit"] == 1

    def test_failed_experiment_recorded_not_raised(self, monkeypatch, cache_dir):
        """A crashing driver lands in the manifest as an error, not a crash."""
        from repro.experiments import registry as registry_module

        broken = registry_module.ExperimentSpec(
            id="fig9",
            target="repro.experiments.registry:no_such_function",
            runtime="fast",
        )
        monkeypatch.setitem(registry_module.SPECS, "fig9", broken)
        result = run_all(ids=["fig9"], jobs=1, cache_dir=cache_dir)
        run = result.run_for("fig9")
        assert run.error is not None and not run.ok
        manifest = build_manifest(result)
        assert manifest["experiments"][0]["error"]
        assert manifest["totals"]["failed"] == 1


class TestRunnerMetrics:
    def test_cache_counters_flow_through_obs(self, cache_dir):
        from repro.obs import runtime as obs_runtime

        obs_runtime.configure(enabled=True)
        registry = obs_runtime.get_registry()
        run_all(ids=["fig9", "table1"], jobs=1, cache_dir=cache_dir)
        assert registry.value("runner.cache.misses") == 2
        run_all(ids=["fig9", "table1"], jobs=1, cache_dir=cache_dir)
        assert registry.value("runner.cache.hits") == 2
        assert registry.value("runner.run.experiments") == 2
        obs_runtime.configure(enabled=True)  # leave a clean registry behind


class TestRunAllCli:
    def test_cli_roundtrip(self, tmp_path, capsys):
        from repro.cli import main

        manifest_path = tmp_path / "manifest.json"
        code = main(
            [
                "run-all",
                "--ids",
                "table1,fig9",
                "--jobs",
                "2",
                "--cache-dir",
                str(tmp_path / "cache"),
                "--report",
                str(manifest_path),
                "--history-dir",
                str(tmp_path / "hist"),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "== run-all == 2/2 ok" in out
        assert manifest_path.is_file()
        assert (tmp_path / "run_spans.jsonl").is_file()
        assert (tmp_path / "run_metrics.jsonl").is_file()
        assert (tmp_path / "hist" / "perf_history.jsonl").is_file()
        # Second invocation: everything from cache.
        code = main(
            [
                "run-all",
                "--ids",
                "table1,fig9",
                "--cache-dir",
                str(tmp_path / "cache"),
                "--report",
                str(manifest_path),
                "--history-dir",
                str(tmp_path / "hist"),
            ]
        )
        assert code == 0
        assert "2 from cache" in capsys.readouterr().out
        history_lines = (
            (tmp_path / "hist" / "perf_history.jsonl").read_text().strip().splitlines()
        )
        assert len(history_lines) == 2  # one appended record per invocation

    def test_cli_unknown_id(self, tmp_path, capsys):
        from repro.cli import main

        code = main(
            ["run-all", "--ids", "fig99", "--cache-dir", str(tmp_path / "cache")]
        )
        assert code == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_cli_clear_cache(self, tmp_path, capsys):
        from repro.cli import main

        cache = str(tmp_path / "cache")
        report = str(tmp_path / "m.json")
        main(
            [
                "run-all",
                "--ids",
                "table1",
                "--cache-dir",
                cache,
                "--report",
                report,
                "--no-history",
            ]
        )
        code = main(
            [
                "run-all",
                "--ids",
                "table1",
                "--clear-cache",
                "--cache-dir",
                cache,
                "--report",
                report,
                "--no-history",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "cleared 1 cache entries" in out
        assert "0 from cache" in out
