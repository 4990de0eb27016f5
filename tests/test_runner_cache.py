"""Runner cache layer: key construction, store semantics, fingerprinting."""

from pathlib import Path

import pytest

from repro.runner.cache import (
    ResultCache,
    cache_key,
    canonical_config,
    code_fingerprint,
)

FP = "f" * 64  # a stand-in code fingerprint


def _key(**overrides):
    params = dict(
        experiment_id="fig5",
        part="threshold=1",
        target="repro.experiments.fig05_delay_sweep:run_fig05",
        kwargs={"thresholds": (1,), "duration_s": 2.0, "seed": 0},
        seed=0,
        fingerprint=FP,
    )
    params.update(overrides)
    return cache_key(**params)


class TestCacheKey:
    def test_same_inputs_same_key(self):
        assert _key() == _key()

    def test_key_is_hex_sha256(self):
        key = _key()
        assert len(key) == 64
        int(key, 16)  # parses as hex

    def test_changed_seed_changes_key(self):
        assert _key(seed=1, kwargs={"thresholds": (1,), "seed": 1}) != _key()

    def test_changed_config_changes_key(self):
        assert _key(kwargs={"thresholds": (5,), "duration_s": 2.0, "seed": 0}) != _key()

    def test_changed_code_fingerprint_changes_key(self):
        assert _key(fingerprint="0" * 64) != _key()

    def test_changed_part_changes_key(self):
        assert _key(part="threshold=5") != _key()

    def test_changed_target_changes_key(self):
        assert _key(target="repro.experiments.fig14_homes:run_home") != _key()

    def test_kwargs_order_is_irrelevant(self):
        forward = _key(kwargs={"a": 1, "b": 2})
        backward = _key(kwargs={"b": 2, "a": 1})
        assert forward == backward


class TestCanonicalConfig:
    def test_tuples_and_lists_coincide(self):
        assert canonical_config((1, 2)) == canonical_config([1, 2])

    def test_dicts_sort_keys(self):
        assert canonical_config({"b": 1, "a": 2}) == {"a": 2, "b": 1}
        assert list(canonical_config({"b": 1, "a": 2})) == ["a", "b"]

    def test_enums_fold_to_class_dot_name(self):
        from repro.core.config import Scheme

        assert canonical_config(Scheme.POWIFI) == "Scheme.POWIFI"

    def test_dataclasses_fold_fields(self):
        from repro.workloads.homes import HOME_DEPLOYMENTS

        folded = canonical_config(HOME_DEPLOYMENTS[0])
        assert folded["__dataclass__"] == "HomeProfile"
        assert folded == canonical_config(HOME_DEPLOYMENTS[0])
        assert folded != canonical_config(HOME_DEPLOYMENTS[1])

    def test_scalars_pass_through(self):
        for value in (None, True, 3, 2.5, "x"):
            assert canonical_config(value) == value


class TestCodeFingerprint:
    def test_stable_within_a_process(self):
        assert code_fingerprint() == code_fingerprint()

    def test_tracks_source_content(self, tmp_path):
        package = tmp_path / "pkg"
        package.mkdir()
        (package / "a.py").write_text("A = 1\n")
        before = code_fingerprint(package)
        (package / "a.py").write_text("A = 2\n")
        after = code_fingerprint(package)
        assert before != after

    def test_tracks_file_set(self, tmp_path):
        package = tmp_path / "pkg"
        package.mkdir()
        (package / "a.py").write_text("A = 1\n")
        before = code_fingerprint(package)
        (package / "b.py").write_text("B = 1\n")
        assert code_fingerprint(package) != before

    def test_ignores_pycache(self, tmp_path):
        package = tmp_path / "pkg"
        (package / "__pycache__").mkdir(parents=True)
        (package / "a.py").write_text("A = 1\n")
        before = code_fingerprint(package)
        (package / "__pycache__" / "junk.py").write_text("x = 1\n")
        assert code_fingerprint(package) == before


class TestPackageFingerprint:
    def test_running_package_is_read_once_per_process(self, monkeypatch):
        import repro
        from repro.runner import cache as cache_mod

        walks = []
        walk = cache_mod._hash_sources

        def counting(root):
            walks.append(root)
            return walk(root)

        monkeypatch.setattr(cache_mod, "_PACKAGE_FINGERPRINT", None)
        monkeypatch.setattr(cache_mod, "_hash_sources", counting)
        first = code_fingerprint()
        assert code_fingerprint() == code_fingerprint() == first
        package = Path(repro.__file__).resolve().parent
        assert walks == [package]
        assert first == walk(package)


class TestResultCache:
    def test_roundtrip(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        key = _key()
        cache.put(key, {"answer": 42}, meta={"experiment": "fig5"})
        hit, value = cache.get(key)
        assert hit and value == {"answer": 42}

    def test_missing_key_is_a_miss(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        hit, value = cache.get("0" * 64)
        assert not hit and value is None

    def test_corrupt_entry_is_discarded_miss(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        key = _key()
        cache.put(key, [1, 2, 3])
        Path(cache._object_path(key)).write_bytes(b"not a pickle")
        hit, value = cache.get(key)
        assert not hit and value is None
        assert not cache.contains(key)  # discarded, not left to rot

    def test_entry_is_one_pkl_file(self, tmp_path):
        root = tmp_path / "cache"
        cache = ResultCache(str(root))
        kept, quarantined, discarded = (_key(part=f"p{i}") for i in range(3))

        def files():
            return sorted(
                str(path.relative_to(root))
                for path in root.rglob("*")
                if path.is_file()
            )

        for key in (kept, quarantined, discarded):
            cache.put(key, key, meta={"experiment": "fig5"})
        assert files() == sorted(
            f"objects/{key}.pkl" for key in (kept, quarantined, discarded)
        )
        cache.quarantine(quarantined)
        cache.discard(discarded)
        assert files() == sorted(
            [f"objects/{kept}.pkl", f"quarantine/{quarantined}.pkl"]
        )
        assert cache.clear() == 1
        assert files() == [f"quarantine/{quarantined}.pkl"]

    def test_put_and_append_create_missing_directories(self, tmp_path):
        from repro.obs.ioutil import append_line

        cache = ResultCache(str(tmp_path / "not" / "yet" / "cache"))
        cache.put(_key(), "payload")
        assert cache.get(_key()) == (True, "payload")
        target = tmp_path / "also" / "missing" / "log.jsonl"
        append_line(target, "one")
        assert target.read_text() == "one\n"

    def test_clear_and_len(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        for index in range(3):
            cache.put(_key(part=f"p{index}"), index)
        assert len(cache) == 3
        assert cache.clear() == 3
        assert len(cache) == 0

    def test_put_overwrites(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        key = _key()
        cache.put(key, "old")
        cache.put(key, "new")
        assert cache.get(key) == (True, "new")
