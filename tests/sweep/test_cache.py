"""ResultCache: content addressing, atomicity, corruption recovery."""

import json

import pytest

from repro.sweep import (
    CACHE_SCHEMA_VERSION,
    ResultCache,
    RunConfig,
    cache_salt,
    default_cache_dir,
)


@pytest.fixture
def cache(tmp_path):
    return ResultCache(tmp_path / "cache")


CONFIG = RunConfig(workload="micro", iterations=10)
PAYLOAD = {"kind": "solve", "metrics": {"utility": 1.0}}


class TestAddressing:
    def test_key_is_salted_config_hash(self, cache):
        assert cache.key_for(CONFIG) == CONFIG.config_hash(cache_salt())

    def test_salt_carries_schema_and_package_version(self):
        import repro

        salt = cache_salt()
        assert salt["schema"] == CACHE_SCHEMA_VERSION
        assert salt["package"] == repro.__version__

    def test_paths_fan_out_by_key_prefix(self, cache):
        key = cache.key_for(CONFIG)
        path = cache.path_for(key)
        assert path.parent.name == key[:2]
        assert path.name == f"{key}.json"

    def test_default_cache_dir_honors_env_override(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "override"))
        assert default_cache_dir() == tmp_path / "override"

    def test_default_cache_dir_falls_back_to_xdg(self, monkeypatch, tmp_path):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
        assert default_cache_dir() == tmp_path / "xdg" / "repro" / "sweep"


class TestHitMiss:
    def test_miss_on_empty_cache(self, cache):
        assert cache.get(cache.key_for(CONFIG)) is None

    def test_put_then_get_round_trips_payload(self, cache):
        key = cache.key_for(CONFIG)
        cache.put(key, CONFIG, PAYLOAD)
        entry = cache.get(key)
        assert entry is not None
        assert entry["payload"] == PAYLOAD
        assert entry["config"] == CONFIG.to_dict()

    def test_different_configs_get_different_entries(self, cache):
        other = RunConfig(workload="micro", iterations=20)
        assert cache.key_for(CONFIG) != cache.key_for(other)

    def test_put_overwrites(self, cache):
        key = cache.key_for(CONFIG)
        cache.put(key, CONFIG, PAYLOAD)
        cache.put(key, CONFIG, {"kind": "solve", "metrics": {"utility": 2.0}})
        assert cache.get(key)["payload"]["metrics"]["utility"] == 2.0

    def test_len_and_entry_paths(self, cache):
        assert len(cache) == 0
        key = cache.key_for(CONFIG)
        cache.put(key, CONFIG, PAYLOAD)
        assert len(cache) == 1
        assert [path.stem for path in cache.entry_paths()] == [key]

    def test_no_temp_debris_after_put(self, cache):
        key = cache.key_for(CONFIG)
        cache.put(key, CONFIG, PAYLOAD)
        leftovers = [
            path
            for path in cache.root.rglob("*")
            if path.is_file() and path.suffix != ".json"
        ]
        assert leftovers == []


class TestCorruptionRecovery:
    def test_unparseable_entry_is_a_miss(self, cache):
        key = cache.key_for(CONFIG)
        cache.put(key, CONFIG, PAYLOAD)
        cache.path_for(key).write_text("{definitely not json")
        assert cache.get(key) is None
        assert cache.corrupt_hits == 1

    def test_wrong_key_entry_is_a_miss(self, cache):
        key = cache.key_for(CONFIG)
        cache.put(key, CONFIG, PAYLOAD)
        entry = json.loads(cache.path_for(key).read_text())
        entry["key"] = "0" * 64
        cache.path_for(key).write_text(json.dumps(entry))
        assert cache.get(key) is None

    def test_stale_salt_entry_is_a_miss(self, cache):
        key = cache.key_for(CONFIG)
        cache.put(key, CONFIG, PAYLOAD)
        entry = json.loads(cache.path_for(key).read_text())
        entry["salt"] = {"schema": -1, "package": "0.0.0"}
        cache.path_for(key).write_text(json.dumps(entry))
        assert cache.get(key) is None

    def test_schema_1_entry_is_a_miss(self, cache, monkeypatch):
        """Schema 2 retired the entries solved with the reference engine's
        former root finder, whose generic-flow rates differ in the last
        digits."""
        import repro.sweep.cache as cache_module

        assert CACHE_SCHEMA_VERSION == 2
        with monkeypatch.context() as patch:
            patch.setattr(cache_module, "CACHE_SCHEMA_VERSION", 1)
            old_key = cache.key_for(CONFIG)
            cache.put(old_key, CONFIG, PAYLOAD)
        assert cache.key_for(CONFIG) != old_key
        assert cache.get(cache.key_for(CONFIG)) is None
        assert cache.get(old_key) is None  # its salt says schema 1

    def test_non_dict_payload_is_a_miss(self, cache):
        key = cache.key_for(CONFIG)
        cache.put(key, CONFIG, PAYLOAD)
        entry = json.loads(cache.path_for(key).read_text())
        entry["payload"] = [1, 2, 3]
        cache.path_for(key).write_text(json.dumps(entry))
        assert cache.get(key) is None

    def test_reput_repairs_corrupt_entry(self, cache):
        key = cache.key_for(CONFIG)
        cache.put(key, CONFIG, PAYLOAD)
        cache.path_for(key).write_text("garbage")
        assert cache.get(key) is None
        cache.put(key, CONFIG, PAYLOAD)
        assert cache.get(key)["payload"] == PAYLOAD


class TestClean:
    def test_clean_removes_entries_and_shards(self, cache):
        for iterations in (10, 20, 30):
            config = RunConfig(workload="micro", iterations=iterations)
            cache.put(cache.key_for(config), config, PAYLOAD)
        assert len(cache) == 3
        assert cache.clean() == 3
        assert len(cache) == 0
        assert not any(cache.root.glob("??"))

    def test_clean_on_missing_root_is_zero(self, tmp_path):
        assert ResultCache(tmp_path / "never-created").clean() == 0
