"""The content-addressed cache engine: keys, tiers, counters."""

import os
import pickle

import pytest

from repro import telemetry
from repro.cache import (
    ContentCache,
    DiskTier,
    LRUTier,
    cache_manager,
    cache_session,
    content_key,
    get_cache,
)
from repro.core import ProtectConfig


# ----------------------------------------------------------------------
# content_key: canonical framing
# ----------------------------------------------------------------------


def test_content_key_is_deterministic():
    assert content_key(b"abc", 1, "x") == content_key(b"abc", 1, "x")


def test_content_key_concatenation_cannot_alias():
    assert content_key(b"ab", b"c") != content_key(b"a", b"bc")
    assert content_key("ab", "c") != content_key("a", "bc")


def test_content_key_types_cannot_alias():
    parts = [b"1", "1", 1, 1.0, True, None]
    keys = [content_key(p) for p in parts]
    assert len(set(keys)) == len(keys)


def test_content_key_nesting_cannot_alias():
    assert content_key(1, 2, 3) != content_key((1, 2), 3)
    assert content_key((1, 2), 3) != content_key(1, (2, 3))


def test_content_key_bool_is_not_int():
    # bool is an int subclass; the framing must still distinguish them
    assert content_key(True) != content_key(1)
    assert content_key(False) != content_key(0)


def test_content_key_rejects_unframeable_types():
    with pytest.raises(TypeError):
        content_key({"a": 1})


def test_content_key_accepts_memoryview_and_bytearray():
    assert (
        content_key(b"xyz")
        == content_key(bytearray(b"xyz"))
        == content_key(memoryview(b"xyz"))
    )


# ----------------------------------------------------------------------
# content_key: sensitivity to real pipeline inputs
# ----------------------------------------------------------------------


def test_one_byte_image_change_changes_fingerprint(small_wget):
    image = small_wget.image
    mutated = image.clone()
    mutated.text.data[0] ^= 0xFF
    assert image.fingerprint() != mutated.fingerprint()
    assert content_key("protect", image.fingerprint()) != content_key(
        "protect", mutated.fingerprint()
    )


def test_image_fingerprint_ignores_metadata(small_wget):
    image = small_wget.image.clone()
    before = image.fingerprint()
    image.metadata["scratch"] = "noise"
    assert image.fingerprint() == before


def test_config_change_changes_cache_key():
    base = ProtectConfig(seed=1)
    keys = {
        content_key(cfg.cache_key())
        for cfg in (
            base,
            ProtectConfig(seed=2),
            ProtectConfig(seed=1, strategy="rc4"),
            ProtectConfig(seed=1, guard_chains=True),
            ProtectConfig(seed=1, verification_functions=["digest_wget"]),
        )
    }
    assert len(keys) == 5
    assert content_key(base.cache_key()) == content_key(
        ProtectConfig(seed=1).cache_key()
    )


# ----------------------------------------------------------------------
# One key rule: every namespace keys on the package source digest
# ----------------------------------------------------------------------


def test_source_change_orphans_protect_gadget_and_decode_entries(
    small_wget, monkeypatch, tmp_path
):
    """An edit to any ``repro`` source file must never replay an entry
    computed by the old code, even from a persistent cache directory:
    after the source digest changes, a protect, a finder and a decode
    lookup each miss, recompute the same answer and store it anew."""
    import repro.cache
    from repro.core import Parallax
    from repro.gadgets import find_gadgets_in_bytes_cached
    from repro.x86.decoder import decode_all_cached

    config = ProtectConfig(
        strategy="cleartext", verification_functions=["digest_wget"]
    )
    code = bytes(small_wget.image.text.data[:512])
    lookups = {
        "protect": lambda: Parallax(config).protect(small_wget).image.fingerprint(),
        "gadgets": lambda: [
            (g.address, g.end, g.kind.key())
            for g in find_gadgets_in_bytes_cached(code, base=0x1000)
        ],
        "decode": lambda: [
            i.raw for i in decode_all_cached(code, stop_on_error=True)
        ],
    }

    def lookup(metrics, namespace):
        def count(event):
            sample = metrics.to_dict().get(f"cache.{namespace}.{event}")
            return sample["value"] if sample else 0

        before = {event: count(event) for event in ("hits", "misses", "stores")}
        result = lookups[namespace]()
        return result, {event: count(event) - before[event] for event in before}

    with telemetry.telemetry_session(metrics=True) as (metrics, _tracer):
        with cache_session(cache_dir=str(tmp_path)):
            fresh = {ns: lookup(metrics, ns)[0] for ns in lookups}
            for namespace in lookups:  # warm: the entries really replay
                result, delta = lookup(metrics, namespace)
                assert result == fresh[namespace]
                assert delta == {"hits": 1, "misses": 0, "stores": 0}, namespace

            monkeypatch.setattr(repro.cache, "_SOURCE_DIGEST", "0" * 64)
            for namespace in lookups:
                result, delta = lookup(metrics, namespace)
                assert result == fresh[namespace]
                assert delta["misses"] == 1 and delta["stores"] == 1, namespace
                assert delta["hits"] == 0, namespace
                # ... and the recomputed entry replays under the new key.
                _result, delta = lookup(metrics, namespace)
                assert delta["hits"] == 1, namespace


# ----------------------------------------------------------------------
# LRU tier
# ----------------------------------------------------------------------


def test_lru_evicts_least_recently_used():
    tier = LRUTier(max_entries=2)
    tier.put("a", 1)
    tier.put("b", 2)
    tier.put("c", 3)  # evicts a
    assert "a" not in tier
    tier.get("b")  # refresh b
    tier.put("d", 4)  # evicts c, not b
    assert "c" not in tier
    assert "b" in tier and "d" in tier


def test_lru_rejects_zero_capacity():
    with pytest.raises(ValueError):
        LRUTier(max_entries=0)


# ----------------------------------------------------------------------
# Disk tier
# ----------------------------------------------------------------------


def test_disk_tier_roundtrip_across_managers(tmp_path):
    key = content_key("roundtrip")
    with cache_session(cache_dir=str(tmp_path)) as manager:
        manager.get("unit").put(key, {"answer": 42})
        assert manager.disk.entry_count("unit") == 1
    # a fresh manager on the same directory sees the entry (new memory tier)
    with cache_session(cache_dir=str(tmp_path)) as manager:
        hit, value = manager.get("unit").get(key)
    assert hit and value == {"answer": 42}


def test_disk_tier_treats_corrupt_entries_as_misses(tmp_path):
    disk = DiskTier(str(tmp_path))
    valid = pickle.dumps(["fine"] * 64)
    bad_blobs = {
        "garbage": b"\x80garbage-not-a-pickle",
        "truncated": valid[: len(valid) // 2],
    }
    for name, bad in bad_blobs.items():
        key = content_key("corrupt", name)
        disk.put_blob("unit", key, valid)
        with open(disk._path("unit", key), "wb") as fh:
            fh.write(bad)
        cache = ContentCache("unit", disk=disk)
        with telemetry.telemetry_session(metrics=True) as (metrics, _tracer):
            hit, value = cache.get(key)
            samples = metrics.to_dict()
        assert not hit and value is None, name
        assert samples["cache.unit.disk_corrupt"]["value"] == 1, name
        assert samples["cache.unit.misses"]["value"] == 1, name
        # and the entry can be overwritten afterwards
        cache.put(key, "recovered")
        with cache_session(cache_dir=str(tmp_path)) as manager:
            hit, value = manager.get("unit").get(key)
        assert hit and value == "recovered", name


def test_unwritable_disk_tier_degrades_to_counted_misses(tmp_path):
    # A regular file where the namespace directory belongs makes every
    # shard path fail with ENOTDIR — unlike chmod, this holds for root.
    (tmp_path / "unit").write_bytes(b"not a directory")
    disk = DiskTier(str(tmp_path))
    key = content_key("enotdir")
    with telemetry.telemetry_session(metrics=True) as (metrics, _tracer):
        ContentCache("unit", disk=disk).put(key, "value")  # must not raise
        # A fresh memory tier, so the lookup has only the disk to go to.
        hit, value = ContentCache("unit", disk=disk).get(key)
        samples = metrics.to_dict()
    assert not hit and value is None
    assert samples["cache.unit.misses"]["value"] == 1
    assert disk.entry_count("unit") == 0


def test_disk_writes_are_atomic_no_tmp_residue(tmp_path):
    disk = DiskTier(str(tmp_path))
    for i in range(8):
        disk.put_blob("unit", content_key(i), pickle.dumps(i))
    leftovers = [
        name
        for _dir, _sub, files in os.walk(str(tmp_path))
        for name in files
        if name.endswith(".tmp")
    ]
    assert leftovers == []
    assert disk.entry_count("unit") == 8


# ----------------------------------------------------------------------
# ContentCache semantics
# ----------------------------------------------------------------------


def test_store_blobs_hits_return_fresh_objects():
    cache = ContentCache("unit", store_blobs=True)
    value = {"nested": [1, 2, 3]}
    cache.put("k", value)
    _, first = cache.get("k")
    _, second = cache.get("k")
    assert first == value == second
    assert first is not value and first is not second
    first["nested"].append(4)  # mutating a hit must not poison the cache
    _, third = cache.get("k")
    assert third == value


def test_plain_cache_hits_return_same_object():
    cache = ContentCache("unit")
    value = object()
    cache.put("k", value)
    _, got = cache.get("k")
    assert got is value


def test_get_or_compute_computes_once():
    cache = ContentCache("unit")
    calls = []

    def compute():
        calls.append(1)
        return "value"

    assert cache.get_or_compute("k", compute) == "value"
    assert cache.get_or_compute("k", compute) == "value"
    assert len(calls) == 1


def test_cached_none_is_a_hit():
    cache = ContentCache("unit")
    cache.put("k", None)
    hit, value = cache.get("k")
    assert hit and value is None


# ----------------------------------------------------------------------
# Manager configuration
# ----------------------------------------------------------------------


def test_disabled_caching_returns_no_cache():
    with cache_session(enabled=False):
        assert get_cache("protect") is None


def test_decode_namespace_is_memory_only(tmp_path):
    with cache_session(cache_dir=str(tmp_path)) as manager:
        decode = manager.get("decode")
        decode.put(content_key("insns"), ["fake"])
        assert manager.disk.entry_count("decode") == 0
        other = manager.get("gadgets")
        other.put(content_key("insns"), ["fake"])
        assert manager.disk.entry_count("gadgets") == 1


def test_cache_session_restores_previous_manager(tmp_path):
    before = cache_manager()
    with cache_session(cache_dir=str(tmp_path)):
        assert cache_manager() is not before
    assert cache_manager() is before


# ----------------------------------------------------------------------
# Metrics integration
# ----------------------------------------------------------------------


def test_cache_counters_track_hits_misses_stores():
    with telemetry.telemetry_session(metrics=True) as (metrics, _tracer):
        with cache_session():
            cache = get_cache("unit")
            cache.get("missing")
            cache.put("k", 1)
            cache.get("k")
            cache.get("k")
        samples = metrics.to_dict()
    assert samples["cache.unit.misses"]["value"] == 1
    assert samples["cache.unit.stores"]["value"] == 1
    assert samples["cache.unit.hits"]["value"] == 2
    assert samples["cache.unit.memory_hits"]["value"] == 2
