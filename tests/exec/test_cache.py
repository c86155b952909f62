"""Persistent result cache: roundtrips, corruption tolerance, addressing."""

from __future__ import annotations

import json
import warnings
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from repro.exec import (
    NullCache,
    ResultCache,
    cache_key,
    default_cache_dir,
    execute,
    spmv_spec,
    summary_digest,
)

SPEC = spmv_spec((16, 16), 0.5, accel="hht", matrix_seed=1, vector_seed=2)


def test_roundtrip_is_bit_identical(tmp_path):
    cache = ResultCache(tmp_path)
    assert cache.get(SPEC) is None
    live = execute(SPEC)
    cache.put(SPEC, live)
    hit = cache.get(SPEC)
    assert hit is not None
    assert hit.cycles == live.cycles
    assert hit.instructions == live.instructions
    assert hit.cpu_wait_cycles == live.cpu_wait_cycles
    assert hit.hht_wait_cycles == live.hht_wait_cycles
    assert hit.hht_stats == live.hht_stats
    assert hit.port_requests == live.port_requests
    assert np.array_equal(hit.y, live.y)
    assert len(cache) == 1


def test_entries_shard_by_key_prefix(tmp_path):
    cache = ResultCache(tmp_path)
    cache.put(SPEC, execute(SPEC))
    key = cache_key(SPEC)
    assert (tmp_path / key[:2] / f"{key}.json").exists()


def test_corrupt_entry_is_a_miss(tmp_path):
    cache = ResultCache(tmp_path)
    cache.put(SPEC, execute(SPEC))
    path = tmp_path / cache_key(SPEC)[:2] / f"{cache_key(SPEC)}.json"
    path.write_text("{not json")
    assert cache.get(SPEC) is None


def test_foreign_schema_is_a_miss(tmp_path):
    cache = ResultCache(tmp_path)
    cache.put(SPEC, execute(SPEC))
    path = tmp_path / cache_key(SPEC)[:2] / f"{cache_key(SPEC)}.json"
    doc = json.loads(path.read_text())
    doc["schema"] = 999
    path.write_text(json.dumps(doc))
    assert cache.get(SPEC) is None


def test_null_cache_never_stores():
    cache = NullCache()
    cache.put(SPEC, execute(SPEC))
    assert cache.get(SPEC) is None


def test_default_dir_honours_env(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "elsewhere"))
    assert default_cache_dir() == tmp_path / "elsewhere"


def _entry_path(root):
    key = cache_key(SPEC)
    return root / key[:2] / f"{key}.json"


def test_documents_carry_integrity_digest(tmp_path):
    cache = ResultCache(tmp_path)
    cache.put(SPEC, execute(SPEC))
    doc = json.loads(_entry_path(tmp_path).read_text())
    assert doc["key"] == cache_key(SPEC)
    assert doc["digest"] == summary_digest(doc["summary"])


def test_tampered_entry_is_quarantined_and_reported(tmp_path):
    cache = ResultCache(tmp_path)
    cache.put(SPEC, execute(SPEC))
    path = _entry_path(tmp_path)
    blob = bytearray(path.read_bytes())
    blob[len(blob) // 2] ^= 0x01  # single mid-payload bit flip
    path.write_bytes(bytes(blob))

    assert cache.get(SPEC) is None
    assert not path.exists()  # moved aside, not overwritten in place
    assert path.with_name(path.name + ".corrupt").exists()
    events = cache.drain_corruption_events()
    assert len(events) == 1
    assert events[0].key == cache_key(SPEC)
    assert "digest" in events[0].reason
    assert cache.drain_corruption_events() == []  # drained


def test_verify_prune_info_lifecycle(tmp_path):
    cache = ResultCache(tmp_path)
    cache.put(SPEC, execute(SPEC))
    other = spmv_spec((16, 16), 0.3, accel=None, matrix_seed=5, vector_seed=6)
    cache.put(other, execute(other))
    # Damage one entry and leave an orphaned writer tmp file.
    path = _entry_path(tmp_path)
    path.write_text("{not json")
    (path.parent / "orphan.json.123.tmp").write_text("partial")

    audit = cache.verify()
    assert audit.scanned == 2
    assert audit.ok == 1
    assert len(audit.corrupt) == 1
    assert audit.tmp_files == 1
    assert not audit.clean

    removed = cache.prune()
    assert removed["corrupt"] == 1
    assert removed["tmp"] == 1
    assert removed["bytes_freed"] > 0
    assert cache.verify().clean

    info = cache.info()
    assert info["entries"] == 1
    assert info["quarantined_files"] == 0
    assert info["tmp_files"] == 0


def _put_once(root):
    cache = ResultCache(root)
    cache.put(SPEC, execute(SPEC))
    return True


def test_concurrent_writers_race_benignly(tmp_path):
    # Same key written from several processes at once: pid-suffixed tmp
    # files + atomic replace must leave one valid entry and no debris.
    with ProcessPoolExecutor(max_workers=4) as pool:
        assert all(pool.map(_put_once, [tmp_path] * 4))
    cache = ResultCache(tmp_path)
    hit = cache.get(SPEC)
    assert hit is not None
    assert np.array_equal(hit.y, execute(SPEC).y)
    assert list(tmp_path.glob("*/*.tmp")) == []
    assert cache.verify().clean


def test_unreadable_root_warns_once(tmp_path):
    from repro.exec import cache as cache_mod

    class _BrokenRoot:
        def glob(self, pattern):
            raise OSError("simulated I/O failure")

    cache = ResultCache(tmp_path)
    cache.root = _BrokenRoot()
    cache_mod._WARNED.discard("cache_len")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert len(cache) == 0
        assert len(cache) == 0
    runtime = [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert len(runtime) == 1  # one-time, not per call
    assert "unreadable" in str(runtime[0].message)


def test_entries_carry_run_provenance(tmp_path):
    from repro.exec import code_version, run_provenance

    cache = ResultCache(tmp_path)
    cache.put(SPEC, execute(SPEC), provenance={"attempts": 2})
    key = cache_key(SPEC)
    doc = json.loads((tmp_path / key[:2] / f"{key}.json").read_text())
    prov = doc["provenance"]
    assert prov["code"] == code_version()
    assert prov["backend"] in ("reference", "compiled")
    assert prov["host"]
    assert prov["wall"] > 0
    assert prov["attempts"] == 2
    # Provenance sits outside the integrity digest: a schema-6 reader
    # that predates it would still verify the summary.
    assert doc["digest"] == summary_digest(doc["summary"])
    # And the standalone helper merges extras the same way.
    assert run_provenance({"attempts": 9})["attempts"] == 9


def test_cache_info_histograms_provenance(tmp_path):
    cache = ResultCache(tmp_path)
    cache.put(SPEC, execute(SPEC))
    other = spmv_spec((16, 16), 0.25, matrix_seed=3, vector_seed=4)
    cache.put(other, execute(other))
    prov = cache.info()["provenance"]
    assert prov["entries"] == 2
    assert sum(prov["backends"].values()) == 2
    assert sum(prov["code_versions"].values()) == 2
    assert sum(prov["hosts"].values()) == 2


def test_info_tolerates_entries_without_provenance(tmp_path):
    cache = ResultCache(tmp_path)
    cache.put(SPEC, execute(SPEC))
    key = cache_key(SPEC)
    path = tmp_path / key[:2] / f"{key}.json"
    doc = json.loads(path.read_text())
    del doc["provenance"]
    path.write_text(json.dumps(doc))
    prov = cache.info()["provenance"]
    assert prov["entries"] == 0
    assert cache.get(SPEC) is not None  # still a valid entry
