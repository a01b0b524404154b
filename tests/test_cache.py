import json

import pytest

from locsol.cache import (CACHE_VERSION, CacheStore, load_verdicts,
                          save_verdicts, verdict_key)
from locsol.errors import CacheCorrupt
from locsol.padic import CoefficientVector
from locsol.solubility import clear_caches, decide_qp, dump_verdicts


def test_round_trip(tmp_path):
    store = CacheStore(tmp_path)
    pairs = [({"p": 2, "k": 2, "signature": [[0, 0]]}, {"status": "soluble"}),
             ({"p": 5, "k": 3, "signature": [[1, 2]]}, {"status": "insoluble"})]
    store.write("verdicts", pairs)
    assert store.read("verdicts") == pairs


def test_reading_missing_file_is_empty(tmp_path):
    assert CacheStore(tmp_path).read("verdicts") == []


def test_single_flipped_byte_is_detected(tmp_path):
    store = CacheStore(tmp_path)
    store.write("verdicts", [({"p": 2}, {"status": "soluble"})])
    path = tmp_path / "verdicts.jsonl"
    raw = path.read_bytes()
    path.write_bytes(raw.replace(b"soluble", b"solubie"))
    with pytest.raises(CacheCorrupt):
        store.read("verdicts")


def test_truncated_line_is_detected(tmp_path):
    store = CacheStore(tmp_path)
    store.write("verdicts", [({"p": 2}, {"status": "soluble"})])
    path = tmp_path / "verdicts.jsonl"
    path.write_text(path.read_text()[:-20] + "\n")
    with pytest.raises(CacheCorrupt):
        store.read("verdicts")


def test_merge_is_last_wins(tmp_path):
    store = CacheStore(tmp_path)
    store.write("verdicts", [({"p": 2}, {"status": "old"}),
                             ({"p": 3}, {"status": "keep"})])
    store.merge("verdicts", [({"p": 2}, {"status": "new"})])
    got = dict((json.dumps(k, sort_keys=True), v["status"])
               for k, v in store.read("verdicts"))
    assert got == {'{"p": 2}': "new", '{"p": 3}': "keep"}


def test_merge_discards_corrupt_history(tmp_path):
    store = CacheStore(tmp_path)
    (tmp_path / "verdicts.jsonl").write_text("not json at all\n")
    store.merge("verdicts", [({"p": 7}, {"status": "fresh"})])
    assert store.read("verdicts") == [({"p": 7}, {"status": "fresh"})]


def test_stale_version_lines_are_skipped(tmp_path):
    import hashlib
    # valid lines from older formats must be ignored, not fatal; versions
    # 1 and 2 label classes differently, so reading them would be wrong
    for version in ("locsol-cache-0", "locsol-cache-1", "locsol-cache-2"):
        store = CacheStore(tmp_path / version)
        store.write("verdicts", [({"p": 2}, {"status": "current"})])
        path = tmp_path / version / "verdicts.jsonl"
        line = json.loads(path.read_text())
        old = {"version": version, "key": {"p": 99},
               "payload": {"status": "ancient"}}
        body = json.dumps({"version": old["version"], "key": old["key"],
                           "payload": old["payload"]},
                          sort_keys=True, separators=(",", ":"))
        old["checksum"] = hashlib.sha256(body.encode()).hexdigest()
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(old, sort_keys=True, separators=(",", ":"))
                     + "\n")
        assert store.read("verdicts") == [({"p": 2}, {"status": "current"})]
        assert line["version"] == CACHE_VERSION != version


def test_verdict_adapters_round_trip(tmp_path):
    clear_caches()
    decide_qp(CoefficientVector((1, 1, 3), 2), 2)
    decide_qp(CoefficientVector((1, 1, 1, 1), 2), 2)
    live = dump_verdicts()
    assert len(live) == 2
    store = CacheStore(tmp_path)
    save_verdicts(store, live)
    assert load_verdicts(store) == live
    # merging again must not duplicate
    save_verdicts(store, live)
    assert len(store.read("verdicts")) == 2
    clear_caches()


def test_self_test_passes_on_healthy_store(tmp_path):
    CacheStore(tmp_path).self_test()


def test_verdict_key_shape():
    key = verdict_key(5, 2, ((0, 1), (0, 2)))
    assert key == {"p": 5, "k": 2, "signature": [[0, 1], [0, 2]]}
