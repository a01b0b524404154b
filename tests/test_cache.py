import hashlib
import json
import random
import sys
import tempfile
import threading
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from locsol import cache
from locsol.cache import CACHE_VERSION, CacheStore, load_verdicts, save_verdicts
from locsol.errors import CacheCorrupt
from locsol.padic import CoefficientVector
from locsol.solubility import (clear_caches, decide_qp, dump_verdicts,
                               load_verdicts as load_live)
from locsol.verification import _cache_integrity

try:
    import fcntl
except ImportError:
    fcntl = None
needs_flock = pytest.mark.skipif(fcntl is None, reason="no flock here")

VERDICTS = {(2, 2, ((0, 3), (0, 3), (1, 5))): "soluble",
            (5, 3, ((0, 1), (1, 2))): "insoluble"}


def write_body(path, body) -> None:
    """A verdicts.json holding this body under a valid checksum."""
    raw = json.dumps(body).encode()
    path.write_bytes(hashlib.sha256(raw).hexdigest().encode() + b"\n" + raw)


def test_round_trip(tmp_path):
    store = CacheStore(tmp_path)
    save_verdicts(store, VERDICTS)
    assert load_verdicts(store) == VERDICTS
    assert load_verdicts(CacheStore(tmp_path)) == VERDICTS


def test_reading_missing_file_is_empty(tmp_path):
    assert load_verdicts(CacheStore(tmp_path)) == {}


def test_single_flipped_byte_is_detected(tmp_path):
    store = CacheStore(tmp_path)
    save_verdicts(store, VERDICTS)
    path = tmp_path / "verdicts.json"
    raw = path.read_bytes()
    # "insoluble" -> "insolubme" breaks the checksum, not the JSON
    path.write_bytes(raw.replace(b"insoluble", b"insolubme"))
    with pytest.raises(CacheCorrupt):
        load_verdicts(store)


def test_truncated_line_is_detected(tmp_path):
    store = CacheStore(tmp_path)
    save_verdicts(store, VERDICTS)
    path = tmp_path / "verdicts.json"
    path.write_bytes(path.read_bytes()[:-20])
    with pytest.raises(CacheCorrupt):
        load_verdicts(store)


def test_empty_file_is_detected(tmp_path):
    (tmp_path / "verdicts.json").write_bytes(b"")
    with pytest.raises(CacheCorrupt):
        load_verdicts(CacheStore(tmp_path))


@pytest.mark.parametrize("row", [
    [2, 2, [[0, 1]], "maybe"],
    [2, 2, [[0, 1]]],
    ["2", 2, [[0, 1]], "soluble"],
    [2, 2.0, [[0, 1]], "soluble"],
    [2, 2, [[0, 1, 2]], "soluble"],
    [2, 2, [[0, True]], "soluble"],
    [2, 2, "01", "soluble"],
    [2, 2, 7, "soluble"],
    {"p": 2, "k": 2, "signature": [[0, 1]], "status": "soluble"},
])
def test_checksummed_row_of_wrong_shape_is_detected(tmp_path, row):
    write_body(tmp_path / "verdicts.json",
               {"version": CACHE_VERSION, "rows": [row]})
    with pytest.raises(CacheCorrupt):
        load_verdicts(CacheStore(tmp_path))


def test_checksummed_body_of_wrong_shape_is_detected(tmp_path):
    for body in ([], {"rows": []}, {"version": CACHE_VERSION}):
        write_body(tmp_path / "verdicts.json", body)
        with pytest.raises(CacheCorrupt):
            load_verdicts(CacheStore(tmp_path))


def test_merge_is_last_wins(tmp_path):
    store = CacheStore(tmp_path)
    old, keep, fresh = ((p, 2, ((0, 1),)) for p in (2, 3, 7))
    save_verdicts(store, {old: "insoluble", keep: "insoluble"})
    save_verdicts(store, {old: "soluble", fresh: "soluble"})
    assert load_verdicts(store) == {old: "soluble", keep: "insoluble",
                                    fresh: "soluble"}


def test_merge_discards_corrupt_history(tmp_path):
    store = CacheStore(tmp_path)
    (tmp_path / "verdicts.json").write_text("not json at all\n")
    save_verdicts(store, VERDICTS)
    assert load_verdicts(store) == VERDICTS


def test_a_save_that_adds_nothing_writes_nothing(tmp_path):
    store = CacheStore(tmp_path)
    path = tmp_path / "verdicts.json"
    save_verdicts(store, {})
    assert not path.exists()
    save_verdicts(store, VERDICTS)
    before = path.stat().st_ino, path.read_bytes()
    save_verdicts(store, {})
    save_verdicts(store, dict([next(iter(VERDICTS.items()))]))
    assert (path.stat().st_ino, path.read_bytes()) == before
    # a changed status is a change
    key = next(iter(VERDICTS))
    save_verdicts(store, {key: "insoluble"})
    assert load_verdicts(store)[key] == "insoluble"


def test_a_damaged_or_stale_file_is_rewritten_with_nothing_new(tmp_path):
    store = CacheStore(tmp_path)
    path = tmp_path / "verdicts.json"
    path.write_text("garbage\n")
    save_verdicts(store, {})
    assert load_verdicts(store) == {}
    write_body(path, {"version": "locsol-cache-3",
                      "rows": [[2, 2, [[0, 1]], "soluble"]]})
    save_verdicts(store, {})
    body = json.loads(path.read_bytes().partition(b"\n")[2])
    assert body == {"version": CACHE_VERSION, "rows": []}


def test_stale_version_lines_are_skipped(tmp_path):
    # a valid body from an older format must be ignored, not fatal;
    # versions 1 to 3 label classes or lay out the file differently
    for version in ("locsol-cache-0", "locsol-cache-1", "locsol-cache-2",
                    "locsol-cache-3"):
        write_body(tmp_path / "verdicts.json",
                   {"version": version, "rows": [[2, 2, [[0, 1]], "soluble"]]})
        assert load_verdicts(CacheStore(tmp_path)) == {}
    assert CACHE_VERSION == "locsol-cache-4"


def test_old_jsonl_file_is_ignored(tmp_path):
    old = tmp_path / "verdicts.jsonl"
    old.write_text('{"version":"locsol-cache-3","key":{"p":2},'
                   '"payload":{"status":"soluble"},"checksum":"00"}\n')
    store = CacheStore(tmp_path)
    assert load_verdicts(store) == {}
    save_verdicts(store, VERDICTS)
    assert load_verdicts(store) == VERDICTS
    assert old.read_text().startswith('{"version":"locsol-cache-3"')


def test_one_digest_per_load_and_per_save(tmp_path, monkeypatch):
    verdicts = {(p, 2, ((0, 1), (0, 3))): "soluble" for p in (3, 5, 7, 11)}
    calls = []
    real = hashlib.sha256

    def counting(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(hashlib, "sha256", counting)
    store = CacheStore(tmp_path)
    save_verdicts(store, verdicts)       # no file yet: hash what is written
    assert len(calls) == 1
    del calls[:]
    assert load_verdicts(store) == verdicts
    assert len(calls) == 1
    del calls[:]
    save_verdicts(store, VERDICTS)       # check the old file, hash the new
    assert len(calls) == 2


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
    body = json.loads((tmp_path / "verdicts.json").read_bytes()
                      .partition(b"\n")[2])
    assert len(body["rows"]) == 2
    clear_caches()


def test_self_test_passes_on_healthy_store():
    assert _cache_integrity(None) == (
        True, "round-trip and corruption detection pass (no active cache)")


def test_unreadable_active_cache_fails_the_integrity_line(tmp_path):
    (tmp_path / "verdicts.json").mkdir()
    passed, detail = _cache_integrity(CacheStore(tmp_path))
    assert not passed and "damaged" in detail
    # and the line a readable active store gets, with its verdict count
    healthy = tmp_path / "healthy"
    healthy.mkdir()
    save_verdicts(CacheStore(healthy), VERDICTS)
    assert _cache_integrity(CacheStore(healthy)) == (
        True, "round-trip and corruption detection pass; active cache "
              "holds 2 verdicts")


def test_a_save_after_a_load_parses_nothing(tmp_path, monkeypatch):
    save_verdicts(CacheStore(tmp_path), VERDICTS)
    rows = []
    real = cache._row

    def counting(*row):
        rows.append(row)
        return real(*row)

    monkeypatch.setattr(cache, "_row", counting)
    store = CacheStore(tmp_path)
    assert load_verdicts(store) == VERDICTS
    assert len(rows) == len(VERDICTS)
    del rows[:]
    save_verdicts(store, {(7, 2, ((0, 1),)): "soluble"})
    assert rows == []
    assert load_verdicts(store) == {**VERDICTS, (7, 2, ((0, 1),)): "soluble"}
    assert rows == []


def test_a_body_written_by_another_process_is_parsed(tmp_path):
    store = CacheStore(tmp_path)
    save_verdicts(store, VERDICTS)
    assert load_verdicts(store) == VERDICTS
    old, fresh = (5, 3, ((0, 1), (1, 2))), (11, 2, ((0, 1),))
    write_body(tmp_path / "verdicts.json",
               {"version": CACHE_VERSION,
                "rows": [[5, 3, [[0, 1], [1, 2]], "soluble"],
                         [11, 2, [[0, 1]], "insoluble"]]})
    save_verdicts(store, {old: "insoluble"})
    assert load_verdicts(CacheStore(tmp_path)) == {
        old: "insoluble", fresh: "insoluble"}
    write_body(tmp_path / "verdicts.json",
               {"version": CACHE_VERSION, "rows": [[2, 2, [[0, 1]], "maybe"]]})
    with pytest.raises(CacheCorrupt):
        load_verdicts(store)


def test_a_body_altered_after_a_load_is_detected(tmp_path):
    store = CacheStore(tmp_path)
    save_verdicts(store, VERDICTS)
    assert load_verdicts(store) == VERDICTS
    path = tmp_path / "verdicts.json"
    stamp, _, body = path.read_bytes().partition(b"\n")
    path.write_bytes(stamp + b"\n" + body.replace(b'"insoluble"',
                                                  b'"soluble"'))
    with pytest.raises(CacheCorrupt):
        load_verdicts(store)
    passed, detail = _cache_integrity(store)
    assert not passed and "damaged" in detail


def test_a_loaded_table_is_the_callers_own(tmp_path):
    store = CacheStore(tmp_path)
    save_verdicts(store, VERDICTS)
    for _ in range(2):
        loaded = load_verdicts(store)
        assert loaded == VERDICTS
        loaded.clear()
        loaded[(2, 2, ((0, 1),))] = "soluble"


def decision_sessions(root, one_store: bool) -> bytes:
    """Ten load/decide/save sessions on seeded forms; the file they leave."""
    rng = random.Random(3)
    store = CacheStore(root)
    for _ in range(10):
        clear_caches()
        if not one_store:
            store = CacheStore(root)
        load_live(load_verdicts(store))
        for _ in range(15):
            k = rng.choice((2, 3))
            entries = tuple(rng.choice((-1, 1)) * rng.randint(1, 60)
                            for _ in range(3))
            decide_qp(CoefficientVector(entries, k), rng.choice((2, 3, 5, 7)))
        save_verdicts(store, dump_verdicts())
    clear_caches()
    return (root / "verdicts.json").read_bytes()


def test_one_store_and_fresh_stores_leave_the_same_file(tmp_path):
    assert (decision_sessions(tmp_path / "one", True)
            == decision_sessions(tmp_path / "fresh", False))


def test_self_test_parses_what_it_wrote(monkeypatch):
    monkeypatch.setattr(cache.json, "loads",
                        lambda body: {"version": CACHE_VERSION, "rows": []})
    passed, detail = _cache_integrity(None)
    assert not passed and "lost data" in detail


def canonical(table) -> bytes:
    """The body a full rewrite of this verdict table writes."""
    rows = [[p, k, sig, status] for (p, k, sig), status in table.items()]
    return json.dumps({"version": CACHE_VERSION, "rows": rows},
                      separators=(",", ":")).encode()


def stored_body(root) -> bytes:
    return (root / "verdicts.json").read_bytes().partition(b"\n")[2]


# The inputs of the decide-witness benchmark workload (bench/workloads.py):
# 3,000 (entries, k, p) decisions, rotating over these (p, k) pairs.
DECIDE_PAIRS = ((2, 2), (3, 3), (2, 4), (3, 2), (5, 2), (7, 3), (13, 3),
                (5, 4), (13, 4), (7919, 2), (9973, 3), (9973, 4))


def benchmark_decisions(seed: int) -> list[tuple[tuple, int, int]]:
    rng = random.Random(seed)
    out = []
    for i in range(3000):
        p, k = DECIDE_PAIRS[i % len(DECIDE_PAIRS)]
        entries = []
        for _ in range(rng.choice((2, 3, 4)) + 1):
            e = 0 if rng.random() < 0.5 else rng.randint(1, k + 1)
            u = rng.randrange(1, 10**4)
            while u % p == 0:
                u = rng.randrange(1, 10**4)
            entries.append(rng.choice((-1, 1)) * p**e * u)
        out.append((tuple(entries), k, p))
    return out


# sha256 prefixes of the verdicts.json that the workload's ten sessions
# leave, as written by full rewrites before saves appended rows
PINNED_SESSION_FILES = {1: "d7f2b7dd971c95c6", 2: "fa4517eda7421dc4",
                        3: "b1e656856598ec32"}


@pytest.mark.parametrize("seed", sorted(PINNED_SESSION_FILES))
def test_benchmark_sessions_leave_the_pinned_file(tmp_path, seed):
    decisions = benchmark_decisions(seed)
    for one_store in (True, False):
        root = tmp_path / f"one-store-{one_store}"
        store = CacheStore(root)
        for session in range(10):
            clear_caches()
            if not one_store:
                store = CacheStore(root)
            load_live(load_verdicts(store))
            for entries, k, p in decisions[300 * session:300 * (session + 1)]:
                decide_qp(CoefficientVector(entries, k), p, with_witness=True)
            save_verdicts(store, dump_verdicts())
        clear_caches()
        raw = (root / "verdicts.json").read_bytes()
        assert (hashlib.sha256(raw).hexdigest()[:16]
                == PINNED_SESSION_FILES[seed])


KEYS = st.tuples(st.sampled_from((2, 3)), st.sampled_from((2, 3)),
                 st.lists(st.tuples(st.integers(0, 1), st.integers(0, 2)),
                          min_size=1, max_size=2).map(tuple))
TABLES = st.dictionaries(KEYS, st.sampled_from(("soluble", "insoluble")),
                         max_size=6)
STARTS = {"missing": None,
          "empty rows": canonical({}),
          "stale": json.dumps({"version": "locsol-cache-3",
                               "rows": [[2, 2, [[0, 1]], "soluble"]]}).encode(),
          "damaged": b"garbage"}
A, B = (2, 2, ((0, 1),)), (3, 2, ((1, 2),))


@settings(max_examples=80, deadline=None)
@given(start=st.sampled_from(sorted(STARTS)),
       steps=st.lists(st.tuples(st.booleans(), TABLES), min_size=1,
                      max_size=5))
@example(start="missing", steps=[(False, {A: "soluble"}),
                                 (False, {A: "insoluble", B: "soluble"})])
@example(start="empty rows", steps=[(False, {A: "soluble"})])
@example(start="missing", steps=[(False, {A: "soluble"}),
                                 (True, {B: "soluble"}),
                                 (False, {A: "soluble", (2, 3, ((0, 0),)):
                                          "insoluble"})])
def test_every_saved_body_is_the_full_encoding(start, steps):
    # each step saves through one of two stores on one directory, so a
    # store also saves onto a body the other one wrote
    with tempfile.TemporaryDirectory() as root:
        path = Path(root) / "verdicts.json"
        if STARTS[start] is not None:
            body = STARTS[start]
            path.write_bytes(hashlib.sha256(body).hexdigest().encode()
                             + b"\n" + body)
        stores = CacheStore(root), CacheStore(root)
        model = {}
        for other, verdicts in steps:
            save_verdicts(stores[other], verdicts)
            model = {**model, **verdicts}
            if start != "missing" or model:
                assert stored_body(path.parent) == canonical(model)
                assert load_verdicts(CacheStore(root)) == model
            else:
                assert not path.exists()


def test_a_save_encodes_only_the_rows_it_adds(tmp_path, monkeypatch):
    base = {(p, 2, ((0, i),)): "soluble" for p in (3, 5) for i in range(1000)}
    added = {(7, 3, ((0, i), (1, 1))): "insoluble" for i in range(100)}
    store = CacheStore(tmp_path)
    save_verdicts(store, base)
    live = load_verdicts(store)
    encoded, rows = [], []
    real_dumps, real_row = json.dumps, cache._row

    def dumps(obj, **kwargs):
        encoded.append(obj)
        return real_dumps(obj, **kwargs)

    monkeypatch.setattr(cache.json, "dumps", dumps)
    monkeypatch.setattr(cache, "_row",
                        lambda *row: rows.append(row) or real_row(*row))
    save_verdicts(store, {**live, **added})
    assert encoded == [[[7, 3, ((0, i), (1, 1)), "insoluble"]
                        for i in range(100)]]
    assert rows == []
    monkeypatch.undo()
    assert stored_body(tmp_path) == canonical({**base, **added})


@pytest.mark.parametrize("layout", [
    {"rows": [[2, 2, [[0, 1]], "soluble"]], "version": CACHE_VERSION},
    {"version": CACHE_VERSION, "rows": [[2, 2, [[0, 1]], "soluble"]],
     "note": [1]},
])
def test_a_body_not_ending_in_its_rows_is_rewritten(tmp_path, layout):
    # appending to either body would put the rows outside "rows"
    write_body(tmp_path / "verdicts.json", layout)
    store = CacheStore(tmp_path)
    save_verdicts(store, {B: "insoluble"})
    merged = {(2, 2, ((0, 1),)): "soluble", B: "insoluble"}
    assert stored_body(tmp_path) == canonical(merged)
    assert load_verdicts(CacheStore(tmp_path)) == merged


def test_rows_appended_to_another_writers_body_are_read(tmp_path):
    write_body(tmp_path / "verdicts.json",
               {"version": CACHE_VERSION, "rows": [[2, 2, [[0, 1]], "soluble"]]})
    save_verdicts(CacheStore(tmp_path), {B: "insoluble"})
    assert load_verdicts(CacheStore(tmp_path)) == {
        (2, 2, ((0, 1),)): "soluble", B: "insoluble"}


@needs_flock
def test_a_save_inside_another_saves_merge_keeps_both(tmp_path, monkeypatch):
    first, second = CacheStore(tmp_path), CacheStore(tmp_path)
    save_verdicts(first, VERDICTS)
    mine, theirs = {A: "soluble"}, {B: "insoluble"}
    # set once the rival's save has ended or is waiting for the lock
    waiting, failures = threading.Event(), []

    def rival_save():
        try:
            save_verdicts(second, theirs)
        except BaseException as exc:
            failures.append(exc)
        finally:
            waiting.set()

    rival = threading.Thread(target=rival_save)
    real_flock, real_write = fcntl.flock, first._write

    def flock(fd, operation):
        if threading.current_thread() is rival:
            waiting.set()
        return real_flock(fd, operation)

    def write(*args):
        # first has read the file and merged; the rival saves now
        rival.start()
        assert waiting.wait(timeout=30)
        real_write(*args)

    monkeypatch.setattr(fcntl, "flock", flock)
    monkeypatch.setattr(first, "_write", write)
    save_verdicts(first, mine)
    rival.join(timeout=30)
    assert not rival.is_alive() and failures == []
    assert load_verdicts(CacheStore(tmp_path)) == {**VERDICTS, **mine,
                                                   **theirs}


@needs_flock
def test_concurrent_saves_lose_no_rows(tmp_path):
    # more savers than cores, each through its own store, with frequent
    # thread switches: a save that replaced the file from a stale read
    # would drop another saver's rows
    failures = []

    def saver(worker):
        try:
            store = CacheStore(tmp_path)
            for round_ in range(8):
                save_verdicts(store, {(worker + 2, 2, ((round_, i),)):
                                      "soluble" for i in range(3)})
        except BaseException as exc:
            failures.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=saver, args=(w,)) for w in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads) and failures == []
    assert len(load_verdicts(CacheStore(tmp_path))) == 4 * 8 * 3


def bounded_sessions(root, monkeypatch) -> bytes:
    """Eight load/decide/save sessions under a 40-verdict memo, so loads
    and decisions evict; every other session keeps the memo it had.  The
    forms are decided with witnesses at p | k and at p above the root
    scan, where Sylow roots are taken.  Returns the file they leave."""
    from locsol import solubility
    monkeypatch.setattr(solubility, "VERDICT_CACHE_SIZE", 40)
    pairs = ((2, 2), (3, 3), (2, 4), (5, 2), (13, 3), (3001, 2),
             (3001, 6), (7919, 3), (9973, 4), (9973, 6))
    rng = random.Random(30)
    store = CacheStore(root)
    clear_caches()
    for session in range(8):
        if session % 2:
            clear_caches()
        load_live(load_verdicts(store))
        for _ in range(30):
            p, k = rng.choice(pairs)
            entries = tuple(rng.choice((-1, 1)) * p**rng.randint(0, k)
                            * rng.randrange(1, p) for _ in range(
                                rng.choice((3, 4))))
            decide_qp(CoefficientVector(entries, k), p, with_witness=True)
        save_verdicts(store, dump_verdicts())
    clear_caches()
    return (root / "verdicts.json").read_bytes()


# sha256 of the file bounded_sessions leaves, recorded before the memo
# kept its keys in a dict and a deque rather than an OrderedDict
BOUNDED_SESSIONS_FILE = (
    "81b5dad490fe6d33d47293d89b1ec62885992c0f4b10639232d36c15d2db8f86")


def test_bounded_sessions_leave_the_pinned_file(tmp_path, monkeypatch):
    raw = bounded_sessions(tmp_path, monkeypatch)
    assert hashlib.sha256(raw).hexdigest() == BOUNDED_SESSIONS_FILE
