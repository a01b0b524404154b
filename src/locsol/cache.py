"""Checksummed on-disk cache of solubility verdicts.

A cache directory keeps its verdicts in one file, verdicts.json.  Line 1
is the sha256 hex digest of the rest of the file, which is one compact
JSON body {"version": ..., "rows": [[p, k, [[e, label], ...], status]]}.
A read always hashes the stored bytes and checks the digest; it parses
the body and validates every row only if this store has not already
validated or written a body of that digest, and otherwise returns a copy
of that table.  A bad digest, body or row raises CacheCorrupt, which
callers treat as a miss (and the verification suite as a failure).  A
body of another version reads as empty; the verdicts.jsonl of version 3
and earlier is never read.  A save merges into the stored verdicts and
rewrites through a temporary file and os.replace, so a crash never
leaves a torn file; a save that adds or changes no verdict writes
nothing.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path

from .errors import CacheCorrupt

# Changes whenever the meaning of a key or the file layout does.  Version
# 4 keeps every verdict in one checksummed file; version 3 labelled the
# unit classes at p | k by the formula in padic._labeller.
CACHE_VERSION = "locsol-cache-4"


def _row(p, k, signature, status) -> tuple[tuple, str]:
    """One stored row as a verdict-table item; ValueError if malformed."""
    signature = tuple((e, label) for e, label in signature)
    if (not all(type(x) is int for pair in ((p, k), *signature)
                for x in pair)
            or status not in ("soluble", "insoluble")):
        raise ValueError(f"malformed row {[p, k, signature, status]}")
    return (p, k, signature), status


class CacheStore:
    """A cache directory; its verdicts live in verdicts.json."""

    def __init__(self, root):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.path = self.root / "verdicts.json"
        # (stamp, table) of the last current body this store validated
        # or wrote: a body with the same digest needs no second parse.
        self._known: tuple[bytes, dict[tuple, str]] | None = None

    def _read(self) -> dict[tuple, str] | None:
        """The stored verdicts; None for a body of another version."""
        try:
            raw = self.path.read_bytes()
        except FileNotFoundError:
            return {}
        stamp, _, body = raw.partition(b"\n")
        if stamp != hashlib.sha256(body).hexdigest().encode():
            raise CacheCorrupt(f"{self.path}: checksum mismatch")
        if self._known is not None and self._known[0] == stamp:
            return dict(self._known[1])
        try:
            doc = json.loads(body)
            if doc["version"] != CACHE_VERSION:
                return None
            table = dict(_row(*row) for row in doc["rows"])
        except (ValueError, KeyError, TypeError) as exc:
            raise CacheCorrupt(f"{self.path}: unreadable body") from exc
        self._known = stamp, table
        return dict(table)

    def _write(self, verdicts: dict[tuple, str]) -> None:
        rows = [[p, k, sig, status] for (p, k, sig), status in verdicts.items()]
        body = json.dumps({"version": CACHE_VERSION, "rows": rows},
                          separators=(",", ":")).encode()
        stamp = hashlib.sha256(body).hexdigest().encode()
        fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(stamp + b"\n" + body)
            os.replace(tmp, self.path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
        self._known = stamp, dict(verdicts)

    def self_test(self) -> None:
        """Round-trip and corruption-detection check in a scratch subdir."""
        with tempfile.TemporaryDirectory(dir=self.root) as scratch:
            probe = CacheStore(scratch)
            verdicts = {(2, 2, ((0, 3),)): "soluble",
                        (3, 3, ((1, 2),)): "insoluble"}
            probe._write(verdicts)
            # a fresh store parses the body: probe would answer from memory
            if CacheStore(scratch)._read() != verdicts:
                raise CacheCorrupt("round-trip self test lost data")
            # still a well-formed row: only the checksum can catch it
            raw = probe.path.read_bytes()
            probe.path.write_bytes(raw.replace(b'"insoluble"', b'"soluble"'))
            try:
                probe._read()
            except CacheCorrupt:
                return
            raise CacheCorrupt("corruption went undetected in self test")


def load_verdicts(store: CacheStore) -> dict[tuple, str]:
    """Verdict table from disk; raises CacheCorrupt on damage."""
    return store._read() or {}


def save_verdicts(store: CacheStore, verdicts: dict[tuple, str]) -> None:
    """Merge verdicts into the file, newest value per key winning.
    A damaged or stale file is discarded rather than propagated; a
    current file that already holds every verdict is left untouched."""
    try:
        stored = store._read()
    except CacheCorrupt:
        stored = None
    if stored is not None and all(stored.get(key) == status
                                  for key, status in verdicts.items()):
        return
    store._write({**(stored or {}), **verdicts})
