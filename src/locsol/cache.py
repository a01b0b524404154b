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
and earlier is never read.

A save merges into the stored verdicts, newest status winning, and
replaces the file through a temporary file and os.replace, so a crash
never leaves a torn file; a save that adds or changes no verdict writes
nothing.  A save that only adds keys to a non-empty stored table encodes
just the added rows and appends them to the stored body (onto a body
this module wrote, that gives the bytes a full rewrite would); any other
save (a changed status, a missing, empty, stale or damaged file, or a
body that does not end in its rows) encodes the whole table.  Only the
digest runs over the whole body.  From its read through os.replace a
save holds an advisory lock (flock) on verdicts.lock in the cache
directory, so two processes sharing the directory keep each other's
rows; where fcntl does not exist a save runs unlocked.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from contextlib import contextmanager
from itertools import islice
from pathlib import Path

from .errors import CacheCorrupt

try:
    import fcntl
except ImportError:  # no advisory locks on this platform
    fcntl = None

# Changes whenever the meaning of a key or the file layout does.  Version
# 4 keeps every verdict in one checksummed file; version 3 labelled the
# unit classes at p | k by the formula in padic._labeller.
CACHE_VERSION = "locsol-cache-4"
_COMPACT = (",", ":")


def _row(p, k, signature, status) -> tuple[tuple, str]:
    """One stored row as a verdict-table item; ValueError if malformed."""
    signature = tuple((e, label) for e, label in signature)
    if (not all(type(x) is int for pair in ((p, k), *signature)
                for x in pair)
            or status not in ("soluble", "insoluble")):
        raise ValueError(f"malformed row {[p, k, signature, status]}")
    return (p, k, signature), status


def _rows(items) -> list[list]:
    """The stored rows of these verdict-table items."""
    return [[p, k, sig, status] for (p, k, sig), status in items]


class CacheStore:
    """A cache directory; its verdicts live in verdicts.json."""

    def __init__(self, root):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.path = self.root / "verdicts.json"
        # (stamp, table, appendable) of the last current body this store
        # validated or wrote: a body with the same digest needs no second
        # parse.  appendable says the body ends in its rows list, as the
        # bodies _write writes do, so rows can be spliced onto it.
        self._known: tuple[bytes, dict[tuple, str], bool] | None = None

    def _stored(self) -> tuple[bytes, dict[tuple, str], bool] | None:
        """(body, table, appendable) as stored; None for a body of
        another version.  The table is the memo's: copy before changing."""
        try:
            raw = self.path.read_bytes()
        except FileNotFoundError:
            return b"", {}, False
        stamp, _, body = raw.partition(b"\n")
        if stamp != hashlib.sha256(body).hexdigest().encode():
            raise CacheCorrupt(f"{self.path}: checksum mismatch")
        if self._known is None or self._known[0] != stamp:
            try:
                doc = json.loads(body)
                if doc["version"] != CACHE_VERSION:
                    return None
                table = dict(_row(*row) for row in doc["rows"])
            except (ValueError, KeyError, TypeError) as exc:
                raise CacheCorrupt(f"{self.path}: unreadable body") from exc
            self._known = (stamp, table, list(doc) == ["version", "rows"]
                           and body.endswith(b"]}"))
        return body, self._known[1], self._known[2]

    def _write(self, body: bytes, table: dict[tuple, str]) -> None:
        """Replace the file by this body, which holds exactly table."""
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
        self._known = stamp, table, True

    @contextmanager
    def _locked(self):
        """Hold the directory's lock file exclusively (where flock exists)."""
        if fcntl is None:
            yield
            return
        with open(self.root / "verdicts.lock", "ab") as fh:
            fcntl.flock(fh, fcntl.LOCK_EX)
            yield  # closing the file releases the lock


def load_verdicts(store: CacheStore) -> dict[tuple, str]:
    """Verdict table from disk; raises CacheCorrupt on damage."""
    stored = store._stored()
    return dict(stored[1]) if stored else {}


def save_verdicts(store: CacheStore, verdicts: dict[tuple, str]) -> None:
    """Merge verdicts into the file, newest value per key winning.
    A damaged or stale file is discarded rather than propagated; a
    current file that already holds every verdict is left untouched."""
    with store._locked():
        try:
            stored = store._stored()
        except CacheCorrupt:
            stored = None
        body, table, appendable = stored or (b"", {}, False)
        # merged keeps table's keys in place and appends the new ones,
        # so its first len(table) values show every changed status
        merged = {**table, **verdicts}
        changed = (list(islice(merged.values(), len(table)))
                   != list(table.values()))
        if stored is not None and not changed and len(merged) == len(table):
            return
        if changed or not (appendable and table):
            body = json.dumps({"version": CACHE_VERSION,
                               "rows": _rows(merged.items())},
                              separators=_COMPACT).encode()
        else:
            added = _rows(islice(merged.items(), len(table), None))
            body = (body[:-2] + b"," +
                    json.dumps(added, separators=_COMPACT).encode()[1:] + b"}")
        store._write(body, merged)
