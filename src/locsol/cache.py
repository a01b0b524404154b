"""Checksummed on-disk cache of solubility verdicts.

Each kind of record lives in one JSONL file.  A line holds the cache
format version, a key, a payload, and a sha256 checksum of the other
three fields in canonical JSON; any line that fails to parse or to
checksum raises CacheCorrupt, which callers treat as a miss (and the
verification suite treats as a failure).  Rewrites go through a
temporary file and os.replace, so a crash never leaves a torn file.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path

from .errors import CacheCorrupt

# Changes whenever the meaning of a key does.  Version 2 labels the unit
# classes at p not dividing k by power residues instead of table indices.
CACHE_VERSION = "locsol-cache-2"


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _checksum(version: str, key, payload) -> str:
    body = _canonical({"version": version, "key": key, "payload": payload})
    return hashlib.sha256(body.encode("utf-8")).hexdigest()


class CacheStore:
    """Directory of JSONL caches, one file per record kind."""

    def __init__(self, root):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def _path(self, kind: str) -> Path:
        return self.root / f"{kind}.jsonl"

    def read(self, kind: str) -> list[tuple[dict, dict]]:
        """All (key, payload) pairs of the current version, validated."""
        path = self._path(kind)
        if not path.exists():
            return []
        out = []
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    rec = json.loads(line)
                    version = rec["version"]
                    key = rec["key"]
                    payload = rec["payload"]
                    stamp = rec["checksum"]
                except (ValueError, KeyError, TypeError) as exc:
                    raise CacheCorrupt(
                        f"{path} line {lineno}: unreadable entry") from exc
                if stamp != _checksum(version, key, payload):
                    raise CacheCorrupt(
                        f"{path} line {lineno}: checksum mismatch")
                if version == CACHE_VERSION:
                    out.append((key, payload))
        return out

    def write(self, kind: str, items) -> None:
        """Atomically replace the file with the given (key, payload) pairs."""
        path = self._path(kind)
        fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                for key, payload in items:
                    rec = {
                        "version": CACHE_VERSION,
                        "key": key,
                        "payload": payload,
                        "checksum": _checksum(CACHE_VERSION, key, payload),
                    }
                    fh.write(_canonical(rec) + "\n")
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise

    def merge(self, kind: str, items) -> None:
        """Fold new pairs into the file, newest value per key winning.
        An unreadable existing file is discarded rather than propagated."""
        try:
            existing = self.read(kind)
        except CacheCorrupt:
            existing = []
        merged = {_canonical(k): (k, v) for k, v in existing}
        for key, payload in items:
            merged[_canonical(key)] = (key, payload)
        self.write(kind, merged.values())

    def self_test(self) -> None:
        """Round-trip and corruption-detection check in a scratch subdir."""
        with tempfile.TemporaryDirectory(dir=self.root) as scratch:
            probe = CacheStore(scratch)
            pairs = [({"p": 2, "k": 2, "sig": [[0, 0]]}, {"status": "x"}),
                     ({"p": 3, "k": 3, "sig": [[1, 2]]}, {"status": "y"})]
            probe.write("probe", pairs)
            back = probe.read("probe")
            if [(k, v) for k, v in back] != pairs:
                raise CacheCorrupt("round-trip self test lost data")
            path = probe._path("probe")
            raw = path.read_bytes()
            path.write_bytes(raw.replace(b'"status"', b'"statsu"', 1))
            try:
                probe.read("probe")
            except CacheCorrupt:
                return
            raise CacheCorrupt("corruption went undetected in self test")


# --- adapters between stores and the in-memory caches ------------------------


def verdict_key(p: int, k: int, signature) -> dict:
    return {"p": p, "k": k, "signature": [list(s) for s in signature]}


def load_verdicts(store: CacheStore) -> dict[tuple, str]:
    """Verdict table from disk; raises CacheCorrupt on damage."""
    out = {}
    for key, payload in store.read("verdicts"):
        signature = tuple(tuple(int(x) for x in s)
                          for s in key["signature"])
        out[(int(key["p"]), int(key["k"]), signature)] = payload["status"]
    return out


def save_verdicts(store: CacheStore, verdicts: dict[tuple, str]) -> None:
    items = [(verdict_key(p, k, sig), {"status": status})
             for (p, k, sig), status in verdicts.items()]
    store.merge("verdicts", items)
