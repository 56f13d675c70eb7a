"""Content-addressed on-disk result cache.

Cache cells are keyed by ``(scenario_digest, seed, code_version)`` and
store one scenario payload plus enough envelope to detect corruption:

- the key fields themselves (a hash collision or a mis-filed entry is
  rejected, not trusted);
- a sha256 checksum of the canonical payload JSON (a truncated or
  bit-flipped entry is *evicted* on read and transparently recomputed).

An entry is the canonical JSON of its envelope (sorted keys, no
whitespace) plus a newline.  A write encodes the payload once, with the
C one-shot encoder, and that one text gives both the checksum and the
entry.

Writes are atomic: the entry is serialised to a unique temporary file in
the same directory and ``os.replace``-d into place, so concurrent
writers (process-pool parents, parallel CI shards sharing a cache
volume) can race on the same cell and readers still only ever observe a
complete entry -- last writer wins, and every writer's entry is valid.

The cache is the runtime's checkpoint format: a killed sweep leaves its
finished cells behind, and the next run executes only the missing ones
(:meth:`~repro.runtime.runtime.Runtime.map`).
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import uuid
from pathlib import Path
from typing import Any, Dict, Optional

#: Envelope schema tag stamped on every cache entry.
CACHE_SCHEMA = "repro-cache-v1"


def _canonical(value: Any) -> str:
    """The canonical JSON text of ``value``: sorted keys, no whitespace."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def payload_checksum(payload: Dict[str, Any]) -> str:
    """sha256 of the canonical payload JSON."""
    return _sha256(_canonical(payload))


def _safe_component(text: str) -> str:
    """A filename-safe rendering of a key component."""
    return re.sub(r"[^A-Za-z0-9._-]", "_", str(text))


class ResultCache:
    """Content-addressed store of scenario payloads under one root.

    Layout: ``<root>/<digest[:2]>/<digest>-<seed>-<code_version>.json``
    -- the two-character fan-out keeps directories small for
    million-cell sweeps.
    """

    def __init__(self, root) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        #: Read/write traffic since construction (observability and the
        #: warm-sweep assertions in CI ride on these).
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.writes = 0

    def entry_path(self, digest: str, seed: int, code_version: str) -> Path:
        name = f"{digest}-{seed}-{_safe_component(code_version)}.json"
        return self.root / digest[:2] / name

    # -- reads ---------------------------------------------------------------

    def load(
        self, digest: str, seed: int, code_version: str
    ) -> Optional[Dict[str, Any]]:
        """The cached payload, or ``None`` (miss / evicted-corrupt)."""
        path = self.entry_path(digest, seed, code_version)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                entry = json.load(handle)
        except FileNotFoundError:
            self.misses += 1
            return None
        except (OSError, ValueError):
            # Unreadable or truncated mid-write by a crashed run: evict.
            self._evict(path)
            return None
        if not self._valid(entry, digest, seed, code_version):
            self._evict(path)
            return None
        self.hits += 1
        return entry["payload"]

    def _valid(
        self, entry: Any, digest: str, seed: int, code_version: str
    ) -> bool:
        if not isinstance(entry, dict):
            return False
        if entry.get("schema") != CACHE_SCHEMA:
            return False
        if (
            entry.get("digest") != digest
            or entry.get("seed") != seed
            or entry.get("code_version") != code_version
        ):
            return False
        payload = entry.get("payload")
        if not isinstance(payload, dict):
            return False
        return entry.get("checksum") == payload_checksum(payload)

    def _evict(self, path: Path) -> None:
        self.evictions += 1
        self.misses += 1
        try:
            path.unlink()
        except OSError:
            pass

    # -- writes --------------------------------------------------------------

    def store(
        self,
        digest: str,
        seed: int,
        code_version: str,
        payload: Dict[str, Any],
    ) -> Path:
        """Atomically persist one cell; returns the entry path."""
        path = self.entry_path(digest, seed, code_version)
        path.parent.mkdir(parents=True, exist_ok=True)
        text = _canonical(payload)
        # The canonical JSON of the whole envelope, written out key by
        # key in sorted order so the payload is encoded only once.
        entry = (
            '{"checksum":' + _canonical(_sha256(text))
            + ',"code_version":' + _canonical(code_version)
            + ',"digest":' + _canonical(digest)
            + ',"payload":' + text
            + ',"schema":' + _canonical(CACHE_SCHEMA)
            + ',"seed":' + _canonical(seed)
            + "}\n"
        )
        # Unique tmp name per writer; os.replace is atomic on POSIX and
        # Windows, so a concurrent reader sees the old entry or the new
        # one -- never an interleaving of the two.
        tmp = path.parent / f".{path.name}.{os.getpid()}.{uuid.uuid4().hex}.tmp"
        try:
            with open(tmp, "w", encoding="utf-8") as handle:
                handle.write(entry)
            os.replace(tmp, path)
        except BaseException:
            try:  # a failed write leaves no debris behind
                tmp.unlink(missing_ok=True)
            except OSError:
                pass
            raise
        self.writes += 1
        return path

    # -- introspection -------------------------------------------------------

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("*/*.json"))

    def stats(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "writes": self.writes,
            "entries": len(self),
        }
