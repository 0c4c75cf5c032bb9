"""Content-addressed on-disk cache with integrity checking.

Entries are addressed by the SHA-256 of their canonical-JSON key, so a
cache lookup is a pure function of *what was asked* — the serve layer
keys each result by its job fingerprint, and repeated queries are
served from disk instead of re-planned/re-run.

Durability contract:

* writes go through :func:`repro.ioutil.atomic_write_json`, so a crash
  mid-``put`` never leaves a torn entry — readers see the old entry or
  the new one;
* every entry stores its key (guarding against address collisions and
  misfiled entries) and a SHA-256 over its canonical value; ``get``
  re-verifies both, and a poisoned/corrupt/truncated entry is deleted
  and reported as a miss, so the caller transparently recomputes;
* values round-trip through canonical JSON on ``put``, so a value
  served warm from the cache is byte-identical to the one the cold run
  returned.

Hit/miss/corrupt counters are kept per instance and surfaced through
:meth:`ContentCache.stats` (the serve report prints them).
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, Optional

from repro.ioutil import atomic_write_json
from repro.orchestrate.units import canonical_json, normalise_json

#: Stamped into every entry; bump on layout changes (old entries miss).
CACHE_FORMAT = 1


def content_address(key) -> str:
    """SHA-256 hex address of a JSON-serialisable cache key."""
    return hashlib.sha256(canonical_json(key).encode("utf-8")).hexdigest()


def value_digest(value) -> str:
    """SHA-256 over a value's canonical JSON (the integrity stamp)."""
    return hashlib.sha256(canonical_json(value).encode("utf-8")).hexdigest()


class ContentCache:
    """Directory-backed content-addressed key/value store."""

    def __init__(self, root) -> None:
        self.root = Path(root)
        self.hits = 0
        self.misses = 0
        self.corrupt = 0
        self.puts = 0

    # ------------------------------------------------------------------
    def _path(self, key) -> Path:
        address = content_address(key)
        # Two-level fanout keeps directories small under heavy traffic.
        return self.root / address[:2] / f"{address}.json"

    def get(self, key) -> Optional[object]:
        """Cached value for ``key``, or ``None`` (miss).

        A corrupt entry — unparsable JSON, wrong format, a key that does
        not match (misfiled), or a value whose integrity digest fails —
        is deleted and counted in ``corrupt``; the call reports a miss
        so the caller recomputes and overwrites it.
        """
        path = self._path(key)
        try:
            entry = json.loads(path.read_text(encoding="utf-8"))
        except FileNotFoundError:
            self.misses += 1
            return None
        except (OSError, json.JSONDecodeError, UnicodeDecodeError):
            entry = None
        if (
            not isinstance(entry, dict)
            or entry.get("format") != CACHE_FORMAT
            or entry.get("key") != normalise_json(key)
            or entry.get("value_sha256") != value_digest(entry.get("value"))
        ):
            self.corrupt += 1
            self.misses += 1
            try:
                path.unlink()
            except OSError:  # pragma: no cover - racing cleaner
                pass
            return None
        self.hits += 1
        return entry["value"]

    def put(self, key, value):
        """Store ``value`` under ``key``; returns the canonical value.

        The returned (round-tripped) form is what a later ``get`` will
        serve, so callers that keep using the return value are
        bit-identical to callers served warm from the cache.
        """
        canonical = normalise_json(value)
        atomic_write_json(self._path(key), {
            "format": CACHE_FORMAT,
            "key": normalise_json(key),
            "value": canonical,
            "value_sha256": value_digest(canonical),
        })
        self.puts += 1
        return canonical

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        if not self.root.exists():
            return 0
        return sum(1 for _ in self.root.glob("*/*.json"))

    def stats(self) -> Dict[str, int]:
        """Counters plus the current on-disk entry count."""
        return {
            "entries": len(self),
            "hits": self.hits,
            "misses": self.misses,
            "corrupt": self.corrupt,
            "puts": self.puts,
        }
