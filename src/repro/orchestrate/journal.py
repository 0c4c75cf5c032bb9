"""On-disk run journal: JSONL of finished work units, resume by replay.

Every terminal unit outcome (``ok`` or ``failed``) is appended as one
atomic JSONL record (:func:`repro.ioutil.append_jsonl_line`), so killing
a run at any instant loses at most the in-flight units.  Re-invoking the
same run with the same journal path replays completed units from disk —
their recorded results feed the merge exactly as a live result would —
and re-runs only what is missing.

Resume is payload-aware: each record stores a fingerprint of the unit's
kind + payload, and a record is only replayed for a unit whose
fingerprint still matches.  Changing a sweep's parameters therefore
invalidates stale journal entries instead of silently reusing them.

Replay is checked: each record carries a stamp, a SHA-256 over the
canonical JSON of its fingerprint, status and result.  A record whose
stamp does not match (an edited result, a result pasted under another
unit's line, a record of an older format) is never replayed, so its
unit runs again: a stored result comes back bit-exact or is recomputed.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Iterable, Optional, Tuple

from repro.ioutil import append_jsonl_line, atomic_write_text, read_jsonl
from repro.orchestrate.units import WorkUnit, payload_fingerprint, value_digest

#: Stamped into every record; bump on layout changes.  2: records carry
#: ``stamp`` (format-1 records have none and are never replayed).
JOURNAL_FORMAT = 2


def _stamp(fingerprint, status, result) -> str:
    return value_digest([fingerprint, status, result])


def _checked(record) -> bool:
    """True for a terminal record of this format whose stamp matches."""
    return (
        isinstance(record, dict)
        and record.get("format") == JOURNAL_FORMAT
        and record.get("status") in ("ok", "failed")
        and isinstance(record.get("key"), str)
        and record.get("stamp") == _stamp(record.get("fingerprint"),
                                          record["status"],
                                          record.get("result"))
    )


class RunJournal:
    """Append-only JSONL journal of unit outcomes for one logical run."""

    def __init__(self, path) -> None:
        self.path = Path(path)

    # ------------------------------------------------------------------
    def record(
        self,
        unit: WorkUnit,
        status: str,
        result=None,
        error: Optional[dict] = None,
        attempts: int = 1,
        elapsed_s: float = 0.0,
    ) -> None:
        """Append one terminal unit outcome (``ok`` or ``failed``)."""
        if status not in ("ok", "failed"):
            raise ValueError(f"terminal status expected, got {status!r}")
        fingerprint = payload_fingerprint(unit)
        append_jsonl_line(self.path, {
            "format": JOURNAL_FORMAT,
            "key": unit.key,
            "kind": unit.kind,
            "fingerprint": fingerprint,
            "status": status,
            "result": result,
            "stamp": _stamp(fingerprint, status, result),
            "error": error,
            "attempts": attempts,
            "elapsed_s": round(float(elapsed_s), 6),
        })

    # ------------------------------------------------------------------
    def completed(self, units: Iterable[WorkUnit]) -> Dict[str, dict]:
        """Checked ``ok`` records replayable for ``units``, keyed by key.

        A record replays only when its stamp checks and its fingerprint
        matches the unit's current payload.  Later records win, so a
        re-run that overwrote an outcome supersedes the old one; a unit
        whose latest record is ``failed`` is left out, so a resumed run
        gives crashed and timed-out units another chance.
        """
        wanted = {u.key: payload_fingerprint(u) for u in units}
        replay: Dict[str, dict] = {}
        for record in read_jsonl(self.path):
            if not _checked(record):
                continue
            key = record["key"]
            if wanted.get(key) == record.get("fingerprint"):
                replay[key] = record
        return {k: r for k, r in replay.items() if r["status"] == "ok"}

    # ------------------------------------------------------------------
    def compact(self) -> Tuple[int, int]:
        """Atomically rewrite the journal, dropping superseded records.

        An append-only journal replayed on every scheduling pass grows
        without bound across resumes — fatal for a long-lived daemon.
        Compaction keeps only the *latest* record per ``(key,
        fingerprint)`` pair (plus nothing else: malformed lines, foreign
        formats, non-terminal statuses and records whose stamp fails are
        dropped, exactly the records :meth:`completed` already ignores).

        Keying on the pair rather than the key alone is what preserves
        :meth:`completed` semantics byte-for-byte: a journal may hold
        records for the same key under different payload fingerprints
        (a re-invocation with changed parameters), and ``completed``
        replays whichever matches the caller's current payload.  Within
        one pair, later records win both before and after compaction.

        Returns:
            ``(kept, dropped)`` record counts.  The rewrite goes through
            :func:`repro.ioutil.atomic_write_text`, so a crash mid-compaction
            leaves the previous journal intact.
        """
        latest: Dict[Tuple[str, str], dict] = {}
        total = 0
        for record in read_jsonl(self.path):
            total += 1
            if not _checked(record):
                continue
            # dict insertion order: re-inserting moves nothing, so kept
            # records stay in first-seen pair order with latest contents.
            latest[(record["key"], str(record.get("fingerprint")))] = record
        if not latest and not self.path.exists():
            return 0, 0
        lines = [json.dumps(record, sort_keys=True)
                 for record in latest.values()]
        atomic_write_text(self.path, "".join(line + "\n" for line in lines))
        return len(latest), total - len(latest)
