"""The training-service daemon: a durable, journal-backed job queue.

:class:`JobService` owns one state directory:

* ``queue.jsonl`` — submitted jobs, appended atomically
  (:func:`repro.ioutil.append_jsonl_line`); a submission survives any
  crash that happens after ``submit`` returns;
* ``journal.jsonl`` — the :class:`~repro.orchestrate.journal.RunJournal`
  the pool streams unit outcomes to, and the one result store: every
  record is stamped, so a resubmitted job is answered from its checked
  record and an edited or torn one is recomputed.  Killing the daemon
  mid-run loses at most the in-flight units, and the next pass resumes
  by fingerprint replay with bit-identical results.  The serve loop
  compacts it each pass so a long-lived daemon never replays an
  unbounded file.

A scheduling pass (:meth:`JobService.run_pending`) drains the queue:
duplicate submissions collapse onto one job, and every job goes to
:func:`~repro.orchestrate.run_units` with the journal.  A job whose
result the journal already holds is answered from it
(``source="journal"``) without scheduling any pool work; only the
remainder is executed on the process pool (``source="computed"``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro.ioutil import append_jsonl_line, atomic_write_text, read_jsonl
from repro.orchestrate import RunJournal, WorkUnit, run_units
from repro.orchestrate.units import value_digest
from repro.serve.jobs import compile_job
from repro.serve.spec import JobSpec, JobSpecError, validate_job_spec

#: Stamped into queue records; bump on layout changes.
QUEUE_FORMAT = 1


@dataclass
class JobRecord:
    """Outcome of one (deduplicated) job in a scheduling pass."""

    fingerprint: str
    kind: str
    name: str
    status: str = "pending"  # "pending" | "ok" | "failed" | "invalid"
    #: Where the result came from: "journal" (a checked journal record)
    #: / "computed" (pool work was scheduled); None for failures.
    source: Optional[str] = None
    result: Optional[object] = None
    #: SHA-256 over the canonical result JSON — the bit-identity handle
    #: the durability tests pin across kill/resume and journal hits.
    digest: Optional[str] = None
    error: Optional[dict] = None
    #: Queue entries that collapsed onto this job this pass.
    submissions: int = 1

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def to_json(self) -> dict:
        """The job's row in :meth:`ServeReport.to_json` — everything but
        the result payload, which ``digest`` stands in for."""
        return {
            "fingerprint": self.fingerprint,
            "kind": self.kind,
            "name": self.name,
            "status": self.status,
            "source": self.source,
            "digest": self.digest,
            "error": self.error,
            "submissions": self.submissions,
        }


@dataclass
class ServeReport:
    """Everything one scheduling pass did, JSON-serialisable."""

    jobs: List[JobRecord] = field(default_factory=list)
    #: Work units actually executed (0 on a fully warm pass).
    scheduled: int = 0
    #: Jobs answered from a checked journal record.
    journal_hits: int = 0
    #: ``(kept, dropped)`` from this pass's journal compaction.
    compaction: Tuple[int, int] = (0, 0)

    @property
    def ok(self) -> bool:
        return all(job.ok for job in self.jobs)

    def to_json(self) -> dict:
        """JSON form of the pass: one row per job plus the journal
        counters."""
        return {
            "jobs": [job.to_json() for job in self.jobs],
            "scheduled": self.scheduled,
            "journal_hits": self.journal_hits,
            "journal_compaction": {"kept": self.compaction[0],
                                   "dropped": self.compaction[1]},
            "ok": self.ok,
        }

    def summary(self) -> str:
        """Human-readable pass report (the serve CLI prints this)."""
        lines = []
        for job in self.jobs:
            label = f" name={job.name}" if job.name else ""
            if job.ok:
                extra = f"source={job.source} digest={job.digest[:16]}"
            else:
                error = job.error or {}
                extra = (f"{error.get('type', 'Error')}: "
                         f"{error.get('message', '')}")
            dupes = (f" (x{job.submissions} submissions)"
                     if job.submissions > 1 else "")
            lines.append(f"job {job.fingerprint[:16]} kind={job.kind}"
                         f"{label} status={job.status} {extra}{dupes}")
        failed = sum(1 for job in self.jobs if not job.ok)
        lines.append(
            f"jobs: {len(self.jobs) - failed} ok, {failed} failed | "
            f"journal hits: {self.journal_hits} | "
            f"scheduled: {self.scheduled}"
        )
        kept, dropped = self.compaction
        lines.append(f"journal: {kept} record(s) after compaction "
                     f"({dropped} dropped)")
        return "\n".join(lines)


class JobService:
    """Durable job queue + journal + pool front end over one state dir."""

    def __init__(self, state_dir, workers: int = 1,
                 timeout_s: Optional[float] = None, retries: int = 1) -> None:
        self.state_dir = Path(state_dir)
        self.workers = workers
        self.timeout_s = timeout_s
        self.retries = retries
        self.queue_path = self.state_dir / "queue.jsonl"
        self.journal = RunJournal(self.state_dir / "journal.jsonl")

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(self, spec) -> str:
        """Enqueue a job (spec mapping or :class:`JobSpec`); returns its
        fingerprint.  The append is atomic and durable — a submission
        that returned survives any later crash of the daemon."""
        if not isinstance(spec, JobSpec):
            spec = validate_job_spec(spec)
        fingerprint = spec.fingerprint()
        append_jsonl_line(self.queue_path, {
            "format": QUEUE_FORMAT,
            "fingerprint": fingerprint,
            "name": spec.name,
            "job": spec.payload(),
        })
        return fingerprint

    def queued(self) -> List[dict]:
        """Raw queue entries still awaiting a scheduling pass."""
        return [record for record in read_jsonl(self.queue_path)
                if record.get("format") == QUEUE_FORMAT]

    def _drop_from_queue(self, fingerprints) -> None:
        """Atomically rewrite the queue without the processed jobs."""
        import json

        remaining = [json.dumps(record, sort_keys=True)
                     for record in read_jsonl(self.queue_path)
                     if record.get("fingerprint") not in fingerprints]
        atomic_write_text(self.queue_path,
                          "".join(line + "\n" for line in remaining))

    # ------------------------------------------------------------------
    # Scheduling pass
    # ------------------------------------------------------------------
    def run_pending(self) -> ServeReport:
        """Drain the queue once: dedupe, answer from the journal, run
        the rest.

        Crash-safe at every point: submissions stay queued until their
        job reaches a terminal record, and unit outcomes stream to the
        run journal as they finalise, before the queue entries are
        dropped.  Re-invoking after a SIGKILL therefore resumes exactly
        where the pass stopped, with results bit-identical to an
        uninterrupted run.
        """
        report = ServeReport(compaction=self.journal.compact())

        # A job's identity is the fingerprint of its own payload, never
        # the one stored beside it: a line whose two disagree is invalid,
        # since filing its result under either would answer another job.
        # Duplicates (same job, any label) only bump the submission count.
        entries = self.queued()
        records: List[JobRecord] = []
        jobs: Dict[str, JobRecord] = {}
        units: Dict[str, WorkUnit] = {}
        for entry in entries:
            stored = entry.get("fingerprint")
            payload = entry.get("job") or {}
            try:
                spec = validate_job_spec({
                    "kind": payload.get("kind"),
                    "name": entry.get("name", ""),
                    **payload.get("params", {}),
                })
                fingerprint = spec.fingerprint()
                if fingerprint != stored:
                    raise JobSpecError(
                        f"queue line stores fingerprint {stored} but its "
                        f"job payload fingerprints to {fingerprint}")
            except JobSpecError as exc:
                records.append(JobRecord(
                    fingerprint=str(stored),
                    kind=str(payload.get("kind")),
                    name=str(entry.get("name", "")),
                    status="invalid",
                    error={"type": "JobSpecError", "message": str(exc)},
                ))
                continue
            if fingerprint in jobs:
                jobs[fingerprint].submissions += 1
                continue
            units[fingerprint] = compile_job(spec)
            jobs[fingerprint] = JobRecord(fingerprint=fingerprint,
                                          kind=spec.kind, name=spec.name)
            records.append(jobs[fingerprint])

        # One pool call: a unit with a checked journal record replays
        # (``cached``), every other unit runs and is journaled.
        results = run_units(list(units.values()), workers=self.workers,
                            timeout_s=self.timeout_s, retries=self.retries,
                            journal=self.journal) if units else {}
        for fingerprint, unit in units.items():
            record = jobs[fingerprint]
            outcome = results[unit.key]
            if outcome.cached:
                report.journal_hits += 1
            else:
                report.scheduled += 1
            if not outcome.ok:
                record.status, record.error = "failed", outcome.error
                continue
            record.status = "ok"
            record.source = "journal" if outcome.cached else "computed"
            record.result = outcome.value
            record.digest = value_digest(outcome.value)

        self._drop_from_queue({entry.get("fingerprint") for entry in entries})
        report.jobs = records
        return report

    # ------------------------------------------------------------------
    def serve_forever(
        self,
        poll_s: float = 1.0,
        max_polls: Optional[int] = None,
        on_report: Optional[Callable[[ServeReport], None]] = None,
    ) -> int:
        """Daemon loop: drain the queue every ``poll_s`` seconds.

        ``max_polls`` bounds the loop (tests and one-shot smoke runs);
        ``on_report`` receives every pass that processed at least one
        job.  Returns the count of failed jobs observed (0 == clean).
        """
        failures = 0
        polls = 0
        while max_polls is None or polls < max_polls:
            polls += 1
            report = self.run_pending()
            if report.jobs:
                failures += sum(1 for job in report.jobs if not job.ok)
                if on_report is not None:
                    on_report(report)
            if max_polls is None or polls < max_polls:
                time.sleep(poll_s)
        return failures
