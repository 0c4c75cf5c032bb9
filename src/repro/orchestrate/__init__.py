"""Deterministic parallel orchestration of embarrassingly-parallel work.

The verify layer's fuzz batteries and the paper-figure experiment
drivers are both long lists of independent, seed-deterministic
computations.  This package runs such lists across worker processes
without giving up the determinism contract the verify layer depends on:

* a **work unit** (:class:`~repro.orchestrate.units.WorkUnit`) is an
  explicit ``(kind, key, payload)`` triple — the payload alone
  reproduces the computation, in any process, in any order;
* the **pool** (:func:`~repro.orchestrate.pool.run_units`) shards units
  across crash-isolated worker processes with per-task timeout and
  bounded retry; a worker exception, crash or hang is recorded as a
  task failure carrying its payload, never kills the batch;
* the **journal** (:class:`~repro.orchestrate.journal.RunJournal`)
  streams finished units to disk as atomically-appended JSONL, so an
  interrupted run resumes by skipping completed units;
* **merging is the caller's job** and must be a pure function of the
  ``key -> result`` mapping consumed in unit order — which is what
  makes ``--workers 1`` and ``--workers 8`` byte-identical.
"""

from repro.orchestrate.cores import usable_cores
from repro.orchestrate.journal import RunJournal
from repro.orchestrate.pool import UnitResult, run_units
from repro.orchestrate.units import (
    WorkUnit,
    payload_fingerprint,
    register_kind,
    resolve_kind,
)

__all__ = [
    "RunJournal",
    "UnitResult",
    "WorkUnit",
    "payload_fingerprint",
    "register_kind",
    "resolve_kind",
    "run_units",
    "usable_cores",
]
