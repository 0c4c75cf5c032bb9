"""Crash-isolated process-pool execution of work units.

``run_units`` is the single entry point.  With ``workers <= 1`` units
run inline (same outcome records, no subprocess machinery); with more,
each worker is a dedicated child process fed over its own task pipe, so
the parent always knows which unit a worker holds and can detect both
failure modes a shared pool hides:

* **crash** — the worker process dies (segfault, ``os._exit``, OOM
  kill): the parent sees the dead process, records the attempt as a
  failure carrying the unit's payload, and spawns a replacement;
* **hang** — the unit exceeds its per-task timeout: the worker is
  terminated and replaced the same way.

Ordinary exceptions inside a unit are caught in the worker and returned
as structured error records.  Every failed attempt is retried up to
``retries`` times before the unit is finalised as ``failed``; no unit
outcome ever kills the batch.  A worker waits on its task pipe and its
parent's sentinel together, so it exits on its own when the parent dies,
even by SIGKILL, when no cleanup runs.

Determinism contract: outcomes are finalised per *unit*, normalised
through a JSON round-trip (so a live result, a pickled-queue result and
a journal replay are indistinguishable), and returned keyed by unit key.
Callers merge in unit order, which makes the aggregate independent of
worker count and completion order.
"""

from __future__ import annotations

import multiprocessing as mp
import time
import traceback
from collections import deque
from dataclasses import dataclass
from multiprocessing.connection import wait
from queue import Empty
from typing import Any, Callable, Dict, List, Optional, Sequence, Union

from repro.orchestrate.journal import RunJournal
from repro.orchestrate.units import WorkUnit, normalise_json, resolve_kind

#: Parent poll interval while waiting on worker results (seconds).
_POLL_S = 0.05


@dataclass
class UnitResult:
    """Terminal outcome of one work unit.

    Attributes:
        key: The unit's key.
        status: ``"ok"`` or ``"failed"``.
        value: JSON-normalised executor return value (``ok`` only).
        error: ``{"type", "message", "traceback"}`` for the final
            failed attempt (``failed`` only).
        attempts: Attempts consumed (1 = first try succeeded).
        elapsed_s: Wall-clock of the final attempt.
        cached: True when replayed from a run journal, not executed.
    """

    key: str
    status: str
    value: Any = None
    error: Optional[dict] = None
    attempts: int = 1
    elapsed_s: float = 0.0
    cached: bool = False

    @property
    def ok(self) -> bool:
        return self.status == "ok"


def _error_info(exc: BaseException) -> dict:
    return {
        "type": type(exc).__name__,
        "message": str(exc),
        "traceback": traceback.format_exc(),
    }


def _normalise(value):
    """JSON round-trip a result so live and replayed runs agree.

    Shares :func:`repro.orchestrate.units.normalise_json` with the
    payload fingerprint, so results and payloads canonicalise numpy
    scalars/arrays identically.
    """
    return normalise_json(value)


def _worker_main(worker_id: int, tasks, result_q) -> None:
    """Child-process loop: run units off ``tasks`` until ``None``, or
    until the parent process is gone."""
    parent = mp.parent_process().sentinel
    while True:
        if parent in wait([tasks, parent]):
            result_q.cancel_join_thread()  # nobody is left to read it
            return
        message = tasks.recv()
        if message is None:
            return
        token, kind, payload = message
        start = time.perf_counter()
        try:
            value = resolve_kind(kind)(payload)
            reply = (worker_id, token, "ok", value, None,
                     time.perf_counter() - start)
        except BaseException as exc:  # crash isolation: report, keep serving
            reply = (worker_id, token, "error", None, _error_info(exc),
                     time.perf_counter() - start)
        try:
            result_q.put(reply)
        except Exception as exc:  # e.g. unpicklable result
            result_q.put((worker_id, token, "error", None, _error_info(exc),
                          time.perf_counter() - start))


class _Batch:
    """Shared outcome bookkeeping for one ``run_units`` call."""

    def __init__(self, retries: int, journal: Optional[RunJournal],
                 stop_when) -> None:
        self.retries = retries
        self.journal = journal
        self.stop_when = stop_when
        self.results: Dict[str, UnitResult] = {}
        self.stopping = False

    def finalise(self, unit: WorkUnit, status: str, value, error,
                 attempts: int, elapsed_s: float) -> None:
        if status == "ok":
            try:
                value = _normalise(value)
            except (TypeError, ValueError) as exc:
                status, value, error = "failed", None, _error_info(exc)
        result = UnitResult(unit.key, status, value, error,
                            attempts, elapsed_s)
        self.results[unit.key] = result
        if self.journal is not None:
            self.journal.record(unit, status, result=value, error=error,
                                attempts=attempts, elapsed_s=elapsed_s)
        if self.stop_when is not None and self.stop_when(result):
            self.stopping = True

    def attempt_failed(self, unit: WorkUnit, attempt: int, error: dict,
                       elapsed_s: float) -> Optional[int]:
        """Next attempt number, or None after finalising as failed."""
        if attempt <= self.retries:
            return attempt + 1
        self.finalise(unit, "failed", None, error, attempt, elapsed_s)
        return None


def _run_serial(pending: Sequence[WorkUnit], batch: _Batch) -> None:
    for unit in pending:
        if batch.stopping:
            return
        attempt = 1
        while True:
            start = time.perf_counter()
            try:
                value = resolve_kind(unit.kind)(unit.payload)
            except BaseException as exc:
                attempt_next = batch.attempt_failed(
                    unit, attempt, _error_info(exc),
                    time.perf_counter() - start)
                if attempt_next is None:
                    break
                attempt = attempt_next
            else:
                batch.finalise(unit, "ok", value, None, attempt,
                               time.perf_counter() - start)
                break


class _WorkerHandle:
    """One worker process plus its dedicated task pipe."""

    def __init__(self, ctx, worker_id: int, result_q) -> None:
        self.ctx = ctx
        self.worker_id = worker_id
        self.result_q = result_q
        self.tasks, self.task_w = ctx.Pipe(duplex=False)
        self.proc = None
        # In-flight assignment.
        self.token: Optional[int] = None
        self.unit: Optional[WorkUnit] = None
        self.attempt = 0
        self.start = 0.0
        self.deadline: Optional[float] = None
        self.spawn()

    def spawn(self) -> None:
        self.proc = self.ctx.Process(
            target=_worker_main,
            args=(self.worker_id, self.tasks, self.result_q),
            daemon=True,
        )
        self.proc.start()

    def assign(self, token: int, unit: WorkUnit, attempt: int,
               timeout_s: Optional[float]) -> None:
        if not self.proc.is_alive():
            self.spawn()
        self.token, self.unit, self.attempt = token, unit, attempt
        self.start = time.monotonic()
        self.deadline = (self.start + timeout_s
                         if timeout_s is not None else None)
        self.task_w.send((token, unit.kind, unit.payload))

    def clear(self) -> None:
        self.token = self.unit = self.deadline = None

    def replace(self) -> None:
        """Kill and respawn after a crash or timeout."""
        if self.proc.is_alive():
            self.proc.terminate()
        self.proc.join(timeout=2.0)
        if self.proc.is_alive():  # pragma: no cover - stubborn child
            self.proc.kill()
            self.proc.join(timeout=2.0)
        self.clear()
        self.tasks.close()
        self.task_w.close()
        self.tasks, self.task_w = self.ctx.Pipe(duplex=False)
        self.spawn()

    def shutdown(self) -> None:
        if self.proc.is_alive():
            try:
                self.task_w.send(None)
            except Exception:  # pragma: no cover - broken pipe on exit
                pass
        self.proc.join(timeout=2.0)
        if self.proc.is_alive():
            self.proc.terminate()
            self.proc.join(timeout=2.0)
        self.tasks.close()
        self.task_w.close()


def _run_pool(pending: Sequence[WorkUnit], batch: _Batch, workers: int,
              timeout_s: Optional[float]) -> None:
    ctx = (mp.get_context("fork")
           if "fork" in mp.get_all_start_methods() else
           mp.get_context("spawn"))
    result_q = ctx.Queue()
    handles = [_WorkerHandle(ctx, i, result_q)
               for i in range(max(1, min(workers, len(pending))))]
    queue = deque((unit, 1) for unit in pending)
    live_tokens: Dict[int, _WorkerHandle] = {}
    next_token = 0

    def outcome(unit: WorkUnit, attempt: int, status: str, value, error,
                elapsed_s: float) -> None:
        if status == "ok":
            batch.finalise(unit, "ok", value, None, attempt, elapsed_s)
            return
        attempt_next = batch.attempt_failed(unit, attempt, error, elapsed_s)
        if attempt_next is not None and not batch.stopping:
            # Retries jump the queue: the unit keeps its scheduling slot.
            queue.appendleft((unit, attempt_next))

    try:
        while True:
            if batch.stopping:
                queue.clear()
            for handle in handles:  # feed idle workers in unit order
                if handle.token is None and queue:
                    unit, attempt = queue.popleft()
                    handle.assign(next_token, unit, attempt, timeout_s)
                    live_tokens[next_token] = handle
                    next_token += 1
            if not queue and not live_tokens:
                return
            # Drain every queued result before liveness checks, so a
            # worker that answered just before dying still counts.
            try:
                message = result_q.get(timeout=_POLL_S)
            except Empty:
                message = None
            while message is not None:
                _, token, status, value, error, elapsed_s = message
                handle = live_tokens.pop(token, None)
                if handle is not None:  # else stale (timed out earlier)
                    unit, attempt = handle.unit, handle.attempt
                    handle.clear()
                    outcome(unit, attempt, status, value, error, elapsed_s)
                try:
                    message = result_q.get_nowait()
                except Empty:
                    message = None
            # Crash and hang detection for still-busy workers.
            now = time.monotonic()
            for handle in handles:
                if handle.token is None:
                    continue
                unit, attempt = handle.unit, handle.attempt
                elapsed = now - handle.start
                if not handle.proc.is_alive():
                    live_tokens.pop(handle.token, None)
                    error = {
                        "type": "WorkerCrash",
                        "message": (f"worker process exited with code "
                                    f"{handle.proc.exitcode} while running "
                                    f"unit {unit.key!r}"),
                        "traceback": "",
                    }
                    handle.replace()
                    outcome(unit, attempt, "crash", None, error, elapsed)
                elif handle.deadline is not None and now > handle.deadline:
                    live_tokens.pop(handle.token, None)
                    error = {
                        "type": "WorkerTimeout",
                        "message": (f"unit {unit.key!r} exceeded "
                                    f"{timeout_s:.1f}s timeout"),
                        "traceback": "",
                    }
                    handle.replace()
                    outcome(unit, attempt, "timeout", None, error, elapsed)
    finally:
        for handle in handles:
            handle.shutdown()
        result_q.close()
        result_q.join_thread()


def run_units(
    units: Sequence[WorkUnit],
    workers: int = 1,
    timeout_s: Optional[float] = None,
    retries: int = 1,
    journal: Union[None, str, RunJournal] = None,
    stop_when: Optional[Callable[[UnitResult], bool]] = None,
) -> Dict[str, UnitResult]:
    """Run ``units``; return a terminal :class:`UnitResult` per unit key.

    Args:
        units: Work units with unique keys; scheduled in list order.
            Callers must merge results in list order for determinism.
        workers: Worker processes; ``<= 1`` runs inline in-process.
        timeout_s: Per-attempt wall-clock limit (parallel mode only —
            inline execution cannot be pre-empted).
        retries: Extra attempts after a failed one (exception, crash or
            timeout) before the unit is finalised as ``failed``.
        journal: Optional :class:`RunJournal` (or path): completed units
            found in it are replayed instead of re-run (each one adds to
            its ``hits``), and every newly finalised unit is appended to
            it.
        stop_when: Optional predicate over each newly finalised result;
            once true, no further units are scheduled (in-flight units
            still finalise).  Units never scheduled are absent from the
            returned mapping.

    Raises:
        ValueError: On duplicate unit keys or non-JSON payloads.
    """
    seen = set()
    for unit in units:
        if unit.key in seen:
            raise ValueError(f"duplicate work-unit key {unit.key!r}")
        seen.add(unit.key)
        try:
            normalise_json(unit.payload)
        except (TypeError, ValueError) as exc:
            raise ValueError(
                f"unit {unit.key!r} payload is not JSON-serialisable: {exc}"
            ) from None

    if journal is not None and not isinstance(journal, RunJournal):
        journal = RunJournal(journal)

    batch = _Batch(retries=retries, journal=journal, stop_when=stop_when)
    pending: List[WorkUnit] = []
    replayed = journal.completed(units) if journal is not None else {}
    for unit in units:
        record = replayed.get(unit.key)
        if record is None:
            pending.append(unit)
            continue
        batch.results[unit.key] = UnitResult(
            key=unit.key,
            status=record["status"],
            value=record.get("result"),
            error=record.get("error"),
            attempts=int(record.get("attempts", 1)),
            elapsed_s=float(record.get("elapsed_s", 0.0)),
            cached=True,
        )
        journal.hits += 1
    if workers <= 1:
        _run_serial(pending, batch)
    elif pending:
        _run_pool(pending, batch, workers, timeout_s)
    return batch.results
