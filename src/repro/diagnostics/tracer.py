"""Structured per-step, per-node observability for the training runtime.

A :class:`StepTracer` attaches to a :class:`~repro.train.executor.GraphExecutor`
(constructor argument or :attr:`~repro.train.executor.GraphExecutor.tracer`)
and records, for every training step:

* per-node forward/backward wall time;
* per-stash encode/decode wall time, raw vs encoded byte counts and the
  resulting compression ratio, broken down by encoding class.

The executor's hook sites are guarded by a single ``tracer is not None``
branch, so a detached tracer costs nothing on the hot path; what an
attached one costs is the performance ledger's
``diagnostics.tracer.overhead_pct`` (traced over untraced ``op_ms``,
``benchmarks/ledger/``), and ``tests/diagnostics/test_observer_effect.py``
pins that tracing never changes a bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

__all__ = ["StepRecord", "StepTracer", "TraceEvent"]


@dataclass(frozen=True)
class TraceEvent:
    """One traced runtime event (a node execution or a codec call).

    Attributes:
        step: Training-step index the event belongs to.
        node: Graph node name.
        phase: ``"forward"``, ``"backward"``, ``"encode"`` or ``"decode"``.
        wall_s: Wall-clock seconds spent in the event.
        encoding: Encoding name for codec events (``""`` otherwise).
        raw_bytes: FP32 bytes entering an encode (0 for non-codec events).
        encoded_bytes: Bytes of the encoded representation (codec events).
    """

    step: int
    node: str
    phase: str
    wall_s: float
    encoding: str = ""
    raw_bytes: int = 0
    encoded_bytes: int = 0


@dataclass
class StepRecord:
    """Aggregated observations for one training step.

    Attributes:
        index: Step number (0-based, counted per tracer).
        loss: Scalar loss of the step (``None`` until the forward pass
            reports it).
        forward_s / backward_s: Summed per-node wall time of each pass.
        encode_s / decode_s: Summed codec wall time (subset of the above).
        raw_bytes: Per-encoding-name FP32 bytes entering the stash.
        encoded_bytes: Per-encoding-name bytes actually stashed.
        arena_pooled_bytes / arena_hits / arena_misses: Always 0.  The
            workspace arena pools nothing (every rent is a fresh
            allocation); the fields stay because the performance ledger
            reads them.
    """

    index: int
    loss: Optional[float] = None
    forward_s: float = 0.0
    backward_s: float = 0.0
    encode_s: float = 0.0
    decode_s: float = 0.0
    raw_bytes: Dict[str, int] = field(default_factory=dict)
    encoded_bytes: Dict[str, int] = field(default_factory=dict)
    arena_pooled_bytes: int = 0
    arena_hits: int = 0
    arena_misses: int = 0

    @property
    def total_raw_bytes(self) -> int:
        """FP32 bytes entering the stash across all encodings."""
        return sum(self.raw_bytes.values())

    @property
    def total_encoded_bytes(self) -> int:
        """Bytes actually stashed across all encodings."""
        return sum(self.encoded_bytes.values())

    @property
    def compression_ratio(self) -> float:
        """Raw/encoded stash bytes (1.0 when nothing was stashed)."""
        enc = self.total_encoded_bytes
        return self.total_raw_bytes / enc if enc else 1.0


class StepTracer:
    """Collects :class:`StepRecord`/:class:`TraceEvent` streams from an executor.

    Args:
        keep_events: Record the fine-grained per-node event list in
            addition to per-step aggregates.  Disable for long runs where
            only the step summaries matter.
    """

    def __init__(self, keep_events: bool = True):
        self.keep_events = keep_events
        self.steps: List[StepRecord] = []
        self.events: List[TraceEvent] = []
        self._current: Optional[StepRecord] = None

    # -- executor-facing hooks -----------------------------------------
    def begin_step(self) -> None:
        """Open a new step record (finalising any still-open one)."""
        if self._current is not None:
            self.steps.append(self._current)
        self._current = StepRecord(index=len(self.steps))

    def record_loss(self, loss: float) -> None:
        """Attach the step's scalar loss (called at forward end)."""
        if self._current is not None:
            self._current.loss = float(loss)

    def record_node(self, node_name: str, phase: str, wall_s: float) -> None:
        """Record one node's forward or backward execution."""
        rec = self._current
        if rec is None:  # node run outside a step (standalone layer call)
            return
        if phase == "forward":
            rec.forward_s += wall_s
        else:
            rec.backward_s += wall_s
        if self.keep_events:
            self.events.append(TraceEvent(rec.index, node_name, phase, wall_s))

    def record_encode(self, node_name: str, encoding: str, raw_bytes: int,
                      encoded_bytes: int, wall_s: float) -> None:
        """Record one stash encode (byte counts + wall time)."""
        rec = self._current
        if rec is None:
            return
        rec.encode_s += wall_s
        rec.forward_s += wall_s
        rec.raw_bytes[encoding] = rec.raw_bytes.get(encoding, 0) + raw_bytes
        rec.encoded_bytes[encoding] = (
            rec.encoded_bytes.get(encoding, 0) + encoded_bytes
        )
        if self.keep_events:
            self.events.append(TraceEvent(
                rec.index, node_name, "encode", wall_s,
                encoding=encoding, raw_bytes=raw_bytes,
                encoded_bytes=encoded_bytes,
            ))

    def record_decode(self, node_name: str, encoding: str,
                      decoded_bytes: int, wall_s: float) -> None:
        """Record one stash decode performed by the backward pass."""
        rec = self._current
        if rec is None:
            return
        rec.decode_s += wall_s
        rec.backward_s += wall_s
        if self.keep_events:
            self.events.append(TraceEvent(
                rec.index, node_name, "decode", wall_s,
                encoding=encoding, raw_bytes=decoded_bytes,
            ))

    def end_step(self) -> None:
        """Close the current step."""
        rec = self._current
        if rec is None:
            return
        self.steps.append(rec)
        self._current = None

    # -- reporting ------------------------------------------------------
    def to_json(self) -> list:
        """JSON-serialisable list of per-step summaries."""
        return [
            {
                "step": r.index,
                "loss": r.loss,
                "forward_ms": r.forward_s * 1e3,
                "backward_ms": r.backward_s * 1e3,
                "encode_ms": r.encode_s * 1e3,
                "decode_ms": r.decode_s * 1e3,
                "raw_bytes": dict(r.raw_bytes),
                "encoded_bytes": dict(r.encoded_bytes),
                "compression_ratio": r.compression_ratio,
            }
            for r in self.steps
        ]

    def summary(self) -> str:
        """Human-readable per-step table (the ``repro trace`` output)."""
        header = (
            f"{'step':>4} {'loss':>10} {'fwd ms':>8} {'bwd ms':>8} "
            f"{'enc ms':>7} {'dec ms':>7} {'stash MiB':>10} "
            f"{'ratio':>6}"
        )
        lines = [header, "-" * len(header)]
        for r in self.steps:
            loss = f"{r.loss:.5f}" if r.loss is not None else "-"
            lines.append(
                f"{r.index:>4} {loss:>10} {r.forward_s * 1e3:>8.2f} "
                f"{r.backward_s * 1e3:>8.2f} {r.encode_s * 1e3:>7.2f} "
                f"{r.decode_s * 1e3:>7.2f} "
                f"{r.total_encoded_bytes / 2**20:>10.3f} "
                f"{r.compression_ratio:>6.2f}"
            )
        return "\n".join(lines)
