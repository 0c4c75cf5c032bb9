"""Spans, and the rule that turns a StepTracer event list into self times.

Pure Python over duck-typed events (anything with ``step``, ``node``,
``phase``, ``wall_s`` and ``encoding`` attributes), so the rule is unit
tested on hand-built streams without importing ``repro``.
"""

from __future__ import annotations

import statistics
from contextlib import contextmanager, nullcontext
from time import perf_counter
from typing import Callable, Dict, Iterable, Iterator, List, Tuple

#: Node kind -> ``layers.<bucket>`` row; every other kind lands in "other".
KIND_BUCKETS = {
    "conv": "conv", "conv_relu": "conv", "relu": "relu",
    "maxpool": "maxpool", "dense": "dense", "concat": "concat",
    "avgpool": "avgpool", "gavgpool": "avgpool",
}

#: Tracer "encoding" names that are planner directives, not codecs.
_DIRECTIVES = {
    "recompute": "memory.recompute.replay_ms",
    "shared_concat": "memory.shared_concat.slice_ms",
}


class Spans:
    """In-memory span list: one row per timed call, written out at exit.

    A row is ``[name, start_s, end_s, parent_row, op, tag]``; rows of one
    op share its ``op`` id, and ``parent_row`` is the index of the span
    that was open when this one started (``None`` at top level).
    """

    def __init__(self):
        self.rows: List[list] = []
        self.op = -1
        self._open: List[int] = []

    @contextmanager
    def span(self, name: str, tag: str = "") -> Iterator[None]:
        parent = self._open[-1] if self._open else None
        row = [name, perf_counter(), None, parent, self.op, tag]
        self._open.append(len(self.rows))
        self.rows.append(row)
        try:
            yield
        finally:
            row[2] = perf_counter()
            self._open.pop()

    def per_op_ms(self, tag: str = "") -> Dict[int, Dict[str, float]]:
        """``{op: {span name: summed ms}}``, optionally for one tag only."""
        out: Dict[int, Dict[str, float]] = {}
        for name, start, end, _parent, op, row_tag in self.rows:
            if end is None or (tag and row_tag != tag):
                continue
            bucket = out.setdefault(op, {})
            bucket[name] = bucket.get(name, 0.0) + (end - start) * 1e3
        return out

    def to_json(self) -> List[dict]:
        return [
            {"name": name, "start_s": start, "end_s": end, "parent": parent,
             "op": op, "tag": tag}
            for name, start, end, parent, op, tag in self.rows
        ]


def null_span(name: str, tag: str = ""):
    """The untraced stand-in for :meth:`Spans.span`."""
    return nullcontext()


def normalise_encoding(name: str) -> str:
    """Tracer encoding name -> ledger codec name.

    ``ssdc+dpr-fp16`` -> ``ssdc``, ``dpr-fp16`` -> ``dpr``, ``host-swap``
    -> ``hostswap``, ``shared-concat`` -> ``shared_concat``; anything else
    is returned unchanged.
    """
    base = name.split("+", 1)[0]
    if base.startswith("dpr-"):
        return "dpr"
    return {"host-swap": "hostswap",
            "shared-concat": "shared_concat"}.get(base, base)


def self_times(events: Iterable) -> Iterator[Tuple[object, float]]:
    """Yield ``(event, self_seconds)`` for a StepTracer event list.

    Decode, recompute and slice events fire *inside* the consuming node's
    ``backward`` call and are appended before that node's backward event,
    so a backward event's self time is its wall time minus the decode
    events recorded since the previous backward event of the same step.
    Every other event is a leaf.
    """
    step = None
    nested = 0.0
    for ev in events:
        if ev.step != step:
            step, nested = ev.step, 0.0
        if ev.phase == "decode":
            nested += ev.wall_s
            yield ev, ev.wall_s
        elif ev.phase == "backward":
            yield ev, ev.wall_s - nested
            nested = 0.0
        else:
            yield ev, ev.wall_s


def metric_for(ev, kind_of: Callable[[str], str]) -> str:
    """The per-layer metric an event's self time is charged to."""
    if ev.phase in ("forward", "backward"):
        bucket = KIND_BUCKETS.get(kind_of(ev.node), "other")
        return f"layers.{bucket}.{ev.phase}_ms"
    codec = normalise_encoding(ev.encoding)
    if ev.phase == "decode" and codec in _DIRECTIVES:
        return _DIRECTIVES[codec]
    return f"encodings.{codec}.{ev.phase}_ms"


def step_breakdown(events: Iterable, kind_of: Callable[[str], str]
                   ) -> Dict[int, Dict[str, float]]:
    """``{step: {per-layer metric: self ms}}`` from a tracer event list."""
    out: Dict[int, Dict[str, float]] = {}
    for ev, self_s in self_times(events):
        row = out.setdefault(ev.step, {})
        key = metric_for(ev, kind_of)
        row[key] = row.get(key, 0.0) + self_s * 1e3
    return out


def median_by_key(rows: Iterable[Dict[str, float]]) -> Dict[str, float]:
    """Per-key median over ops; a key missing from an op counts as 0."""
    rows = list(rows)
    keys = sorted({k for row in rows for k in row})
    return {k: statistics.median(row.get(k, 0.0) for row in rows)
            for k in keys}


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1])."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]
