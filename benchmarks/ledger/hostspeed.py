"""Timing on a host whose speed will not hold still.

The reference host is a shared 2-vCPU VM.  Over one afternoon a scaled-VGG
step took 33 ms, then 53 ms; a planning pass 370 ms, then 700 ms; and
inside one run single ops stall for 0.2-1.6 s while their neighbours do
not.  Nothing in ``src/`` changed in between: the neighbours did.  Two
things take that back out of ``op_ms`` and ``setup_s``:

* every unit of timed work (a training step, one model's planning, one
  graph's oracle battery) is bracketed by a host-speed probe and its wall
  time divided by the probe's slowdown (``UnitTimer``);
* a run reports, per kind of unit, the lower quartile of those times over
  all ops, not their mean (``reference_ms``): disturbances only ever add
  time, so the undisturbed ops sit at the bottom of the distribution.

The probe is one third interpreter loop, one third cache-resident
streaming, one third streaming past the private caches - what the
workloads are made of, minus BLAS, whose thread wake-ups after a quiet
spell cost 15-60 ms here and say nothing about the host's speed.  It uses
nothing from the program under test, so no change to ``src/`` moves it.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter
from typing import Dict, Iterator, List, NamedTuple

import numpy as np

#: One probe reading on the reference host when it is quiet (interpreter
#: loop 1.4 ms + cache-resident adds 0.8 ms + streaming add 2.0 ms); a
#: slowdown of 1.0 therefore leaves wall time as measured.
REFERENCE_S = 0.0042


class HostSpeedProbe:
    def __init__(self):
        self._x = np.ones(2 ** 18, np.float32)
        self._y = np.zeros(2 ** 18, np.float32)
        self._big_x = np.ones(2 ** 22, np.float32)
        self._big_y = np.zeros(2 ** 22, np.float32)
        self.slowdown(samples=3)  # first readings fault the arrays in

    def _once(self) -> float:
        t0 = perf_counter()
        total = 0
        for i in range(40000):
            total += i * i
        for _ in range(16):
            np.add(self._x, self._y, out=self._y)
        np.add(self._big_x, self._big_y, out=self._big_y)
        return perf_counter() - t0

    def slowdown(self, samples: int = 1) -> float:
        """Fastest of ``samples`` probe readings over the quiet reference
        (a stall can only lengthen a reading)."""
        return min(self._once() for _ in range(samples)) / REFERENCE_S


class Unit(NamedTuple):
    op: int
    kind: str
    wall_s: float
    #: Probe readings just before and just after the unit.
    before: float
    after: float

    @property
    def slowdown(self) -> float:
        return (self.before + self.after) / 2.0


class UnitTimer:
    """Times units of work, a probe reading between each and the next.

    A workload wraps each unit of its ``op`` in ``unit(kind)``; with
    ``spans`` given (the traced pass) the unit is also recorded as an
    ``"op"`` span.
    """

    def __init__(self, probe: HostSpeedProbe, spans=None):
        self.probe = probe
        self.spans = spans
        self.op = -1
        self.units: List[Unit] = []
        self._reading = probe.slowdown()

    @contextmanager
    def unit(self, kind: str) -> Iterator[None]:
        before = self._reading
        t0 = perf_counter()
        try:
            if self.spans is None:
                yield
            else:
                with self.spans.span("op"):
                    yield
        finally:
            wall_s = perf_counter() - t0
            self._reading = self.probe.slowdown()
            self.units.append(Unit(self.op, kind, wall_s, before,
                                   self._reading))

    def op_wall_s(self) -> List[float]:
        """Plain wall seconds of each op (the sum of its units)."""
        total: Dict[int, float] = {}
        for u in self.units:
            total[u.op] = total.get(u.op, 0.0) + u.wall_s
        return list(total.values())


def lower_quartile(values: List[float]) -> float:
    ordered = sorted(values)
    return ordered[(len(ordered) - 1) // 4]


def reference_ms(units: List[Unit]) -> float:
    """The ``op_ms`` estimate: one op's time at reference host speed.

    Each unit's wall time is divided by the slowdown read around it; an op
    is the sum over its kinds of unit of the lower quartile, over all ops,
    of those times.
    """
    by_kind: Dict[str, List[float]] = {}
    for u in units:
        by_kind.setdefault(u.kind, []).append(u.wall_s / u.slowdown)
    return 1e3 * sum(lower_quartile(v) for v in by_kind.values())
