"""Dynamic-allocation simulator (paper Section V-H).

Under dynamic allocation, a region exists only while its tensor is live,
so the footprint is the *peak* of the sum of live sizes over the schedule.
The paper uses this to ask how much headroom remains if hardware made
``cudaMalloc`` free — and shows Gist still composes with it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.graph.liveness import LiveTensor


@dataclass(frozen=True)
class DynamicResult:
    """Peak footprint and the time step at which it occurs."""

    peak_bytes: int
    peak_time: int
    timeline: Tuple[int, ...]


def simulate_dynamic(tensors: Sequence[LiveTensor], horizon: int = 0) -> DynamicResult:
    """Peak live bytes assuming allocate-at-birth / free-after-death.

    Args:
        tensors: Liveness table.
        horizon: Schedule length (inferred if omitted).
    """
    if not tensors:
        return DynamicResult(0, 0, ())
    # An inverted interval (a corrupted table; LiveTensor only validates
    # at construction) occupies its birth step, as in StaticAllocator, so
    # the static and dynamic totals of one table stay comparable.
    ends = [max(t.death, t.birth) for t in tensors]
    horizon = horizon or (max(ends) + 1)
    deltas: List[int] = [0] * (horizon + 1)
    for t, end in zip(tensors, ends):
        if end >= horizon:
            raise ValueError(
                f"tensor {t.spec.name!r} dies at {end}, beyond horizon {horizon}"
            )
        deltas[t.birth] += t.size_bytes
        deltas[end + 1] -= t.size_bytes
    timeline: List[int] = []
    live = 0
    for t_idx in range(horizon):
        live += deltas[t_idx]
        timeline.append(live)
    peak = max(timeline)
    return DynamicResult(peak, timeline.index(peak), tuple(timeline))
