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
    horizon = horizon or (max(t.death for t in tensors) + 1)
    deltas: List[int] = [0] * (horizon + 1)
    for t in tensors:
        if t.death >= horizon:
            raise ValueError(
                f"tensor {t.spec.name!r} dies at {t.death}, beyond horizon {horizon}"
            )
        deltas[t.birth] += t.size_bytes
        deltas[t.death + 1] -= t.size_bytes
    timeline: List[int] = []
    live = 0
    for t_idx in range(horizon):
        live += deltas[t_idx]
        timeline.append(live)
    peak = max(timeline)
    return DynamicResult(peak, timeline.index(peak), tuple(timeline))
