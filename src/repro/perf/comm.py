"""Communication-time model for data-parallel replicas.

Prices the pairwise-tree all-reduce (:mod:`repro.distributed.allreduce`)
with the same link model the swap/prefetch analyses use:
:meth:`CostModel.transfer_time` over the *measured* bytes-on-wire of the
encoded gradients.  Compression therefore shows up exactly where the
paper's compressing-DMA argument says it should — fewer bytes, shorter
rounds, a smaller serial fraction next to the per-shard compute time.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.perf.cost import CostModel


class CommModel:
    """Analytical wire timing for the fixed pairwise-tree all-reduce."""

    def __init__(self, cost: Optional[CostModel] = None):
        self.cost = cost or CostModel()

    def transfer_s(self, nbytes: float) -> float:
        """One point-to-point message over the link."""
        return self.cost.transfer_time(nbytes)

    def allreduce_s(self, shard_wire_bytes: Sequence[float]) -> float:
        """Tree all-reduce latency over per-shard encoded gradient sizes.

        Each tree round merges index pairs ``(0,1), (2,3), ...``; the
        transfers within a round run in parallel, so the round costs the
        slowest pair's message.  A merged node's payload is modelled as
        the larger of its two inputs (summing gradients cannot shrink the
        support the codec keeps).  An odd tail passes through for free.
        """
        level = [float(b) for b in shard_wire_bytes]
        if not level:
            raise ValueError("allreduce needs at least one shard")
        total = 0.0
        while len(level) > 1:
            merged = []
            round_s = 0.0
            for i in range(0, len(level) - 1, 2):
                round_s = max(round_s, self.transfer_s(level[i + 1]))
                merged.append(max(level[i], level[i + 1]))
            if len(level) % 2:
                merged.append(level[-1])
            total += round_s
            level = merged
        return total
