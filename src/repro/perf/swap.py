"""CPU-GPU swapping baselines: naive swap and vDNN (paper Figure 15).

vDNN [Rhu et al., MICRO'16] offloads stashed feature maps to host memory
over PCIe after their forward use and prefetches them before their
backward use.  We reproduce it with an event simulation: a single DMA
engine serialises transfers; compute and DMA overlap; the step stalls
whenever the engine falls behind the compute timeline.

* **Naive swapping** — no overlap at all: every offload and prefetch adds
  its full transfer time (paper: ~30% average slowdown).
* **vDNN** — offloads overlap the forward pass, prefetches overlap the
  backward pass; residual stalls remain where PCIe bandwidth cannot keep
  up with compute (paper: ~15% average, up to 27% on Inception).
* **CDMA** — vDNN's pipeline, each map zero-value compressed on the link.
* **Gist** keeps everything on-device and pays only codec bandwidth.

All three swap arms, and the hybrid planner's stall calibration, run
one event loop, :func:`_simulate`, over a list of transfers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.analysis.sparsity import DEFAULT_SPARSITY_MODEL
from repro.encodings.ssdc import bitmap_bytes
from repro.graph.graph import Graph
from repro.graph.liveness import ROLE_FEATURE_MAP, LiveTensor
from repro.graph.schedule import FORWARD
from repro.memory.planner import CLASS_STASHED, MemoryPlan, build_memory_plan
from repro.perf.cost import CostModel, StepTime


@dataclass(frozen=True)
class SwapReport:
    """Step-time impact of a swapping strategy on one network."""

    model: str
    baseline_s: float
    naive_s: float
    vdnn_s: float

    @property
    def naive_overhead(self) -> float:
        """Relative slowdown of naive (synchronous) swapping."""
        return self.naive_s / self.baseline_s - 1.0

    @property
    def vdnn_overhead(self) -> float:
        """Relative slowdown of vDNN's prefetch-overlapped swapping."""
        return self.vdnn_s / self.baseline_s - 1.0


#: vDNN's offload policy targets the inputs of convolutional (and, in our
#: generalisation, dense) layers — the large, long-lived stashes.
_OFFLOAD_CONSUMER_KINDS = {"conv", "dense"}


def _offloaded_maps(plan: MemoryPlan) -> List[LiveTensor]:
    """The conv/dense-input stashes of a baseline plan: what vDNN moves."""
    offloadable = {src for node in plan.graph.nodes
                   if node.kind in _OFFLOAD_CONSUMER_KINDS
                   and node.layer.backward_needs_input
                   for src in node.inputs}
    return [t for t in plan.tensors
            if t.role == ROLE_FEATURE_MAP
            and plan.classify(t) == CLASS_STASHED
            and t.node_id in offloadable]


def _stashed_transfers(plan: MemoryPlan) -> List[Tuple[int, int, int]]:
    """(producer forward t, consumer backward t, bytes) per offloaded map."""
    return [(t.birth, t.death, t.size_bytes) for t in _offloaded_maps(plan)]


def _cdma_transfers(plan: MemoryPlan) -> List[Tuple[int, int, int]]:
    """:func:`_stashed_transfers` under CDMA's zero-value compression: a
    1-bit mask plus 4 B per non-zero, at the selector's sparsity model.
    A map that would expand is sent raw."""
    return [(t.birth, t.death, min(t.size_bytes, bitmap_bytes(
                t.spec.num_elements,
                DEFAULT_SPARSITY_MODEL.sparsity(plan.graph, t.node_id))))
            for t in _offloaded_maps(plan)]


def simulate_swapping(
    graph: Graph,
    cost: Optional[CostModel] = None,
) -> SwapReport:
    """Event-simulate naive swapping and vDNN against the in-GPU baseline.

    The compute timeline is ``cost.step_time(graph)``; the transfers are
    the conv/dense-input stashes of the graph's baseline memory plan.
    """
    cost = cost or CostModel()
    plan = build_memory_plan(graph)
    return _simulate(cost, cost.step_time(graph), plan,
                     _stashed_transfers(plan))


def _simulate(cost: CostModel, step: StepTime, plan: MemoryPlan,
              transfers: List[Tuple[int, int, int]]) -> SwapReport:
    """The swap event loop: ``step`` is ``cost.step_time(plan.graph)``
    (the compute timeline), ``plan`` the graph's baseline memory plan
    (read, never modified), ``transfers`` the (birth, death, bytes) of
    each map moved; ``cost`` prices the PCIe transfers."""
    schedule = plan.schedule
    baseline_s = step.total_s

    total_bytes = sum(b for _, _, b in transfers)
    naive_s = baseline_s + 2.0 * cost.transfer_time(total_bytes)

    # --- vDNN forward: offloads overlap compute, single DMA engine -------
    # Compute time of each scheduled op, indexed by schedule time.
    op_time = [
        (step.per_node_forward if op.phase == FORWARD
         else step.per_node_backward)[op.node_id]
        for op in schedule.ops
    ]

    # Offload each stashed map when its producer's forward op completes.
    # vDNN double-buffers offloads: a producer whose output must be
    # offloaded stalls until the *previous* offload has drained (the freed
    # memory is what makes the strategy viable), giving a one-deep
    # transfer/compute pipeline in the forward direction too.
    offload_bytes: dict = {}
    for birth_t, _, nbytes in transfers:
        offload_bytes[birth_t] = offload_bytes.get(birth_t, 0) + nbytes
    now = 0.0
    dma_free = 0.0
    prev_offload_done = 0.0
    for idx in range(schedule.forward_end):
        if idx in offload_bytes:
            now = max(now, prev_offload_done)
        now += op_time[idx]
        if idx in offload_bytes:
            dma_free = max(dma_free, now) + cost.transfer_time(
                offload_bytes[idx]
            )
            prev_offload_done = dma_free
    forward_end = max(now, dma_free)

    # Prefetch with vDNN's one-layer-ahead pipeline: the transfer for the
    # next needing op is issued when the current needing op starts, so each
    # transfer can hide behind at most the intervening compute.  Residual
    # stalls appear wherever a map's transfer outlasts that window — the
    # source of vDNN's ~15% average overhead in the paper.
    needs_bytes: dict = {}
    for _, death_t, nbytes in transfers:
        needs_bytes[death_t] = needs_bytes.get(death_t, 0) + nbytes
    now = forward_end
    dma_free = forward_end
    issue_time = forward_end  # start of the previously needing op
    for idx in range(schedule.forward_end, schedule.num_steps):
        if idx in needs_bytes:
            dma_free = max(dma_free, issue_time) + cost.transfer_time(
                needs_bytes[idx]
            )
            now = max(now, dma_free)
            issue_time = now
        now += op_time[idx]
    vdnn_s = now

    # Guard: vDNN can never beat the no-swap baseline or lose to naive.
    vdnn_s = min(max(vdnn_s, baseline_s), naive_s)
    return SwapReport(plan.graph.name, baseline_s, naive_s, vdnn_s)


def simulate_cdma(
    graph: Graph,
    cost: Optional[CostModel] = None,
) -> SwapReport:
    """CDMA-style swapping [42]: vDNN's pipeline, each map zero-value
    compressed on the link (:func:`_cdma_transfers`), exploiting the ReLU
    sparsity SSDC uses.  ``vdnn_s`` holds the CDMA time; ``naive_s`` is
    the uncompressed naive swap, for reference."""
    cost = cost or CostModel()
    # The link load is the only difference, so both runs share one step
    # timing and one liveness table.
    step, plan = cost.step_time(graph), build_memory_plan(graph)
    base = _simulate(cost, step, plan, _stashed_transfers(plan))
    cdma = _simulate(cost, step, plan, _cdma_transfers(plan))
    return SwapReport(graph.name, base.baseline_s, base.naive_s, cdma.vdnn_s)
