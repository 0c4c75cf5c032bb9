"""Recompute (activation checkpointing) baseline — paper Section II-B.

Instead of stashing a feature map, recompute it in the backward pass from
the nearest upstream *checkpoint* (Chen et al.'s sqrt(N) strategy [4],
the MxNet approach the paper discusses).  The paper's argument for Gist
over recomputation: "the largest layers are usually the ones that also
take the longest to recompute", so checkpointing trades memory for
significant time, while Gist's codecs are cheap bandwidth passes.

This module implements segment checkpointing for the *trunk* of a
training graph (the dominant chain through the DAG):

* every ``segment_length``-th trunk feature map is a checkpoint and keeps
  its baseline (stashed) lifetime;
* other trunk maps are dropped after their last forward use and
  re-materialised segment-by-segment during the backward pass — modelled
  as a short-lived segment buffer plus the segment's forward FLOPs run a
  second time.

It exists as a *comparison baseline*: the recompute bench pits it against
Gist on both footprint and step-time overhead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, TYPE_CHECKING, Tuple

from repro.graph.graph import Graph
from repro.graph.liveness import ROLE_FEATURE_MAP, feature_map_last_uses
from repro.graph.schedule import TrainingSchedule
from repro.memory.planner import CLASS_STASHED, MemoryPlan, build_memory_plan

if TYPE_CHECKING:  # pragma: no cover
    from repro.perf.cost import CostModel


@dataclass(frozen=True)
class RecomputePlan:
    """A rewritten plan plus the cost of the re-executed forward work."""

    plan: MemoryPlan
    checkpoints: Tuple[int, ...]
    recomputed: Tuple[int, ...]
    extra_forward_flops: int

    def overhead_frac(self, graph: Graph,
                      cost: "Optional[CostModel]" = None) -> float:
        """Step-time overhead of re-running the recomputed segments.

        Prices the re-executed forward FLOPs (whole segments, convolutions
        included) against the baseline step on the same device model.
        """
        from repro.perf.cost import CostModel  # local: avoids memory<->perf cycle

        cost = cost or CostModel()
        base = cost.step_time(graph).total_s
        minibatch = graph.node(graph.input_id).output_shape[0]
        dev = cost.device
        extra = self.extra_forward_flops / (
            dev.peak_flops * dev.compute_efficiency * dev.occupancy(minibatch)
        )
        return extra / base


def chain_forward_flops(graph: Graph, node_ids) -> int:
    """Total forward FLOPs of re-executing ``node_ids`` in order.

    The shared cost-accounting primitive of both recompute planners: the
    segment checkpointer below re-runs whole trunk segments, the hybrid
    planner (:mod:`repro.memory.hybrid`) re-runs per-tensor ancestor
    chains.  Either way the price is the sum of the member ops' forward
    FLOPs — convolutions included, which is the paper's Section II-B
    argument against recomputation.
    """
    total = 0
    for node_id in node_ids:
        node = graph.node(node_id)
        total += node.layer.flops(node.input_shapes(graph), node.output_shape)
    return total


def chain_forward_seconds(graph: Graph, node_ids,
                          cost: "Optional[CostModel]" = None) -> float:
    """Modeled wall-clock of re-executing ``node_ids``' forward kernels.

    Unlike :func:`chain_forward_flops` this includes each kernel's memory
    traffic and launch overhead, so short chains of cheap bandwidth-bound
    ops (ReLU, pool) are not priced at zero.
    """
    from repro.perf.cost import CostModel  # local: avoids memory<->perf cycle

    cost = cost or CostModel()
    return sum(
        cost.forward_time(graph, graph.node(node_id)) for node_id in node_ids
    )


def trunk_nodes(graph: Graph) -> List[int]:
    """The dominant sequential chain: nodes with exactly one input whose
    producer they alone consume, starting from the graph input."""
    chain = [graph.input_id]
    current = graph.input_id
    while True:
        consumers = graph.consumers(current)
        if len(consumers) != 1:
            break
        nxt = consumers[0]
        if len(nxt.inputs) != 1:
            break
        chain.append(nxt.node_id)
        current = nxt.node_id
    return chain


def build_recompute_plan(
    graph: Graph,
    segment_length: Optional[int] = None,
    schedule: Optional[TrainingSchedule] = None,
) -> RecomputePlan:
    """Apply sqrt(N) segment checkpointing to the graph's trunk.

    Args:
        graph: Training graph (works best on chain-shaped networks —
            AlexNet/OverFeat/VGG16; DAG branches are left stashed).
        segment_length: Trunk maps per checkpoint segment; defaults to
            ``ceil(sqrt(trunk length))``.
        schedule: Precomputed schedule (built if omitted).
    """
    if schedule is None:
        schedule = TrainingSchedule(graph)
    plan = build_memory_plan(graph, schedule)
    trunk = trunk_nodes(graph)
    if segment_length is None:
        segment_length = max(1, math.isqrt(len(trunk)))
    if segment_length < 1:
        raise ValueError(f"segment_length must be >= 1, got {segment_length}")

    stashed_ids = {
        t.node_id
        for t in plan.tensors
        if t.role == ROLE_FEATURE_MAP and plan.classify(t) == CLASS_STASHED
    }
    # Checkpoints: every segment_length-th trunk position.  The maps in
    # between form segments that are re-materialised together when the
    # backward pass enters the segment.
    checkpoints: List[int] = []
    segments: List[List[int]] = []       # stashed maps to drop, per segment
    segment_all: List[List[int]] = []    # every trunk op re-run, per segment
    for position, node_id in enumerate(trunk):
        if position % segment_length == 0:
            if node_id in stashed_ids:
                checkpoints.append(node_id)
            segments.append([])
            segment_all.append([])
        else:
            if not segments:
                segments.append([])
                segment_all.append([])
            segment_all[-1].append(node_id)
            if node_id in stashed_ids:
                segments[-1].append(node_id)

    extra_flops = 0
    recomputed: List[int] = []
    fm_by_node = {
        t.node_id: t for t in plan.tensors if t.role == ROLE_FEATURE_MAP
    }
    for segment, whole_segment in zip(segments, segment_all):
        if not segment:
            continue
        # Re-materialising any map in the segment re-executes the whole
        # sub-chain from the checkpoint — convolutions included.  This is
        # the cost the paper's Section II-B points at: "the largest layers
        # are usually the ones that also take the longest to recompute".
        extra_flops += chain_forward_flops(graph, whole_segment)
        # The backward pass enters a segment at the *deepest* member's
        # backward op (reverse-topological order); all segment maps are
        # re-materialised there and live until their own last use.
        entry = min(schedule.backward_time(nid) for nid in segment
                    if schedule.has_backward(nid))
        for node_id in segment:
            tensor = fm_by_node[node_id]
            last_fwd, _, _ = feature_map_last_uses(graph, schedule, node_id)
            original_death = tensor.death
            if original_death <= last_fwd:
                continue  # was not actually stashed
            tensor.death = last_fwd  # dropped after the forward pass
            rebuilt = type(tensor)(
                tensor.spec.with_dtype(tensor.spec.dtype, ".recomp"),
                birth=min(entry, original_death),
                death=original_death,
                node_id=node_id,
                role=ROLE_FEATURE_MAP,
            )
            plan.tensors.append(rebuilt)
            recomputed.append(node_id)

    return RecomputePlan(
        plan, tuple(sorted(checkpoints)), tuple(recomputed), extra_flops
    )
