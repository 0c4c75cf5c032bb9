"""Recompute (activation checkpointing) baseline — paper Section II-B.

Instead of stashing a feature map, recompute it in the backward pass from
the nearest upstream *checkpoint* (Chen et al.'s sqrt(N) strategy [4],
the MxNet approach the paper discusses).  The paper's argument for Gist
over recomputation: "the largest layers are usually the ones that also
take the longest to recompute", so checkpointing trades memory for
significant time, while Gist's codecs are cheap bandwidth passes.

This module implements segment checkpointing for the *trunk* of a
training graph (the dominant chain through the DAG) as one more selector
over the plan IR of :mod:`repro.memory.hybrid`:

* every ``segment_length``-th trunk feature map is a checkpoint and keeps
  its FP32 map — live until the last map of its segment has been
  rebuilt, even where the baseline would have freed it in the forward
  pass;
* every other stashed trunk map (the loss output excepted) gets a
  ``recompute`` :class:`~repro.memory.hybrid.PlanDecision` whose
  ``source_id`` is its segment's checkpoint and whose ``chain`` is the
  trunk from there to the map; :func:`~repro.memory.hybrid.apply_decisions` turns the table
  into lifetimes (the map dies after its last forward use, a rebuilt
  copy spans its backward reads, the replayed chain's intermediates are
  charged as scratch);
* the time price is the segment's forward FLOPs run a second time.

It exists as a *comparison baseline*: the recompute bench pits it against
Gist on both footprint and step-time overhead.  The tables are priced,
not executed — trunk segments cross dropout, which a bit-exact replay
cannot re-run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, TYPE_CHECKING, Tuple

from repro.graph.graph import Graph
from repro.graph.liveness import feature_map_uses
from repro.graph.schedule import TrainingSchedule, schedule_of
from repro.memory.hybrid import (
    CHOICE_RECOMPUTE,
    PlanRecord,
    _drop_option,
    apply_decisions,
)
from repro.memory.planner import build_memory_plan

if TYPE_CHECKING:  # pragma: no cover
    from repro.perf.cost import CostModel


@dataclass
class RecomputePlan(PlanRecord):
    """A rewritten plan plus the cost of the re-executed forward work."""

    checkpoints: Tuple[int, ...]
    extra_forward_flops: int

    @property
    def recomputed(self) -> Tuple[int, ...]:
        """Ids of the trunk maps dropped and rebuilt, in trunk order."""
        return tuple(self.decisions)

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
    per_node = cost.step_time(graph).per_node_forward
    return sum(per_node[node_id] for node_id in node_ids)


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
    # local: memory<->core cycle (core's selectors import memory.hybrid)
    from repro.core.analysis import classify_all_stashes
    from repro.core.policy import GistConfig

    if schedule is None:
        schedule = schedule_of(graph)
    trunk = trunk_nodes(graph)
    if segment_length is None:
        segment_length = max(1, math.isqrt(len(trunk)))
    if segment_length < 1:
        raise ValueError(f"segment_length must be >= 1, got {segment_length}")

    cfg = GistConfig.disabled()
    uses = feature_map_uses(graph, schedule, False)
    stash_infos = classify_all_stashes(graph, schedule)
    checkpoints: List[int] = []
    decisions = {}
    extra_flops = 0
    # Every segment_length-th trunk map heads a segment and is its
    # checkpoint; the stashed maps behind it are dropped and rebuilt by
    # re-running the trunk from the checkpoint.
    for start in range(0, len(trunk), segment_length):
        head, *body = trunk[start:start + segment_length]
        if uses[head][1] is not None:
            checkpoints.append(head)
        # Positions (1-based) of the stashed maps behind the checkpoint —
        # but never the loss output, which only seeds the backward pass
        # and whose op no replay may re-run.
        dropped = [depth for depth, nid in enumerate(body, start=1)
                   if uses[nid][1] is not None and nid != graph.output_id]
        if dropped:
            # Re-materialising any map in the segment re-executes the
            # whole sub-chain from the checkpoint — convolutions included.
            # This is the cost the paper's Section II-B points at: "the
            # largest layers are usually the ones that also take the
            # longest to recompute".
            extra_flops += chain_forward_flops(graph, body)
        for depth in dropped:
            chain = tuple(body[:depth])
            node = graph.node(chain[-1])
            decisions[node.node_id] = _drop_option(
                node, stash_infos[node.node_id].stash_class,
                4 * math.prod(node.output_shape), CHOICE_RECOMPUTE,
                chain_forward_seconds(graph, chain), head, chain,
            )

    plan = build_memory_plan(graph, schedule)
    pools = apply_decisions(plan, uses, decisions, cfg)
    return RecomputePlan(graph, schedule, plan, cfg, decisions, pools,
                         tuple(sorted(checkpoints)), extra_flops)
