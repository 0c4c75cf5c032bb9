"""Encode/decode overhead model for Gist (Figures 9 and 11).

Every Gist codec is a bandwidth-bound streaming kernel, priced once per
decision by the Schedule Builder (``PlanDecision.cost_s``, see
:func:`repro.core.schedule_builder._gist_option`); this module sums those
prices per technique and adds the plan-level pool-rewrite credit:

* **Binarize** — the encode pass reads the FP32 map and writes 1 bit per
  element; afterwards ReLU's backward kernel reads the 1-bit mask instead
  of the FP32 map and the pool's backward reads the 4-bit argmax map
  instead of its X and Y maps.  Net effect: a small *speedup* (the paper
  observes the same, attributing it to higher effective bandwidth in the
  memory-bound ReLU backward).
* **SSDC** — dense↔CSR conversions (cuSPARSE-style) touch the dense map
  plus the CSR arrays with imperfect streaming efficiency; modelled with a
  conversion-inefficiency factor.
* **DPR** — a pure pack/unpack pass; "being very parallel, has minimal
  performance overhead" (~1% in the paper).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.analysis.sparsity import SparsityModel
from repro.core.policy import GistConfig
from repro.core.schedule_builder import (
    ENC_BINARIZE,
    ENC_DPR,
    ENC_SSDC,
    select_table_i,
)
from repro.graph.graph import Graph
from repro.memory.hybrid import PlanDecision, PlanRecord, rewritten_pools
from repro.perf.cost import CostModel


@dataclass(frozen=True)
class OverheadReport:
    """Step-time impact of a Gist configuration on one network."""

    model: str
    baseline_s: float
    gist_s: float
    per_technique_s: Dict[str, float]

    @property
    def overhead_frac(self) -> float:
        """Relative slowdown; negative values are speedups."""
        return self.gist_s / self.baseline_s - 1.0


def encoding_time_delta(
    plan: PlanRecord, cost: CostModel
) -> Dict[str, float]:
    """Per-technique wall-clock delta (seconds) for one training step:
    the plan's own decision prices (``PlanDecision.cost_s``, the number
    the budgeted planner ranks by) summed per technique, plus the
    plan-level pool-rewrite credit priced with ``cost``."""
    return _technique_deltas(plan.graph, plan.decisions,
                             plan.rewritten_pools, cost)


def _technique_deltas(graph: Graph, decisions: Dict[int, PlanDecision],
                      pools: Tuple[int, ...],
                      cost: CostModel) -> Dict[str, float]:
    deltas = {ENC_BINARIZE: 0.0, ENC_SSDC: 0.0, ENC_DPR: 0.0}
    for decision in decisions.values():
        deltas[decision.encoding] += decision.cost_s
    # The pool argmax rewrite: backward reads the 4-bit map instead of the
    # stashed X and Y maps.
    for pool_id in pools:
        node = graph.node(pool_id)
        out_elems = math.prod(node.output_shape)
        in_elems = math.prod(graph.node(node.inputs[0]).output_shape)
        baseline_read = 4.0 * (in_elems + out_elems)
        map_read = 0.5 * out_elems
        deltas[ENC_BINARIZE] -= cost.copy_time(baseline_read - map_read)
    return deltas


def measure_overhead(
    graph: Graph,
    config: Optional[GistConfig] = None,
    sparsity_model: Optional[SparsityModel] = None,
    cost: Optional[CostModel] = None,
) -> OverheadReport:
    """Baseline vs Gist step time for one network.

    Prices the Table-I selection (:func:`~repro.core.schedule_builder.
    select_table_i`) and the rewritten pools (:func:`~repro.memory.hybrid.
    rewritten_pools`) without building a liveness table.  ``cost`` prices
    the baseline step and the pool-rewrite credit; the decisions carry
    the price they were selected with (the default Titan X
    :class:`CostModel`).
    """
    config = config or GistConfig()
    cost = cost or CostModel()
    base = cost.step_time(graph).total_s
    deltas = _technique_deltas(
        graph, select_table_i(graph, config, sparsity_model),
        rewritten_pools(graph, config), cost)
    gist = base + sum(deltas.values())
    return OverheadReport(graph.name, base, gist, deltas)
