"""Gist facade: one-call memory-footprint evaluation.

Ties the Schedule Builder to the allocator and the MFR metric so examples
and benches can express each paper experiment in a few lines.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.analysis.sparsity import DEFAULT_SPARSITY_MODEL, SparsityModel
from repro.core.policy import GistConfig
from repro.core.schedule_builder import GistPlan, build_gist_plan
from repro.graph.graph import Graph
from repro.graph.schedule import TrainingSchedule, schedule_of
from repro.memory.allocator import StaticAllocator
from repro.memory.dynamic import simulate_dynamic
from repro.memory.footprint import memory_footprint_ratio
from repro.memory.planner import build_memory_plan


@dataclass(frozen=True)
class MFRReport:
    """Baseline-vs-Gist footprint comparison for one network."""

    model: str
    baseline_bytes: int
    gist_bytes: int

    @property
    def mfr(self) -> float:
        """Memory Footprint Ratio — paper Section V-A."""
        return memory_footprint_ratio(self.baseline_bytes, self.gist_bytes)

    def __str__(self) -> str:
        gib = 1024.0**3
        return (
            f"{self.model}: baseline {self.baseline_bytes / gib:.2f} GiB -> "
            f"gist {self.gist_bytes / gib:.2f} GiB (MFR {self.mfr:.2f}x)"
        )


class Gist:
    """The Gist system: configure once, apply to any training graph.

    Args:
        config: Technique switches; defaults to everything on with FP16
            DPR (the always-safe lossy width).
        sparsity_model: Per-layer sparsity source for SSDC sizing.
    """

    def __init__(
        self,
        config: Optional[GistConfig] = None,
        sparsity_model: Optional[SparsityModel] = None,
    ):
        self.config = config or GistConfig()
        self.sparsity_model = sparsity_model or DEFAULT_SPARSITY_MODEL

    def apply(
        self,
        graph: Graph,
        schedule: Optional[TrainingSchedule] = None,
    ) -> GistPlan:
        """Run the Schedule Builder on ``graph``."""
        return build_gist_plan(
            graph,
            self.config,
            self.sparsity_model,
            schedule=schedule,
        )

    # ------------------------------------------------------------------
    def measure_mfr(
        self,
        graph: Graph,
        dynamic: bool = False,
    ) -> MFRReport:
        """Footprint of baseline vs Gist under one allocation discipline.

        Args:
            graph: Training execution graph.
            dynamic: Use the dynamic-allocation simulator instead of the
                static allocator (Figure 17).
        """
        schedule = schedule_of(graph)
        baseline = build_memory_plan(graph, schedule)
        gist_plan = self.apply(graph, schedule)
        return MFRReport(
            graph.name,
            _plan_bytes(baseline.tensors, schedule, dynamic),
            _plan_bytes(gist_plan.plan.tensors, schedule, dynamic),
        )


def _plan_bytes(tensors, schedule: TrainingSchedule, dynamic: bool) -> int:
    """Bytes a tensor table needs: the dynamic simulator's peak, or the
    static allocator's total."""
    if dynamic:
        return simulate_dynamic(tensors, schedule.num_steps).peak_bytes
    return StaticAllocator().allocate(tensors).total_bytes


def footprint_bytes(
    graph: Graph,
    config: Optional[GistConfig] = None,
    sparsity_model: Optional[SparsityModel] = None,
    dynamic: bool = False,
) -> int:
    """Footprint of ``graph`` under ``config`` (None/disabled = baseline)."""
    schedule = schedule_of(graph)
    if config is None or not (config.any_encoding or config.inplace):
        plan = build_memory_plan(graph, schedule)
    else:
        plan = build_gist_plan(
            graph, config, sparsity_model, schedule=schedule,
        ).plan
    return _plan_bytes(plan.tensors, schedule, dynamic)
