"""Memory plan: the liveness table a memory allocator consumes.

A :class:`MemoryPlan` bundles the graph, its training schedule and the
liveness table, refines feature maps into *stashed* versus *immediately
consumed* (the distinction at the heart of the paper's Section II), and
knows which tensors participate in each of the paper's two baselines:

* **CNTK baseline** — feature maps, gradient maps and saved state, all
  shareable (weights/weight-gradients/workspace excluded, following the
  paper's Section V-A).
* **Investigation baseline** — identical, except stashed feature maps are
  excluded from memory sharing so each encoding's effect can be read in
  isolation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.graph.graph import Graph
from repro.graph.liveness import (
    LiveTensor,
    ROLE_DECODED,
    ROLE_ENCODED,
    ROLE_FEATURE_MAP,
    ROLE_GRADIENT_MAP,
    ROLE_STATE,
    ROLE_WEIGHT,
    ROLE_WEIGHT_GRAD,
    ROLE_WORKSPACE,
    compute_lifetimes,
)
from repro.graph.schedule import TrainingSchedule, schedule_of

# Refined data-structure classes used in breakdowns (paper Figure 1).
CLASS_WEIGHT = "weights"
CLASS_WEIGHT_GRAD = "weight_gradients"
CLASS_STASHED = "stashed_feature_maps"
CLASS_IMMEDIATE = "immediate_feature_maps"
CLASS_GRADIENT = "gradient_maps"
CLASS_WORKSPACE = "workspace"
CLASS_SAVED_STATE = "saved_state"
CLASS_ENCODED = "encoded"

ALL_CLASSES = [
    CLASS_WEIGHT,
    CLASS_WEIGHT_GRAD,
    CLASS_STASHED,
    CLASS_IMMEDIATE,
    CLASS_GRADIENT,
    CLASS_WORKSPACE,
    CLASS_SAVED_STATE,
    CLASS_ENCODED,
]


@dataclass
class MemoryPlan:
    """A liveness table plus classification, ready for allocation."""

    graph: Graph
    schedule: TrainingSchedule
    tensors: List[LiveTensor] = field(default_factory=list)

    def classify(self, tensor: LiveTensor) -> str:
        """Refined data-structure class of ``tensor``."""
        role = tensor.role
        if role == ROLE_WEIGHT:
            return CLASS_WEIGHT
        if role == ROLE_WEIGHT_GRAD:
            return CLASS_WEIGHT_GRAD
        if role == ROLE_GRADIENT_MAP:
            return CLASS_GRADIENT
        if role == ROLE_WORKSPACE:
            return CLASS_WORKSPACE
        if role == ROLE_STATE:
            return CLASS_SAVED_STATE
        if role == ROLE_ENCODED:
            return CLASS_ENCODED
        if role == ROLE_DECODED:
            return CLASS_IMMEDIATE
        if role == ROLE_FEATURE_MAP:
            if tensor.death >= self.schedule.forward_end:
                return CLASS_STASHED
            return CLASS_IMMEDIATE
        raise ValueError(f"unknown tensor role {role!r}")

    # ------------------------------------------------------------------
    def by_class(self) -> Dict[str, List[LiveTensor]]:
        """Tensors grouped by refined class (all classes present as keys)."""
        groups: Dict[str, List[LiveTensor]] = {c: [] for c in ALL_CLASSES}
        for t in self.tensors:
            groups[self.classify(t)].append(t)
        return groups

    def bytes_by_class(self) -> Dict[str, int]:
        """Raw (unshared) bytes per refined class."""
        return {c: sum(t.size_bytes for t in ts) for c, ts in self.by_class().items()}

    def stashed_feature_maps(self) -> List[LiveTensor]:
        """Feature maps whose last use is in the backward pass."""
        return self.by_class()[CLASS_STASHED]

    def total_bytes(self) -> int:
        """Sum of all tensor sizes with no sharing at all."""
        return sum(t.size_bytes for t in self.tensors)


def build_memory_plan(
    graph: Graph,
    schedule: Optional[TrainingSchedule] = None,
    include_weights: bool = False,
    include_workspace: bool = False,
    investigation: bool = False,
) -> MemoryPlan:
    """Construct the baseline memory plan for a training step.

    Args:
        graph: Training execution graph.
        schedule: Precomputed schedule (built if omitted).
        include_weights: Include weights and weight gradients.  The paper's
            CNTK baseline excludes them; Figure 1's full breakdown includes
            them.
        include_workspace: Include per-op workspace (Figure 1 only).
        investigation: Disallow memory sharing for stashed feature maps
            (the paper's investigation baseline).
    """
    if schedule is None:
        schedule = schedule_of(graph)
    tensors = compute_lifetimes(
        graph,
        schedule,
        include_weights=include_weights,
        include_workspace=include_workspace,
    )
    plan = MemoryPlan(graph, schedule, tensors)
    if investigation:
        for t in plan.tensors:
            if plan.classify(t) == CLASS_STASHED:
                t.shareable = False
    return plan
