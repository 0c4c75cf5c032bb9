"""Memory subsystem: liveness-driven planning, CNTK-style static sharing
allocation, dynamic-allocation simulation and footprint reporting."""

from repro.memory.allocator import (
    AllocationGroup,
    AllocationResult,
    POLICY_FIRST_FIT,
    POLICY_GREEDY_SIZE,
    POLICY_NO_SHARING,
    StaticAllocator,
)
from repro.memory.dynamic import DynamicResult, simulate_dynamic
from repro.memory.footprint import (
    GiB,
    MiB,
    memory_footprint_ratio,
)
from repro.memory.recompute import (
    RecomputePlan,
    build_recompute_plan,
    chain_forward_flops,
    chain_forward_seconds,
    trunk_nodes,
)
from repro.memory.hybrid import (
    ALL_CHOICES,
    CHOICE_GIST,
    CHOICE_KEEP,
    CHOICE_RECOMPUTE,
    CHOICE_SWAP,
    HybridPlan,
    NON_RECOMPUTABLE_KINDS,
    PlanDecision,
    build_hybrid_plan,
    find_recompute_chain,
)
from repro.memory.planner import (
    ALL_CLASSES,
    CLASS_ENCODED,
    CLASS_GRADIENT,
    CLASS_IMMEDIATE,
    CLASS_SAVED_STATE,
    CLASS_STASHED,
    CLASS_WEIGHT,
    CLASS_WEIGHT_GRAD,
    CLASS_WORKSPACE,
    MemoryPlan,
    build_memory_plan,
)

__all__ = [
    "ALL_CHOICES",
    "ALL_CLASSES",
    "AllocationGroup",
    "AllocationResult",
    "CHOICE_GIST",
    "CHOICE_KEEP",
    "CHOICE_RECOMPUTE",
    "CHOICE_SWAP",
    "CLASS_ENCODED",
    "CLASS_GRADIENT",
    "CLASS_IMMEDIATE",
    "CLASS_SAVED_STATE",
    "CLASS_STASHED",
    "CLASS_WEIGHT",
    "CLASS_WEIGHT_GRAD",
    "CLASS_WORKSPACE",
    "DynamicResult",
    "GiB",
    "HybridPlan",
    "MiB",
    "MemoryPlan",
    "NON_RECOMPUTABLE_KINDS",
    "POLICY_FIRST_FIT",
    "POLICY_GREEDY_SIZE",
    "PlanDecision",
    "RecomputePlan",
    "POLICY_NO_SHARING",
    "StaticAllocator",
    "build_hybrid_plan",
    "build_memory_plan",
    "build_recompute_plan",
    "chain_forward_flops",
    "chain_forward_seconds",
    "find_recompute_chain",
    "trunk_nodes",
    "memory_footprint_ratio",
    "simulate_dynamic",
]
