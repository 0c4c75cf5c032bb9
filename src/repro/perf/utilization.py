"""Minibatch-fitting and throughput model (paper Figure 16).

Gist's footprint reduction lets a deeper network fit a larger minibatch in
the same 12 GB card.  Larger minibatches speed training two ways, both in
the cost model: per-kernel launch overhead is amortised over more images,
and occupancy improves.  For very deep, thin networks (ResNet-1202 has
~2400 kernels per step) the fixed-overhead amortisation dominates —
exactly the regime where the paper reports a 22% speedup.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.analysis.sparsity import SparsityModel
from repro.core.policy import GistConfig
from repro.core.schedule_builder import build_gist_plan
from repro.graph.graph import Graph
from repro.memory.allocator import StaticAllocator
from repro.memory.planner import build_memory_plan
from repro.perf.cost import CostModel
from repro.perf.device import DeviceSpec, TITAN_X_MAXWELL

GraphFactory = Callable[[int], Graph]


def training_footprint_bytes(
    graph: Graph,
    config: Optional[GistConfig] = None,
    sparsity_model: Optional[SparsityModel] = None,
) -> int:
    """Total training footprint: activations plan + optimiser state.

    Weights and weight gradients ride in the plan; SGD-with-momentum adds
    one more weight-sized buffer.
    """
    if config is None:
        plan = build_memory_plan(graph, include_weights=True)
        tensors = plan.tensors
    else:
        gist = build_gist_plan(graph, config, sparsity_model,
                               include_weights=True)
        tensors = gist.plan.tensors
    footprint = StaticAllocator().allocate(tensors).total_bytes
    momentum = 4 * graph.num_parameters()
    return footprint + momentum


def max_minibatch(
    factory: GraphFactory,
    config: Optional[GistConfig] = None,
    sparsity_model: Optional[SparsityModel] = None,
    device: DeviceSpec = TITAN_X_MAXWELL,
    upper: int = 2048,
) -> int:
    """Largest minibatch whose training footprint fits device memory.

    Args:
        factory: ``minibatch -> Graph`` builder.
        config: Gist configuration, or ``None`` for the baseline.
        sparsity_model: SSDC sparsity source.
        device: Memory budget provider.
        upper: Search ceiling.

    Returns:
        The largest fitting minibatch (0 if even minibatch 1 does not fit).
    """
    return _last_fitting(_fits(factory, config, sparsity_model, device),
                         1, 1, upper)


def _fits(factory: GraphFactory, config, sparsity_model,
          device: DeviceSpec) -> Callable[[int], bool]:
    """Predicate: does ``factory(n)``'s training footprint fit ``device``?"""
    def fits(n: int) -> bool:
        graph = factory(n)
        return (training_footprint_bytes(graph, config, sparsity_model)
                <= device.memory_bytes)
    return fits


def _last_fitting(fits: Callable[[int], bool], first: int, step: int,
                  upper: int) -> int:
    """Last value of ``first, first + step, ...`` (at most ``upper``)
    that ``fits``, for a predicate true up to a boundary and false past
    it; 0 when ``first`` does not fit.

    Gallops up in doubling index steps, then bisects the boundary index:
    deep graphs are expensive to plan, so evaluations are precious.
    """
    if not fits(first):
        return 0
    max_index = (upper - first) // step

    def value_at(index: int) -> int:
        return first + index * step

    lo = 0
    jump = 1
    while lo + jump <= max_index and fits(value_at(lo + jump)):
        lo += jump
        jump *= 2
    hi = min(lo + jump, max_index + 1)  # first known-or-assumed failure
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if fits(value_at(mid)):
            lo = mid
        else:
            hi = mid
    return value_at(lo)


def throughput_images_per_s(graph: Graph, cost: Optional[CostModel] = None) -> float:
    """Training throughput at the graph's built-in minibatch size."""
    cost = cost or CostModel()
    batch = graph.node(graph.input_id).output_shape[0]
    return batch / cost.step_time(graph).total_s


@dataclass(frozen=True)
class SpeedupReport:
    """Figure 16 row: larger-minibatch speedup enabled by Gist."""

    model: str
    baseline_batch: int
    gist_batch: int
    baseline_throughput: float
    gist_throughput: float

    @property
    def speedup(self) -> float:
        """Throughput ratio Gist / baseline."""
        return self.gist_throughput / self.baseline_throughput


def larger_minibatch_speedup(
    factory: GraphFactory,
    config: Optional[GistConfig] = None,
    sparsity_model: Optional[SparsityModel] = None,
    device: DeviceSpec = TITAN_X_MAXWELL,
    cost: Optional[CostModel] = None,
    name: str = "",
) -> SpeedupReport:
    """Max-fitting-minibatch throughput, baseline vs Gist (Figure 16)."""
    cost = cost or CostModel(device)
    config = config or GistConfig()
    base_batch = max_minibatch(factory, None, sparsity_model, device)
    gist_batch = max_minibatch(factory, config, sparsity_model, device)
    if base_batch == 0:
        raise ValueError("model does not fit device memory at minibatch 1")
    base_graph = factory(base_batch)
    gist_graph = factory(gist_batch)
    return SpeedupReport(
        name or base_graph.name,
        base_batch,
        gist_batch,
        throughput_images_per_s(base_graph, cost),
        throughput_images_per_s(gist_graph, cost),
    )


def deepest_trainable(
    depth_factory: Callable[[int], Graph],
    config: Optional[GistConfig] = None,
    sparsity_model: Optional[SparsityModel] = None,
    device: DeviceSpec = TITAN_X_MAXWELL,
    start: int = 8,
    stride: int = 96,
    upper: int = 10_000,
) -> int:
    """Deepest network (by the factory's depth parameter) fitting memory.

    Scans ``start, start+stride, ...`` and returns the last depth whose
    training footprint fits the device — the paper's "train a network
    twice as deep" headline, quantified.

    Args:
        depth_factory: ``depth -> Graph`` builder (e.g. a fixed-minibatch
            ``resnet_cifar`` closure).
        config: Gist configuration, or ``None`` for the baseline.
        sparsity_model: SSDC sparsity source.
        device: Memory budget provider.
        start: First depth probed (must fit, else 0 is returned).
        stride: Depth increment between probes.
        upper: Scan ceiling.
    """
    if start < 1 or stride < 1:
        raise ValueError("start and stride must be positive")
    return _last_fitting(
        _fits(depth_factory, config, sparsity_model, device),
        start, stride, upper)
