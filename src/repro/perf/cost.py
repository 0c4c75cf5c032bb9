"""Per-op and per-step analytical timing.

Each kernel is modelled as ``max(compute_time, memory_time) + launch``,
the standard roofline form.  Backward kernels of parameterised layers
(conv/dense) perform roughly twice the forward work (one GEMM each for
the data gradient and the weight gradient); elementwise/pool layers are
bandwidth-bound in both directions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Dict, Mapping, Tuple

from repro.graph.graph import Graph
from repro.graph.node import OpNode
from repro.perf.device import DeviceSpec, TITAN_X_MAXWELL

#: Layer kinds whose backward pass costs ~2x their forward FLOPs.
_PARAM_KINDS = {"conv", "dense"}


@dataclass(frozen=True)
class StepTime:
    """Timing breakdown of one training step.

    The per-node tables are read-only views: one ``StepTime`` per graph
    and device is shared by every caller of :meth:`CostModel.step_time`.
    """

    forward_s: float
    backward_s: float
    per_node_forward: Mapping[int, float]
    per_node_backward: Mapping[int, float]

    def __post_init__(self) -> None:
        for name in ("per_node_forward", "per_node_backward"):
            object.__setattr__(self, name,
                               MappingProxyType(dict(getattr(self, name))))

    @property
    def total_s(self) -> float:
        """Forward + backward wall-clock."""
        return self.forward_s + self.backward_s


class CostModel:
    """Analytical GPU kernel timing for a training graph."""

    def __init__(self, device: DeviceSpec = TITAN_X_MAXWELL):
        self.device = device

    # ------------------------------------------------------------------
    def _kernel_time(self, flops: float, nbytes: float, minibatch: int) -> float:
        dev = self.device
        compute = flops / (
            dev.peak_flops * dev.compute_efficiency * dev.occupancy(minibatch)
        )
        memory = nbytes / dev.mem_bandwidth
        return max(compute, memory) + dev.kernel_overhead

    def forward_time(self, graph: Graph, node: OpNode) -> float:
        """Forward kernel time for one op, seconds (read from
        :meth:`step_time`)."""
        return self.step_time(graph).per_node_forward[node.node_id]

    def backward_time(self, graph: Graph, node: OpNode) -> float:
        """Backward kernel time for one op, seconds (read from
        :meth:`step_time`)."""
        return self.step_time(graph).per_node_backward[node.node_id]

    # ------------------------------------------------------------------
    def step_time(self, graph: Graph) -> StepTime:
        """One full minibatch (forward + backward), seconds.

        Priced once per graph, model class and device.
        """
        return graph.derived(("step_time", type(self), self.device),
                             lambda: self._price_step(graph))

    def _price_step(self, graph: Graph) -> StepTime:
        per_f: Dict[int, float] = {}
        per_b: Dict[int, float] = {}
        for node in graph.nodes:
            per_f[node.node_id], per_b[node.node_id] = self._price_node(
                graph, node)
        return StepTime(sum(per_f.values()), sum(per_b.values()), per_f, per_b)

    def _price_node(self, graph: Graph, node: OpNode) -> Tuple[float, float]:
        """(forward, backward) kernel time of one op, seconds: its FLOPs
        and I/O bytes, counted once for both directions."""
        if node.kind == "input":
            return 0.0, 0.0
        minibatch = node.output_shape[0] if node.output_shape else 1
        input_shapes = node.input_shapes(graph)
        flops = node.layer.flops(input_shapes, node.output_shape)
        param_elems = sum(
            _prod(s) for s in node.layer.param_shapes(input_shapes).values()
        )
        io_bytes = 4.0 * (sum(_prod(s) for s in input_shapes)
                          + _prod(node.output_shape) + param_elems)
        factor = 2.0 if node.kind in _PARAM_KINDS else 1.0
        return (self._kernel_time(flops, io_bytes, minibatch),
                self._kernel_time(factor * flops, 2.0 * io_bytes, minibatch))

    def transfer_time(self, nbytes: float) -> float:
        """Host link (PCIe) transfer time, seconds."""
        _check_nbytes(nbytes, "transfer_time")
        return nbytes / self.device.pcie_bandwidth

    def copy_time(self, nbytes: float) -> float:
        """On-device bandwidth-bound pass over ``nbytes``, seconds."""
        _check_nbytes(nbytes, "copy_time")
        return nbytes / self.device.mem_bandwidth


def _check_nbytes(nbytes: float, where: str) -> None:
    """Reject sizes no transfer could have.

    A negative or non-finite byte count always indicates a bug upstream
    (an encoding whose ``encoded_bytes`` under/overflowed, a planner
    subtracting the wrong direction); pricing it would silently poison
    every schedule comparison built on the result.
    """
    try:
        if isinstance(nbytes, (str, bytes)):
            raise TypeError(f"byte count must be numeric, not {type(nbytes)}")
        value = float(nbytes)
        bad = not math.isfinite(value) or value < 0.0
    except (TypeError, ValueError):
        bad = True
    if bad:
        raise ValueError(
            f"CostModel.{where} needs a finite non-negative byte count, "
            f"got {nbytes!r}"
        )


def _prod(shape) -> int:
    n = 1
    for d in shape:
        n *= d
    return n
