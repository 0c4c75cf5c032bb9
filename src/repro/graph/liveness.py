"""Static liveness analysis over a training schedule.

For every tensor that exists during a training step — feature maps,
gradient maps, weights, weight gradients, workspace and per-layer saved
state — this module computes its ``[birth, death]`` interval on the
schedule's discrete clock.  The Gist Schedule Builder (in
:mod:`repro.core.schedule_builder`) rewrites these intervals when it
inserts encode/decode ops; the memory allocator then shares space between
tensors with disjoint intervals.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.dtypes import FP32, UINT8
from repro.graph.graph import Graph
from repro.graph.schedule import TrainingSchedule
from repro.tensor.categories import TensorCategory
from repro.tensor.spec import TensorSpec

# Tensor roles: how a LiveTensor relates to its owning node.
ROLE_FEATURE_MAP = "feature_map"
ROLE_GRADIENT_MAP = "gradient_map"
ROLE_WEIGHT = "weight"
ROLE_WEIGHT_GRAD = "weight_grad"
ROLE_WORKSPACE = "workspace"
ROLE_STATE = "state"
ROLE_ENCODED = "encoded"
ROLE_DECODED = "decoded"


@dataclass
class LiveTensor:
    """A tensor plus its lifetime on the schedule clock.

    Attributes:
        spec: Shape/dtype/category descriptor.
        birth: Time index at which the tensor is produced.
        death: Time index of the tensor's last use (inclusive).
        node_id: Owning graph node.
        role: One of the ``ROLE_*`` constants.
        shareable: Whether the allocator may place this tensor in a shared
            group.  The paper's *investigation baseline* switches this off
            for stashed feature maps.
        alias_group: Label of a physical-aliasing set, or ``None``.
            Tensors carrying the same label are views of one buffer (the
            DenseNet shared-concat trick): the allocator co-locates them
            in a single region sized by the largest member even though
            their lifetimes overlap.
    """

    spec: TensorSpec
    birth: int
    death: int
    node_id: int
    role: str
    shareable: bool = True
    alias_group: Optional[str] = None

    def __post_init__(self) -> None:
        if self.death < self.birth:
            raise ValueError(
                f"tensor {self.spec.name!r}: death {self.death} precedes "
                f"birth {self.birth}"
            )

    def __copy__(self) -> "LiveTensor":
        # Every compute_lifetimes hand-out and every MemoryPlan.clone
        # copies a whole table; copy's reduce protocol costs four times
        # this.  Field by field, not through __dict__: a copy whose
        # __dict__ was touched reads its attributes ~10 % slower in the
        # allocator's loop.  No __post_init__: a fault-injected (inverted)
        # tensor copies as it is.
        twin = object.__new__(type(self))
        twin.spec = self.spec
        twin.birth = self.birth
        twin.death = self.death
        twin.node_id = self.node_id
        twin.role = self.role
        twin.shareable = self.shareable
        twin.alias_group = self.alias_group
        return twin

    @property
    def size_bytes(self) -> int:
        """Storage footprint in bytes."""
        return self.spec.size_bytes

    def overlaps(self, other: "LiveTensor") -> bool:
        """Whether the two lifetime intervals share any time step."""
        return not (self.death < other.birth or other.death < self.birth)


def _runtime_needs_input(node) -> bool:
    """Whether the *executor's* backward kernel reads the node's input.

    Layers may override the declared (baseline-framework) dependence with
    ``runtime_backward_needs_*``: a max-pool is charged for X and Y in the
    memory model but its kernels replay the argmax map.  The executor,
    the hybrid planner's recompute-source search and the runtime liveness
    invariant all stash/judge by these flags.
    """
    override = getattr(node.layer, "runtime_backward_needs_input", None)
    if override is not None:
        return override
    return node.layer.backward_needs_input


def _runtime_needs_output(node) -> bool:
    """Output-side twin of :func:`_runtime_needs_input`."""
    override = getattr(node.layer, "runtime_backward_needs_output", None)
    if override is not None:
        return override
    return node.layer.backward_needs_output


def _runtime_needs_stash(graph: Graph, node) -> bool:
    """Whether the executor stashes ``node``'s output for the backward pass."""
    if _runtime_needs_output(node):
        return True
    return any(_runtime_needs_input(c) for c in graph.consumers(node.node_id))


def _feature_map_uses(
    graph: Graph, schedule: TrainingSchedule, node_id: int,
    needs_input, needs_output,
) -> tuple:
    """(last forward, first backward, last backward use) of a node's output.

    The forward use set contains the producing op and every forward
    consumer; the backward use set contains the producer's backward op
    if ``needs_output(node)`` and each consumer's backward op if
    ``needs_input(consumer)`` — the two predicates are what distinguish
    the declared baseline dependence, the Schedule Builder's pool-rewritten
    dependence and the executor's runtime dependence.  Both backward
    entries are ``None`` when nothing reads the map in the backward pass.
    """
    node = graph.node(node_id)
    last_fwd = schedule.forward_time(node_id)
    for consumer in graph.consumers(node_id):
        last_fwd = max(last_fwd, schedule.forward_time(consumer.node_id))
    backward_uses = []
    if needs_output(node) and schedule.has_backward(node_id):
        backward_uses.append(schedule.backward_time(node_id))
    for consumer in graph.consumers(node_id):
        if needs_input(consumer) and schedule.has_backward(consumer.node_id):
            backward_uses.append(schedule.backward_time(consumer.node_id))
    if not backward_uses:
        return last_fwd, None, None
    return last_fwd, min(backward_uses), max(backward_uses)


def runtime_feature_map_uses(
    graph: Graph, schedule: TrainingSchedule
) -> Dict[int, tuple]:
    """``{node_id:`` :func:`_feature_map_uses` ``}`` of every node under
    the executor's stash rules (``_runtime_needs_*``).  Derived once per
    graph; each call gets its own dict."""
    return dict(graph.derived("runtime_feature_map_uses",
                              lambda: _walk_runtime_uses(graph, schedule)))


def _walk_runtime_uses(graph: Graph,
                       schedule: TrainingSchedule) -> Dict[int, tuple]:
    return {
        node.node_id: _feature_map_uses(graph, schedule, node.node_id,
                                        _runtime_needs_input,
                                        _runtime_needs_output)
        for node in graph.nodes
    }


def _declared_needs_input(node) -> bool:
    return node.layer.backward_needs_input


def _declared_needs_output(node) -> bool:
    return node.layer.backward_needs_output


def feature_map_last_uses(
    graph: Graph, schedule: TrainingSchedule, node_id: int
) -> tuple:
    """:func:`_feature_map_uses` under the layers' declared dependence
    (``backward_needs_input`` / ``backward_needs_output``)."""
    return _feature_map_uses(graph, schedule, node_id,
                             _declared_needs_input, _declared_needs_output)


def compute_lifetimes(
    graph: Graph,
    schedule: Optional[TrainingSchedule] = None,
    include_weights: bool = True,
    include_workspace: bool = True,
) -> List[LiveTensor]:
    """Full liveness table for one training step.

    Args:
        graph: The training execution graph.
        schedule: Precomputed schedule; built from ``graph`` if omitted.
        include_weights: Include weights and weight gradients (the paper's
            "CNTK baseline" excludes them from footprint accounting).
        include_workspace: Include per-op cuDNN-style workspace.

    Returns:
        One :class:`LiveTensor` per tensor, in deterministic order.  The
        table is walked once per graph and flag pair; every call gets its
        own copies, which callers rewrite in place.
    """
    table = graph.derived(
        ("lifetimes", include_weights, include_workspace),
        lambda: tuple(_walk_lifetimes(
            graph, schedule or TrainingSchedule(graph),
            include_weights, include_workspace)),
    )
    return [copy.copy(t) for t in table]


def _walk_lifetimes(
    graph: Graph,
    schedule: TrainingSchedule,
    include_weights: bool,
    include_workspace: bool,
) -> List[LiveTensor]:
    """The liveness walk behind :func:`compute_lifetimes`."""
    end = schedule.end
    tensors: List[LiveTensor] = []

    for node in graph.nodes:
        nid = node.node_id
        f_t = schedule.forward_time(nid)
        input_shapes = node.input_shapes(graph)

        # --- Feature map (this node's output) ---------------------------
        last_fwd, _, last_bwd = feature_map_last_uses(graph, schedule, nid)
        death = last_bwd if last_bwd is not None else last_fwd
        # The loss output seeds the backward pass.
        if nid == graph.output_id and schedule.has_backward(nid):
            death = max(death, schedule.backward_time(nid))
        tensors.append(
            LiveTensor(
                TensorSpec(f"{node.name}.out", node.output_shape, FP32,
                           TensorCategory.FEATURE_MAP),
                birth=f_t,
                death=max(death, f_t),
                node_id=nid,
                role=ROLE_FEATURE_MAP,
            )
        )

        # --- Gradient map (gradient w.r.t. this node's output) ----------
        if schedule.has_backward(nid):
            b_t = schedule.backward_time(nid)
            producer_times = [
                schedule.backward_time(c.node_id)
                for c in graph.consumers(nid)
                if schedule.has_backward(c.node_id)
            ]
            birth = min(producer_times) if producer_times else b_t
            tensors.append(
                LiveTensor(
                    TensorSpec(f"{node.name}.grad", node.output_shape, FP32,
                               TensorCategory.GRADIENT_MAP),
                    birth=birth,
                    death=b_t,
                    node_id=nid,
                    role=ROLE_GRADIENT_MAP,
                )
            )

        # --- Weights and weight gradients -------------------------------
        if include_weights:
            for pname, pshape in node.layer.param_shapes(input_shapes).items():
                tensors.append(
                    LiveTensor(
                        TensorSpec(f"{node.name}.{pname}", pshape, FP32,
                                   TensorCategory.WEIGHT),
                        birth=0,
                        death=end,
                        node_id=nid,
                        role=ROLE_WEIGHT,
                        shareable=False,
                    )
                )
                if schedule.has_backward(nid):
                    tensors.append(
                        LiveTensor(
                            TensorSpec(f"{node.name}.d{pname}", pshape, FP32,
                                       TensorCategory.WEIGHT_GRAD),
                            birth=schedule.backward_time(nid),
                            death=end,
                            node_id=nid,
                            role=ROLE_WEIGHT_GRAD,
                            shareable=False,
                        )
                    )

        # --- Saved per-layer state ---------------------------------------
        if schedule.has_backward(nid):
            b_t = schedule.backward_time(nid)
            for state in node.layer.saved_state_specs(input_shapes, node.output_shape):
                tensors.append(
                    LiveTensor(
                        TensorSpec(f"{node.name}.{state.key}", state.shape,
                                   state.dtype, TensorCategory.SAVED_STATE),
                        birth=f_t,
                        death=b_t,
                        node_id=nid,
                        role=ROLE_STATE,
                    )
                )

        # --- Workspace ----------------------------------------------------
        if include_workspace:
            ws = node.layer.workspace_bytes(input_shapes, node.output_shape)
            if ws > 0:
                tensors.append(
                    LiveTensor(
                        TensorSpec(f"{node.name}.ws_f", (ws,), UINT8,
                                   TensorCategory.WORKSPACE),
                        birth=f_t,
                        death=f_t,
                        node_id=nid,
                        role=ROLE_WORKSPACE,
                    )
                )
                if schedule.has_backward(nid):
                    b_t = schedule.backward_time(nid)
                    tensors.append(
                        LiveTensor(
                            TensorSpec(f"{node.name}.ws_b", (ws,), UINT8,
                                       TensorCategory.WORKSPACE),
                            birth=b_t,
                            death=b_t,
                            node_id=nid,
                            role=ROLE_WORKSPACE,
                        )
                    )

    return tensors
