"""Static liveness analysis over a training schedule.

For every tensor that exists during a training step — feature maps,
gradient maps, weights, weight gradients, workspace and per-layer saved
state — this module computes its ``[birth, death]`` interval on the
schedule's discrete clock.  The Gist Schedule Builder (in
:mod:`repro.core.schedule_builder`) rewrites these intervals when it
inserts encode/decode ops; the memory allocator then shares space between
tensors with disjoint intervals.

:func:`feature_map_uses` is the one answer to "which backward ops read
feature map *m*, and when?": the liveness table and every planner read
it, and the executor runs the tables they build.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.dtypes import FP32, UINT8
from repro.graph.graph import Graph
from repro.graph.schedule import TrainingSchedule, schedule_of
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
        # Every compute_lifetimes hand-out copies a whole table, and
        # every apply_decisions write copies an entry; copy's reduce
        # protocol costs four times this.  Field by field, not through
        # __dict__: a copy whose __dict__ was touched reads its
        # attributes ~10 % slower in the allocator's loop.  No
        # __post_init__: a fault-injected (inverted) tensor copies as it
        # is.
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


def _reads(node, flag: str, pools_rewritten: bool) -> bool:
    """Whether ``node``'s backward op reads the map its ``flag``
    (``backward_needs_input`` / ``backward_needs_output``) names.

    With ``pools_rewritten`` a max-pool replays its argmax map and reads
    neither X nor Y, as the runtime kernels always do; the memory
    planners rewrite the pools only under Binarize.
    """
    if pools_rewritten and node.kind == "maxpool":
        return False
    return getattr(node.layer, flag)


def backward_readers(graph: Graph, schedule: TrainingSchedule, node_id: int,
                     pools_rewritten: bool) -> tuple:
    """(producer reads its output, consumers reading it as input) — the
    backward ops that read ``node_id``'s feature map."""
    node = graph.node(node_id)
    producer_reads = bool(
        _reads(node, "backward_needs_output", pools_rewritten)
        and schedule.has_backward(node_id))
    consumers = [
        c for c in graph.consumers(node_id)
        if _reads(c, "backward_needs_input", pools_rewritten)
        and schedule.has_backward(c.node_id)
    ]
    return producer_reads, consumers


def feature_map_uses(
    graph: Graph, schedule: Optional[TrainingSchedule], pools_rewritten: bool
) -> Dict[int, Tuple[int, Optional[int], Optional[int]]]:
    """``{node_id: (last forward, first backward, last backward use)}`` of
    every feature map; both backward entries are ``None`` when no backward
    op reads the map.  The loss output's backward op seeds the pass, so it
    counts as a read of the loss.

    ``pools_rewritten=False`` is the layers' declared dependence (the
    baseline liveness table); ``True`` is Binarize's (see
    :func:`_reads`).  Walked once per graph and flag; each call gets
    its own dict; ``schedule`` is built only when the walk runs and none
    was given.
    """
    return dict(graph.derived(
        ("feature_map_uses", pools_rewritten),
        lambda: _walk_uses(graph, schedule or schedule_of(graph),
                           pools_rewritten)))


def _walk_uses(graph: Graph, schedule: TrainingSchedule,
               pools_rewritten: bool
               ) -> Dict[int, Tuple[int, Optional[int], Optional[int]]]:
    uses = {}
    for node in graph.nodes:
        nid = node.node_id
        last_fwd = schedule.forward_time(nid)
        for consumer in graph.consumers(nid):
            last_fwd = max(last_fwd, schedule.forward_time(consumer.node_id))
        producer_reads, consumers = backward_readers(graph, schedule, nid,
                                                     pools_rewritten)
        reads = [schedule.backward_time(c.node_id) for c in consumers]
        if producer_reads or (nid == graph.output_id
                              and schedule.has_backward(nid)):
            reads.append(schedule.backward_time(nid))
        uses[nid] = ((last_fwd, min(reads), max(reads)) if reads
                     else (last_fwd, None, None))
    return uses


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
            graph, schedule or schedule_of(graph),
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
    uses = feature_map_uses(graph, schedule, False)
    tensors: List[LiveTensor] = []

    for node in graph.nodes:
        nid = node.node_id
        f_t = schedule.forward_time(nid)
        input_shapes = node.input_shapes(graph)

        # --- Feature map (this node's output) ---------------------------
        last_fwd, _, last_bwd = uses[nid]
        death = last_bwd if last_bwd is not None else last_fwd
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
