"""Training-step schedule: forward ops in topological order, then backward
ops in reverse.

Time is a discrete index over scheduled ops; all lifetime intervals in the
memory planner are expressed in this clock, which is exactly the
information Gist's Schedule Builder extracts from the CNTK graph (paper
Figure 2's computation timeline).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.graph.graph import Graph

FORWARD = "forward"
BACKWARD = "backward"


@dataclass(frozen=True)
class ScheduledOp:
    """One op execution at discrete time ``t``."""

    t: int
    phase: str  # FORWARD or BACKWARD
    node_id: int


class TrainingSchedule:
    """The per-minibatch timeline of a training step.

    Attributes:
        ops: Scheduled ops, index == time.
        forward_end: First time index belonging to the backward pass; a
            tensor whose last use is ``>= forward_end`` is *stashed*.
    """

    def __init__(self, graph: Graph):
        self.graph = graph
        topo = graph.topological_ids()
        self.ops: List[ScheduledOp] = []
        t = 0
        for node_id in topo:
            self.ops.append(ScheduledOp(t, FORWARD, node_id))
            t += 1
        self.forward_end = t
        input_id = graph.input_id
        for node_id in reversed(topo):
            if node_id == input_id:
                continue  # the minibatch input needs no gradient
            self.ops.append(ScheduledOp(t, BACKWARD, node_id))
            t += 1
        self._forward_t: Dict[int, int] = {}
        self._backward_t: Dict[int, int] = {}
        for op in self.ops:
            if op.phase == FORWARD:
                self._forward_t[op.node_id] = op.t
            else:
                self._backward_t[op.node_id] = op.t

    @property
    def num_steps(self) -> int:
        """Total number of time steps in the schedule."""
        return len(self.ops)

    @property
    def end(self) -> int:
        """The last valid time index."""
        return len(self.ops) - 1

    def forward_time(self, node_id: int) -> int:
        """Time at which ``node_id``'s forward op runs."""
        return self._forward_t[node_id]

    def backward_time(self, node_id: int) -> int:
        """Time at which ``node_id``'s backward op runs.

        Raises:
            KeyError: For the input node, which has no backward op.
        """
        return self._backward_t[node_id]

    def has_backward(self, node_id: int) -> bool:
        """Whether ``node_id`` has a backward op in the schedule."""
        return node_id in self._backward_t


def schedule_of(graph: Graph) -> TrainingSchedule:
    """``graph``'s schedule, built once per graph (:meth:`~repro.graph.
    graph.Graph.derived`): a schedule never changes after it is built, so
    every planner, plan record and executor of one graph shares it."""
    return graph.derived("schedule", lambda: TrainingSchedule(graph))
