"""Execution-graph IR: DAG, builder, training schedule, liveness."""

from repro.graph.builder import GraphBuilder, NodeRef
from repro.graph.fingerprint import (
    FINGERPRINT_VERSION,
    graph_fingerprint,
    node_fingerprints,
)
from repro.graph.graph import Graph, GraphError
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
from repro.graph.node import OpNode
from repro.graph.schedule import BACKWARD, FORWARD, ScheduledOp, TrainingSchedule

__all__ = [
    "BACKWARD",
    "FINGERPRINT_VERSION",
    "FORWARD",
    "Graph",
    "GraphBuilder",
    "GraphError",
    "LiveTensor",
    "NodeRef",
    "OpNode",
    "ROLE_DECODED",
    "ROLE_ENCODED",
    "ROLE_FEATURE_MAP",
    "ROLE_GRADIENT_MAP",
    "ROLE_STATE",
    "ROLE_WEIGHT",
    "ROLE_WEIGHT_GRAD",
    "ROLE_WORKSPACE",
    "ScheduledOp",
    "TrainingSchedule",
    "compute_lifetimes",
    "graph_fingerprint",
    "node_fingerprints",
]
