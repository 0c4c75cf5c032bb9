"""The executor runs its policy's plan record, deaths included.

:class:`~repro.train.executor.GraphExecutor` reads each stash's death off
the record the allocator priced (:meth:`~repro.memory.hybrid.PlanRecord.
stash_deaths`), drops each stash and decoded map after it, and refuses a
read past it.  So a death shortened in the record is a read the executor
refuses, and a record built for another graph is refused outright.
"""

import numpy as np
import pytest

from repro.core import GistConfig
from repro.diagnostics import InvariantViolation
from repro.memory import build_hybrid_plan
from repro.memory.hybrid import CHOICE_GIST, CHOICE_RECOMPUTE, CHOICE_SWAP
from repro.models import build_model
from repro.train import (
    BaselinePolicy,
    GistPolicy,
    GraphExecutor,
    HybridExecutionPolicy,
    policy_from_name,
)

#: The plan tensor that stands in for a decided map across the gap.
STANDS_IN = {CHOICE_GIST: ".out.enc", CHOICE_SWAP: ".out.prefetch",
             CHOICE_RECOMPUTE: ".out.recomp"}


def _policy(graph, name):
    if name == "hybrid":
        return HybridExecutionPolicy(build_hybrid_plan(graph))
    return policy_from_name(name, graph)


def _random_batch(graph):
    rng = np.random.default_rng(0)
    shape = graph.node(graph.input_id).output_shape
    return (rng.normal(0, 1, shape).astype(np.float32),
            rng.integers(0, 10, shape[0]))


class _RunsRecord(BaselinePolicy):
    """Runs one fixed record, whatever its decisions."""

    def __init__(self, record):
        super().__init__()
        self.fixed = record

    def record(self, graph):
        return self.fixed


@pytest.mark.parametrize("name, relu", [
    ("baseline", "relu1_2"),        # the FP32 .out
    ("gist-lossless", "relu1_2"),   # Binarize's .out.enc
    ("hybrid", "relu1_1"),          # a swap's .out.prefetch
])
def test_a_death_shortened_in_the_record_refuses_the_read(name, relu):
    """A ReLU's backward reads its stash at its death; one tick earlier
    in the record, and the executor's clock refuses that read."""
    graph = build_model("scaled_vgg", batch_size=4)
    record = _policy(graph, name).record(graph)
    relu = graph.node_by_name(relu)
    decision = record.decisions.get(relu.node_id)
    suffix = ".out" if decision is None else STANDS_IN[decision.choice]
    tensor = next(t for t in record.plan.tensors
                  if t.spec.name == relu.name + suffix)
    death = tensor.death
    assert record.stash_deaths()[relu.node_id] == death
    tensor.death -= 1
    executor = GraphExecutor(graph, _RunsRecord(record), seed=0)
    executor.forward(*_random_batch(graph))
    with pytest.raises(InvariantViolation,
                       match=f"stash-liveness: stash of '{relu.name}' read "
                             f"at schedule time {death}, after its death "
                             f"point {death - 1}"):
        executor.backward()


def test_a_record_built_for_another_graph_is_refused():
    """A densenet-built Table-I plan would run on scaled VGG's node ids
    silently (its loss even matches baseline, its gradients do not)."""
    densenet = build_model("densenet", batch_size=4)
    vgg = build_model("scaled_vgg", batch_size=4)
    policy = GistPolicy(densenet, GistConfig.lossless())
    with pytest.raises(ValueError, match="'densenet'.*'scaled_vgg'"):
        GraphExecutor(vgg, policy, seed=0)
    # Another object of the same graph is another graph, too.
    with pytest.raises(ValueError, match="planned for graph"):
        GraphExecutor(build_model("densenet", batch_size=4), policy, seed=0)


@pytest.mark.parametrize("name", ["baseline", "gist-fp16", "hybrid"])
def test_a_step_leaves_nothing_behind(name):
    """Every stash, decoded map, context and chain buffer is freed by the
    time ``backward`` returns; only the logits stay, for the metrics."""
    graph = build_model("densenet", batch_size=4)
    executor = GraphExecutor(graph, _policy(graph, name), seed=0)
    executor.forward(*_random_batch(graph))
    assert executor.stashed_node_ids()
    assert not executor._chain_buffers
    executor.backward()
    assert executor.stashed_node_ids() == []
    assert not executor._decoded
    assert not executor._ctx
    assert executor.last_logits is not None
