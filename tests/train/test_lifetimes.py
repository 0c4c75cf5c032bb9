"""The executor frees by one death table, and it is the plan's.

:class:`~repro.train.executor.GraphExecutor` drops each stash and decoded
map after the backward op that is its last reader.  The allocator prices
the same lifetimes from the plan's tensor table, so the two must agree:
a runtime map that outlived its plan tensor would hold bytes the plan
gave to another tensor.
"""

import numpy as np
import pytest

from repro.core import build_gist_plan
from repro.memory import build_hybrid_plan
from repro.memory.hybrid import (
    CHOICE_GIST,
    CHOICE_RECOMPUTE,
    CHOICE_SHARED_CONCAT,
    CHOICE_SWAP,
)
from repro.models import build_model
from repro.train import GraphExecutor, HybridExecutionPolicy, policy_from_name

MODELS = ("scaled_vgg", "densenet", "tiny_cnn", "lstm")
POLICIES = ("gist-lossless", "gist-fp16", "hybrid")

#: The plan tensor that stands in for a decided map across the gap.
STANDS_IN = {CHOICE_GIST: ".out.enc", CHOICE_SWAP: ".out.prefetch",
             CHOICE_RECOMPUTE: ".out.recomp"}


def _plan_and_policy(graph, name):
    if name == "hybrid":
        plan = build_hybrid_plan(graph)
        return plan, HybridExecutionPolicy(plan)
    policy = policy_from_name(name, graph)
    return build_gist_plan(graph, policy.config), policy


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("name", POLICIES)
def test_executor_death_is_the_plans(model, name):
    graph = build_model(model, batch_size=4)
    plan, policy = _plan_and_policy(graph, name)
    executor = GraphExecutor(graph, policy, seed=0)
    planned = {t.spec.name: t.death for t in plan.plan.tensors}
    death = executor._death
    assert executor._stashed_ids
    for nid in executor._stashed_ids:
        node_name = graph.node(nid).name
        decision = plan.decisions.get(nid)
        if decision is None:
            assert death[nid] == planned[f"{node_name}.out"], node_name
        elif decision.choice == CHOICE_SHARED_CONCAT:
            # The member is its terminal's prefix through its last read.
            assert death[decision.source_id] >= death[nid], node_name
        else:
            assert death[nid] == planned[
                node_name + STANDS_IN[decision.choice]], node_name


@pytest.mark.parametrize("name", ["baseline", "gist-fp16", "hybrid"])
def test_a_step_leaves_nothing_behind(name):
    """Every stash, decoded map, context and chain buffer is freed by the
    time ``backward`` returns; only the logits stay, for the metrics."""
    graph = build_model("densenet", batch_size=4)
    policy = (_plan_and_policy(graph, name)[1] if name == "hybrid"
              else policy_from_name(name, graph))
    executor = GraphExecutor(graph, policy, seed=0)
    rng = np.random.default_rng(0)
    shape = graph.node(graph.input_id).output_shape
    executor.forward(rng.normal(0, 1, shape).astype(np.float32),
                     rng.integers(0, 10, shape[0]))
    assert executor.stashed_node_ids()
    assert not executor._chain_buffers
    executor.backward()
    assert executor.stashed_node_ids() == []
    assert not executor._decoded
    assert not executor._ctx
    assert executor.last_logits is not None
