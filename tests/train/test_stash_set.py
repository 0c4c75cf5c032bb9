"""The executor stashes exactly what its policy's record keeps.

After one forward pass, the set of stashed node ids equals the maps the
policy's plan record keeps into the backward pass
(:meth:`~repro.memory.hybrid.PlanRecord.stash_deaths`), minus the maps a
recompute or shared-concat decision drops on purpose.  Checked under
every named policy on the small registry models, under ``baseline`` on
default-genre fuzz seeds, and on DenseNet under a hybrid plan.
"""

import numpy as np
import pytest

from repro.diagnostics.golden import GOLDEN_MODELS
from repro.graph.liveness import feature_map_uses
from repro.memory import build_hybrid_plan
from repro.memory.hybrid import DROPPED_CHOICES
from repro.models import build_model
from repro.train import (
    POLICY_NAMES,
    GraphExecutor,
    HybridExecutionPolicy,
    StashPolicy,
    policy_from_name,
)
from repro.verify.fuzzer import GraphFuzzer

MODELS = {**GOLDEN_MODELS, "rnn": GOLDEN_MODELS["lstm"]}
FUZZ_SEEDS = range(40)


def _record_stash_set(policy, graph):
    record = policy.record(graph)
    assert record is not None and record.graph is graph
    return set(record.stash_deaths()) - {
        nid for nid, d in record.decisions.items()
        if d.choice in DROPPED_CHOICES}


def _forward_once(executor):
    graph = executor.graph
    rng = np.random.default_rng(0)
    shape = graph.node(graph.input_id).output_shape
    logits = graph.node(graph.node(graph.output_id).inputs[0])
    executor.forward(rng.normal(0, 1, shape).astype(np.float32),
                     rng.integers(0, logits.output_shape[-1], shape[0]))
    return set(executor.stashed_node_ids())


@pytest.mark.parametrize("model", sorted(MODELS))
@pytest.mark.parametrize("name", POLICY_NAMES)
def test_registry_model_stashes_the_table(model, name):
    graph = build_model(model, **MODELS[model])
    policy = policy_from_name(name, graph)
    stashed = _forward_once(GraphExecutor(graph, policy, seed=0))
    assert stashed == _record_stash_set(policy, graph), (model, name)


def test_fuzz_graphs_stash_the_table():
    for seed in FUZZ_SEEDS:
        graph = GraphFuzzer(seed).graph()
        policy = StashPolicy()
        stashed = _forward_once(GraphExecutor(graph, policy, seed=0))
        assert stashed == _record_stash_set(policy, graph), seed


def test_hybrid_densenet_stashes_the_table_minus_dropped_maps():
    graph = build_model("densenet", **GOLDEN_MODELS["densenet"])
    plan = build_hybrid_plan(graph)
    dropped = {nid for nid, d in plan.decisions.items()
               if d.choice in DROPPED_CHOICES}
    assert dropped
    policy = HybridExecutionPolicy(plan)
    stashed = _forward_once(GraphExecutor(graph, policy, seed=0))
    assert stashed == _record_stash_set(policy, graph)
    assert not stashed & dropped


@pytest.mark.parametrize("model", sorted(MODELS))
def test_declared_pool_reads_add_no_registry_stash(model):
    """The baseline record keeps what a max-pool declares it reads (X and
    Y), where the runtime replays the argmax map; on the registry models
    every such map is stashed for another reader anyway."""
    graph = build_model(model, **MODELS[model])
    runtime = feature_map_uses(graph, None, True)
    read = {nid for nid, (_, first_bwd, _) in runtime.items()
            if first_bwd is not None} - {graph.output_id}
    assert _record_stash_set(StashPolicy(), graph) == read
