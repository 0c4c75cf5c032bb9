"""The executor stashes exactly what the rewritten uses table says.

After one forward pass, the set of stashed node ids equals the maps the
pool-rewritten feature-map-uses table gives a first backward read, minus
the loss output (whose only backward "read" is the seed of the pass).
Checked on the small registry models and default-genre fuzz seeds, and
on DenseNet under a hybrid plan, whose recompute and shared-concat decisions drop their
stash on purpose.
"""

import numpy as np
import pytest

from repro.graph.liveness import feature_map_uses
from repro.diagnostics.golden import GOLDEN_MODELS
from repro.graph.schedule import TrainingSchedule
from repro.memory import build_hybrid_plan
from repro.memory.hybrid import CHOICE_RECOMPUTE, CHOICE_SHARED_CONCAT
from repro.models import build_model
from repro.train import GraphExecutor, HybridExecutionPolicy
from repro.verify.fuzzer import GraphFuzzer

MODELS = {**GOLDEN_MODELS, "rnn": GOLDEN_MODELS["lstm"]}
FUZZ_SEEDS = range(40)


def _table_stash_set(graph):
    uses = feature_map_uses(graph, TrainingSchedule(graph), True)
    return {nid for nid, (_, first_bwd, _) in uses.items()
            if first_bwd is not None} - {graph.output_id}


def _forward_once(executor):
    graph = executor.graph
    rng = np.random.default_rng(0)
    shape = graph.node(graph.input_id).output_shape
    logits = graph.node(graph.node(graph.output_id).inputs[0])
    executor.forward(rng.normal(0, 1, shape).astype(np.float32),
                     rng.integers(0, logits.output_shape[-1], shape[0]))
    return set(executor.stashed_node_ids())


@pytest.mark.parametrize("model", sorted(MODELS))
def test_registry_model_stashes_the_table(model):
    graph = build_model(model, **MODELS[model])
    stashed = _forward_once(GraphExecutor(graph, seed=0))
    assert stashed == _table_stash_set(graph), model


def test_fuzz_graphs_stash_the_table():
    for seed in FUZZ_SEEDS:
        graph = GraphFuzzer(seed).graph()
        stashed = _forward_once(GraphExecutor(graph, seed=0))
        assert stashed == _table_stash_set(graph), seed


def test_hybrid_densenet_stashes_the_table_minus_dropped_maps():
    graph = build_model("densenet", **GOLDEN_MODELS["densenet"])
    plan = build_hybrid_plan(graph)
    dropped = {nid for nid, d in plan.decisions.items()
               if d.choice in (CHOICE_RECOMPUTE, CHOICE_SHARED_CONCAT)}
    assert dropped
    stashed = _forward_once(
        GraphExecutor(graph, HybridExecutionPolicy(plan), seed=0))
    assert stashed == _table_stash_set(graph) - dropped
