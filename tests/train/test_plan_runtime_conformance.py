"""Plan ≡ runtime conformance for the one decision table.

``GistPolicy`` executes ``build_gist_plan``'s table, so what the
allocator is sold and what the executor stashes are the same records —
on every registry model, with no exceptions.
"""

import dataclasses
import math
import threading

import numpy as np
import pytest

from repro.core import GistConfig, build_gist_plan, gist_codec
from repro.encodings.groupquant import GROUPQUANT_BITS
from repro.kernels import clear_plan_cache, clear_selection_cache
from repro.memory import build_hybrid_plan
from repro.models import available_models, build_model, scaled_vgg
from repro.train import (
    SGD,
    BaselinePolicy,
    GistPolicy,
    GraphExecutor,
    HybridExecutionPolicy,
    policy_from_name,
)
from repro.train.stash import codec_table

CONFIGS = {"lossless": GistConfig.lossless(), "full": GistConfig.full()}


@pytest.mark.parametrize("config_name", sorted(CONFIGS))
@pytest.mark.parametrize("model", available_models())
def test_runtime_table_equals_plan_decisions(model, config_name):
    cfg = CONFIGS[config_name]
    graph = build_model(model, batch_size=32)
    policy = GistPolicy(graph, cfg)
    planned = build_gist_plan(graph, cfg).decisions
    stashed = policy.record(graph).stash_deaths().keys()
    codecs = codec_table(policy.record(graph))
    # Runtime -> plan: every stashed map runs the codec its decision was
    # sized with — the one factory's, reproducing the priced bytes — and
    # the FP32 identity where the plan decided nothing.
    for nid in stashed:
        node = graph.node(nid)
        codec = codecs.get(nid, policy.encoding_for(graph, nid))
        decision = planned.get(nid)
        if decision is None:
            assert codec.name == "identity", node.name
            continue
        expected = gist_codec(decision.encoding, cfg)
        assert type(codec) is type(expected), node.name
        assert (codec.name, codec.lossless) == (
            expected.name, expected.lossless), node.name
        assert decision.lossless == codec.lossless, node.name
        assert codec.encoded_bytes(
            math.prod(node.output_shape), sparsity=decision.sparsity
        ) == decision.resident_bytes, node.name
    # Plan -> runtime: no decision is for a map the executor never stashes.
    assert planned.keys() <= stashed


@pytest.mark.parametrize("model", ["scaled_vgg", "tiny_cnn"])
def test_below_breakeven_pool_is_stashed_as_planned(model):
    """``pool1`` is below the modelled CSR breakeven under ``lossless``:
    the plan keeps it FP32, and so — executed — does the runtime."""
    graph = build_model(model, batch_size=4)
    pool1 = graph.node_by_name("pool1")
    assert pool1.node_id not in build_gist_plan(
        graph, GistConfig.lossless()).decisions
    executor = GraphExecutor(graph, GistPolicy(graph, GistConfig.lossless()),
                             seed=0)
    rng = np.random.default_rng(0)
    shape = graph.node(graph.input_id).output_shape
    executor.forward(rng.normal(0, 1, shape).astype(np.float32),
                     rng.integers(0, 4, shape[0]))
    assert executor.stash_bytes()["pool1"] == 4 * int(
        np.prod(pool1.output_shape))


@pytest.mark.parametrize("bits", GROUPQUANT_BITS)
def test_groupquant_holds_the_bytes_its_record_plans(bits):
    """Every group-quantised stash measures exactly its record's
    ``.out.enc`` bytes after a forward, and the FP32 input its ``.out``
    bytes: the size model is exact."""
    graph = build_model("scaled_vgg", batch_size=4)
    policy = policy_from_name(f"groupquant-int{bits}", graph)
    record = policy.record(graph)
    planned = {t.spec.name: t.size_bytes for t in record.plan.tensors}
    executor = GraphExecutor(graph, policy, seed=0)
    rng = np.random.default_rng(0)
    shape = graph.node(graph.input_id).output_shape
    executor.forward(rng.normal(0, 1, shape).astype(np.float32),
                     rng.integers(0, 10, shape[0]))
    held = executor.stash_bytes()
    assert held.keys() == {graph.node(nid).name
                           for nid in record.stash_deaths()}
    assert len(record.decisions) == len(held) - 1
    for name, nbytes in held.items():
        suffix = ".out" if name == "input" else ".out.enc"
        assert nbytes == planned[name + suffix], name


def test_unknown_encoding_is_rejected_not_run_as_dpr():
    """A table row naming a codec Table I does not have must fail loudly
    instead of silently stashing through the lossy DPR codec."""
    graph = build_model("tiny_cnn", batch_size=4)
    plan = build_hybrid_plan(graph)
    nid, decision = next((n, d) for n, d in plan.decisions.items()
                         if d.choice == "gist")
    plan.decisions[nid] = dataclasses.replace(decision, encoding="zstd")
    with pytest.raises(ValueError) as err:
        GraphExecutor(graph, HybridExecutionPolicy(plan))
    assert decision.node_name in str(err.value)
    assert "zstd" in str(err.value)


def test_autotuned_training_step_owns_no_python_threads():
    """No registered kernel backend may keep a thread pool: threads do
    not survive ``fork()``, so a forked orchestrate worker would block
    forever on the first conv signature it has to probe."""
    clear_plan_cache()
    clear_selection_cache()
    before = threading.active_count()
    graph = scaled_vgg(batch_size=8)
    rng = np.random.default_rng(0)
    images = rng.normal(0, 1, (8, 3, 32, 32)).astype(np.float32)
    labels = rng.integers(0, 10, 8)
    executor = GraphExecutor(graph, BaselinePolicy(), seed=0)
    optimizer = SGD(lr=0.01)
    for _ in range(2):
        executor.forward(images, labels)
        optimizer.step(executor.parameters(), executor.backward())
    assert threading.active_count() == before
