"""Plan ≡ runtime conformance for the one decision table.

``build_gist_plan`` (what the allocator is sold) and ``GistPolicy`` (what
the executor runs) read the same Table-I class rule; the only place they
may disagree is SSDC sizing, which only the planner does.
"""

import dataclasses
import threading

import numpy as np
import pytest

from repro.core import GistConfig, build_gist_plan
from repro.graph.liveness import _runtime_needs_stash
from repro.kernels import clear_plan_cache, clear_selection_cache
from repro.memory import build_hybrid_plan
from repro.models import available_models, build_model, scaled_vgg
from repro.train import (
    SGD,
    BaselinePolicy,
    GistPolicy,
    GraphExecutor,
    HybridExecutionPolicy,
)

#: Pool→Conv maps the planner's modelled sparsity prices below the CSR
#: breakeven under ``lossless`` (so the plan keeps them FP32) while the
#: runtime's bare class rule SSDC-encodes them.  The checked-in
#: ``*--gist-lossless`` goldens pin the runtime side of this.
BELOW_BREAKEVEN = {
    "alexnet": {"pool5"},
    "nin": {"pool1", "pool2"},
    "overfeat": {"pool1", "pool2"},
    "resnet50": {"pool1"},
    "resnet101": {"pool1"},
    "resnet152": {"pool1"},
    "scaled_alexnet": {"pool1", "pool2"},
    "scaled_vgg": {"pool1", "pool2"},
    "tiny_cnn": {"pool1"},
    "vgg16": {"pool1", "pool2", "pool3"},
    "vgg19": {"pool1", "pool2", "pool3"},
}

CONFIGS = {"lossless": GistConfig.lossless(), "full": GistConfig.full()}


@pytest.mark.parametrize("config_name", sorted(CONFIGS))
@pytest.mark.parametrize("model", available_models())
def test_runtime_table_equals_plan_decisions(model, config_name):
    cfg = CONFIGS[config_name]
    graph = build_model(model, batch_size=32)
    runtime = {
        nid: encoding
        for nid, encoding in GistPolicy(graph, cfg).encodings.items()
        if _runtime_needs_stash(graph, graph.node(nid))
    }
    planned = {nid: d.encoding
               for nid, d in build_gist_plan(graph, cfg).decisions.items()}
    runtime_only = {graph.node(nid).name for nid in runtime.keys() - planned}
    expected = (BELOW_BREAKEVEN.get(model, set())
                if config_name == "lossless" else set())
    assert runtime_only == expected
    assert all(runtime[nid] == "ssdc" for nid in runtime.keys() - planned)
    assert not planned.keys() - runtime
    assert all(runtime[nid] == planned[nid] for nid in planned)


def test_unknown_encoding_is_rejected_not_run_as_dpr():
    """A table row naming a codec Table I does not have must fail loudly
    instead of silently stashing through the lossy DPR codec."""
    graph = build_model("tiny_cnn", batch_size=4)
    plan = build_hybrid_plan(graph)
    nid, decision = next((n, d) for n, d in plan.decisions.items()
                         if d.choice == "gist")
    plan.decisions[nid] = dataclasses.replace(decision, encoding="zstd")
    with pytest.raises(ValueError) as err:
        HybridExecutionPolicy(plan)
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
