"""One route per kernel op: every way of naming an arm reaches the same
registry, and every exact route trains byte-identically.

Two SGD steps of ``tiny_cnn`` and ``densenet`` (the latter covers
``AvgPool2D``, which follows max-pool's route) under baseline and
gist-lossless, once per ``conv2d`` x ``maxpool2d`` arm pair.  Every pair
of ``exact`` arms, every bare ``kernel_backend=`` name and the
``use_kernel_plans=False`` shorthand must reproduce the ``step_digest``
stream (loss, gradients, decoded stashes) of ``kernel_backend=
"reference"``; a tolerance arm must stay inside its registered bound.
"""

import itertools

import numpy as np
import pytest

from repro.diagnostics import step_digest
from repro.diagnostics.golden import GOLDEN_MODELS, golden_batches
from repro.kernels import (
    autotune_report,
    backend_override,
    backends_for,
    clear_selection_cache,
)
from repro.models import build_model
from repro.train import (
    LOSSLESS_POLICY_NAMES as POLICIES,
    SGD,
    GraphExecutor,
    policy_from_name,
)

MODELS = ("tiny_cnn", "densenet")
STEPS = 2

ARM_PAIRS = list(itertools.product(backends_for("conv2d"),
                                   backends_for("maxpool2d")))


def _train(model, policy, **executor_kwargs):
    """(per-step digests, last step's raw loss + gradients)."""
    graph = build_model(model, **GOLDEN_MODELS[model])
    executor = GraphExecutor(graph, policy_from_name(policy, graph),
                             seed=0, **executor_kwargs)
    optimizer = SGD(lr=0.01, momentum=0.9)
    params = executor.parameters()
    digests = []
    for images, labels in golden_batches(model, STEPS):
        loss = executor.forward(images, labels)
        stashes = {graph.node(nid).name: executor.stashed_value(nid)
                   for nid in executor.stashed_node_ids()}
        grads = {k: v.copy() for k, v in executor.backward().items()}
        digests.append(step_digest(loss, grads, stashes))
        optimizer.step(params, grads)
    return digests, (loss, grads)


@pytest.fixture(scope="module")
def reference():
    return {(m, p): _train(m, p, kernel_backend="reference")
            for m in MODELS for p in POLICIES}


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize(
    "conv_arm,pool_arm", ARM_PAIRS,
    ids=[f"{c.name}+{p.name}" for c, p in ARM_PAIRS])
def test_forced_arm_pair_conforms(reference, conv_arm, pool_arm, model,
                                  policy):
    ref_digests, (ref_loss, ref_grads) = reference[model, policy]
    with backend_override(
            f"conv2d={conv_arm.name},maxpool2d={pool_arm.name}"):
        digests, (loss, grads) = _train(model, policy)
    if conv_arm.exact and pool_arm.exact:
        assert digests == ref_digests
        return
    tolerance = max(arm.tolerance for arm in (conv_arm, pool_arm))
    assert abs(loss - ref_loss) <= tolerance * max(1.0, abs(ref_loss))
    for name, ref in ref_grads.items():
        bound = tolerance * max(1.0, float(np.abs(ref).max()))
        assert float(np.abs(grads[name] - ref).max()) <= bound, name


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("model", MODELS)
def test_every_spelling_of_the_exact_routes_conforms(reference, model,
                                                     policy):
    ref_digests, _ = reference[model, policy]
    names = {arm.name for op in ("conv2d", "maxpool2d")
             for arm in backends_for(op) if arm.exact}
    routes = [{"kernel_backend": name} for name in sorted(names)]
    routes += [{"use_kernel_plans": False}, {}]  # shorthand; the chooser
    for kwargs in routes:
        assert _train(model, policy, **kwargs)[0] == ref_digests, kwargs


def test_chooser_never_probes_the_ground_truth_or_a_lone_candidate():
    clear_selection_cache()
    with backend_override("auto"):  # whatever REPRO_KERNEL_BACKEND says
        for model in MODELS:
            _train(model, "baseline")
    report = autotune_report()
    assert report, "default dispatch should have probed the conv signatures"
    assert {row["op"] for row in report} == {"conv2d"}
    for row in report:
        assert row["backend"] != "reference"
        assert "reference" not in row["exact"]
