"""One route per kernel op: every way of naming a conv arm reaches the
same table, and every exact route trains byte-identically.

Two SGD steps of every pinned golden model with a conv (``tiny_cnn``,
``scaled_vgg``, ``densenet``) under baseline and gist-lossless, once per
conv arm forced with ``kernel_backend=`` x max-pool half.  Max-pool
has one body (``AvgPool2D`` likewise); its ``reference`` half swaps the
loop ``maxpool_reference`` / ``maxpool_backward_reference`` in for that
body, its ``plan`` half is the body itself.  Every pair with an
``exact`` conv arm, every ``kernel_backend=`` name and the
``use_kernel_plans=False`` shorthand must reproduce the ``step_digest``
stream (loss, gradients, decoded stashes) of ``kernel_backend=
"reference"``; a tolerance arm must stay inside its declared bound.
The default dispatch is one of those routes, and the golden tests pin
it, so the ground-truth route reproduces every golden too.
"""

import itertools

import numpy as np
import pytest

from repro.diagnostics import step_digest
from repro.diagnostics.golden import GOLDEN_MODELS, golden_batches
from repro.kernels import CONV_ARMS, autotune_report, clear_selection_cache
from repro.kernels.autotune import _probe_decides, autotuned_backend
from repro.kernels.backends import ConvBackend
from repro.kernels.plan import KernelPlan
from repro.layers.im2col import maxpool_backward_reference, maxpool_reference
from repro.models import build_model
from repro.train import (
    LOSSLESS_POLICY_NAMES as POLICIES,
    SGD,
    GraphExecutor,
    policy_from_name,
)

MODELS = ("tiny_cnn", "scaled_vgg", "densenet")
STEPS = 2

POOL_HALVES = ("reference", "plan")
ARM_PAIRS = list(itertools.product(sorted(CONV_ARMS), POOL_HALVES))


def _loop_pool_forward(plan, x, arena=None):
    return maxpool_reference(x, plan.kh, plan.kw, plan.stride, plan.pad)


def _loop_pool_backward(plan, argmax, dy, arena=None):
    return maxpool_backward_reference(argmax, dy, plan.shape, plan.kh,
                                      plan.kw, plan.stride, plan.pad)


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
    "conv_arm,pool_half", ARM_PAIRS,
    ids=[f"{c}+{p}" for c, p in ARM_PAIRS])
def test_forced_arm_pair_conforms(reference, monkeypatch, conv_arm,
                                  pool_half, model, policy):
    ref_digests, (ref_loss, ref_grads) = reference[model, policy]
    if pool_half == "reference":
        monkeypatch.setattr(KernelPlan, "maxpool_forward", _loop_pool_forward)
        monkeypatch.setattr(KernelPlan, "maxpool_backward",
                            _loop_pool_backward)
    digests, (loss, grads) = _train(model, policy, kernel_backend=conv_arm)
    arm = CONV_ARMS[conv_arm]
    if arm.exact:
        assert digests == ref_digests
        return
    tolerance = arm.tolerance
    assert abs(loss - ref_loss) <= tolerance * max(1.0, abs(ref_loss))
    for name, ref in ref_grads.items():
        bound = tolerance * max(1.0, float(np.abs(ref).max()))
        assert float(np.abs(grads[name] - ref).max()) <= bound, name


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("model", MODELS)
def test_every_spelling_of_the_exact_routes_conforms(reference, model,
                                                     policy):
    ref_digests, _ = reference[model, policy]
    routes = [{"kernel_backend": name}
              for name, arm in sorted(CONV_ARMS.items()) if arm.exact]
    routes += [{"use_kernel_plans": False}, {}]  # shorthand; the chooser
    for kwargs in routes:
        assert _train(model, policy, **kwargs)[0] == ref_digests, kwargs


class _Spy(ConvBackend):
    """A conv arm that logs its name on every forward, then delegates."""

    def __init__(self, arm, log):
        self.arm, self.log = arm, log
        self.name, self.exact, self.tolerance = (arm.name, arm.exact,
                                                 arm.tolerance)

    def forward(self, *args, **kwargs):
        self.log.append(self.name)
        return self.arm.forward(*args, **kwargs)

    def backward(self, *args, **kwargs):
        return self.arm.backward(*args, **kwargs)


def test_chooser_proves_the_one_candidate_against_the_ground_truth(
        monkeypatch):
    """A new signature the static guard decides is probed by running
    ``reference`` once, as the truth, and ``blas-fat`` once, as the only
    candidate; one it cannot decide runs no probe and keeps
    ``reference``.  On every golden model each record names the one
    candidate, and the pick is ``blas-fat`` iff it was proven."""
    log = []
    for name, arm in list(CONV_ARMS.items()):
        monkeypatch.setitem(CONV_ARMS, name, _Spy(arm, log))
    rng = np.random.default_rng(0)
    x = rng.normal(0, 1, (4, 2, 16, 16)).astype(np.float32)
    w4 = rng.normal(0, 0.5, (8, 2, 3, 3)).astype(np.float32)
    clear_selection_cache()
    try:
        assert _probe_decides(x, w4, 1, 1)
        arm = autotuned_backend(x, w4, None, 1, 1)
        assert log == ["reference", "blas-fat"]
        (row,) = autotune_report()
        assert arm.name == row["backend"]
        # One input channel: the direct fill's per-slot GEMM is a
        # matrix-vector product, which no probe can settle.
        x1, w1 = x[:, :1].copy(), w4[:, :1].copy()
        assert not _probe_decides(x1, w1, 1, 1)
        log.clear()
        assert autotuned_backend(x1, w1, None, 1, 1) is CONV_ARMS["reference"]
        assert log == []
        clear_selection_cache()
        for model in MODELS:
            _train(model, "baseline")
        report = autotune_report()
    finally:
        clear_selection_cache()
    assert report, "default dispatch should have probed the conv signatures"
    for row in report:
        assert set(row["exact"]) == {"blas-fat"}
        proven = row["exact"]["blas-fat"]
        assert row["backend"] == ("blas-fat" if proven else "reference")
