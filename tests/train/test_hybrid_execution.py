"""Execution tests for hybrid plans: recompute/swap must be bit-exact.

The planner's lossless claim is only meaningful if the executor's replay
machinery (recompute chains, host-swap round trips) reproduces the exact
FP32 values the baseline would have stashed.  These tests train the same
model under each strategy arm and demand bit-identical losses and
gradients, then pin the property through the diagnostics golden-digest
harness.

Every run builds a fresh graph: dropout layers carry their own stateful
RNG, so two runs only see the same masks when each starts from a freshly
built model.
"""

import numpy as np
import pytest

from repro.core.policy import (
    HybridPolicy,
    STRATEGY_HYBRID,
    STRATEGY_RECOMPUTE,
    STRATEGY_SWAP,
)
from repro.diagnostics import capture_digest
from repro.memory import CHOICE_RECOMPUTE, CHOICE_SWAP, build_hybrid_plan
from repro.models import scaled_vgg
from repro.train import (
    BaselinePolicy,
    GraphExecutor,
    GroupQuantPolicy,
    HybridExecutionPolicy,
    SGD,
    make_synthetic,
)

BATCH = 8
STEPS = 2


def fresh_graph():
    return scaled_vgg(batch_size=BATCH)


@pytest.fixture(scope="module")
def batches():
    train, _ = make_synthetic(BATCH * STEPS, 10, 32, seed=7)
    return [
        (train.images[i * BATCH:(i + 1) * BATCH],
         train.labels[i * BATCH:(i + 1) * BATCH])
        for i in range(STEPS)
    ]


def run_steps(policy_for, batches):
    """Build a fresh graph, run STEPS SGD steps; returns (losses, grads)."""
    graph = fresh_graph()
    ex = GraphExecutor(graph, policy_for(graph), seed=0)
    opt = SGD(lr=0.01)
    params = ex.parameters()
    losses, grads = [], []
    for images, labels in batches:
        losses.append(ex.forward(images, labels))
        g = ex.backward()
        grads.append({k: v.copy() for k, v in g.items()})
        opt.step(params, g)
    return losses, grads


def hybrid_policy_for(graph, strategy):
    plan = build_hybrid_plan(
        graph, HybridPolicy(strategy=strategy, cost_budget_frac=0.3)
    )
    return plan, HybridExecutionPolicy(plan)


class TestBitIdentity:
    @pytest.mark.parametrize(
        "strategy", [STRATEGY_RECOMPUTE, STRATEGY_SWAP, STRATEGY_HYBRID]
    )
    def test_lossless_arm_matches_baseline(self, batches, strategy):
        base_losses, base_grads = run_steps(
            lambda graph: BaselinePolicy(), batches
        )
        plans = []

        def policy_for(graph):
            plan, policy = hybrid_policy_for(graph, strategy)
            plans.append(plan)
            return policy

        losses, grads = run_steps(policy_for, batches)
        assert plans[0].lossless
        assert losses == base_losses
        for step, (got, want) in enumerate(zip(grads, base_grads)):
            assert set(got) == set(want)
            for name in want:
                np.testing.assert_array_equal(
                    got[name], want[name],
                    err_msg=f"{strategy} step {step} grad {name!r} differs",
                )

    def test_recompute_arm_actually_recomputes(self, batches):
        graph = fresh_graph()
        plan, policy = hybrid_policy_for(graph, STRATEGY_RECOMPUTE)
        recomputed = [nid for nid, d in plan.decisions.items()
                      if d.choice == CHOICE_RECOMPUTE]
        assert recomputed  # otherwise the bit-identity test proves nothing
        ex = GraphExecutor(graph, policy, seed=0)
        images, labels = batches[0]
        ex.forward(images, labels)
        # Recompute-chosen maps are dropped, yet stashed_value rebuilds them.
        for nid in recomputed:
            assert nid not in ex.stashed_node_ids()
            rebuilt = ex.stashed_value(nid)
            assert rebuilt.shape == tuple(graph.node(nid).output_shape)
        ex.backward()  # the replay path must survive a full backward pass

    def test_swap_arm_reports_zero_device_stash(self, batches):
        graph = fresh_graph()
        plan, policy = hybrid_policy_for(graph, STRATEGY_SWAP)
        swapped = [d for d in plan.decisions.values()
                   if d.choice == CHOICE_SWAP]
        assert swapped
        ex = GraphExecutor(graph, policy, seed=0)
        images, labels = batches[0]
        ex.forward(images, labels)
        measured = ex.stash_bytes()
        for decision in swapped:
            assert measured[decision.node_name] == 0

    def test_policy_without_the_decision_hook_still_trains(self, batches):
        """A policy whose record holds no hybrid decision (group
        quantisation decides only codecs) runs a full step."""
        policy = GroupQuantPolicy(bits=8)
        ex = GraphExecutor(fresh_graph(), policy, seed=0)
        images, labels = batches[0]
        assert np.isfinite(ex.forward(images, labels))
        grads = ex.backward()
        assert grads and all(np.isfinite(g).all() for g in grads.values())

    def test_describe_names_the_strategy(self):
        graph = fresh_graph()
        _, policy = hybrid_policy_for(graph, STRATEGY_RECOMPUTE)
        assert policy.describe() == "hybrid-recompute"
        _, policy = hybrid_policy_for(graph, STRATEGY_HYBRID)
        assert policy.describe() == "hybrid"


class TestGoldenDigest:
    def test_hybrid_digest_matches_baseline(self, batches):
        """Pin bit-identity through the golden-digest harness: per-step
        loss and gradient hashes must match the baseline exactly."""
        base = capture_digest(
            GraphExecutor(fresh_graph(), BaselinePolicy(), seed=0),
            batches, optimizer=SGD(lr=0.01), policy="baseline",
        )
        graph = fresh_graph()
        plan, policy = hybrid_policy_for(graph, STRATEGY_HYBRID)
        hybrid = capture_digest(
            GraphExecutor(graph, policy, seed=0),
            batches, optimizer=SGD(lr=0.01),
        )
        assert hybrid.policy == "hybrid"
        assert len(hybrid.steps) == len(base.steps) == STEPS
        for step, (got, want) in enumerate(zip(hybrid.steps, base.steps)):
            assert got.loss_hash == want.loss_hash, f"step {step} loss"
            assert got.grads_hash == want.grads_hash, f"step {step} grads"
