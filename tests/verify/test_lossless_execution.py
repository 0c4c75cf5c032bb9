"""The lossless-execution oracle: every fuzzed graph, as built, trains
bit-identically under baseline and under the lossless arm its seed picks.

Each fault-injection test plants one realistic bug in one arm — a codec
that is one ulp off, a recompute replay that draws a fresh dropout mask,
a swap that hands back the previous step's host copy — and asserts that
:func:`~repro.verify.runner.verify_graph` reports it under that arm, with
a detail string naming the step and tensor.  None of these graphs is
changed by the rewrite passes, so the rewrite oracle could never see them.
"""

import numpy as np
import pytest

import repro.memory.hybrid as hybrid_module
from repro.core.policy import STRATEGY_SHARED_CONCAT, HybridPolicy
from repro.encodings.base import HostSwapEncoding
from repro.encodings.ssdc import SSDCEncoding
from repro.graph.builder import GraphBuilder
from repro.layers import (
    Add,
    Concat,
    Conv2D,
    Dense,
    Dropout,
    Flatten,
    GlobalAvgPool2D,
    ReLU,
    SoftmaxCrossEntropy,
    Tanh,
)
from repro.memory.hybrid import build_hybrid_plan
from repro.rewrite import apply_passes
from repro.train import BaselinePolicy, GraphExecutor
from repro.verify import ORACLE_LOSSLESS, verify_graph
from repro.verify.execution import lossless_arms

ARMS = ("gist-lossless", "hybrid-recompute", "hybrid-swap", "hybrid")


def _finish(b, x):
    x = b.add(Dense(5), b.add(Flatten(), x))
    b.mark_output(b.add(SoftmaxCrossEntropy(), x))
    return b.build()


def ssdc_graph():
    """Two ReLU->Conv maps (SSDC under gist-lossless); no pass fires:
    neither ReLU follows a single-consumer conv, and Tanh blocks inplace."""
    b = GraphBuilder("ssdc", (2, 3, 8, 8))
    y = b.add(Conv2D(4, 3, pad=1), b.add(ReLU(), b.input))
    z = b.add(Conv2D(4, 3, pad=1), b.add(ReLU(), y))
    return _finish(b, b.add(Tanh(), b.add(Add(), [y, z])))


def dropout_graph():
    """Conv -> Tanh -> Dropout -> Conv: the second conv reads the dropout
    map, which the recompute arm would replay if dropout were allowed."""
    b = GraphBuilder("dropout", (2, 3, 8, 8))
    x = b.add(Tanh(), b.add(Conv2D(4, 3, pad=1), b.input))
    x = b.add(Conv2D(4, 3, pad=1), b.add(Dropout(p=0.5, seed=3), x))
    return _finish(b, b.add(Tanh(), x))


def dense_block():
    """A two-link concat chain, so the shared-concat arm joins the draw."""
    b = GraphBuilder("dense_block", (2, 2, 4, 4))
    x = b.add(Conv2D(3, 3, pad=1), b.input)
    for _ in range(2):
        x = b.add(Concat(), [x, b.add(ReLU(), b.add(Conv2D(2, 3, pad=1), x))])
    x = b.add(GlobalAvgPool2D(), b.add(Conv2D(2, 1), x))
    b.mark_output(b.add(SoftmaxCrossEntropy(), b.add(Dense(3), x)))
    return b.build()


def lossless(violations):
    return [v for v in violations if v.oracle == ORACLE_LOSSLESS]


@pytest.mark.parametrize("build", [ssdc_graph, dropout_graph])
def test_no_rewrite_pass_fires(build):
    assert not apply_passes(build()).changed


@pytest.mark.parametrize("build", [ssdc_graph, dropout_graph, dense_block])
def test_every_arm_is_clean(build):
    graph = build()
    for seed in range(5):
        assert verify_graph(graph, seed) == []


def test_arm_labels_are_the_policy_labels():
    graph = dense_block()
    shared = build_hybrid_plan(
        graph, HybridPolicy(strategy=STRATEGY_SHARED_CONCAT))
    arms = lossless_arms(graph, build_hybrid_plan(graph), shared)
    assert [label for label, _ in arms] == list(ARMS) + [
        "hybrid-shared_concat"]
    for label, build in arms:
        assert build().describe() == label


def test_ulp_in_ssdc_decode_is_caught_without_a_rewrite(monkeypatch):
    graph = ssdc_graph()
    assert not apply_passes(graph).changed
    decode = SSDCEncoding.decode

    def one_ulp_up(self, encoded):
        # One zero decodes to the smallest denormal: the ReLU backward's
        # mask opens where the forward's was shut.
        out = decode(self, encoded)
        first = np.flatnonzero(out == 0)[0]
        out.flat[first] = np.nextafter(np.float32(0), np.float32(1))
        return out

    monkeypatch.setattr(SSDCEncoding, "decode", one_ulp_up)
    found = verify_graph(graph, seed=0)  # seed 0 picks gist-lossless
    assert found
    assert all(v.oracle == ORACLE_LOSSLESS for v in found)
    assert all(v.subject == "gist-lossless" for v in found)
    assert any(v.detail.startswith("arm gist-lossless step 0: gradient ")
               for v in found)


def test_ulp_on_every_ssdc_nonzero_reaches_the_weight_gradient(monkeypatch):
    """Every non-zero of a decoded SSDC map one ulp up, the zero pattern
    kept: every ReLU mask is right, so only a weight gradient that reads
    the decoded stash can see the fault.  Both convs of this graph run
    ``reference`` (the chooser's probe cannot settle their GEMMs), which
    reads the stash for dW, so the fault reaches ``conv*.w``.  A conv
    that kept its forward's columns for dW would hide it; the only arm
    that keeps them, ``blas-fat``, still does so wherever it is proven,
    and there this fault stays invisible."""
    decode = SSDCEncoding.decode

    def nonzeros_one_ulp_up(self, encoded):
        out = decode(self, encoded)
        return np.where(out != 0, np.nextafter(out, np.float32(np.inf)),
                        out)

    monkeypatch.setattr(SSDCEncoding, "decode", nonzeros_one_ulp_up)
    found = lossless(verify_graph(ssdc_graph(), seed=0))
    assert all(v.subject == "gist-lossless" for v in found)
    assert {f"arm gist-lossless step 0: gradient '{name}' not bit-identical "
            "(baseline vs gist-lossless)" for name in ("conv1.w", "conv2.w")
            } <= {v.detail for v in found}


def test_recompute_replay_with_a_fresh_dropout_mask_is_caught(monkeypatch):
    # The planner bug: dropout let into recompute chains, so the backward
    # read replays the layer and draws a new mask.
    monkeypatch.setattr(hybrid_module, "NON_RECOMPUTABLE_KINDS",
                        frozenset({"batchnorm", "input", "loss"}))
    found = lossless(verify_graph(dropout_graph(), seed=1))
    assert found
    assert all(v.subject == "hybrid-recompute" for v in found)
    assert "arm hybrid-recompute step 0: gradient 'conv2.w' not " \
        "bit-identical (baseline vs hybrid-recompute)" in {
            v.detail for v in found}
    # The replay advanced the mask stream, so step 1's forward differs.
    assert any(v.detail.startswith("arm hybrid-recompute step 1: loss "
                                   "diverged") for v in found)


def test_stale_swap_copy_is_caught(monkeypatch):
    # The offload bug: each swapped map reads back the host buffer the
    # previous step wrote.  Step 0 has no previous copy and is clean.
    held = {}
    stash = GraphExecutor._maybe_stash

    def stale_swap(self, node, y):
        stash(self, node, y)
        entry = self._stash.get(node.node_id)
        if entry is not None and isinstance(entry[0], HostSwapEncoding):
            key = (id(self), node.node_id)
            previous = held.get(key, entry[1])
            held[key] = entry[1].copy()
            self._stash[node.node_id] = (entry[0], previous)

    monkeypatch.setattr(GraphExecutor, "_maybe_stash", stale_swap)
    found = verify_graph(ssdc_graph(), seed=2)  # seed 2 picks hybrid-swap
    assert found
    assert all(v.oracle == ORACLE_LOSSLESS for v in found)
    assert all(v.subject == "hybrid-swap" for v in found)
    assert all(v.detail.startswith("arm hybrid-swap step 1: gradient ")
               for v in found)


@pytest.mark.parametrize("build,arms", [
    (dropout_graph, ARMS),
    (dense_block, ARMS + ("hybrid-shared_concat",)),
])
def test_consecutive_seeds_reach_every_arm(monkeypatch, build, arms):
    # A broken reference makes every arm diverge, so each seed's
    # violations name the arm it drew.
    monkeypatch.setattr(BaselinePolicy, "transform_forward",
                        lambda self, y, node: y * np.float32(1.5))
    graph = build()
    for seed in range(7, 7 + len(arms)):
        found = lossless(verify_graph(graph, seed))
        assert found
        assert {v.subject for v in found} == {arms[seed % len(arms)]}
        assert all(v.seed == seed for v in found)
