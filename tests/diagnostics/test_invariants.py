"""Invariant checks: clean runs pass, seeded faults are caught.

Each fault test injects exactly the bug class its check polices — a
corrupted encoded stash (the suite's round-trip checker) or a stash read
after its death point (every executor's own clock) — and asserts the
check raises at the faulty event, not later.
"""

import numpy as np
import pytest

from repro.diagnostics import (
    GOLDEN_MODELS,
    InvariantViolation,
    golden_batches,
    run_traced,
)
from repro.encodings.binarize import BinarizedTensor
from repro.graph.liveness import feature_map_uses
from repro.memory import build_hybrid_plan
from repro.memory.hybrid import CHOICE_RECOMPUTE, source_read_time
from repro.models import build_model
from repro.train.executor import GraphExecutor
from repro.train.stash import HybridExecutionPolicy, policy_from_name


def _executor(policy="gist-lossless", model="tiny_cnn", checked=True):
    graph = build_model(model, **GOLDEN_MODELS[model])
    executor = GraphExecutor(graph, policy_from_name(policy, graph), seed=0)
    if checked:
        executor.enable_invariants()
    images, labels = golden_batches(model, 1)[0]
    return executor, images, labels


def _binarized_stash(executor):
    for nid, (_, encoded) in executor._stash.items():
        if isinstance(encoded, BinarizedTensor):
            return nid, encoded
    raise AssertionError("no binarized stash found")


class TestCleanRuns:
    @pytest.mark.parametrize("policy", ["baseline", "gist-lossless"])
    def test_invariants_pass_on_clean_training(self, policy):
        digest = run_traced("tiny_cnn", policy, steps=2,
                            check_invariants=True)
        assert len(digest.steps) == 2

    def test_invariants_pass_on_lossy_gist(self):
        # DPR stashes are lossy: the round-trip checker must skip them
        # rather than report false positives.
        digest = run_traced("tiny_cnn", "gist-fp8", steps=2,
                            check_invariants=True)
        assert len(digest.steps) == 2

    def test_multi_step_state_resets(self):
        executor, images, labels = _executor()
        for _ in range(3):
            executor.forward(images, labels)
            executor.backward()


class TestRoundTripChecker:
    def test_corrupted_encoded_stash_is_caught(self):
        executor, images, labels = _executor()
        executor.forward(images, labels)
        _, encoded = _binarized_stash(executor)
        encoded.words[0] ^= np.uint32(1)  # flip one stashed mask bit
        with pytest.raises(InvariantViolation, match="lossless-round-trip"):
            executor.backward()

    def test_corrupted_identity_stash_is_caught(self):
        executor, images, labels = _executor("baseline")
        executor.forward(images, labels)
        nid = executor.stashed_node_ids()[1]
        _, stash = executor._stash[nid]
        # Identity stashes can be non-contiguous kernel views; index-assign
        # so the write lands in the real storage rather than a flat copy.
        idx = (0,) * stash.ndim
        stash[idx] = stash[idx] + np.float32(1.0)
        with pytest.raises(InvariantViolation, match="lossless-round-trip"):
            executor.stashed_value(nid)

class TestLivenessChecker:
    """Every executor polices stash liveness: no suite is attached."""

    def test_read_after_death_point_is_caught(self):
        executor, images, labels = _executor(checked=False)
        executor.forward(images, labels)
        nid = executor.stashed_node_ids()[1]
        executor.backward()
        with pytest.raises(InvariantViolation, match="stash-liveness"):
            executor.stashed_value(nid)

    def test_cached_decodes_are_also_policed(self):
        # The liveness check must fire before the decode cache is
        # consulted, otherwise reads of already-decoded stashes escape it.
        executor, images, labels = _executor(checked=False)
        executor.forward(images, labels)
        nid = executor.stashed_node_ids()[1]
        executor.stashed_value(nid)  # populate the decode cache in-window
        executor.backward()
        with pytest.raises(InvariantViolation, match="stash-liveness"):
            executor.stashed_value(nid)

    def test_recompute_source_read_after_its_stretched_death_is_caught(self):
        # A recompute target replays from its source at the target's
        # first backward read, so the source's death is stretched to it:
        # the source reads at that death and not one tick later.
        graph = build_model("densenet", batch_size=4)
        plan = build_hybrid_plan(graph)
        executor = GraphExecutor(graph, HybridExecutionPolicy(plan), seed=0)
        decision = next(d for d in plan.decisions.values()
                        if d.choice == CHOICE_RECOMPUTE)
        source = decision.source_id
        death = plan.stash_deaths()[source]
        uses = feature_map_uses(graph, plan.schedule, True)
        assert death >= source_read_time(decision, uses)
        rng = np.random.default_rng(0)
        shape = graph.node(graph.input_id).output_shape
        executor.forward(rng.normal(0, 1, shape).astype(np.float32),
                         rng.integers(0, 10, shape[0]))
        executor._clock = death
        executor.stashed_value(source)
        executor._clock = death + 1
        name = graph.node(source).name
        with pytest.raises(InvariantViolation,
                           match=f"stash-liveness: stash of '{name}' read "
                                 f"at schedule time {death + 1}"):
            executor.stashed_value(source)
