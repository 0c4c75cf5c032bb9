"""Shared-concat buffers: chain discovery, planner arm, aliasing safety.

The DenseNet trick: along a concat chain linked through each concat's
*first* input, the executor runs the chain in one buffer, so every
member is a leading-channel slice of the terminal's buffer.  The
planner prices members at zero resident bytes, the allocator folds the
whole chain into one aliased region sized by the terminal, and the
executor re-slices on backward — bit-exactly.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.policy import HybridPolicy, STRATEGY_SHARED_CONCAT
from repro.graph.builder import GraphBuilder
from repro.graph.liveness import LiveTensor, ROLE_FEATURE_MAP
from repro.layers import (
    Concat,
    Conv2D,
    Dense,
    GlobalAvgPool2D,
    ReLU,
    SoftmaxCrossEntropy,
)
from repro.memory.allocator import POLICY_NO_SHARING, StaticAllocator
from repro.diagnostics import StepTracer
from repro.memory.hybrid import (
    CHOICE_RECOMPUTE,
    CHOICE_SHARED_CONCAT,
    build_hybrid_plan,
)
from repro.memory.shared_concat import find_concat_chains, member_to_terminal
from repro.models import build_model
from repro.tensor import TensorSpec
from repro.train.executor import GraphExecutor
from repro.train.stash import BaselinePolicy, HybridExecutionPolicy
from repro.verify import check_allocator_safety, check_shared_concat

DENSENET_KWARGS = dict(batch_size=4, num_classes=4, image_size=8,
                       init_channels=4, growth=4, blocks=2, block_layers=3)


@pytest.fixture(scope="module")
def densenet_graph():
    return build_model("densenet", **DENSENET_KWARGS)


@pytest.fixture(scope="module")
def arm_plan(densenet_graph):
    return build_hybrid_plan(
        densenet_graph, HybridPolicy(strategy=STRATEGY_SHARED_CONCAT)
    )


class TestChainDiscovery:
    def test_densenet_has_one_chain_per_block(self, densenet_graph):
        chains = find_concat_chains(densenet_graph)
        assert len(chains) == DENSENET_KWARGS["blocks"]
        for chain in chains:
            # block_layers concats per block: all but the terminal are
            # members (the terminal holds the shared buffer).
            assert len(chain.members) == DENSENET_KWARGS["block_layers"] - 1

    def test_chain_links_run_through_first_input(self, densenet_graph):
        for chain in find_concat_chains(densenet_graph):
            path = chain.path(chain.members[0])
            for prev, cur in zip(path, path[1:]):
                assert densenet_graph.node(cur).inputs[0] == prev

    def test_member_index_maps_every_member(self, densenet_graph):
        chains = find_concat_chains(densenet_graph)
        index = member_to_terminal(chains)
        assert set(index) == {m for c in chains for m in c.members}

    def test_plain_cnn_has_no_chains(self):
        assert find_concat_chains(build_model("tiny_cnn", batch_size=4)) == []

    def test_second_position_concat_forfeits_the_link(self):
        # y concatenated as inputs[1] — the prefix-copy property fails,
        # so the walk must not link through it.
        b = GraphBuilder("wrong_position", (2, 2, 4, 4))
        x = b.add(Conv2D(2, 1), b.input)
        c1 = b.add(Concat(), [x, b.add(Conv2D(2, 1), b.input)])
        c2 = b.add(Concat(), [b.add(Conv2D(2, 1), b.input), c1])
        z = b.add(GlobalAvgPool2D(), c2)
        z = b.add(Dense(2), z)
        b.mark_output(b.add(SoftmaxCrossEntropy(), z))
        graph = b.build()
        assert all(c1.node_id not in chain.members
                   for chain in find_concat_chains(graph))


class TestPlannerArm:
    def test_arm_emits_shared_concat_decisions(self, arm_plan):
        decisions = [d for d in arm_plan.decisions.values()
                     if d.choice == CHOICE_SHARED_CONCAT]
        assert decisions
        assert all(d.lossless and d.resident_bytes == 0 for d in decisions)

    def test_arm_shrinks_the_footprint(self, arm_plan):
        assert arm_plan.allocated_bytes < arm_plan.baseline_allocated_bytes

    def test_terminals_carry_no_decision(self, arm_plan):
        for d in arm_plan.decisions.values():
            if d.choice == CHOICE_SHARED_CONCAT:
                assert d.source_id not in arm_plan.decisions

    def test_oracle_passes_on_planner_output(self, arm_plan):
        assert check_shared_concat(arm_plan) == []

    def test_hybrid_dominates_the_pure_arm(self, densenet_graph):
        hybrid = build_hybrid_plan(densenet_graph)
        assert hybrid.pure_footprints["shared_concat"] >= \
            hybrid.allocated_bytes

    def test_allocator_aliases_the_chain(self, arm_plan):
        result = StaticAllocator().allocate(arm_plan.plan.tensors)
        aliased = [g for g in result.groups if g.aliased]
        assert aliased
        assert check_allocator_safety(result, arm_plan.plan.tensors) == []
        for group in aliased:
            assert group.size_bytes == max(t.size_bytes
                                           for t in group.members)


class TestExecutorBitIdentity:
    @pytest.mark.parametrize("strategy", ["shared_concat", "hybrid"])
    def test_densenet_trains_bit_identically(self, densenet_graph, strategy):
        plan = build_hybrid_plan(
            densenet_graph, HybridPolicy(strategy=strategy))
        assert plan.lossless
        rng = np.random.default_rng(0)
        shape = densenet_graph.node(densenet_graph.input_id).output_shape
        x = rng.normal(0, 1, shape).astype(np.float32)
        y = rng.integers(0, DENSENET_KWARGS["num_classes"],
                         shape[0]).astype(np.int64)

        base = GraphExecutor(densenet_graph, BaselinePolicy(), seed=0)
        tracer = StepTracer()
        planned = GraphExecutor(densenet_graph,
                                HybridExecutionPolicy(plan), seed=0,
                                tracer=tracer)
        assert base.forward(x, y, train=True) == \
            planned.forward(x, y, train=True)
        base_grads, plan_grads = base.backward(), planned.backward()
        assert set(base_grads) == set(plan_grads)
        for name in base_grads:
            np.testing.assert_array_equal(base_grads[name], plan_grads[name])
        # Bit-identity proves nothing unless the decisions were executed:
        # every dropped map was rebuilt through the path its choice names.
        rebuilt = {(e.node, e.encoding) for e in tracer.events
                   if e.phase == "decode"}
        labels = {CHOICE_RECOMPUTE: "recompute",
                  CHOICE_SHARED_CONCAT: "shared-concat"}
        dropped = {(d.node_name, labels[d.choice])
                   for d in plan.decisions.values() if d.choice in labels}
        assert dropped <= rebuilt
        executed = {label for _, label in dropped}
        assert "shared-concat" in executed
        assert strategy != "hybrid" or "recompute" in executed

    def test_members_are_not_stashed(self, densenet_graph, arm_plan):
        policy = HybridExecutionPolicy(arm_plan)
        executor = GraphExecutor(densenet_graph, policy, seed=0)
        rng = np.random.default_rng(0)
        shape = densenet_graph.node(densenet_graph.input_id).output_shape
        x = rng.normal(0, 1, shape).astype(np.float32)
        y = rng.integers(0, 4, shape[0]).astype(np.int64)
        executor.forward(x, y, train=True)
        members = {nid for nid, d in arm_plan.decisions.items()
                   if d.choice == CHOICE_SHARED_CONCAT}
        assert members
        assert not members & set(executor.stashed_node_ids())
        executor.backward()  # materialises via the terminal's prefix


def lt(name, elements, birth, death, shareable=True, alias_group=None):
    return LiveTensor(
        TensorSpec(name, (elements,)), birth, death, 0, ROLE_FEATURE_MAP,
        shareable, alias_group=alias_group,
    )


@st.composite
def aliased_tables(draw):
    """Random liveness tables mixing labelled and ordinary tensors."""
    tensors = []
    n_labels = draw(st.integers(1, 3))
    for li in range(n_labels):
        for mi in range(draw(st.integers(1, 4))):
            birth = draw(st.integers(0, 30))
            tensors.append(lt(
                f"a{li}_{mi}", draw(st.integers(1, 500)), birth,
                birth + draw(st.integers(0, 20)),
                alias_group=f"concat:{li}",
            ))
    for i in range(draw(st.integers(0, 6))):
        birth = draw(st.integers(0, 30))
        tensors.append(lt(f"p{i}", draw(st.integers(1, 500)), birth,
                          birth + draw(st.integers(0, 20))))
    return tensors


class TestAliasingProperties:
    @settings(max_examples=50, deadline=None)
    @given(aliased_tables())
    def test_aliased_groups_are_safe_and_tight(self, tensors):
        result = StaticAllocator().allocate(tensors)
        assert check_allocator_safety(result, tensors) == []
        by_label = {}
        for t in tensors:
            if t.alias_group:
                by_label.setdefault(t.alias_group, []).append(t)
        aliased_groups = [g for g in result.groups if g.aliased]
        # One region per label, sized by its largest member.
        assert len(aliased_groups) == len(by_label)
        for group in aliased_groups:
            label = group.members[0].alias_group
            assert sorted(t.spec.name for t in group.members) == \
                sorted(t.spec.name for t in by_label[label])
            assert group.size_bytes == max(t.size_bytes
                                           for t in group.members)

    @settings(max_examples=25, deadline=None)
    @given(aliased_tables())
    def test_no_sharing_ablation_ignores_labels(self, tensors):
        result = StaticAllocator(POLICY_NO_SHARING).allocate(tensors)
        assert not any(g.aliased for g in result.groups)
        assert result.total_bytes == sum(t.size_bytes for t in tensors)
