"""Tests for the hybrid memory planner (encode x recompute x swap)."""

import pytest

from repro.core import GistConfig
from repro.core.policy import (
    HybridPolicy,
    STRATEGY_GIST,
    STRATEGY_HYBRID,
    STRATEGY_RECOMPUTE,
    STRATEGY_SHARED_CONCAT,
    STRATEGY_SWAP,
)
from repro.graph.liveness import feature_map_uses
from repro.graph.schedule import TrainingSchedule
from repro.memory import (
    ALL_CHOICES,
    CHOICE_GIST,
    CHOICE_RECOMPUTE,
    CHOICE_SWAP,
    NON_RECOMPUTABLE_KINDS,
    build_hybrid_plan,
    find_recompute_chain,
)
from repro.memory.hybrid import SOURCE_COMPATIBLE_CHOICES
from repro.models import resnet_cifar, scaled_vgg

PURE_STRATEGIES = (STRATEGY_GIST, STRATEGY_RECOMPUTE, STRATEGY_SWAP,
                   STRATEGY_SHARED_CONCAT)


@pytest.fixture(scope="module")
def graph():
    return scaled_vgg(batch_size=8)


@pytest.fixture(scope="module")
def hybrid(graph):
    return build_hybrid_plan(graph)


@pytest.fixture(scope="module")
def recompute_arm(graph):
    # A generous budget so the pure-recompute arm actually selects chains.
    return build_hybrid_plan(
        graph, HybridPolicy(strategy=STRATEGY_RECOMPUTE, cost_budget_frac=0.3)
    )


class TestSelection:
    def test_reduces_footprint(self, hybrid):
        assert hybrid.allocated_bytes < hybrid.baseline_allocated_bytes
        assert hybrid.footprint_ratio > 1.0

    def test_dominates_every_pure_arm(self, hybrid):
        assert set(hybrid.pure_footprints) == set(PURE_STRATEGIES)
        for strategy, footprint in hybrid.pure_footprints.items():
            assert hybrid.allocated_bytes <= footprint, strategy

    def test_budget_respected(self, hybrid, recompute_arm):
        for plan in (hybrid, recompute_arm):
            assert plan.total_cost_s <= plan.budget_s * (1 + 1e-9) + 1e-12
            assert plan.overhead_frac <= plan.policy.cost_budget_frac + 1e-9

    def test_fallback_adoption_matches_pure_footprint(self, hybrid):
        if hybrid.fallback_strategy is not None:
            assert hybrid.fallback_strategy in PURE_STRATEGIES
            assert (hybrid.allocated_bytes
                    == hybrid.pure_footprints[hybrid.fallback_strategy])

    def test_pure_arm_uses_only_its_choice(self, graph):
        for strategy, choice in (
            (STRATEGY_GIST, CHOICE_GIST),
            (STRATEGY_RECOMPUTE, CHOICE_RECOMPUTE),
            (STRATEGY_SWAP, CHOICE_SWAP),
        ):
            plan = build_hybrid_plan(graph, HybridPolicy(strategy=strategy))
            assert {d.choice for d in plan.decisions.values()} <= {choice}
            assert not plan.pure_footprints  # only the hybrid arm compares

    def test_lossless_policy_yields_lossless_plan(self, hybrid):
        assert hybrid.policy.lossless
        assert hybrid.lossless
        assert all(d.lossless for d in hybrid.decisions.values())

    def test_deterministic(self, graph, hybrid):
        again = build_hybrid_plan(graph)
        assert again.decisions == hybrid.decisions
        assert again.allocated_bytes == hybrid.allocated_bytes
        assert again.fallback_strategy == hybrid.fallback_strategy

    def test_bytes_by_choice_covers_all_decisions(self, hybrid):
        by_choice = hybrid.bytes_by_choice()
        assert set(by_choice) == set(ALL_CHOICES)
        assert (sum(by_choice.values())
                == sum(d.fp32_bytes for d in hybrid.decisions.values()))

    def test_decisions_save_bytes(self, hybrid):
        for decision in hybrid.decisions.values():
            assert decision.savings_bytes > 0
            assert decision.cost_s >= 0.0

    def test_bad_strategy_rejected(self):
        with pytest.raises(ValueError):
            HybridPolicy(strategy="prayer")
        with pytest.raises(ValueError):
            HybridPolicy(cost_budget_frac=-0.1)


class TestRecomputeChains:
    def test_chains_selected(self, recompute_arm):
        assert any(d.choice == CHOICE_RECOMPUTE
                   for d in recompute_arm.decisions.values())

    def test_chain_links_are_valid(self, graph, recompute_arm):
        for nid, decision in recompute_arm.decisions.items():
            if decision.choice != CHOICE_RECOMPUTE:
                continue
            assert decision.chain[-1] == nid
            prev = decision.source_id
            for chain_id in decision.chain:
                node = graph.node(chain_id)
                assert node.kind not in NON_RECOMPUTABLE_KINDS
                assert list(node.inputs) == [prev]
                prev = chain_id

    def test_sources_are_value_exact(self, hybrid):
        for decision in hybrid.decisions.values():
            if decision.choice != CHOICE_RECOMPUTE:
                continue
            source = hybrid.decisions.get(decision.source_id)
            assert source is None or source.choice in SOURCE_COMPATIBLE_CHOICES

    def test_no_lossy_ancestor_even_with_dpr(self, graph):
        # Regression: with DPR on, the gist option is value-destroying, so
        # no recompute decision may read from a DPR/binarize-encoded source.
        plan = build_hybrid_plan(
            graph, HybridPolicy(gist=GistConfig.full(dpr_format="fp8"))
        )
        for decision in plan.decisions.values():
            if decision.choice != CHOICE_RECOMPUTE:
                continue
            source = plan.decisions.get(decision.source_id)
            assert source is None or source.choice in SOURCE_COMPATIBLE_CHOICES
            if source is not None:
                assert source.lossless

    def test_input_and_loss_are_never_targets(self, tiny_graph):
        uses = feature_map_uses(tiny_graph, TrainingSchedule(tiny_graph),
                                True)
        assert find_recompute_chain(
            tiny_graph, uses, tiny_graph.input_id, 0) is None
        assert find_recompute_chain(
            tiny_graph, uses, tiny_graph.output_id, 0) is None

    def test_multi_input_target_rejected(self):
        g = resnet_cifar(14, batch_size=2)
        schedule = TrainingSchedule(g)
        join = next(n for n in g.nodes if len(n.inputs) > 1)
        assert find_recompute_chain(
            g, feature_map_uses(g, schedule, True), join.node_id,
            schedule.backward_time(join.node_id)) is None

    def test_chains_never_cross_joins(self):
        # Fan-in (residual add) nodes are multi-input, so a chain can
        # neither contain nor walk through one.
        g = resnet_cifar(14, batch_size=2)
        plan = build_hybrid_plan(
            g, HybridPolicy(strategy=STRATEGY_HYBRID, cost_budget_frac=0.3)
        )
        for decision in plan.decisions.values():
            if decision.choice != CHOICE_RECOMPUTE:
                continue
            for chain_id in decision.chain:
                assert len(g.node(chain_id).inputs) == 1


class TestBranchyGraphs:
    def test_resnet_plan_is_clean_and_smaller(self):
        from repro.verify import check_hybrid_plan

        g = resnet_cifar(14, batch_size=2)
        plan = build_hybrid_plan(g)
        assert check_hybrid_plan(plan) == []
        assert plan.allocated_bytes <= min(plan.pure_footprints.values())
