"""Tests for the graph fuzzer: determinism, validity, and the pinned
greedy-vs-first-fit counterexample the fuzzer discovered."""

import numpy as np
import pytest

from repro.graph.schedule import TrainingSchedule
from repro.memory.allocator import (
    POLICY_FIRST_FIT,
    POLICY_GREEDY_SIZE,
    StaticAllocator,
)
from repro.memory.planner import build_memory_plan
from repro.verify import (
    DEFAULT_MAX_OPS,
    GraphFuzzer,
    check_policy_bounds,
    verify_graph,
)

#: Fuzzer-discovered seed where the CNTK size-sorted greedy heuristic
#: allocates MORE than insertion-order first-fit (a fan-out graph whose
#: roughly birth-sorted table makes first-fit near-optimal left-edge
#: packing).  Documents why greedy <= first-fit is a strict-only oracle
#: leg, not a theorem.
COUNTEREXAMPLE_SEED = 19


class TestDeterminism:
    def test_same_seed_same_graph(self):
        a = GraphFuzzer(7).graph()
        b = GraphFuzzer(7).graph()
        assert a.summary() == b.summary()

    def test_different_seeds_differ(self):
        summaries = {GraphFuzzer(s).graph().summary() for s in range(8)}
        assert len(summaries) > 1

    def test_max_ops_bounds_size(self):
        small = GraphFuzzer(3).graph(max_ops=2)
        large = GraphFuzzer(3).graph(max_ops=DEFAULT_MAX_OPS)
        assert len(small.nodes) < len(large.nodes)


class TestValidity:
    @pytest.mark.parametrize("seed", range(10))
    def test_graphs_schedule_and_plan(self, seed):
        graph = GraphFuzzer(seed).graph()
        schedule = TrainingSchedule(graph)
        plan = build_memory_plan(graph, schedule)
        assert plan.tensors
        from repro.layers import SoftmaxCrossEntropy

        assert isinstance(graph.node(graph.output_id).layer,
                          SoftmaxCrossEntropy)

    def test_fuzz_graphs_yields_pairs(self):
        for seed in range(3):
            assert GraphFuzzer(seed).graph(max_ops=4).name == f"fuzz_{seed}"

    def test_small_budgets_always_valid(self):
        # The minimizer replays every size from 1 up; each must build.
        for k in range(1, 8):
            graph = GraphFuzzer(11).graph(max_ops=k)
            TrainingSchedule(graph)


class TestRecurrentGenre:
    def test_same_seed_same_graph(self):
        a = GraphFuzzer(7).graph(recurrent_shapes=True)
        b = GraphFuzzer(7).graph(recurrent_shapes=True)
        assert a.summary() == b.summary()

    def test_genre_does_not_perturb_default_stream(self):
        # Opting into recurrent shapes must not shift the decision
        # stream of the default genre at the same seed.
        before = GraphFuzzer(5).graph().summary()
        GraphFuzzer(5).graph(recurrent_shapes=True)
        assert GraphFuzzer(5).graph().summary() == before

    @pytest.mark.parametrize("seed", range(5))
    def test_recurrent_graphs_verify_clean(self, seed):
        graph = GraphFuzzer(seed).graph(recurrent_shapes=True)
        assert any(n.kind in ("lstm_step", "rnn_step") for n in graph.nodes)
        assert verify_graph(graph, seed) == []


class TestGreedyCounterexample:
    def test_seed_19_greedy_loses_to_first_fit(self):
        graph = GraphFuzzer(COUNTEREXAMPLE_SEED).graph()
        tensors = build_memory_plan(graph, TrainingSchedule(graph)).tensors
        greedy = StaticAllocator(POLICY_GREEDY_SIZE).allocate(tensors)
        first_fit = StaticAllocator(POLICY_FIRST_FIT).allocate(tensors)
        assert greedy.total_bytes > first_fit.total_bytes

    def test_strict_leg_fires_only_under_strict(self):
        totals = {"greedy-size": 110, "first-fit": 100, "none": 200}
        assert check_policy_bounds(totals, 100, 90) == []
        strict = check_policy_bounds(totals, 100, 90, strict=True)
        assert len(strict) == 1
        assert "greedy-size" in strict[0].detail

    def test_default_battery_accepts_counterexample(self):
        graph = GraphFuzzer(COUNTEREXAMPLE_SEED).graph()
        assert verify_graph(graph, COUNTEREXAMPLE_SEED) == []
