"""Tests for the dynamic-allocation simulator, planner and footprint report."""

import pytest

from repro.graph import TrainingSchedule
from repro.graph.liveness import LiveTensor, ROLE_FEATURE_MAP
from repro.memory import (
    CLASS_GRADIENT,
    CLASS_IMMEDIATE,
    CLASS_SAVED_STATE,
    CLASS_STASHED,
    CLASS_WEIGHT,
    MemoryPlan,
    build_memory_plan,
    memory_footprint_ratio,
    simulate_dynamic,
)
from repro.tensor import TensorSpec


def lt(name, elements, birth, death):
    return LiveTensor(TensorSpec(name, (elements,)), birth, death, 0,
                      ROLE_FEATURE_MAP)


class TestDynamicSimulator:
    def test_peak_of_overlapping(self):
        tensors = [lt("a", 100, 0, 5), lt("b", 50, 3, 8), lt("c", 25, 6, 9)]
        result = simulate_dynamic(tensors)
        assert result.peak_bytes == 600  # a+b live at t in [3,5]
        assert 3 <= result.peak_time <= 5

    def test_empty(self):
        assert simulate_dynamic([]).peak_bytes == 0

    def test_timeline_length(self):
        result = simulate_dynamic([lt("a", 1, 0, 4)], horizon=10)
        assert len(result.timeline) == 10

    def test_average_below_peak(self):
        result = simulate_dynamic([lt("a", 100, 0, 1), lt("b", 10, 5, 9)])
        average = sum(result.timeline) / len(result.timeline)
        assert average < result.peak_bytes

    def test_horizon_violation(self):
        with pytest.raises(ValueError):
            simulate_dynamic([lt("a", 1, 0, 5)], horizon=4)

    def test_dynamic_never_exceeds_static(self, tiny_graph):
        from repro.memory import StaticAllocator

        plan = build_memory_plan(tiny_graph)
        assert (simulate_dynamic(plan.tensors).peak_bytes
                <= StaticAllocator().allocate(plan.tensors).total_bytes)


class TestPlanner:
    def test_cntk_baseline_excludes_weights(self, tiny_graph):
        plan = build_memory_plan(tiny_graph)
        classes = {plan.classify(t) for t in plan.tensors}
        assert CLASS_WEIGHT not in classes

    def test_full_plan_includes_weights(self, tiny_graph):
        plan = build_memory_plan(tiny_graph, include_weights=True,
                                 include_workspace=True)
        by_class = plan.bytes_by_class()
        assert by_class[CLASS_WEIGHT] > 0
        assert by_class["workspace"] > 0

    def test_stashed_vs_immediate_split(self, tiny_graph):
        plan = build_memory_plan(tiny_graph)
        stashed = {t.spec.name for t in plan.stashed_feature_maps()}
        # relu outputs and pool inputs/outputs are stashed; conv1.out is not.
        assert "relu1.out" in stashed
        assert "relu2.out" in stashed
        assert "conv1.out" not in stashed

    def test_investigation_marks_stashes_unshareable(self, tiny_graph):
        plan = build_memory_plan(tiny_graph, investigation=True)
        for t in plan.tensors:
            if plan.classify(t) == CLASS_STASHED:
                assert not t.shareable

    def test_gradient_maps_classified(self, tiny_graph):
        plan = build_memory_plan(tiny_graph)
        assert plan.bytes_by_class()[CLASS_GRADIENT] > 0

    def test_total_bytes(self, tiny_graph):
        plan = build_memory_plan(tiny_graph)
        assert plan.total_bytes() == sum(t.size_bytes for t in plan.tensors)

    def test_all_classes_present_as_keys(self, tiny_graph):
        plan = build_memory_plan(tiny_graph)
        from repro.memory import ALL_CLASSES

        assert set(plan.by_class()) == set(ALL_CLASSES)


class TestFootprintReport:
    def test_mfr(self):
        assert memory_footprint_ratio(200, 100) == 2.0
        with pytest.raises(ValueError):
            memory_footprint_ratio(100, 0)
