"""The per-graph memo of derived facts (``Graph.derived``).

A graph is immutable, so its liveness table, stash classes, feature-map
uses and step-time table are derived once and shared by every planner
that asks.  Sharing is only exact if no caller's rewrite reaches the next
caller: tables are copied at the boundary, the rest is handed out
read-only.  These tests hold that contract — a warm graph answers every
entry point exactly as a freshly built one does, in any call order and
after any in-place rewrite of what it handed out.
"""

import copy
import random

import pytest

from repro.core import Gist, GistConfig, build_gist_plan, classify_all_stashes
from repro.graph.liveness import compute_lifetimes, feature_map_uses
from repro.graph.schedule import TrainingSchedule
from repro.memory import (
    StaticAllocator,
    build_hybrid_plan,
    build_memory_plan,
    build_recompute_plan,
)
from repro.models import available_models, build_model
from repro.perf.cost import CostModel
from repro.perf.overhead import measure_overhead
from repro.verify.fuzzer import GraphFuzzer

BATCH = 8
FUZZ_SEEDS = range(50)


def _groups(tensors):
    result = StaticAllocator().allocate(tensors)
    return ([[t.spec.name for t in g.members] for g in result.groups],
            result.total_bytes)


def _plan(plan):
    return plan.tensors, _groups(plan.tensors)


def _record(record):
    return record.decisions, _plan(record.plan)


def _hybrid(record):
    return (record.decisions, record.total_cost_s, record.budget_s,
            record.allocated_bytes, record.baseline_allocated_bytes,
            record.pure_footprints, record.fallback_strategy,
            _plan(record.plan))


def _classes(graph):
    # StashInfo holds the consumer nodes; compare them by id across graphs.
    return {nid: (info.stash_class, info.producer_needs,
                  [c.node_id for c in info.value_consumers])
            for nid, info in classify_all_stashes(graph).items()}


def _corrupt(graph):
    # What the fault-injection battery does to a table it was handed.
    table = compute_lifetimes(graph)
    for victim in table:
        victim.death = victim.birth - 1
        victim.shareable = not victim.shareable
    schedule = TrainingSchedule(graph)
    for pools_rewritten in (False, True):
        feature_map_uses(graph, schedule, pools_rewritten).clear()
    classify_all_stashes(graph).clear()


#: Every entry point that reads a derived fact, as ``graph -> output``.
#: ``None`` outputs are hazards only: they rewrite what they were handed.
ENTRY_POINTS = {
    "memory-plan": lambda g: _plan(build_memory_plan(g)),
    "memory-plan-full": lambda g: build_memory_plan(
        g, include_weights=True, include_workspace=True,
        investigation=True).tensors,
    "gist-plan": lambda g: _record(build_gist_plan(g, GistConfig())),
    "gist-lossless-investigation": lambda g: _record(build_gist_plan(
        g, GistConfig.lossless(), investigation=True)),
    "gist-weights": lambda g: build_gist_plan(
        g, GistConfig.full("fp8"), include_weights=True).plan.tensors,
    "hybrid": lambda g: _hybrid(build_hybrid_plan(g)),
    "recompute": lambda g: _record(build_recompute_plan(g)),
    "step-time": lambda g: CostModel().step_time(g),
    "overhead": lambda g: measure_overhead(g, GistConfig()),
    "mfr": lambda g: Gist().measure_mfr(g),
    "mfr-lossless-dynamic": lambda g: Gist(GistConfig.lossless())
    .measure_mfr(g, dynamic=True),
    "stash-classes": _classes,
    "uses": lambda g: feature_map_uses(g, TrainingSchedule(g), False),
    "uses-pools-rewritten": lambda g: feature_map_uses(
        g, TrainingSchedule(g), True),
    "corrupt": _corrupt,
}


def _builders():
    for name in sorted(available_models()):
        yield pytest.param(
            lambda name=name: build_model(name, batch_size=BATCH), id=name)
    for seed in FUZZ_SEEDS:
        yield pytest.param(
            lambda seed=seed: GraphFuzzer(seed).graph(), id=f"fuzz-{seed}")


@pytest.mark.parametrize("make", _builders())
def test_warm_graph_answers_every_entry_point_like_a_fresh_one(make):
    warm = make()
    order = sorted(ENTRY_POINTS)
    random.Random(warm.name + str(len(warm))).shuffle(order)
    for name in order:
        entry = ENTRY_POINTS[name]
        assert entry(warm) == entry(make()), name


def test_investigation_rewrite_does_not_reach_the_next_plan():
    graph = build_model("vgg16", batch_size=BATCH)
    gist = build_gist_plan(graph, GistConfig(), investigation=True)
    assert not all(t.shareable for t in gist.plan.tensors)
    assert all(t.shareable for t in build_memory_plan(graph).tensors)


def test_a_corrupted_hand_out_leaves_the_memo_intact():
    graph = build_model("resnet50", batch_size=BATCH)
    _corrupt(graph)
    fresh = build_model("resnet50", batch_size=BATCH)
    for derive in (
        compute_lifetimes,
        _classes,
        lambda g: feature_map_uses(g, TrainingSchedule(g), False),
        lambda g: feature_map_uses(g, TrainingSchedule(g), True),
    ):
        assert derive(graph) == derive(fresh)


def test_a_liveness_copy_carries_every_field_even_when_inverted():
    graph = build_model("alexnet", batch_size=BATCH)
    table = compute_lifetimes(graph, include_weights=True,
                              include_workspace=True)
    victim = table[0]
    victim.death = victim.birth - 1
    victim.shareable = not victim.shareable
    victim.alias_group = "concat:0"
    for tensor in table:
        twin = copy.copy(tensor)
        assert twin is not tensor
        assert vars(twin) == vars(tensor)


def test_step_time_tables_are_read_only():
    graph = build_model("alexnet", batch_size=BATCH)
    step = CostModel().step_time(graph)
    assert step is CostModel().step_time(graph)
    nid = graph.output_id
    with pytest.raises(TypeError):
        step.per_node_forward[nid] = 0.0
    with pytest.raises(TypeError):
        step.per_node_backward[nid] = 0.0


def test_a_warm_graph_still_copies_and_agrees():
    # The read-only step tables cannot be copied or pickled; the memo is
    # a cache, so a copy of the graph leaves it behind.
    graph = build_model("densenet", batch_size=BATCH)
    CostModel().step_time(graph)
    twin = copy.deepcopy(graph)
    assert CostModel().step_time(twin) is not CostModel().step_time(graph)
    assert CostModel().step_time(twin) == CostModel().step_time(graph)
    assert compute_lifetimes(twin) == compute_lifetimes(graph)


def _schedules_built(monkeypatch):
    built = []
    init = TrainingSchedule.__init__

    def counting(self, graph):
        built.append(graph)
        init(self, graph)

    monkeypatch.setattr(TrainingSchedule, "__init__", counting)
    return built


def test_a_cold_overhead_measurement_builds_one_schedule(monkeypatch):
    graph = build_model("vgg16", batch_size=BATCH)
    built = _schedules_built(monkeypatch)
    measure_overhead(graph, GistConfig())
    assert built == [graph]
    measure_overhead(graph, GistConfig.lossless())
    assert built == [graph]


def test_an_executor_under_gist_builds_one_schedule(monkeypatch):
    from repro.train import GistPolicy, GraphExecutor

    graph = build_model("scaled_vgg", batch_size=4)
    built = _schedules_built(monkeypatch)
    GraphExecutor(graph, GistPolicy(graph), seed=0)
    assert built == [graph]
