"""Characterization pin for the Schedule Builder's liveness rewrite.

Written against the two-implementation tree (``build_gist_plan`` with its
own rewrite loop next to the hybrid planner's gist arm) and kept across
the collapse into one decision table: for every registry model under the
three paper configurations the Schedule Builder's tensor list — order
included — and its allocated footprint must equal the hybrid planner's
pure-gist arm under an unbounded budget, and both must equal the digests
recorded before the refactor.
"""

import hashlib
from collections import Counter

import pytest

from repro.core import GistConfig, build_gist_plan
from repro.core.policy import HybridPolicy, STRATEGY_GIST
from repro.memory import StaticAllocator, build_hybrid_plan
from repro.models import available_models, build_model
from repro.perf.swap import simulate_swapping

BATCH = 32

CONFIGS = {
    "lossless": lambda model: GistConfig.lossless(),
    "for_network": GistConfig.for_network,
    "optimized_software": lambda model: GistConfig.full(
        optimized_software=True),
}

#: sha256 over every model's ordered (name, birth, death, bytes, role)
#: rows plus its allocated bytes, recorded at the pre-refactor commit.
PINNED_DIGESTS = {
    "lossless":
        "ad6983041bcaae28a0d4e2b6efde876da1a0d246fae42c1b61f0482d27374d61",
    "for_network":
        "fb6466f1102caab441cbdb7465561e48e39fbd766116a4426216da46a4b3e231",
    "optimized_software":
        "018cad558a7f3449e130976efaffe63e1ef0134339d84a87a2cca7f2f85f98a3",
}

#: Two footprints quoted in the issue, kept readable next to the digests.
PINNED_ALLOCATED = {
    ("vgg16", "lossless"): 1_999_387_870,
    ("resnet152", "for_network"): 2_574_934_436,
}


def _rows(tensors):
    return [(t.spec.name, t.birth, t.death, t.size_bytes, t.role)
            for t in tensors]


@pytest.fixture(scope="module")
def graphs():
    return {name: build_model(name, batch_size=BATCH)
            for name in available_models()}


@pytest.mark.parametrize("config_name", sorted(CONFIGS))
def test_schedule_builder_equals_unbudgeted_gist_arm(graphs, config_name):
    digest = hashlib.sha256()
    for model, graph in sorted(graphs.items()):
        cfg = CONFIGS[config_name](model).with_(inplace=False)
        gist = build_gist_plan(graph, cfg)
        hybrid = build_hybrid_plan(
            graph,
            HybridPolicy(strategy=STRATEGY_GIST, cost_budget_frac=1e9,
                         gist=cfg),
        )
        rows = _rows(gist.plan.tensors)
        assert rows == _rows(hybrid.plan.tensors), model
        assert {
            nid: (d.encoding, d.resident_bytes)
            for nid, d in gist.decisions.items()
        } == {
            nid: (d.encoding, d.resident_bytes)
            for nid, d in hybrid.decisions.items()
        }, model
        allocated = StaticAllocator().allocate(gist.plan.tensors).total_bytes
        assert allocated == hybrid.allocated_bytes, model
        pinned = PINNED_ALLOCATED.get((model, config_name))
        if pinned is not None:
            assert allocated == pinned, model
        digest.update(repr((model, rows, allocated)).encode())
    assert digest.hexdigest() == PINNED_DIGESTS[config_name]


def test_schedule_builder_never_prices_or_allocates(graphs, monkeypatch):
    """The Table-I selector is unbudgeted: no swap simulation, no
    allocator run — which is what keeps planning a suite of graphs cheap
    now that it shares the hybrid planner's decision table."""
    import repro.perf.swap as swap

    def forbidden(*args, **kwargs):
        raise AssertionError("build_gist_plan must not price or allocate")

    monkeypatch.setattr(swap, "simulate_swapping", forbidden)
    monkeypatch.setattr(StaticAllocator, "allocate", forbidden)
    for model in ("scaled_vgg", "densenet", "resnet50"):
        plan = build_gist_plan(graphs[model], GistConfig.for_network(model))
        assert plan.decisions


def _count_calls(monkeypatch, owner, name, counter, key=lambda *a, **k: None):
    """Wrap ``owner.name`` so each call bumps ``counter[(name, key(...))]``."""
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        counter[name, key(*args, **kwargs)] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


def test_hybrid_planner_derives_each_graph_fact_once(monkeypatch):
    """The graph is static, so one hybrid build walks liveness once,
    prices each node once and builds no schedule of its own; the five
    arms plus the baseline are its only allocator runs.  A re-introduced
    per-arm rebuild fails here by count, not by a timing nobody gates.
    Each model gets a graph no other test has analysed: a warm one would
    answer from its memo and count nothing."""
    import repro.memory.planner as planner
    from repro.graph.schedule import TrainingSchedule
    from repro.perf.cost import CostModel

    calls = Counter()
    _count_calls(monkeypatch, planner, "compute_lifetimes", calls)
    _count_calls(monkeypatch, TrainingSchedule, "__init__", calls)
    _count_calls(monkeypatch, StaticAllocator, "allocate", calls)
    _count_calls(monkeypatch, CostModel, "_price_node", calls,
                 key=lambda self, graph, node: node.node_id)
    for model in sorted(available_models()):
        graph = build_model(model, batch_size=BATCH)
        schedule = TrainingSchedule(graph)
        calls.clear()
        plan = build_hybrid_plan(graph, HybridPolicy(), schedule=schedule)
        assert plan.pure_footprints, model
        assert calls.pop(("compute_lifetimes", None)) == 1, model
        assert calls.pop(("allocate", None)) == 6, model
        assert ("__init__", None) not in calls, model
        assert set(calls.values()) == {1}, (model, calls.most_common(3))


def test_a_graph_is_analysed_once_across_entry_points(monkeypatch):
    """``plan_suite``'s sequence on one fresh graph — baseline plan,
    Table-I plan, two allocations, hybrid build, overhead model, MFR
    facade — walks liveness once per flag pair, classifies once, walks
    feature-map uses once per pool-rewrite flag (the liveness table reads
    the declared one, the hybrid's recompute-source search the rewritten
    one, so both are walked) and prices each node once per device,
    whichever entry point asks first.  ``liveness._walk_uses`` is the one
    uses walk: no other is counted, and nothing else is left."""
    import repro.core.analysis as analysis
    import repro.graph.liveness as liveness
    from repro.core import Gist
    from repro.graph.schedule import TrainingSchedule
    from repro.memory import build_memory_plan
    from repro.perf.cost import CostModel
    from repro.perf.overhead import measure_overhead

    calls = Counter()
    _count_calls(monkeypatch, liveness, "_walk_lifetimes", calls,
                 key=lambda graph, schedule, weights, workspace:
                 (weights, workspace))
    _count_calls(monkeypatch, analysis, "_classify_all", calls)
    _count_calls(monkeypatch, liveness, "_walk_uses", calls,
                 key=lambda graph, schedule, pools_rewritten: pools_rewritten)
    _count_calls(monkeypatch, CostModel, "_price_node", calls,
                 key=lambda self, graph, node: (self.device.name,
                                                node.node_id))
    for model in sorted(available_models()):
        graph = build_model(model, batch_size=BATCH)
        config = GistConfig.for_network(model)
        hybrid_policy = HybridPolicy()
        calls.clear()
        schedule = TrainingSchedule(graph)
        baseline = build_memory_plan(graph, schedule)
        gist = build_gist_plan(graph, config, schedule=schedule)
        StaticAllocator().allocate(baseline.tensors)
        StaticAllocator().allocate(gist.plan.tensors)
        build_hybrid_plan(graph, hybrid_policy, schedule=schedule)
        measure_overhead(graph, config)
        Gist(config).measure_mfr(graph)

        assert calls.pop(("_walk_lifetimes", (False, False))) == 1, model
        assert calls.pop(("_classify_all", None)) == 1, model
        for flag in (False, True):
            assert calls.pop(("_walk_uses", flag)) == 1, (model, flag)
        # What is left is the pricing: each node priced once, both
        # directions at one go, on the one device every entry point
        # defaults to.
        assert len(calls) == len(graph), model
        assert set(calls.values()) == {1}, (model, calls.most_common(3))


def test_overhead_model_builds_no_liveness_table(monkeypatch):
    """``measure_overhead`` prices the Table-I selection and the rewritten
    pools; on a graph whose uses and stash classes are already derived it
    walks no liveness table and runs no rewrite."""
    import repro.core.schedule_builder as schedule_builder
    import repro.memory.hybrid as hybrid
    import repro.memory.planner as planner
    from repro.perf.overhead import measure_overhead

    for model in ("alexnet", "resnet50", "densenet"):
        graph = build_model(model, batch_size=BATCH)
        config = GistConfig.for_network(model)
        expected = measure_overhead(graph, config)
        calls = Counter()
        _count_calls(monkeypatch, planner, "compute_lifetimes", calls)
        for owner in (hybrid, schedule_builder):
            _count_calls(monkeypatch, owner, "apply_decisions", calls)
        assert measure_overhead(graph, config) == expected, model
        assert not calls, (model, calls)
        monkeypatch.undo()


def test_hybrid_arms_leave_the_baseline_table_as_it_was(monkeypatch):
    """Every arm rewrites the build's one baseline table copy-on-write:
    after all of them each baseline entry keeps its ``birth``, ``death``
    and ``alias_group``, and each arm's table equals its decisions
    applied to a fresh table."""
    import repro.memory.hybrid as hybrid
    from repro.core.policy import (
        STRATEGY_HYBRID,
        STRATEGY_RECOMPUTE,
        STRATEGY_SHARED_CONCAT,
        STRATEGY_SWAP,
    )
    from repro.graph.liveness import feature_map_uses
    from repro.graph.schedule import TrainingSchedule
    from repro.memory import build_memory_plan

    def rows(tensors):
        return [(t.spec.name, t.birth, t.death, t.size_bytes, t.role,
                 t.shareable, t.alias_group) for t in tensors]

    baselines = []

    def recorded(*args, **kwargs):
        plan = build_memory_plan(*args, **kwargs)
        baselines.append((plan, rows(plan.tensors)))
        return plan

    monkeypatch.setattr(hybrid, "build_memory_plan", recorded)
    for model in ("vgg16", "resnet50", "densenet"):
        graph = build_model(model, batch_size=BATCH)
        schedule = TrainingSchedule(graph)
        for strategy in (STRATEGY_GIST, STRATEGY_RECOMPUTE, STRATEGY_SWAP,
                         STRATEGY_SHARED_CONCAT, STRATEGY_HYBRID):
            policy = HybridPolicy(strategy=strategy)
            built = hybrid.build_hybrid_plan(graph, policy,
                                             schedule=schedule)
            fresh = build_memory_plan(graph, schedule)
            pools = hybrid.apply_decisions(
                fresh, feature_map_uses(graph, schedule, policy.gist.binarize),
                built.decisions, policy.gist)
            assert pools == built.rewritten_pools, (model, strategy)
            assert rows(built.plan.tensors) == rows(fresh.tensors), (
                model, strategy)
    assert len(baselines) == 15
    for plan, before in baselines:
        assert rows(plan.tensors) == before


#: ``simulate_swapping(build_model(m, batch_size=BATCH))`` at the commit
#: before it became a wrapper: (baseline_s, naive_s, vdnn_s) as float.hex().
PINNED_SWAP_REPORTS = {
    "vgg16": ("0x1.15a5f5baaefb7p+0", "0x1.51629ed4c26dbp+0",
              "0x1.15a904b03b8c7p+0"),
    "resnet50": ("0x1.4f24e6ef1f63fp-2", "0x1.1766fc2c52e86p-1",
                 "0x1.991096fa88f75p-2"),
    "densenet": ("0x1.d8d06c84bdbf6p-10", "0x1.9612038a95032p-8",
                 "0x1.318f5e579217ap-8"),
    "lstm": ("0x1.2fb3eb7b3d9bep-12", "0x1.316bb978db17cp-12",
             "0x1.2fb3eb7b3d9bep-12"),
}


@pytest.mark.parametrize("model", sorted(PINNED_SWAP_REPORTS))
def test_simulate_swapping_on_its_own_is_unchanged(graphs, model):
    report = simulate_swapping(graphs[model])
    assert report.model == model
    assert (report.baseline_s.hex(), report.naive_s.hex(),
            report.vdnn_s.hex()) == PINNED_SWAP_REPORTS[model]
