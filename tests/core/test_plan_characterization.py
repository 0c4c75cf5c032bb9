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

import pytest

from repro.core import GistConfig, build_gist_plan
from repro.core.policy import HybridPolicy, STRATEGY_GIST
from repro.memory import StaticAllocator, build_hybrid_plan
from repro.models import available_models, build_model

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
            nid: (d.encoding, d.encoded_bytes)
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
