"""Figures 9/11 are sums of the plan's own decision prices.

``PlanDecision.cost_s`` is the one codec price: the budgeted planner
ranks by it and ``encoding_time_delta`` sums it.  The per-technique
deltas are pinned bit for bit (``float.hex()``, recorded at the commit
before the two price formulas were merged) so a later re-pricing cannot
move a paper figure silently.
"""

import math

import pytest

from repro.core import GistConfig, build_gist_plan
from repro.models import PAPER_SUITE, build_model
from repro.perf import CostModel, encoding_time_delta, measure_overhead

BATCH = 64

CONFIGS = {
    "lossless": lambda model: GistConfig.lossless(),
    "for_network": GistConfig.for_network,
}

#: (model, config) -> per_technique_s as (binarize, ssdc, dpr) hex floats.
PINNED_PER_TECHNIQUE_S = {
    ("alexnet", "lossless"): (
        "-0x1.da2e3ff0550f2p-12", "0x1.224462c9ecbbfp-11", "0x0.0p+0"),
    ("alexnet", "for_network"): (
        "-0x1.da2e3ff0550f2p-12", "0x1.06830d3eca2eep-11",
        "0x1.842b602613a33p-11"),
    ("nin", "lossless"): (
        "-0x1.c89e138a5a61fp-12", "0x1.4181fe3d3b6e7p-8", "0x0.0p+0"),
    ("nin", "for_network"): (
        "-0x1.c89e138a5a61fp-12", "0x1.281d01b6ccf2ep-8",
        "0x1.54a2df26c3afcp-12"),
    ("overfeat", "lossless"): (
        "-0x1.12ac76daf5e38p-11", "0x1.32b8a4da6aeb6p-10", "0x0.0p+0"),
    ("overfeat", "for_network"): (
        "-0x1.12ac76daf5e38p-11", "0x1.78ef31cf6ae2ap-10",
        "0x1.4d8d4f81ee036p-12"),
    ("vgg16", "lossless"): (
        "-0x1.60ddf29075f82p-8", "0x1.21359cf8ad5edp-5", "0x0.0p+0"),
    ("vgg16", "for_network"): (
        "-0x1.60ddf29075f82p-8", "0x1.33b11099914b2p-5",
        "0x1.7bd89cc068064p-12"),
    ("inception", "lossless"): (
        "-0x1.8dba2ab092413p-9", "0x1.61f837643c425p-9", "0x0.0p+0"),
    ("inception", "for_network"): (
        "-0x1.8dba2ab092413p-9", "0x1.224187e42a77fp-9",
        "0x1.e14aa7c6b37d5p-8"),
    ("resnet50", "lossless"): (
        "-0x1.6fbf073dfe4f9p-11", "0x1.2ade51a0eebaap-5", "0x0.0p+0"),
    ("resnet50", "for_network"): (
        "-0x1.6fbf073dfe4f9p-11", "0x1.0092407b12de6p-5",
        "0x1.64f9443318487p-6"),
}


@pytest.fixture(scope="module")
def graphs():
    return {name: build_model(name, batch_size=BATCH) for name in PAPER_SUITE}


def test_every_paper_cell_is_pinned():
    assert set(PINNED_PER_TECHNIQUE_S) == {
        (model, config) for model in PAPER_SUITE for config in CONFIGS}


@pytest.mark.parametrize("model,config_name", sorted(PINNED_PER_TECHNIQUE_S))
def test_per_technique_seconds_are_the_recorded_ones(graphs, model,
                                                     config_name):
    report = measure_overhead(graphs[model], CONFIGS[config_name](model))
    got = report.per_technique_s
    assert (got["binarize"].hex(), got["ssdc"].hex(), got["dpr"].hex()) \
        == PINNED_PER_TECHNIQUE_S[model, config_name]


@pytest.mark.parametrize("model,config_name", sorted(PINNED_PER_TECHNIQUE_S))
def test_delta_is_the_sum_of_decision_prices_plus_pool_credit(
        graphs, model, config_name):
    graph = graphs[model]
    cost = CostModel()
    plan = build_gist_plan(graph, CONFIGS[config_name](model))
    expected = {"binarize": 0.0, "ssdc": 0.0, "dpr": 0.0}
    for decision in plan.decisions.values():
        expected[decision.encoding] += decision.cost_s
    # Plan-level, not a decision's: a rewritten pool's backward reads its
    # 4-bit argmax map instead of the FP32 X and Y maps.
    for pool_id in plan.rewritten_pools:
        pool = graph.node(pool_id)
        out_elems = math.prod(pool.output_shape)
        in_elems = math.prod(graph.node(pool.inputs[0]).output_shape)
        expected["binarize"] -= cost.copy_time(
            4.0 * (in_elems + out_elems) - 0.5 * out_elems)
    assert encoding_time_delta(plan, cost) == expected
