"""One liveness differential for every selector's table.

The walker behind ``check_plan_safety`` and ``check_hybrid_plan`` is one
function parameterised by the label it stamps, so each fault below is
injected once and must be reported under ``plan-safety`` on a Table-I or
sqrt(N) record and under ``hybrid-plan`` on a ``HybridPlan`` — with the
same findings, and under no other label.
"""

import copy
import dataclasses

import numpy as np
import pytest

from repro.core.policy import (
    STRATEGY_GIST,
    STRATEGY_RECOMPUTE,
    STRATEGY_SHARED_CONCAT,
    STRATEGY_SWAP,
    GistConfig,
    HybridPolicy,
)
from repro.core.schedule_builder import build_gist_plan
from repro.memory import (
    POLICY_FIRST_FIT,
    POLICY_GREEDY_SIZE,
    POLICY_NO_SHARING,
    HybridPlan,
    StaticAllocator,
    build_hybrid_plan,
    build_recompute_plan,
)
from repro.models import build_model, scaled_vgg
from repro.verify import (
    ORACLE_DECISION_BYTES,
    ORACLE_HYBRID,
    ORACLE_PLAN_SAFETY,
    GraphFuzzer,
    check_allocator_safety,
    check_decision_bytes,
    check_hybrid_plan,
    check_plan_safety,
    verify_graph,
)
from repro.verify import runner


@pytest.fixture(scope="module")
def records():
    """One record per selector / lever, so every replacement tensor
    (``.enc`` + ``.dec``, ``.prefetch``, ``.recomp`` + ``.rechain``, a
    shared-concat terminal's map) occurs in a ``HybridPlan`` and — where
    the selector can emit it — in a ``GistPlan`` / ``RecomputePlan``."""
    vgg = scaled_vgg(batch_size=8)
    densenet = build_model("densenet", batch_size=4, num_classes=4,
                           image_size=8, init_channels=4, growth=4,
                           blocks=2, block_layers=3)
    return [
        build_gist_plan(vgg, GistConfig()),
        build_recompute_plan(vgg),
        build_hybrid_plan(vgg, HybridPolicy(strategy=STRATEGY_GIST,
                                            gist=GistConfig())),
        build_hybrid_plan(vgg, HybridPolicy(strategy=STRATEGY_SWAP)),
        build_hybrid_plan(vgg, HybridPolicy(strategy=STRATEGY_RECOMPUTE,
                                            cost_budget_frac=0.3)),
        build_hybrid_plan(densenet,
                          HybridPolicy(strategy=STRATEGY_SHARED_CONCAT)),
    ]


def _tensor(record, suffix):
    return next((t for t in record.plan.tensors
                 if t.spec.name.endswith(suffix)), None)


def _shared_terminal(record):
    """The FP32 map a shared-concat member's backward reads are views of."""
    terminal = next((d.source_id for d in record.decisions.values()
                     if d.choice == "shared_concat"), None)
    if terminal is None:
        return None
    return _tensor(record, f"{record.graph.node(terminal).name}.out")


def _truncate_death(suffix):
    def fault(record):
        victim = _tensor(record, suffix)
        if victim is None:
            return False
        victim.death = victim.birth - 1
        return True
    return fault


def _truncate_shared_terminal(record):
    victim = _shared_terminal(record)
    if victim is None:
        return False
    victim.death = victim.birth - 1
    return True


def _drop(suffix):
    def fault(record):
        victim = _tensor(record, suffix)
        if victim is None:
            return False
        record.plan.tensors.remove(victim)
        return True
    return fault


def _truncate_fp32_forward(record):
    nid = next(iter(record.decisions))
    victim = _tensor(record, f"{record.graph.node(nid).name}.out")
    victim.death = victim.birth - 1
    return True


def _drop_replacement(record):
    if _drop((".out.enc", ".out.prefetch", ".out.recomp"))(record):
        return True
    terminal = _shared_terminal(record)
    if terminal is None:
        return False
    record.plan.tensors.remove(terminal)
    return True


def _inflate_resident_bytes(record):
    for nid, d in record.decisions.items():
        if d.choice == "gist":
            record.decisions[nid] = dataclasses.replace(
                d, resident_bytes=d.fp32_bytes + 1)
            return True
    return False


def _retarget_at_loss(record):
    nid, d = next(iter(record.decisions.items()))
    out = record.graph.output_id
    del record.decisions[nid]
    record.decisions[out] = dataclasses.replace(
        d, node_id=out, node_name=record.graph.node(out).name)
    return True


FAULTS = {
    "enc-death": (_truncate_death(".out.enc"),
                  "before the last backward use"),
    "prefetch-death": (_truncate_death(".out.prefetch"),
                       "before the last backward use"),
    "recomp-death": (_truncate_death(".out.recomp"),
                     "before the last backward use"),
    "shared-death": (_truncate_shared_terminal,
                     "before the last backward use"),
    "fp32-forward-death": (_truncate_fp32_forward,
                           "before its last forward use"),
    "no-replacement": (_drop_replacement, "has no replacement tensor"),
    "no-dec": (_drop(".out.dec"), "prices a decoded buffer"),
    "inflated-resident-bytes": (_inflate_resident_bytes,
                                "larger than the FP32 map"),
    "no-rechain": (_drop(".out.rechain"), "needs a scratch region"),
    "decision-on-loss": (_retarget_at_loss, "targets the loss output"),
}

#: Levers only the budgeted selector has: no ``GistPlan`` /
#: ``RecomputePlan`` carries these tensors, so their faults reach the
#: ``plan-safety`` label through a ``HybridPlan`` alone.
HYBRID_ONLY = {"prefetch-death", "shared-death"}


class TestOneWalkerTwoLabels:
    def test_clean_records_pass_under_both_labels(self, records):
        for record in records:
            assert check_plan_safety(record) == []
            if isinstance(record, HybridPlan):
                assert check_hybrid_plan(record) == []

    @pytest.mark.parametrize("name", FAULTS)
    def test_fault_fires_under_the_records_label_only(self, records, name):
        fault, expected = FAULTS[name]
        hit = {False: 0, True: 0}
        for record in records:
            bad = copy.deepcopy(record)
            if not fault(bad):
                continue
            is_hybrid = isinstance(record, HybridPlan)
            hit[is_hybrid] += 1
            found = check_plan_safety(bad)
            assert {v.oracle for v in found} == {ORACLE_PLAN_SAFETY}
            assert any(expected in v.detail for v in found), found
            if is_hybrid:
                relabelled = check_hybrid_plan(bad)
                assert {v.oracle for v in relabelled} == {ORACLE_HYBRID}
                assert ([v.detail for v in relabelled]
                        == [v.detail for v in found])
        assert hit[True], "no HybridPlan carries this fault's tensor"
        assert hit[False] or name in HYBRID_ONLY


class TestRecomputeTables:
    """sqrt(N) tables are priced, not executed — and checked like any
    other selector's."""

    @pytest.fixture(scope="class",
                    params=["alexnet", "overfeat", "vgg16", "scaled_vgg",
                            "inception"])
    def plan(self, request):
        return build_recompute_plan(build_model(request.param, batch_size=8))

    def test_table_is_clean(self, plan):
        assert plan.decisions
        assert check_plan_safety(plan) == []
        tensors = plan.plan.tensors
        for policy in (POLICY_GREEDY_SIZE, POLICY_FIRST_FIT,
                       POLICY_NO_SHARING):
            result = StaticAllocator(policy).allocate(tensors)
            assert check_allocator_safety(result, tensors) == []

    def test_checkpoint_freed_before_its_replay_fires(self, plan):
        bad = copy.deepcopy(plan)
        decision = next(iter(bad.decisions.values()))
        source = _tensor(
            bad, f"{bad.graph.node(decision.source_id).name}.out")
        replay_at = _tensor(bad, f"{decision.node_name}.out.recomp").birth
        source.death = replay_at - 1
        found = check_plan_safety(bad)
        assert {v.oracle for v in found} == {ORACLE_PLAN_SAFETY}
        assert any("source tensor" in v.detail
                   and "first backward read" in v.detail for v in found)

    @pytest.mark.parametrize("model", ["alexnet", "overfeat", "vgg16"])
    def test_loss_output_is_never_recomputed(self, model):
        graph = build_model(model, batch_size=8)
        assert graph.output_id not in build_recompute_plan(graph).decisions

    def test_loss_output_is_never_recomputed_on_fuzz_graphs(self):
        for seed in range(50):
            graph = GraphFuzzer(seed).graph()
            plan = build_recompute_plan(graph)
            assert graph.output_id not in plan.decisions, seed


class TestDecisionBytesOnHybridTables:
    def test_mispriced_gist_decision_in_a_hybrid_plan_fires(self, records):
        plan = copy.deepcopy(next(
            r for r in records if isinstance(r, HybridPlan)
            and any(d.choice == "gist" for d in r.decisions.values())))
        assert check_decision_bytes(plan, np.random.default_rng(0)) == []
        nid, decision = next(iter(plan.decisions.items()))
        plan.decisions[nid] = dataclasses.replace(
            decision, resident_bytes=decision.resident_bytes - 1)
        found = check_decision_bytes(plan, np.random.default_rng(0))
        assert [v.oracle for v in found] == [ORACLE_DECISION_BYTES]
        assert decision.node_name in found[0].detail


class TestBatteryCoversRecompute:
    #: A default-genre fuzz graph with a concat node and a trunk long
    #: enough for sqrt(N) checkpointing to drop three maps.
    SEED = 21

    def test_corrupted_sqrt_n_table_is_reported(self, monkeypatch):
        graph = GraphFuzzer(self.SEED).graph()
        assert any(n.kind == "concat" for n in graph.nodes)
        assert verify_graph(graph, self.SEED) == []

        def corrupted(graph, schedule=None):
            plan = build_recompute_plan(graph, schedule=schedule)
            _truncate_death(".out.recomp")(plan)
            return plan

        monkeypatch.setattr(runner, "build_recompute_plan", corrupted)
        found = verify_graph(graph, self.SEED)
        assert found
        assert {(v.oracle, v.subject, v.seed) for v in found} == {
            (ORACLE_PLAN_SAFETY, "recompute", self.SEED)}
