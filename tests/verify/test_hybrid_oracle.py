"""Fault-injection tests for the hybrid plan-safety oracle.

A clean planner output must produce zero violations; each deliberately
corrupted plan field must trip exactly the matching check.  Corruptions
are applied to deep copies (liveness faults) or via dataclasses.replace
(metadata faults) so the pristine module-scoped plan stays reusable.
"""

import copy
import dataclasses

import pytest

from repro.core.policy import HybridPolicy, STRATEGY_RECOMPUTE
from repro.memory import CHOICE_RECOMPUTE, build_hybrid_plan
from repro.models import scaled_vgg
from repro.verify import ORACLE_HYBRID, check_hybrid_plan


@pytest.fixture(scope="module")
def hybrid():
    return build_hybrid_plan(scaled_vgg(batch_size=8))


@pytest.fixture(scope="module")
def recompute_plan():
    plan = build_hybrid_plan(
        scaled_vgg(batch_size=8),
        HybridPolicy(strategy=STRATEGY_RECOMPUTE, cost_budget_frac=0.3),
    )
    assert any(d.choice == CHOICE_RECOMPUTE for d in plan.decisions.values())
    return plan


def violations_of(plan):
    out = check_hybrid_plan(plan)
    assert all(v.oracle == ORACLE_HYBRID for v in out)
    return [v.detail for v in out]


class TestCleanPlans:
    def test_planner_output_is_clean(self, hybrid, recompute_plan):
        assert check_hybrid_plan(hybrid) == []
        assert check_hybrid_plan(recompute_plan) == []


class TestFaultInjection:
    def test_budget_overrun_detected(self, hybrid):
        bad = dataclasses.replace(hybrid, total_cost_s=hybrid.budget_s * 2)
        assert any("exceeds budget" in d for d in violations_of(bad))

    def test_dominance_break_detected(self, hybrid):
        bad = dataclasses.replace(
            hybrid, pure_footprints={"gist": hybrid.allocated_bytes - 1}
        )
        assert any("pure-gist" in d for d in violations_of(bad))

    def test_broken_chain_detected(self, recompute_plan):
        nid, decision = next(
            (n, d) for n, d in recompute_plan.decisions.items()
            if d.choice == CHOICE_RECOMPUTE
        )
        decisions = dict(recompute_plan.decisions)
        decisions[nid] = dataclasses.replace(
            decision, chain=decision.chain + (decision.chain[0],)
        )
        bad = dataclasses.replace(recompute_plan, decisions=decisions)
        assert any("does not end at the target" in d
                   for d in violations_of(bad))

    def test_unlinked_chain_detected(self, recompute_plan):
        nid, decision = next(
            (n, d) for n, d in recompute_plan.decisions.items()
            if d.choice == CHOICE_RECOMPUTE
        )
        decisions = dict(recompute_plan.decisions)
        # A source that is not the first chain member's input breaks the
        # link-validity walk.
        decisions[nid] = dataclasses.replace(
            decision, source_id=recompute_plan.graph.output_id
        )
        bad = dataclasses.replace(recompute_plan, decisions=decisions)
        assert any("expected" in d for d in violations_of(bad))

    def test_lossy_source_detected(self, recompute_plan):
        nid, decision = next(
            (n, d) for n, d in recompute_plan.decisions.items()
            if d.choice == CHOICE_RECOMPUTE
        )
        source = recompute_plan.graph.node(decision.source_id)
        decisions = dict(recompute_plan.decisions)
        # Forge a DPR decision onto the source: replays would read
        # rounded values, which the lossy-ancestor guard must reject.
        decisions[decision.source_id] = dataclasses.replace(
            decision, node_id=decision.source_id, node_name=source.name,
            choice="gist", encoding="dpr", lossless=False,
            source_id=None, chain=(),
        )
        bad = dataclasses.replace(recompute_plan, decisions=decisions)
        assert any("inexact or missing values" in d
                   for d in violations_of(bad))

    def test_early_replacement_death_detected(self, hybrid):
        bad = copy.deepcopy(hybrid)
        victim = next(
            t for t in bad.plan.tensors
            if t.spec.name.endswith((".out.enc", ".out.prefetch",
                                     ".out.recomp"))
        )
        victim.death = victim.birth - 1
        assert any("before the last backward use" in d
                   for d in violations_of(bad))

    def test_truncated_fp32_lifetime_detected(self, hybrid):
        bad = copy.deepcopy(hybrid)
        victim = next(
            t for t in bad.plan.tensors
            if t.spec.name.endswith(".out") and t.death > 0
        )
        victim.death = -1
        assert any("before its last" in d for d in violations_of(bad))

    def test_missing_replacement_detected(self, hybrid):
        bad = copy.deepcopy(hybrid)
        victim = next(
            t for t in bad.plan.tensors
            if t.spec.name.endswith((".out.enc", ".out.prefetch",
                                     ".out.recomp"))
        )
        bad.plan.tensors.remove(victim)
        assert any("no replacement tensor" in d for d in violations_of(bad))
