"""Fault-injection tests: corrupt one artifact, assert the matching
oracle — and only that oracle — fires.

Each oracle is a pure function over finished artifacts, so these tests
can manufacture precisely one defect (an aliased group, a premature
death, a lying size model, a broken codec) and check both directions:
the clean artifact passes, the corrupted one is caught.
"""

import collections
import dataclasses

import numpy as np
import pytest

from repro.core.policy import GistConfig
from repro.core.schedule_builder import build_gist_plan
from repro.encodings.base import IdentityEncoding
from repro.encodings.dpr import dpr_encoding
from repro.encodings.groupquant import GroupQuantEncoding
from repro.encodings.ssdc import SSDCEncoding
from repro.graph.liveness import ROLE_ENCODED, ROLE_FEATURE_MAP, LiveTensor
from repro.memory.allocator import (
    AllocationGroup,
    AllocationResult,
    StaticAllocator,
)
from repro.memory.planner import build_memory_plan
from repro.tensor.spec import TensorSpec
from repro.verify import (
    ORACLE_ALLOCATOR_SAFETY,
    ORACLE_DECISION_BYTES,
    ORACLE_PLAN_SAFETY,
    ORACLE_POLICY_BOUNDS,
    ORACLE_ROUNDTRIP,
    check_allocator_safety,
    check_decision_bytes,
    check_plan_safety,
    check_policy_bounds,
    check_roundtrip,
    interval_clique_bound,
)


def _tensor(name, birth, death, n=8, shareable=True):
    return LiveTensor(TensorSpec(name, (n,)), birth, death, 0,
                      ROLE_FEATURE_MAP, shareable=shareable)


class TestAllocatorSafetyOracle:
    def test_clean_allocation_passes(self, tiny_graph):
        tensors = build_memory_plan(tiny_graph).tensors
        result = StaticAllocator().allocate(tensors)
        assert check_allocator_safety(result, tensors) == []

    def test_aliased_group_fires(self):
        a, b = _tensor("a", 0, 5), _tensor("b", 3, 8)  # overlap at [3, 5]
        result = AllocationResult([AllocationGroup([a, b])], "greedy-size")
        violations = check_allocator_safety(result, [a, b])
        assert [v.oracle for v in violations] == [ORACLE_ALLOCATOR_SAFETY]
        assert "aliases live tensors" in violations[0].detail

    def test_touching_endpoints_alias(self):
        # Inclusive intervals: death == birth is still co-live.
        a, b = _tensor("a", 0, 4), _tensor("b", 4, 8)
        result = AllocationResult([AllocationGroup([a, b])], "greedy-size")
        assert check_allocator_safety(result, [a, b])

    def test_dropped_tensor_fires(self):
        a, b = _tensor("a", 0, 2), _tensor("b", 5, 8)
        result = AllocationResult([AllocationGroup([a])], "greedy-size")
        violations = check_allocator_safety(result, [a, b])
        assert any("appears in 0 groups" in v.detail for v in violations)

    def test_duplicated_tensor_fires(self):
        a, b = _tensor("a", 0, 2), _tensor("b", 5, 8)
        result = AllocationResult(
            [AllocationGroup([a, b]), AllocationGroup([a])], "greedy-size"
        )
        violations = check_allocator_safety(result, [a, b])
        assert any("appears in 2 groups" in v.detail for v in violations)

    def test_non_shareable_in_shared_group_fires(self):
        a = _tensor("a", 0, 2, shareable=False)
        b = _tensor("b", 5, 8)
        result = AllocationResult([AllocationGroup([a, b])], "greedy-size")
        violations = check_allocator_safety(result, [a, b])
        assert any("non-shareable" in v.detail for v in violations)


class TestPolicyBoundsOracle:
    GOOD = {"greedy-size": 100, "first-fit": 120, "none": 200}

    def test_consistent_totals_pass(self):
        assert check_policy_bounds(self.GOOD, 90, 80) == []

    def test_sharing_worse_than_none_fires(self):
        totals = dict(self.GOOD, none=99)
        violations = check_policy_bounds(totals, 90, 80)
        assert {v.oracle for v in violations} == {ORACLE_POLICY_BOUNDS}
        assert len(violations) == 2  # both sharing policies exceed none

    def test_static_below_dynamic_peak_fires(self):
        # Every policy's total, not only greedy-size's, owes the peak.
        violations = check_policy_bounds(self.GOOD, 150, 80)
        assert [v.detail for v in violations] == [
            "first-fit total 120 < dynamic peak 150",
            "greedy-size total 100 < dynamic peak 150"]

    def test_dynamic_below_clique_fires(self):
        violations = check_policy_bounds(self.GOOD, 90, 95)
        assert any("clique" in v.detail for v in violations)

    def test_clique_bound_matches_hand_computation(self):
        tensors = [_tensor("a", 0, 3, n=4), _tensor("b", 2, 5, n=6),
                   _tensor("c", 4, 7, n=2)]
        # Peak co-liveness: at t=2 {a,b} = 40 B; at t=4 {b,c} = 32 B.
        assert interval_clique_bound(tensors) == 40


class TestPlanSafetyOracle:
    @pytest.fixture()
    def plan(self, tiny_graph):
        return build_gist_plan(tiny_graph, GistConfig())

    def test_clean_plan_passes(self, plan):
        assert check_plan_safety(plan) == []

    def test_premature_encoded_death_fires(self, plan):
        victim = next(t for t in plan.plan.tensors
                      if t.role == ROLE_ENCODED
                      and t.spec.name.endswith(".enc"))
        original = victim.death
        victim.death = victim.birth
        try:
            violations = check_plan_safety(plan)
        finally:
            victim.death = original
        assert violations
        assert all(v.oracle == ORACLE_PLAN_SAFETY for v in violations)
        assert any("dies at" in v.detail for v in violations)

    def test_premature_feature_map_death_fires(self, plan):
        # Kill a stashed FP32 map at its own birth: it can no longer reach
        # its last forward consumer.
        nid = next(iter(plan.decisions))
        victim = next(t for t in plan.plan.tensors
                      if t.node_id == nid and t.role == ROLE_FEATURE_MAP
                      and not t.spec.name.endswith(".dec"))
        original = victim.death
        victim.death = victim.birth
        try:
            violations = check_plan_safety(plan)
        finally:
            victim.death = original
        assert any("last" in v.detail and "forward use" in v.detail
                   for v in violations)

    def test_oversized_encoding_fires(self, plan):
        nid = next(iter(plan.decisions))
        decision = plan.decisions[nid]
        plan.decisions[nid] = dataclasses.replace(
            decision, resident_bytes=decision.fp32_bytes + 1
        )
        try:
            violations = check_plan_safety(plan)
        finally:
            plan.decisions[nid] = decision
        assert any("larger than the FP32 map" in v.detail
                   for v in violations)

    def test_lossless_footprint_regression_fires(self, tiny_graph):
        plan = build_gist_plan(tiny_graph, GistConfig.lossless())
        from repro.graph.liveness import ROLE_DECODED, ROLE_FEATURE_MAP

        added = sum(t.size_bytes for t in plan.plan.tensors
                    if t.role in (ROLE_ENCODED, ROLE_DECODED))
        # Mirror the oracle's slack: inplace-merged producers (no
        # feature-map tensor of their own) may perturb the greedy
        # allocator's grouping by up to their own buffer size.
        with_fm = {t.node_id for t in plan.plan.tensors
                   if t.role == ROLE_FEATURE_MAP
                   and not t.spec.name.endswith(".dec")}
        for node in tiny_graph.nodes:
            if node.node_id not in with_fm:
                added += 4 * int(np.prod(node.output_shape))
        assert check_plan_safety(
            plan, baseline_allocated=1000, gist_allocated=1000 + added
        ) == []
        violations = check_plan_safety(
            plan, baseline_allocated=1000, gist_allocated=1001 + added
        )
        assert any("lossless Gist allocated" in v.detail for v in violations)


class TestDecisionBytesOracle:
    def test_clean_plan_passes(self, tiny_graph):
        plan = build_gist_plan(tiny_graph, GistConfig())
        assert plan.decisions  # the oracle must actually exercise codecs
        assert check_decision_bytes(plan, np.random.default_rng(0)) == []

    def test_mispriced_decision_fires(self, tiny_graph):
        plan = build_gist_plan(tiny_graph, GistConfig())
        nid = next(iter(plan.decisions))
        decision = plan.decisions[nid]
        plan.decisions[nid] = dataclasses.replace(
            decision, resident_bytes=decision.resident_bytes - 1
        )
        violations = check_decision_bytes(plan, np.random.default_rng(0))
        assert [v.oracle for v in violations] == [ORACLE_DECISION_BYTES]
        assert decision.node_name in violations[0].detail


class _CorruptDecode(IdentityEncoding):
    """Lossless codec whose decode flips one value."""

    def decode(self, encoded):
        out = super().decode(encoded).copy()
        if out.size:
            out.flat[0] += 1.0
        return out


class _Crasher(IdentityEncoding):
    def encode(self, x):
        raise RuntimeError("boom")


class _LyingSizeModel(IdentityEncoding):
    def encoded_bytes(self, num_elements, **ctx):
        return super().encoded_bytes(num_elements, **ctx) + 4


class TestRoundtripOracle:
    def test_honest_codecs_pass(self, rng):
        x = rng.normal(0, 1, 123).astype(np.float32)
        for codec in (IdentityEncoding(), dpr_encoding("fp16"),
                      GroupQuantEncoding(4, group_size=32)):
            assert check_roundtrip(codec, x) == []

    def test_corrupt_lossless_decode_fires(self, rng):
        x = rng.normal(0, 1, 16).astype(np.float32)
        violations = check_roundtrip(_CorruptDecode(), x)
        assert [v.oracle for v in violations] == [ORACLE_ROUNDTRIP]
        assert "not bit-exact" in violations[0].detail

    def test_crash_is_a_finding(self):
        violations = check_roundtrip(_Crasher(), np.ones(4, np.float32))
        assert len(violations) == 1
        assert "crashed" in violations[0].detail

    def test_lying_size_model_fires(self, rng):
        x = rng.normal(0, 1, 32).astype(np.float32)
        violations = check_roundtrip(_LyingSizeModel(), x)
        assert len(violations) == 1
        assert "static model" in violations[0].detail

    def test_nan_bytes_survive_identity(self):
        # A NaN is not equal to itself; its bytes are.
        x = np.array([1.0, np.nan, -np.inf, -0.0], np.float32)
        assert check_roundtrip(IdentityEncoding(), x) == []

    @pytest.mark.parametrize("codec", [IdentityEncoding()])
    def test_dropped_zero_sign_fires(self, monkeypatch, codec):
        # -0.0 == +0.0, so a value-level comparison lets this through.
        decode = codec.decode
        monkeypatch.setattr(codec, "decode",
                            lambda enc: decode(enc) + np.float32(0.0))
        x = np.array([0.5, -0.0, 2.0, 0.0], np.float32)
        violations = check_roundtrip(codec, x)
        assert [v.oracle for v in violations] == [ORACLE_ROUNDTRIP]
        assert "not bit-exact" in violations[0].detail

    def test_ssdc_declares_its_zero_canonicalisation(self):
        x = np.array([0.5, -0.0, 2.0, 0.0], np.float32)
        codec = SSDCEncoding()
        assert not np.signbit(codec.expected_decode(x)[1])
        assert check_roundtrip(codec, x) == []

    def test_verify_encodings_encodes_each_pair_once(self, monkeypatch):
        from repro.verify import runner

        battery = runner._codec_battery
        codecs, calls = [], collections.Counter()

        def counted_battery(rng):
            codecs.extend(battery(rng))
            for codec in codecs:
                def encode(x, codec=codec, encode=codec.encode):
                    calls[id(codec), id(x)] += 1
                    return encode(x)
                codec.encode = encode
            return codecs

        monkeypatch.setattr(runner, "_codec_battery", counted_battery)
        assert runner.verify_encodings(3) == []
        assert set(calls.values()) == {1}
        inputs = len(runner._adversarial_inputs(np.random.default_rng(0)))
        assert len(calls) == sum(inputs + c.lossless for c in codecs)

    def test_dpr_out_of_bound_error_fires(self, rng):
        # An fp16 codec claiming fp8's wide tolerance would pass; the
        # reverse — fp8 data checked against the fp16 bound — must fail.
        x = rng.normal(0, 1, 256).astype(np.float32)
        fp8 = dpr_encoding("fp8")
        decoded = fp8.decode(fp8.encode(x))
        from repro.verify.oracles import _check_dpr_bound
        from repro.dtypes import FP16

        assert _check_dpr_bound("fp8-as-fp16", FP16, x, decoded)

    def test_padding_skewed_grid_fires(self):
        # Reconstruct the original bug: quantisation grid stretched to
        # include the zero padding of the ragged tail group.
        skewed = GroupQuantEncoding(4, group_size=256)
        x = np.linspace(5, 6, 300, dtype=np.float32)
        encoded = skewed.encode(x)
        # Re-derive what the buggy encoder produced: tail group scaled
        # over [0, max] instead of [min, max].
        tail = x[256:]
        levels = 15
        scale = tail.max() / levels
        bad = np.round(tail / scale) * scale
        decoded = skewed.decode(encoded).copy()
        decoded[256:] = bad
        from repro.verify.oracles import _check_groupquant_bound

        violations = _check_groupquant_bound(skewed, x, decoded)
        assert violations
        assert "padding-skewed grid" in violations[0].detail

    @pytest.mark.parametrize("codec", [dpr_encoding("fp8"),
                                       GroupQuantEncoding(4)],
                             ids=lambda c: c.name)
    def test_nan_decode_breaks_the_lossy_bound(self, monkeypatch, codec,
                                               rng):
        # NaN > bound is False, so an `err > bound` test lets it through.
        decode = codec.decode

        def nan_decode(encoded):
            out = decode(encoded).copy()
            out[7] = np.nan
            return out

        monkeypatch.setattr(codec, "decode", nan_decode)
        x = rng.normal(0, 1, 300).astype(np.float32)
        violations = check_roundtrip(codec, x)
        assert [v.oracle for v in violations] == [ORACLE_ROUNDTRIP]
        assert "error nan exceeds" in violations[0].detail
