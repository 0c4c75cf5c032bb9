"""Tests for the recompute/checkpointing baseline."""

import math

import pytest

from repro.memory import (
    StaticAllocator,
    build_memory_plan,
    build_recompute_plan,
    chain_forward_flops,
    chain_forward_seconds,
    trunk_nodes,
)
from repro.models import build_model, scaled_vgg, tiny_cnn, vgg16


class TestTrunk:
    def test_chain_graph_trunk_is_whole_graph(self, tiny_graph):
        trunk = trunk_nodes(tiny_graph)
        assert len(trunk) == len(tiny_graph)

    def test_trunk_starts_at_input(self, tiny_graph):
        assert trunk_nodes(tiny_graph)[0] == tiny_graph.input_id

    def test_branching_stops_trunk(self):
        from repro.models import resnet_cifar

        g = resnet_cifar(14, batch_size=2)
        trunk = trunk_nodes(g)
        # The trunk ends where the first residual branch splits.
        assert len(trunk) < len(g) / 2


class TestRecomputePlan:
    def test_reduces_footprint(self):
        g = scaled_vgg(batch_size=8)
        alloc = StaticAllocator()
        base = alloc.allocate(build_memory_plan(g).tensors).total_bytes
        rec = alloc.allocate(build_recompute_plan(g).plan.tensors).total_bytes
        assert rec < base

    def test_checkpoints_plus_recomputed_cover_trunk_stashes(self):
        g = scaled_vgg(batch_size=8)
        plan = build_memory_plan(g)
        rp = build_recompute_plan(g)
        from repro.graph.liveness import ROLE_FEATURE_MAP
        from repro.memory import CLASS_STASHED

        trunk = set(trunk_nodes(g))
        stashed_trunk = {
            t.node_id
            for t in plan.tensors
            if t.role == ROLE_FEATURE_MAP
            and plan.classify(t) == CLASS_STASHED
            and t.node_id in trunk
        }
        covered = set(rp.checkpoints) | set(rp.recomputed)
        # The loss output is stashed (it seeds the backward pass) but
        # never a recompute target; it is covered only where it happens
        # to head a segment.
        assert stashed_trunk - {g.output_id} == covered - {g.output_id}

    def test_recomputed_maps_become_immediate(self):
        g = scaled_vgg(batch_size=8)
        rp = build_recompute_plan(g)
        plan = rp.plan
        names = {t.spec.name: t for t in plan.tensors}
        for node_id in rp.recomputed:
            original = names[f"{g.node(node_id).name}.out"]
            rebuilt = names[f"{g.node(node_id).name}.out.recomp"]
            assert original.death < plan.schedule.forward_end
            assert rebuilt.birth >= plan.schedule.forward_end

    def test_extra_flops_counts_whole_segments(self):
        g = scaled_vgg(batch_size=8)
        rp = build_recompute_plan(g)
        # Re-running segments must include conv work, far exceeding the
        # flops of the (cheap) stashed relu maps themselves.
        relu_flops = sum(
            g.node(nid).layer.flops(g.node(nid).input_shapes(g),
                                    g.node(nid).output_shape)
            for nid in rp.recomputed
        )
        assert rp.extra_forward_flops > relu_flops

    def test_overhead_fraction_positive_and_bounded(self):
        g = vgg16(batch_size=64)
        rp = build_recompute_plan(g)
        ov = rp.overhead_frac(g)
        assert 0.05 < ov < 0.6  # re-runs most of one forward pass

    def test_segment_length_one_recomputes_nothing(self):
        g = scaled_vgg(batch_size=8)
        rp = build_recompute_plan(g, segment_length=1)
        assert rp.recomputed == ()
        assert rp.extra_forward_flops == 0

    def test_bad_segment_length(self):
        with pytest.raises(ValueError):
            build_recompute_plan(scaled_vgg(batch_size=8), segment_length=0)

    def test_bad_segment_rejection_leaves_graph_usable(self):
        g = scaled_vgg(batch_size=8)
        with pytest.raises(ValueError):
            build_recompute_plan(g, segment_length=-3)
        assert build_recompute_plan(g).plan.tensors  # graph still planable

    def test_longer_segments_save_more_pay_more(self):
        g = vgg16(batch_size=8)
        alloc = StaticAllocator()
        short = build_recompute_plan(g, segment_length=2)
        long = build_recompute_plan(g, segment_length=8)
        short_bytes = alloc.allocate(short.plan.tensors).total_bytes
        long_bytes = alloc.allocate(long.plan.tensors).total_bytes
        assert long_bytes <= short_bytes
        assert long.extra_forward_flops >= short.extra_forward_flops


class TestSegmentAccounting:
    """The sqrt(N) table goes through ``apply_decisions``: a replay reads
    a checkpoint that is still allocated and pays for what it re-runs."""

    @pytest.fixture(scope="class", params=["alexnet", "overfeat", "vgg16",
                                            "scaled_vgg"])
    def graph(self, request):
        return build_model(request.param, batch_size=8)

    def test_checkpoint_is_live_when_its_segment_replays(self, graph):
        from repro.graph.liveness import feature_map_uses

        rp = build_recompute_plan(graph, segment_length=4)
        uses = feature_map_uses(graph, rp.plan.schedule, False)
        tensors = {t.spec.name: t for t in rp.plan.tensors}
        trunk = trunk_nodes(graph)
        assert rp.recomputed
        freed_in_baseline = 0
        for nid in rp.recomputed:
            position = trunk.index(nid)
            head = trunk[position - position % 4]
            source = tensors[f"{graph.node(head).name}.out"]
            first_bwd = uses[nid][1]
            assert source.birth <= first_bwd <= source.death, (
                graph.node(head).name, graph.node(nid).name)
            freed_in_baseline += uses[head][1] is None
            # The replay's un-stashed intermediates are charged as scratch
            # at the read that triggers it.
            chain = trunk[trunk.index(head) + 1:position + 1]
            name = f"{graph.node(nid).name}.out.rechain"
            if len(chain) > 1:
                scratch = tensors[name]
                assert scratch.birth == scratch.death == first_bwd
                assert scratch.size_bytes == max(
                    4 * math.prod(graph.node(i).output_shape)
                    for i in chain[:-1])
            else:
                assert name not in tensors
        # Every chain network has a segment head that baseline liveness
        # frees in the forward pass (a conv/fc output) — the case the
        # old private model replayed from anyway.
        assert freed_in_baseline

    def test_segment_length_one_is_the_baseline(self, graph):
        alloc = StaticAllocator()
        rp = build_recompute_plan(graph, segment_length=1)
        assert rp.recomputed == ()
        assert (alloc.allocate(rp.plan.tensors).total_bytes
                == alloc.allocate(build_memory_plan(graph).tensors)
                .total_bytes)


class TestChainCost:
    """Accounting for explicit chain replays (the hybrid planner's unit)."""

    def test_flops_sum_over_members(self):
        g = scaled_vgg(batch_size=8)
        chain = [n.node_id for n in g.nodes if n.name in ("conv1_2",
                                                          "relu1_2")]
        per_node = [
            g.node(nid).layer.flops(g.node(nid).input_shapes(g),
                                    g.node(nid).output_shape)
            for nid in chain
        ]
        assert chain_forward_flops(g, chain) == sum(per_node)

    def test_empty_chain_is_free(self):
        g = scaled_vgg(batch_size=8)
        assert chain_forward_flops(g, []) == 0

    def test_seconds_monotone_in_chain_extension(self):
        g = scaled_vgg(batch_size=8)
        conv = g.node_by_name("conv2_1").node_id
        relu = g.node_by_name("relu2_1").node_id
        short = chain_forward_seconds(g, [relu])
        long = chain_forward_seconds(g, [conv, relu])
        assert 0.0 < short < long

    def test_conv_dominates_relu_cost(self):
        # The planner's ratio ordering depends on convs costing far more
        # to replay than the elementwise ops whose maps they rebuild.
        g = scaled_vgg(batch_size=8)
        conv = chain_forward_seconds(g, [g.node_by_name("conv3_1").node_id])
        relu = chain_forward_seconds(g, [g.node_by_name("relu3_1").node_id])
        assert conv > relu
