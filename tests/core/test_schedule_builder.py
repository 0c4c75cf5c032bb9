"""Tests for the Gist Schedule Builder's plan rewriting."""

import pytest

from repro.core import (
    ENC_BINARIZE,
    ENC_DPR,
    ENC_SSDC,
    GistConfig,
    build_gist_plan,
)
from repro.graph import ROLE_DECODED, ROLE_ENCODED, TrainingSchedule
from repro.graph.liveness import backward_readers, feature_map_uses
from repro.memory import (
    CLASS_ENCODED,
    CLASS_STASHED,
    StaticAllocator,
    build_memory_plan,
)
from repro.models import available_models, build_model
from repro.analysis.sparsity import ConstantSparsity


def tensors_by_name(plan):
    return {t.spec.name: t for t in plan.tensors}


class TestLifetimeRewriting:
    def test_fp32_map_dies_at_last_forward_use(self, tiny_graph):
        gp = build_gist_plan(tiny_graph, GistConfig())
        s = gp.schedule
        ts = tensors_by_name(gp.plan)
        pool1 = tiny_graph.node_by_name("pool1")
        # relu1.out (Binarize class): FP32 copy dies when pool1's forward
        # op (its last forward consumer) runs.
        assert ts["relu1.out"].death == s.forward_time(pool1.node_id)

    def test_encoded_tensor_spans_the_gap(self, tiny_graph):
        gp = build_gist_plan(tiny_graph, GistConfig())
        s = gp.schedule
        ts = tensors_by_name(gp.plan)
        relu1 = tiny_graph.node_by_name("relu1")
        pool1 = tiny_graph.node_by_name("pool1")
        enc = ts["relu1.out.enc"]
        assert enc.role == ROLE_ENCODED
        assert enc.birth == s.forward_time(pool1.node_id)
        assert enc.death == s.backward_time(relu1.node_id)

    def test_binarize_has_no_decoded_buffer(self, tiny_graph):
        gp = build_gist_plan(tiny_graph, GistConfig())
        ts = tensors_by_name(gp.plan)
        assert "relu1.out.dec" not in ts

    def test_ssdc_and_dpr_have_decoded_buffers(self, tiny_graph):
        gp = build_gist_plan(tiny_graph, GistConfig())
        ts = tensors_by_name(gp.plan)
        assert "relu2.out.dec" in ts  # SSDC class
        assert ts["relu2.out.dec"].role == ROLE_DECODED

    def test_decoded_spans_backward_uses_only(self, tiny_graph):
        gp = build_gist_plan(tiny_graph, GistConfig())
        s = gp.schedule
        ts = tensors_by_name(gp.plan)
        relu2 = tiny_graph.node_by_name("relu2")
        fc = tiny_graph.node_by_name("fc")
        dec = ts["relu2.out.dec"]
        assert dec.birth == s.backward_time(fc.node_id)
        assert dec.death == s.backward_time(relu2.node_id)

    def test_optimized_software_drops_decoded(self, tiny_graph):
        gp = build_gist_plan(tiny_graph, GistConfig(optimized_software=True))
        assert not any(t.role == ROLE_DECODED for t in gp.plan.tensors)

    def test_pool_argmax_map_added(self, tiny_graph):
        gp = build_gist_plan(tiny_graph, GistConfig())
        ts = tensors_by_name(gp.plan)
        pool1 = tiny_graph.node_by_name("pool1")
        amap = ts["pool1.argmax"]
        assert amap.spec.dtype.name == "nibble4"
        assert amap.birth == gp.schedule.forward_time(pool1.node_id)
        assert amap.death == gp.schedule.backward_time(pool1.node_id)
        assert pool1.node_id in gp.rewritten_pools

    def test_no_argmax_map_without_binarize(self, tiny_graph):
        gp = build_gist_plan(tiny_graph, GistConfig(binarize=False))
        assert not any(t.spec.name.endswith(".argmax") for t in gp.plan.tensors)
        assert gp.rewritten_pools == ()

    def test_disabled_config_matches_baseline_footprint(self, tiny_graph):
        baseline = build_memory_plan(tiny_graph)
        gp = build_gist_plan(tiny_graph, GistConfig.disabled())
        alloc = StaticAllocator()
        assert (alloc.allocate(gp.plan.tensors).total_bytes
                == alloc.allocate(baseline.tensors).total_bytes)


class TestDecisions:
    def test_encodings_assigned_per_table1(self, tiny_graph):
        gp = build_gist_plan(tiny_graph, GistConfig())
        by_name = {d.node_name: d for d in gp.decisions.values()}
        assert by_name["relu1"].encoding == ENC_BINARIZE
        assert by_name["relu2"].encoding == ENC_SSDC
        assert by_name["input"].encoding == ENC_DPR

    def test_binarize_is_32x(self, tiny_graph):
        gp = build_gist_plan(tiny_graph, GistConfig())
        d = {d.node_name: d for d in gp.decisions.values()}["relu1"]
        assert d.fp32_bytes / d.resident_bytes == 32.0
        assert d.decoded_bytes == 0

    def test_dpr_fp16_is_2x(self, tiny_graph):
        gp = build_gist_plan(tiny_graph, GistConfig(dpr_format="fp16"))
        d = {d.node_name: d for d in gp.decisions.values()}["input"]
        assert d.fp32_bytes / d.resident_bytes == pytest.approx(2.0, rel=1e-3)

    def test_ssdc_uses_sparsity_model(self, tiny_graph):
        dense = build_gist_plan(tiny_graph, GistConfig(),
                                ConstantSparsity(0.0))
        sparse = build_gist_plan(tiny_graph, GistConfig(),
                                 ConstantSparsity(0.9))
        d_dense = {d.node_name: d for d in dense.decisions.values()}["relu2"]
        d_sparse = {d.node_name: d for d in sparse.decisions.values()}["relu2"]
        assert d_sparse.resident_bytes < d_dense.resident_bytes
        assert d_sparse.sparsity == 0.9

    def test_dpr_over_ssdc_shrinks_values(self, tiny_graph):
        # DPR narrows the CSR values array (never the meta arrays).
        with_dpr = build_gist_plan(
            tiny_graph, GistConfig(dpr_format="fp8"), ConstantSparsity(0.5)
        )
        without = build_gist_plan(
            tiny_graph, GistConfig.lossless(), ConstantSparsity(0.5)
        )
        d_with = {d.node_name: d for d in with_dpr.decisions.values()}["relu2"]
        d_without = {d.node_name: d for d in without.decisions.values()}["relu2"]
        assert d_with.encoding == d_without.encoding == "ssdc"
        assert d_with.resident_bytes < d_without.resident_bytes

    def test_region_bytes_cover_all_stash_regions(self, tiny_graph):
        gp = build_gist_plan(tiny_graph, GistConfig())
        regions = gp.raw_region_bytes()
        assert set(regions) == {"ssdc", "binarize", "other_stashed", "immediate"}
        assert regions["binarize"] > 0
        assert regions["ssdc"] > 0
        assert regions["immediate"] > 0


class TestInplace:
    def test_conv_output_merges_into_relu(self, tiny_graph):
        gp = build_gist_plan(tiny_graph, GistConfig())
        ts = tensors_by_name(gp.plan)
        assert "conv1.out" not in ts  # absorbed by relu1.out
        s = gp.schedule
        conv1 = tiny_graph.node_by_name("conv1")
        assert ts["relu1.out"].birth == s.forward_time(conv1.node_id)

    def test_inplace_off_keeps_both(self, tiny_graph):
        gp = build_gist_plan(tiny_graph, GistConfig(inplace=False))
        ts = tensors_by_name(gp.plan)
        assert "conv1.out" in ts

    def test_inplace_reduces_footprint(self, tiny_graph):
        alloc = StaticAllocator()
        without = build_gist_plan(tiny_graph, GistConfig.lossless(inplace=False))
        with_ip = build_gist_plan(tiny_graph, GistConfig.lossless())
        assert (alloc.allocate(with_ip.plan.tensors).total_bytes
                <= alloc.allocate(without.plan.tensors).total_bytes)


class TestInvestigationMode:
    def test_stashes_and_encoded_unshareable(self, tiny_graph):
        gp = build_gist_plan(tiny_graph, GistConfig(), investigation=True)
        for t in gp.plan.tensors:
            cls = gp.plan.classify(t)
            if cls in (CLASS_STASHED, CLASS_ENCODED):
                assert not t.shareable


class TestMonotonicity:
    def test_buffer_free_techniques_never_hurt_tiny_graphs(self, tiny_graph):
        # Binarize adds no decode buffer, so it helps even on a 7-op net.
        alloc = StaticAllocator()

        def footprint(config):
            return alloc.allocate(
                build_gist_plan(tiny_graph, config).plan.tensors
            ).total_bytes

        baseline = footprint(GistConfig.disabled())
        assert footprint(GistConfig.binarize_only()) < baseline
        assert footprint(GistConfig.dpr_only("fp8")) < baseline
        assert footprint(GistConfig.full("fp8")) < baseline

    def test_all_techniques_help_at_scale(self):
        # SSDC's decode staging buffer can outweigh its savings on toy
        # graphs (the paper's own Figure 10 shows SSDC alone is marginal on
        # AlexNet); at VGG-like scale every technique must win.
        from repro.models import scaled_vgg

        g = scaled_vgg(batch_size=8)
        alloc = StaticAllocator()

        def footprint(config):
            return alloc.allocate(
                build_gist_plan(g, config).plan.tensors
            ).total_bytes

        baseline = footprint(GistConfig.disabled())
        assert footprint(GistConfig.binarize_only()) < baseline
        assert footprint(GistConfig.ssdc_only()) < baseline
        assert footprint(GistConfig.dpr_only("fp8")) < baseline
        full = footprint(GistConfig.full("fp8"))
        assert full < footprint(GistConfig.lossless()) <= baseline


@pytest.mark.parametrize("model", available_models())
def test_argmax_maps_sit_on_exactly_the_max_pools(model):
    """The 4-bit Y-to-X map is a max-pool fact: under Binarize every
    max-pool with a backward op stashes one and no other node does, and
    the pool-rewritten uses table has no max-pool read its X or Y."""
    g = build_model(model, batch_size=16)
    schedule = TrainingSchedule(g)
    pools = {n.node_id for n in g.nodes
             if n.kind == "maxpool" and schedule.has_backward(n.node_id)}
    plan = build_gist_plan(g, GistConfig.lossless())
    argmax = [t.node_id for t in plan.plan.tensors
              if t.spec.name.endswith(".argmax")]
    assert sorted(argmax) == sorted(pools)
    assert set(plan.rewritten_pools) == pools

    uses = feature_map_uses(g, schedule, True)
    for node in g.nodes:
        producer_reads, readers = backward_readers(
            g, schedule, node.node_id, True)
        assert not (producer_reads and node.kind == "maxpool"), node.name
        assert not any(r.kind == "maxpool" for r in readers), node.name
        pool_reads = {schedule.backward_time(p.node_id)
                      for p in g.consumers(node.node_id) + [node]
                      if p.node_id in pools}
        assert pool_reads.isdisjoint(uses[node.node_id][1:]), node.name
