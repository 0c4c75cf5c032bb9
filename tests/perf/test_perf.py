"""Tests for the analytical performance substrate."""

import pytest

from repro.core import GistConfig
from repro.models import alexnet, resnet_cifar, scaled_vgg, vgg16
from repro.perf import (
    CostModel,
    DeviceSpec,
    TITAN_X_MAXWELL,
    encoding_time_delta,
    larger_minibatch_speedup,
    max_minibatch,
    measure_overhead,
    simulate_swapping,
    throughput_images_per_s,
    training_footprint_bytes,
)


class TestDevice:
    def test_titan_x_specs(self):
        dev = TITAN_X_MAXWELL
        assert dev.memory_bytes == 12 * 1024**3
        assert 6e12 < dev.peak_flops < 7e12
        assert 300e9 < dev.mem_bandwidth < 400e9

    def test_occupancy_saturates(self):
        dev = TITAN_X_MAXWELL
        assert dev.occupancy(1) < dev.occupancy(8) < dev.occupancy(64) < 1.0

    def test_occupancy_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            TITAN_X_MAXWELL.occupancy(0)


class TestCostModel:
    def test_step_time_positive_and_decomposes(self):
        g = scaled_vgg(batch_size=8)
        step = CostModel().step_time(g)
        assert step.forward_s > 0
        assert step.backward_s > step.forward_s  # backward does more work
        assert step.total_s == pytest.approx(step.forward_s + step.backward_s)

    def test_bigger_batch_costs_more_per_step(self):
        small = CostModel().step_time(scaled_vgg(batch_size=8)).total_s
        large = CostModel().step_time(scaled_vgg(batch_size=32)).total_s
        assert large > small

    def test_bigger_batch_has_higher_throughput(self):
        thr8 = throughput_images_per_s(scaled_vgg(batch_size=8))
        thr64 = throughput_images_per_s(scaled_vgg(batch_size=64))
        assert thr64 > thr8

    def test_vgg16_step_time_plausible(self):
        # Titan X trains VGG16 @ 64 at roughly 1-3 s per minibatch.
        step = CostModel().step_time(vgg16(batch_size=64))
        assert 0.5 < step.total_s < 5.0

    def test_input_is_free(self):
        g = scaled_vgg(batch_size=8)
        cm = CostModel()
        assert cm.forward_time(g, g.node(g.input_id)) == 0.0


class TestGistOverhead:
    def test_average_overhead_band(self):
        """Paper: ~3% lossless, ~4% with lossy, max 7%."""
        overheads = []
        for name in ("alexnet", "vgg16"):
            from repro.models import build_model

            g = build_model(name, batch_size=64)
            r = measure_overhead(g, GistConfig.for_network(name))
            overheads.append(r.overhead_frac)
            assert -0.02 < r.overhead_frac < 0.10
        assert sum(overheads) / len(overheads) < 0.07

    def test_binarize_is_roughly_neutral_or_speedup(self):
        g = alexnet(batch_size=64)
        r = measure_overhead(g, GistConfig.binarize_only())
        assert r.overhead_frac < 0.01  # paper observes small improvements

    def test_dpr_overhead_minimal(self):
        g = vgg16(batch_size=64)
        r = measure_overhead(g, GistConfig.dpr_only("fp16"))
        assert r.overhead_frac < 0.03  # paper: ~1%

    def test_per_technique_breakdown_keys(self):
        from repro.core.schedule_builder import build_gist_plan

        g = alexnet(batch_size=64)
        deltas = encoding_time_delta(build_gist_plan(g, GistConfig()),
                                     CostModel())
        assert set(deltas) == {"binarize", "ssdc", "dpr"}


class TestSwapping:
    def test_ordering_naive_vdnn_gist(self):
        """Figure 15's headline: naive >> vDNN >> Gist overhead."""
        g = vgg16(batch_size=64)
        swap = simulate_swapping(g)
        gist = measure_overhead(g, GistConfig.for_network("vgg16"))
        assert swap.naive_overhead > swap.vdnn_overhead >= 0.0
        assert swap.naive_overhead > gist.overhead_frac

    def test_naive_adds_full_transfer(self):
        g = alexnet(batch_size=64)
        swap = simulate_swapping(g)
        assert swap.naive_s > swap.baseline_s
        assert swap.vdnn_s <= swap.naive_s
        assert swap.vdnn_s >= swap.baseline_s


class TestUtilization:
    def test_max_minibatch_monotone_in_memory(self):
        factory = lambda b: scaled_vgg(batch_size=b)
        small_dev = DeviceSpec("small", 6e12, 300e9, 256 * 1024**2, 10e9)
        big_dev = DeviceSpec("big", 6e12, 300e9, 1024**3, 10e9)
        assert max_minibatch(factory, device=small_dev) <= max_minibatch(
            factory, device=big_dev
        )

    def test_gist_fits_larger_minibatch(self):
        factory = lambda b: scaled_vgg(batch_size=b)
        dev = DeviceSpec("tiny", 6e12, 300e9, 64 * 1024**2, 10e9)
        base = max_minibatch(factory, None, device=dev)
        gist = max_minibatch(factory, GistConfig.full("fp8"), device=dev)
        assert gist > base

    def test_footprint_includes_weights(self):
        g = scaled_vgg(batch_size=8)
        fp = training_footprint_bytes(g)
        from repro.memory import StaticAllocator, build_memory_plan

        activations_only = StaticAllocator().allocate(
            build_memory_plan(g).tensors).total_bytes
        assert fp > activations_only

    def test_speedup_report(self):
        factory = lambda b: resnet_cifar(56, batch_size=b)
        dev = DeviceSpec("tiny", 6e12, 300e9, 96 * 1024**2, 10e9)
        report = larger_minibatch_speedup(
            factory, GistConfig.full("fp8"), device=dev, name="resnet56"
        )
        assert report.gist_batch > report.baseline_batch
        assert report.speedup > 1.0

    def test_zero_when_nothing_fits(self):
        factory = lambda b: scaled_vgg(batch_size=b)
        dev = DeviceSpec("nano", 6e12, 300e9, 1024, 10e9)
        assert max_minibatch(factory, device=dev) == 0


class TestCDMA:
    def test_cdma_between_vdnn_and_baseline(self):
        from repro.models import build_model
        from repro.perf import simulate_cdma, simulate_swapping

        g = build_model("resnet50", batch_size=64)
        vdnn = simulate_swapping(g)
        cdma = simulate_cdma(g)
        assert vdnn.baseline_s <= cdma.vdnn_s <= vdnn.vdnn_s
        assert cdma.vdnn_s < vdnn.vdnn_s
        # Only the link load changes: same compute, same raw naive swap.
        assert (cdma.baseline_s, cdma.naive_s) == (vdnn.baseline_s,
                                                   vdnn.naive_s)

    def test_each_transfer_is_zero_value_compressed_or_raw(self):
        """cDMA's zero-value compression: a 1-bit mask plus 4 B per
        non-zero at the selector's sparsity, never more than the raw
        fp32 map."""
        from repro.analysis import DEFAULT_SPARSITY_MODEL
        from repro.encodings.ssdc import bitmap_bytes
        from repro.memory import build_memory_plan
        from repro.models import build_model
        from repro.perf.swap import _cdma_transfers, _offloaded_maps

        plan = build_memory_plan(build_model("resnet50", batch_size=8))
        maps = _offloaded_maps(plan)
        transfers = _cdma_transfers(plan)
        assert len(transfers) == len(maps) > 0
        for t, (birth, death, nbytes) in zip(maps, transfers):
            bitmap = bitmap_bytes(t.spec.num_elements,
                                  DEFAULT_SPARSITY_MODEL.sparsity(
                                      plan.graph, t.node_id))
            assert (birth, death) == (t.birth, t.death)
            assert nbytes == min(t.size_bytes, bitmap)
        # Both arms of the min occur: ReLU maps shrink, dense maps go raw.
        assert any(n < t.size_bytes for t, (_, _, n) in zip(maps, transfers))
        assert any(n == t.size_bytes for t, (_, _, n) in zip(maps, transfers))


class TestDeepestTrainable:
    def test_gist_goes_deeper(self):
        from repro.perf import deepest_trainable

        dev = DeviceSpec("small", 6e12, 300e9, 192 * 1024**2, 10e9)
        factory = lambda depth: resnet_cifar(depth, batch_size=32)
        base = deepest_trainable(factory, None, device=dev, start=8,
                                 stride=12, upper=200)
        gist = deepest_trainable(factory, GistConfig.full("fp8"),
                                 device=dev, start=8, stride=12, upper=200)
        assert gist > base > 0

    def test_zero_when_start_does_not_fit(self):
        from repro.perf import deepest_trainable

        dev = DeviceSpec("nano", 6e12, 300e9, 1024, 10e9)
        factory = lambda depth: resnet_cifar(depth, batch_size=8)
        assert deepest_trainable(factory, device=dev, upper=20) == 0

    def test_validation(self):
        from repro.perf import deepest_trainable

        with pytest.raises(ValueError):
            deepest_trainable(lambda d: None, start=0)

    def test_one_search_for_minibatch_and_depth(self):
        """The gallop-then-bisect search both fitters share returns the
        scan's answer on threshold predicates, at both fitters' grids."""
        import random

        from repro.perf.utilization import _last_fitting

        rng = random.Random(0)
        for _ in range(2000):
            first, step = rng.choice([(1, 1), (rng.randint(1, 20),
                                                rng.randint(1, 50))])
            upper = rng.randint(0, 3000)
            bound = rng.randint(-5, upper + 60)
            # ``first`` is always probed, even past ``upper``.
            grid = [first, *range(first + step, upper + 1, step)]
            fitting = [v for v in grid if v <= bound]
            expected = fitting[-1] if first <= bound else 0
            assert _last_fitting(lambda n: n <= bound, first, step,
                                 upper) == expected


class TestEnergyModel:
    def test_gist_cheaper_than_swapping_everywhere(self):
        from repro.models import build_model
        from repro.perf import measure_transfer_energy

        for name in ("alexnet", "vgg16"):
            g = build_model(name, batch_size=64)
            r = measure_transfer_energy(g, GistConfig.for_network(name))
            assert r.ratio > 2.0, name
            assert r.gist_j > 0

    def test_lossless_moves_less_than_lossy_plus_decode(self):
        from repro.models import scaled_vgg
        from repro.perf import measure_transfer_energy

        g = scaled_vgg(batch_size=16)
        binarize_only = measure_transfer_energy(g, GistConfig.binarize_only())
        full = measure_transfer_energy(g, GistConfig.full("fp16"))
        # Binarize alone touches fewer maps than the full pipeline.
        assert binarize_only.gist_j < full.gist_j
