"""Integration tests: the full pipeline on real (scaled) workloads."""

import numpy as np
import pytest

from repro.core import Gist, GistConfig
from repro.models import (
    PAPER_SUITE,
    build_model,
    resnet_cifar,
    scaled_alexnet,
    scaled_vgg,
    tiny_cnn,
)
from repro.perf import measure_overhead, simulate_swapping
from repro.train import (
    BaselinePolicy,
    GistPolicy,
    GraphExecutor,
    SGD,
    Trainer,
    make_synthetic,
)


class TestSuiteWideMFR:
    """The paper's headline numbers across the entire suite."""

    @pytest.fixture(scope="class")
    def reports(self):
        out = {}
        for name in PAPER_SUITE:
            graph = build_model(name, batch_size=64)
            out[name] = {
                "lossless": Gist(GistConfig.lossless()).measure_mfr(graph),
                "full": Gist(GistConfig.for_network(name)).measure_mfr(graph),
            }
        return out

    def test_every_network_compresses(self, reports):
        for name, r in reports.items():
            assert r["lossless"].mfr > 1.15, name
            assert r["full"].mfr > r["lossless"].mfr, name

    def test_average_mfr_bands(self, reports):
        lossless = np.mean([r["lossless"].mfr for r in reports.values()])
        full = np.mean([r["full"].mfr for r in reports.values()])
        assert 1.25 < lossless < 1.6   # paper: 1.4x
        assert 1.6 < full < 2.2        # paper: 1.8x

    def test_max_full_mfr_near_2x(self, reports):
        assert max(r["full"].mfr for r in reports.values()) > 1.85


class TestEndToEndTraining:
    def test_full_gist_policy_trains_all_models(self):
        train, test = make_synthetic(128, 4, 8, seed=2)
        for factory in (tiny_cnn,):
            graph = factory(batch_size=16, num_classes=4, image_size=8)
            policy = GistPolicy(graph, GistConfig(dpr_format="fp16"))
            result = Trainer(graph, policy, SGD(lr=0.05), seed=0).train(
                train, test, epochs=3
            )
            assert result.final_accuracy > 0.7, factory.__name__

    def test_scaled_models_one_step(self):
        for factory in (scaled_vgg, scaled_alexnet):
            graph = factory(batch_size=8)
            train, _ = make_synthetic(16, 10, 32, seed=0)
            ex = GraphExecutor(graph, seed=0)
            loss = ex.forward(train.images[:8], train.labels[:8])
            grads = ex.backward()
            assert np.isfinite(loss)
            assert all(np.isfinite(g).all() for g in grads.values())

    def test_resnet_cifar_trains_one_step(self):
        graph = resnet_cifar(14, batch_size=8, num_classes=4, image_size=8)
        train, _ = make_synthetic(16, 4, 8, seed=0)
        ex = GraphExecutor(graph, GistPolicy(graph, GistConfig(dpr_format="fp16")))
        loss = ex.forward(train.images[:8], train.labels[:8])
        grads = ex.backward()
        assert np.isfinite(loss)
        assert all(np.isfinite(g).all() for g in grads.values())

    def test_lossless_training_trajectory_identical(self):
        """Multi-step invariance: lossless Gist = baseline, bit for bit."""
        train, test = make_synthetic(64, 4, 8, seed=2)

        def run(policy_factory):
            graph = tiny_cnn(batch_size=16, num_classes=4, image_size=8)
            trainer = Trainer(graph, policy_factory(graph),
                              SGD(lr=0.05, momentum=0.9), seed=0)
            return trainer.train(train, test, epochs=2)

        base = run(lambda g: BaselinePolicy())
        gist = run(lambda g: GistPolicy(g, GistConfig.lossless()))
        assert base.epoch_losses == gist.epoch_losses
        assert base.test_accuracy == gist.test_accuracy


class TestCrossModelConsistency:
    def test_static_runtime_binarize_agreement(self):
        """The schedule builder's encoded size matches what the runtime
        actually stores, for the same graph and encoding."""
        from repro.core import build_gist_plan

        graph = tiny_cnn(batch_size=16, num_classes=4, image_size=8)
        plan = build_gist_plan(graph, GistConfig.lossless())
        train, _ = make_synthetic(32, 4, 8, seed=0)
        ex = GraphExecutor(graph, GistPolicy(graph, GistConfig.lossless()))
        ex.forward(train.images[:16], train.labels[:16])
        runtime_bytes = ex.stash_bytes()
        for decision in plan.decisions.values():
            if decision.encoding == "binarize":
                assert runtime_bytes[decision.node_name] == decision.resident_bytes

    def test_measured_sparsity_feeds_static_model(self):
        """Round trip: measure sparsity at runtime, hand it to the static
        accounting, sizes agree with the runtime CSR bytes."""
        from repro.analysis import MeasuredSparsity
        from repro.core import build_gist_plan

        graph = tiny_cnn(batch_size=16, num_classes=4, image_size=8)
        train, _ = make_synthetic(32, 4, 8, seed=0)
        ex = GraphExecutor(graph, GistPolicy(graph, GistConfig.lossless()))
        ex.forward(train.images[:16], train.labels[:16])
        model = MeasuredSparsity(ex.last_sparsity)
        plan = build_gist_plan(graph, GistConfig.lossless(), model)
        runtime_bytes = ex.stash_bytes()
        for decision in plan.decisions.values():
            if decision.encoding == "ssdc":
                assert (runtime_bytes[decision.node_name]
                        == decision.resident_bytes), decision.node_name


class TestPerfIntegration:
    def test_gist_beats_swapping_everywhere(self):
        for name in ("alexnet", "vgg16"):
            graph = build_model(name, batch_size=64)
            swap = simulate_swapping(graph)
            gist = measure_overhead(graph, GistConfig.for_network(name))
            assert gist.overhead_frac < swap.naive_overhead
            assert gist.overhead_frac < max(swap.vdnn_overhead, 0.05)
