"""Tests for the training runtime: data, optimizer, executor, policies."""

import numpy as np
import pytest

from repro.core import GistConfig
from repro.diagnostics import StepTracer
from repro.dtypes import FP8, FP16
from repro.encodings.floatsim import quantize
from repro.models import scaled_vgg, tiny_cnn
from repro.train import (
    BaselinePolicy,
    Dataset,
    GistPolicy,
    GraphExecutor,
    LOSSLESS_POLICY_NAMES,
    SGD,
    Trainer,
    UniformReductionPolicy,
    accuracy,
    accuracy_loss,
    make_synthetic,
    minibatches,
    policy_from_name,
)


class TestData:
    def test_deterministic(self):
        a, _ = make_synthetic(64, 4, 8, seed=5)
        b, _ = make_synthetic(64, 4, 8, seed=5)
        np.testing.assert_array_equal(a.images, b.images)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_different_seed_differs(self):
        a, _ = make_synthetic(64, 4, 8, seed=5)
        b, _ = make_synthetic(64, 4, 8, seed=6)
        assert not np.array_equal(a.images, b.images)

    def test_shapes_and_labels(self):
        train, test = make_synthetic(100, 5, 12, channels=3, seed=0)
        assert train.images.shape == (100, 3, 12, 12)
        assert train.labels.max() < 5
        assert test.num_samples == 25

    def test_minibatches_cover_epoch(self):
        data, _ = make_synthetic(64, 4, 8, seed=0)
        rng = np.random.default_rng(0)
        batches = list(minibatches(data, 16, rng))
        assert len(batches) == 4
        assert all(x.shape[0] == 16 for x, _ in batches)

    def test_minibatches_drop_last(self):
        data, _ = make_synthetic(60, 4, 8, seed=0)
        rng = np.random.default_rng(0)
        assert len(list(minibatches(data, 16, rng))) == 3

    def test_dataset_validation(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((3, 1, 2, 2), np.float32), np.zeros(4, np.int64))

    def test_batch_size_validation(self):
        data, _ = make_synthetic(16, 2, 8, seed=0)
        with pytest.raises(ValueError):
            list(minibatches(data, 0, np.random.default_rng(0)))

    def test_batch_larger_than_dataset_rejected(self):
        # An epoch with no whole batch is an error naming both sizes, not
        # an empty epoch (which would leave an endless stream spinning).
        data, _ = make_synthetic(16, 2, 8, seed=0)
        with pytest.raises(ValueError, match="batch_size 17 .* size 16"):
            next(minibatches(data, 17, np.random.default_rng(0)))
        assert len(list(minibatches(data, 16, np.random.default_rng(0)))) == 1


class TestSGD:
    def test_plain_sgd_step(self):
        opt = SGD(lr=0.1, momentum=0.0)
        params = {"w": np.array([1.0, 2.0], np.float32)}
        opt.step(params, {"w": np.array([1.0, 1.0], np.float32)})
        np.testing.assert_allclose(params["w"], [0.9, 1.9])

    def test_momentum_accumulates(self):
        opt = SGD(lr=0.1, momentum=0.5)
        params = {"w": np.zeros(1, np.float32)}
        g = {"w": np.ones(1, np.float32)}
        opt.step(params, g)   # v=1, w=-0.1
        opt.step(params, g)   # v=1.5, w=-0.25
        np.testing.assert_allclose(params["w"], [-0.25])

    def test_updates_in_place(self):
        opt = SGD(lr=0.1)
        w = np.ones(2, np.float32)
        params = {"w": w}
        opt.step(params, {"w": np.ones(2, np.float32)})
        assert params["w"] is w  # same buffer

    def test_unknown_param_rejected(self):
        with pytest.raises(KeyError):
            SGD().step({}, {"w": np.zeros(1)})

    def test_validation(self):
        with pytest.raises(ValueError):
            SGD(lr=0)
        with pytest.raises(ValueError):
            SGD(momentum=1.5)


class TestExecutor:
    def test_loss_decreases(self):
        g = tiny_cnn(batch_size=8, num_classes=3, image_size=8)
        train, _ = make_synthetic(64, 3, 8, seed=2)
        ex = GraphExecutor(g, seed=0)
        opt = SGD(lr=0.05)
        params = ex.parameters()
        first = last = None
        for _ in range(10):
            loss = ex.forward(train.images[:8], train.labels[:8])
            grads = ex.backward()
            opt.step(params, grads)
            first = first if first is not None else loss
            last = loss
        assert last < first

    def test_shape_mismatch_rejected(self):
        g = tiny_cnn(batch_size=8)
        ex = GraphExecutor(g)
        with pytest.raises(ValueError):
            ex.forward(np.zeros((4, 3, 8, 8), np.float32), np.zeros(4, np.int64))

    def test_backward_before_forward_rejected(self):
        ex = GraphExecutor(tiny_cnn(batch_size=8))
        with pytest.raises(RuntimeError):
            ex.backward()

    def test_second_backward_without_forward_rejected(self):
        g = tiny_cnn(batch_size=8, num_classes=4)
        train, _ = make_synthetic(32, 4, 8, seed=2)
        ex = GraphExecutor(g)
        ex.forward(train.images[:8], train.labels[:8])
        ex.backward()
        with pytest.raises(RuntimeError, match="no forward"):
            ex.backward()  # the step's contexts and stashes are freed
        ex.predict(train.images[:8])
        with pytest.raises(RuntimeError, match="no forward"):
            ex.backward()  # an inference forward stashes nothing

    def test_inference_forward_encodes_nothing(self, monkeypatch):
        # No backward reads an inference forward's stashes, so predict
        # (and Trainer.evaluate through it) runs no codec.
        from repro.encodings.base import Encoding

        def refuse(self, x):
            raise AssertionError(f"{self.name} encoded during inference")

        classes = [Encoding]
        for cls in classes:
            classes += cls.__subclasses__()
            monkeypatch.setattr(cls, "encode", refuse)
        g = scaled_vgg(batch_size=2)
        ex = GraphExecutor(g, policy_from_name("gist-fp16", g))
        images = np.random.default_rng(0).normal(
            0, 1, (2, 3, 32, 32)).astype(np.float32)
        ex.predict(images)
        assert ex.stashed_node_ids() == []

    def test_inference_forward_opens_no_tracer_step(self):
        # A predict between two training steps (as Trainer.evaluate runs
        # it) is not a step: the tracer holds the two training steps.
        g = tiny_cnn(batch_size=8, num_classes=4)
        train, _ = make_synthetic(32, 4, 8, seed=2)
        images, labels = train.images[:8], train.labels[:8]
        tracer = StepTracer()
        ex = GraphExecutor(g, tracer=tracer)
        ex.forward(images, labels)
        ex.backward()
        ex.predict(images)
        ex.forward(images, labels)
        ex.backward()
        assert len(tracer.steps) == 2
        assert all(step.backward_s > 0 for step in tracer.steps)

    def test_gradients_cover_all_params(self):
        g = tiny_cnn(batch_size=8, num_classes=4)
        train, _ = make_synthetic(32, 4, 8, seed=2)
        ex = GraphExecutor(g)
        ex.forward(train.images[:8], train.labels[:8])
        grads = ex.backward()
        assert set(grads) == set(ex.parameters())

    def test_non_loss_output_rejected(self):
        from repro.graph import GraphBuilder
        from repro.layers import ReLU

        b = GraphBuilder("g", (2, 3, 4, 4))
        b.add(ReLU(), b.input)
        with pytest.raises(ValueError):
            GraphExecutor(b.build())

    def test_predict_returns_logits(self):
        g = tiny_cnn(batch_size=8, num_classes=4)
        train, _ = make_synthetic(32, 4, 8, seed=2)
        logits = GraphExecutor(g).predict(train.images[:8])
        assert logits.shape == (8, 4)

    def test_sparsity_tracked_for_relus(self):
        g = tiny_cnn(batch_size=8, num_classes=4)
        train, _ = make_synthetic(32, 4, 8, seed=2)
        ex = GraphExecutor(g)
        ex.forward(train.images[:8], train.labels[:8])
        assert "relu1" in ex.last_sparsity
        assert 0.0 <= ex.last_sparsity["relu1"] <= 1.0

    def test_sparsity_does_not_depend_on_map_layout(self):
        # The default kernels hand out NHWC-strided maps and the reference
        # ones contiguous NCHW; the zero count is taken in memory order.
        g = tiny_cnn(batch_size=8, num_classes=4)
        train, _ = make_synthetic(32, 4, 8, seed=2)
        seen = []
        for backend in (None, "reference"):
            ex = GraphExecutor(g, kernel_backend=backend)
            ex.forward(train.images[:8], train.labels[:8])
            seen.append(ex.last_sparsity)
        assert seen[0] == seen[1] and len(seen[0]) >= 2

    @pytest.mark.parametrize("layout", ["nhwc", "nchw"])
    @pytest.mark.parametrize("fill", ["nan", "signed_zeros", "inf",
                                      "all_zeros", "all_nonzero"])
    def test_sparsity_counts_hostile_maps(self, fill, layout):
        """``last_sparsity`` is ``1 - count_nonzero(y) / y.size`` for every
        map: NaN counts as non-zero, either zero does not, whatever the
        memory order of the map."""
        g = tiny_cnn(batch_size=8, num_classes=4)
        rng = np.random.default_rng(3)

        def hostile(shape):
            n, c, h, w = shape
            y = rng.normal(0, 1, (n, h, w, c)).astype(np.float32)
            y[y < 0] = 0.0
            special = {"nan": np.nan, "signed_zeros": -0.0,
                       "inf": np.inf}.get(fill)
            if special is not None:
                y[rng.random(y.shape) < 0.2] = special
                y[rng.random(y.shape) < 0.1] = -special
            elif fill == "all_zeros":
                y[...] = 0.0
            else:
                y[y == 0] = 1.5
            y = y.transpose(0, 3, 1, 2)
            return np.ascontiguousarray(y) if layout == "nchw" else y

        planted = {}

        class Planting(BaselinePolicy):
            def transform_forward(self, y, node):
                if node.kind in ("relu", "maxpool"):
                    planted[node.name] = hostile(y.shape)
                    return planted[node.name]
                return y

        train, _ = make_synthetic(32, 4, 8, seed=2)
        ex = GraphExecutor(g, Planting())
        with np.errstate(invalid="ignore", over="ignore"):
            ex.forward(train.images[:8], train.labels[:8])
        assert planted and set(ex.last_sparsity) == set(planted)
        for name, y in planted.items():
            assert y.flags["C_CONTIGUOUS"] == (layout == "nchw")
            want = 1.0 - np.count_nonzero(y) / y.size
            assert ex.last_sparsity[name] == want, name
        if fill == "all_zeros":
            assert set(ex.last_sparsity.values()) == {1.0}
        if fill == "all_nonzero":
            assert set(ex.last_sparsity.values()) == {0.0}

    def test_stash_bytes_measured(self):
        g = tiny_cnn(batch_size=8, num_classes=4)
        train, _ = make_synthetic(32, 4, 8, seed=2)
        ex = GraphExecutor(g, GistPolicy(g, GistConfig(dpr_format="fp8")))
        ex.forward(train.images[:8], train.labels[:8])
        nbytes = ex.stash_bytes()
        relu1 = g.node_by_name("relu1")
        full = 4
        for d in relu1.output_shape:
            full *= d
        assert nbytes["relu1"] == full // 32  # binarized


class TestPolicyEquivalence:
    """Lossless Gist must produce bit-identical gradients to the baseline."""

    def test_lossless_gist_gradients_identical(self):
        g = tiny_cnn(batch_size=8, num_classes=4)
        train, _ = make_synthetic(32, 4, 8, seed=2)
        images, labels = train.images[:8], train.labels[:8]

        base = GraphExecutor(g, BaselinePolicy(), seed=0)
        base.forward(images, labels)
        base_grads = base.backward()

        gist = GraphExecutor(g, GistPolicy(g, GistConfig.lossless()), seed=0)
        gist.forward(images, labels)
        gist_grads = gist.backward()

        assert set(base_grads) == set(gist_grads)
        for name in base_grads:
            np.testing.assert_array_equal(
                base_grads[name], gist_grads[name],
                err_msg=f"lossless Gist changed gradient {name!r}",
            )

    def test_dpr_gist_gradients_close_but_not_identical(self):
        g = tiny_cnn(batch_size=8, num_classes=4)
        train, _ = make_synthetic(32, 4, 8, seed=2)
        images, labels = train.images[:8], train.labels[:8]

        base = GraphExecutor(g, BaselinePolicy(), seed=0)
        base.forward(images, labels)
        base_grads = base.backward()

        lossy = GraphExecutor(
            g, GistPolicy(g, GistConfig(dpr_format="fp8")), seed=0
        )
        lossy.forward(images, labels)
        lossy_grads = lossy.backward()

        some_differ = False
        for name in base_grads:
            scale = np.abs(base_grads[name]).max() + 1e-8
            assert np.abs(lossy_grads[name] - base_grads[name]).max() < 0.3 * scale
            if not np.array_equal(lossy_grads[name], base_grads[name]):
                some_differ = True
        assert some_differ  # FP8 must actually inject error somewhere

    def test_dpr_forward_loss_unchanged(self):
        """DPR is *delayed*: the forward pass must be exactly FP32."""
        g = tiny_cnn(batch_size=8, num_classes=4)
        train, _ = make_synthetic(32, 4, 8, seed=2)
        images, labels = train.images[:8], train.labels[:8]
        base_loss = GraphExecutor(g, BaselinePolicy(), seed=0).forward(
            images, labels
        )
        dpr_loss = GraphExecutor(
            g, GistPolicy(g, GistConfig(dpr_format="fp8")), seed=0
        ).forward(images, labels)
        assert base_loss == dpr_loss

    def test_uniform_policy_changes_forward(self):
        g = tiny_cnn(batch_size=8, num_classes=4)
        train, _ = make_synthetic(32, 4, 8, seed=2)
        images, labels = train.images[:8], train.labels[:8]
        base_loss = GraphExecutor(g, BaselinePolicy(), seed=0).forward(
            images, labels
        )
        uni_loss = GraphExecutor(
            g, UniformReductionPolicy(FP8), seed=0
        ).forward(images, labels)
        assert base_loss != uni_loss

    def test_allfp16_policy_is_fp16(self):
        policy = UniformReductionPolicy(FP16)
        assert policy.dtype is FP16
        assert policy.describe() == "uniform-fp16"
        node = tiny_cnn().node_by_name("conv1")
        y = np.array([1.0 + 2**-12], dtype=np.float32)
        np.testing.assert_array_equal(
            policy.transform_forward(y, node), quantize(y, FP16)
        )


class TestTrainer:
    def test_baseline_learns(self):
        g = tiny_cnn(batch_size=16, num_classes=4, image_size=8)
        train, test = make_synthetic(256, 4, 8, seed=1)
        result = Trainer(g, seed=0).train(train, test, epochs=3)
        assert result.final_accuracy > 0.8
        assert len(result.epoch_losses) == 3

    def test_deterministic_given_seed(self):
        g = tiny_cnn(batch_size=16, num_classes=4, image_size=8)
        train, test = make_synthetic(128, 4, 8, seed=1)
        r1 = Trainer(g, seed=3).train(train, test, epochs=2)
        r2 = Trainer(g, seed=3).train(train, test, epochs=2)
        assert r1.epoch_losses == r2.epoch_losses

    def test_sparsity_sampling(self):
        g = tiny_cnn(batch_size=16, num_classes=4, image_size=8)
        train, test = make_synthetic(128, 4, 8, seed=1)
        result = Trainer(g, seed=0).train(train, test, epochs=1,
                                          sparsity_every=2)
        assert result.sparsity_samples
        sample = result.sparsity_samples[0]
        assert "relu1" in sample.sparsity

    def test_accuracy_loss_curve(self):
        g = tiny_cnn(batch_size=16, num_classes=4, image_size=8)
        train, test = make_synthetic(128, 4, 8, seed=1)
        result = Trainer(g, seed=0).train(train, test, epochs=2)
        for acc, loss in zip(result.test_accuracy, result.accuracy_loss_curve):
            assert loss == pytest.approx(1.0 - acc)

    def test_evaluate_counts_every_correct_row(self, monkeypatch):
        """15 right of 22 is 15/22: a count, not a float accuracy times
        the batch, which truncates 15/22 * 22 to 14."""
        g = tiny_cnn(batch_size=22, num_classes=4, image_size=8)
        test, _ = make_synthetic(22, 4, 8, seed=1)
        right = np.arange(22) < 15
        logits = np.zeros((22, 4), np.float32)
        logits[np.arange(22), np.where(right, test.labels,
                                       (test.labels + 1) % 4)] = 1.0
        trainer = Trainer(g, seed=0)
        monkeypatch.setattr(trainer.executor, "predict", lambda images: logits)
        assert trainer.evaluate(test) == 15 / 22


class TestMetrics:
    def test_accuracy(self):
        logits = np.array([[1, 0], [0, 1], [2, 1]], np.float32)
        labels = np.array([0, 1, 1])
        assert accuracy(logits, labels) == pytest.approx(2 / 3)

    def test_accuracy_mismatch(self):
        with pytest.raises(ValueError):
            accuracy(np.zeros((2, 2)), np.zeros(3, np.int64))

    def test_accuracy_loss(self):
        assert accuracy_loss(0.78) == pytest.approx(0.22)
        with pytest.raises(ValueError):
            accuracy_loss(1.5)

    def test_accuracy_loss_clamps_float_artifacts(self):
        # mean() over per-batch accuracies can come out one ulp past the
        # boundary; that is a rounding artifact, not a caller bug.
        import math

        assert accuracy_loss(1.0 + math.ulp(1.0)) == 0.0
        assert accuracy_loss(-math.ulp(1.0)) == 1.0
        with pytest.raises(ValueError):
            accuracy_loss(1.0 + 3 * math.ulp(1.0))
        with pytest.raises(ValueError):
            accuracy_loss(-3 * math.ulp(1.0))


class TestGradientOnlyPolicy:
    def test_forward_untouched(self):
        from repro.train import GradientOnlyReductionPolicy

        g = tiny_cnn(batch_size=8, num_classes=4)
        train, _ = make_synthetic(32, 4, 8, seed=2)
        images, labels = train.images[:8], train.labels[:8]
        base = GraphExecutor(g, BaselinePolicy(), seed=0).forward(images, labels)
        grad_only = GraphExecutor(
            g, GradientOnlyReductionPolicy(FP8), seed=0
        ).forward(images, labels)
        assert base == grad_only

    def test_gradients_are_quantized(self):
        from repro.train import GradientOnlyReductionPolicy

        g = tiny_cnn(batch_size=8, num_classes=4)
        train, _ = make_synthetic(32, 4, 8, seed=2)
        images, labels = train.images[:8], train.labels[:8]

        base_ex = GraphExecutor(g, BaselinePolicy(), seed=0)
        base_ex.forward(images, labels)
        base = base_ex.backward()

        go_ex = GraphExecutor(g, GradientOnlyReductionPolicy(FP8), seed=0)
        go_ex.forward(images, labels)
        reduced = go_ex.backward()

        some_differ = any(
            not np.array_equal(base[k], reduced[k]) for k in base
        )
        assert some_differ

    def test_training_survives_grad_fp16(self):
        """The paper's Section III-B claim: gradient-map-only reduction
        does not affect accuracy."""
        from repro.train import GradientOnlyReductionPolicy

        g = tiny_cnn(batch_size=16, num_classes=4, image_size=8)
        train, test = make_synthetic(256, 4, 8, seed=1)
        result = Trainer(g, GradientOnlyReductionPolicy(FP16), seed=0).train(
            train, test, epochs=3
        )
        assert result.final_accuracy > 0.8


def _two_headed_cnn(batch_size=4):
    """The graph input feeds two convs (one followed by a ReLU)."""
    from repro.graph import GraphBuilder
    from repro.layers import (
        Add, Conv2D, Dense, MaxPool2D, ReLU, SoftmaxCrossEntropy,
    )

    b = GraphBuilder("two_headed", (batch_size, 3, 8, 8))
    left = b.add(Conv2D(6, 3, pad=1), b.input, name="left")
    left = b.add(ReLU(), left, name="left_relu")
    right = b.add(Conv2D(6, 3, pad=1), b.input, name="right")
    x = b.add(Add(), [left, right], name="join")
    x = b.add(ReLU(), x, name="relu")
    x = b.add(Conv2D(8, 3, pad=1), x, name="deep")
    x = b.add(MaxPool2D(2, 2), x, name="pool")
    x = b.add(Dense(4), x, name="fc")
    b.mark_output(b.add(SoftmaxCrossEntropy(), x, name="loss"))
    return b.build()


class TestInputGradientIsNeverComputed:
    """A conv fed by the graph input returns no ``dx``: nothing reads it,
    so skipping it must not move one bit of any loss or parameter
    gradient — compared with the same run forced to compute every ``dx``,
    which is what the executor did before it asked."""

    GRAPHS = {
        "tiny_cnn": lambda: tiny_cnn(batch_size=4),
        "scaled_vgg": lambda: scaled_vgg(batch_size=4),
        "two_headed": _two_headed_cnn,
    }

    @staticmethod
    def _train(graph, policy_name, backend, steps=3):
        policy = policy_from_name(policy_name, graph)
        seen = []
        inner = policy.transform_gradient

        def recording(dx, node):
            assert dx is not None, f"{node.name}: policy handed a None dx"
            seen.append(node.name)
            return inner(dx, node)

        policy.transform_gradient = recording
        ex = GraphExecutor(graph, policy, seed=0, kernel_backend=backend)
        shape = graph.node(graph.input_id).output_shape
        rng = np.random.default_rng(3)
        opt = SGD(lr=0.05)
        trace = []
        for _ in range(steps):
            images = rng.normal(0, 1, shape).astype(np.float32)
            loss = ex.forward(images, rng.integers(0, 4, shape[0]))
            grads = ex.backward()
            trace.append((loss, {k: v.tobytes() for k, v in grads.items()}))
            opt.step(ex.parameters(), grads)
        return trace, seen

    @pytest.mark.parametrize("backend", [None, "reference", "blas-fat"])
    @pytest.mark.parametrize("policy_name", LOSSLESS_POLICY_NAMES)
    @pytest.mark.parametrize("model", sorted(GRAPHS))
    def test_skipping_it_moves_no_bit(self, monkeypatch, model, policy_name,
                                      backend):
        graph = self.GRAPHS[model]()
        fed_by_input = [n.name for n in graph.nodes
                        if graph.input_id in n.inputs]
        skipped, seen = self._train(graph, policy_name, backend)
        assert not set(seen) & set(fed_by_input)
        monkeypatch.setattr(
            "repro.train.executor._Context.input_needs_gradient",
            lambda self, index=0: True)
        full, seen_full = self._train(graph, policy_name, backend)
        assert skipped == full
        assert set(fed_by_input) <= set(seen_full)

    def test_standalone_context_still_gets_a_full_dx(self):
        from repro.layers import Conv2D
        from tests.conftest import run_layer

        layer = Conv2D(4, 3, pad=1)
        rng = np.random.default_rng(0)
        x = rng.normal(0, 1, (2, 3, 6, 6)).astype(np.float32)
        params = layer.init_params([x.shape], rng)
        y, ctx = run_layer(layer, [x], params)
        assert ctx.input_needs_gradient()
        (dx,), _ = layer.backward(np.ones_like(y), params, ctx)
        assert dx.shape == x.shape and np.abs(dx).max() > 0
