"""Runtime tests on DAG-shaped graphs and encoding plumbing edge cases."""

import numpy as np
import pytest

from repro.core import GistConfig
from repro.dtypes import FP8
from repro.encodings import NARROW_COLS
from repro.graph import GraphBuilder
from repro.layers import (
    Add,
    BatchNorm2D,
    Concat,
    Conv2D,
    Dense,
    MaxPool2D,
    ReLU,
    SoftmaxCrossEntropy,
)
from repro.models import resnet_cifar, tiny_cnn
from repro.train import (
    BaselinePolicy,
    GistPolicy,
    GraphExecutor,
    SGD,
    Trainer,
    make_synthetic,
)
from repro.train.stash import codec_table


def inception_like():
    b = GraphBuilder("mini_inception", (8, 3, 8, 8))
    b1 = b.add(Conv2D(4, 1), b.input, name="b1_conv")
    b1 = b.add(ReLU(), b1, name="b1_relu")
    b3 = b.add(Conv2D(4, 3, pad=1), b.input, name="b3_conv")
    b3 = b.add(ReLU(), b3, name="b3_relu")
    cat = b.add(Concat(), [b1, b3], name="concat")
    x = b.add(MaxPool2D(2, 2), cat, name="pool")
    x = b.add(Dense(4), x, name="fc")
    x = b.add(SoftmaxCrossEntropy(), x, name="loss")
    b.mark_output(x)
    return b.build()


class TestDAGRuntime:
    def test_fan_out_gradient_accumulation(self):
        """A tensor consumed by two branches must receive summed grads."""
        b = GraphBuilder("fanout", (4, 2, 6, 6))
        stem = b.add(Conv2D(3, 3, pad=1), b.input, name="stem")
        left = b.add(Conv2D(3, 3, pad=1), stem, name="left")
        right = b.add(Conv2D(3, 3, pad=1), stem, name="right")
        merged = b.add(Add(), [left, right], name="add")
        x = b.add(Dense(2), merged, name="fc")
        x = b.add(SoftmaxCrossEntropy(), x, name="loss")
        b.mark_output(x)
        g = b.build()

        rng = np.random.default_rng(0)
        images = rng.normal(0, 1, (4, 2, 6, 6)).astype(np.float32)
        labels = rng.integers(0, 2, 4)
        ex = GraphExecutor(g, seed=0)
        ex.forward(images, labels)
        grads = ex.backward()
        # stem's weight gradient reflects both branches: zeroing one
        # branch's contribution must change it.
        assert "stem.w" in grads
        assert np.abs(grads["stem.w"]).sum() > 0

    def test_inception_like_gist_lossless_identical(self):
        g = inception_like()
        rng = np.random.default_rng(1)
        images = rng.normal(0, 1, (8, 3, 8, 8)).astype(np.float32)
        labels = rng.integers(0, 4, 8)

        base = GraphExecutor(g, BaselinePolicy(), seed=0)
        base.forward(images, labels)
        bg = base.backward()
        gist = GraphExecutor(g, GistPolicy(g, GistConfig.lossless()), seed=0)
        gist.forward(images, labels)
        gg = gist.backward()
        for k in bg:
            np.testing.assert_array_equal(bg[k], gg[k], err_msg=k)

    def test_resnet_gist_trains(self):
        g = resnet_cifar(8, batch_size=8, num_classes=4, image_size=8)
        train, test = make_synthetic(64, 4, 8, seed=4)
        policy = GistPolicy(g, GistConfig(dpr_format="fp16"))
        result = Trainer(g, policy, SGD(lr=0.05), seed=0).train(
            train, test, epochs=3
        )
        assert result.final_accuracy > 0.5

    def test_padded_maxpool_binarize_roundtrip(self):
        """Binarize + padded 3x3/2 pool — the AlexNet/GoogLeNet pattern."""
        b = GraphBuilder("padpool", (4, 2, 7, 7))
        x = b.add(Conv2D(3, 3, pad=1), b.input, name="conv")
        x = b.add(ReLU(), x, name="relu")
        x = b.add(MaxPool2D(3, 2, pad=1), x, name="pool")
        x = b.add(Dense(2), x, name="fc")
        x = b.add(SoftmaxCrossEntropy(), x, name="loss")
        b.mark_output(x)
        g = b.build()

        rng = np.random.default_rng(2)
        images = rng.normal(0, 1, (4, 2, 7, 7)).astype(np.float32)
        labels = rng.integers(0, 2, 4)
        base = GraphExecutor(g, BaselinePolicy(), seed=0)
        base.forward(images, labels)
        bg = base.backward()
        gist = GraphExecutor(g, GistPolicy(g, GistConfig.lossless()), seed=0)
        gist.forward(images, labels)
        gg = gist.backward()
        for k in bg:
            np.testing.assert_array_equal(bg[k], gg[k], err_msg=k)


def _codecs(policy, prefix):
    """The policy's distinct codecs whose name starts with ``prefix``."""
    found = {id(e): e for e in codec_table(policy.plan).values()
             if e.name.startswith(prefix)}
    assert found, f"no {prefix} codec in the policy table"
    return list(found.values())


class TestConfigPlumbing:
    # tiny_cnn stashes one map of every Table-I class, so each codec
    # below is actually in the policy table.
    def test_ssdc_cols_reaches_runtime(self):
        # The size model prices narrow (one-byte) column indices.
        g = tiny_cnn(batch_size=4)
        policy = GistPolicy(g, GistConfig.lossless())
        for encoding in _codecs(policy, "ssdc"):
            assert encoding.cols == NARROW_COLS

    def test_dpr_over_ssdc_value_dtype(self):
        g = tiny_cnn(batch_size=4)
        with_dpr = GistPolicy(g, GistConfig(dpr_format="fp8"))
        (ssdc,) = _codecs(with_dpr, "ssdc")
        assert ssdc.value_dtype is FP8
        without = GistPolicy(g, GistConfig.lossless())
        (ssdc,) = _codecs(without, "ssdc")
        assert ssdc.value_dtype is None

    def test_truncate_rounding_reaches_dpr(self):
        g = tiny_cnn(batch_size=4)
        policy = GistPolicy(g, GistConfig(rounding="truncate"))
        (dpr,) = _codecs(policy, "dpr")
        assert dpr.rounding == "truncate"


class TestDivergenceHandling:
    def test_trainer_stops_on_nonfinite_loss(self, monkeypatch):
        g = inception_like()
        train, test = make_synthetic(64, 4, 8, seed=0)
        trainer = Trainer(g, seed=0)

        original = trainer.executor.forward

        def exploding(images, labels, train=True):
            original(images, labels, train)
            return float("nan")

        monkeypatch.setattr(trainer.executor, "forward", exploding)
        result = trainer.train(train, test, epochs=3)
        # Halted after the first minibatch of the first epoch.
        assert len(result.epoch_losses) == 1
        assert result.epoch_losses[0] == float("inf")
