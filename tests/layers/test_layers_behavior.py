"""Behavioural and metadata tests for the layer library."""

import numpy as np
import pytest

from repro.dtypes import FP32, NIBBLE4
from repro.layers import (
    Add,
    AvgPool2D,
    BatchNorm2D,
    Concat,
    Conv2D,
    Dense,
    Dropout,
    Flatten,
    GlobalAvgPool2D,
    InputLayer,
    LocalResponseNorm,
    MaxPool2D,
    ReLU,
    SoftmaxCrossEntropy,
)
from repro.kernels.plan import bit_identical, get_plan
from repro.layers.im2col import col2im_reference, conv_output_hw

from tests.conftest import col2im_t, run_layer


class TestShapeInference:
    def test_conv_same_padding(self):
        assert Conv2D(16, 3, pad=1).infer_shape([(8, 3, 32, 32)]) == (8, 16, 32, 32)

    def test_conv_stride(self):
        assert Conv2D(96, 11, stride=4).infer_shape([(1, 3, 227, 227)]) == (1, 96, 55, 55)

    def test_conv_rejects_too_small(self):
        with pytest.raises(ValueError):
            Conv2D(4, 7).infer_shape([(1, 3, 5, 5)])

    def test_maxpool(self):
        assert MaxPool2D(2, 2).infer_shape([(4, 8, 16, 16)]) == (4, 8, 8, 8)

    def test_maxpool_overlapping(self):
        assert MaxPool2D(3, 2).infer_shape([(4, 8, 13, 13)]) == (4, 8, 6, 6)

    def test_dense_flattens(self):
        assert Dense(10).infer_shape([(4, 8, 2, 2)]) == (4, 10)

    def test_concat_channels(self):
        shapes = [(2, 3, 4, 4), (2, 5, 4, 4)]
        assert Concat().infer_shape(shapes) == (2, 8, 4, 4)

    def test_concat_rejects_mismatched_spatial(self):
        with pytest.raises(ValueError):
            Concat().infer_shape([(2, 3, 4, 4), (2, 3, 5, 5)])

    def test_add_rejects_mismatch(self):
        with pytest.raises(ValueError):
            Add().infer_shape([(2, 3, 4, 4), (2, 4, 4, 4)])

    def test_flatten(self):
        assert Flatten().infer_shape([(2, 3, 4, 5)]) == (2, 60)

    def test_gap(self):
        assert GlobalAvgPool2D().infer_shape([(2, 7, 9, 9)]) == (2, 7, 1, 1)

    def test_loss_needs_2d(self):
        with pytest.raises(ValueError):
            SoftmaxCrossEntropy().infer_shape([(2, 3, 4, 4)])

    def test_input_layer_takes_no_inputs(self):
        with pytest.raises(ValueError):
            InputLayer((1, 3, 4, 4)).infer_shape([(1, 3, 4, 4)])


class TestConstructorValidation:
    def test_conv_rejects_bad_channels(self):
        with pytest.raises(ValueError):
            Conv2D(0, 3)

    def test_conv_rejects_bad_stride(self):
        with pytest.raises(ValueError):
            Conv2D(4, 3, stride=0)

    def test_conv_rejects_negative_pad(self):
        with pytest.raises(ValueError):
            Conv2D(4, 3, pad=-1)

    def test_pool_rejects_huge_window(self):
        with pytest.raises(ValueError):
            MaxPool2D(17)  # 289 positions > 8-bit argmax

    def test_dropout_rejects_p(self):
        with pytest.raises(ValueError):
            Dropout(1.0)

    def test_lrn_rejects_even_size(self):
        with pytest.raises(ValueError):
            LocalResponseNorm(size=4)

    def test_bn_rejects_momentum(self):
        with pytest.raises(ValueError):
            BatchNorm2D(momentum=1.0)

    def test_dense_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            Dense(0)


class TestBackwardNeedsMetadata:
    """Paper Figure 4: which of X/Y each backward pass reads."""

    def test_relu_needs_only_output(self):
        assert not ReLU().backward_needs_input
        assert ReLU().backward_needs_output

    def test_conv_needs_only_input(self):
        layer = Conv2D(4, 3)
        assert layer.backward_needs_input
        assert not layer.backward_needs_output

    def test_dense_needs_only_input(self):
        assert Dense(4).backward_needs_input
        assert not Dense(4).backward_needs_output

    def test_maxpool_baseline_needs_both(self):
        layer = MaxPool2D(2)
        assert layer.backward_needs_input
        assert layer.backward_needs_output

    def test_maxpool_argmax_spec_is_4bit(self):
        spec = MaxPool2D(3, 2).argmax_map_spec((2, 4, 5, 5))
        assert spec.dtype is NIBBLE4
        assert spec.shape == (2, 4, 5, 5)

    def test_avgpool_needs_nothing(self):
        layer = AvgPool2D(2)
        assert not layer.backward_needs_input
        assert not layer.backward_needs_output

    def test_batchnorm_needs_only_input(self):
        # X plus the saved batch statistics; Y is not read.
        layer = BatchNorm2D()
        assert layer.backward_needs_input
        assert not layer.backward_needs_output

    def test_lrn_needs_both(self):
        layer = LocalResponseNorm()
        assert layer.backward_needs_input
        assert layer.backward_needs_output

    def test_inplace_support(self):
        assert ReLU().supports_inplace
        assert Dropout().supports_inplace
        assert not Conv2D(4, 3).supports_inplace
        assert not MaxPool2D(2).supports_inplace


class TestKernels:
    def test_relu_clamps(self, rng):
        x = rng.normal(0, 1, (3, 4)).astype(np.float32)
        y, _ = run_layer(ReLU(), [x])
        assert (y >= 0).all()
        np.testing.assert_allclose(y, np.maximum(x, 0))

    def test_relu_backward_accepts_bool_mask(self, rng):
        layer = ReLU()
        x = rng.normal(0, 1, (3, 4)).astype(np.float32)
        y, ctx = run_layer(layer, [x])
        dy = rng.normal(0, 1, (3, 4)).astype(np.float32)
        (dx_from_y,), _ = layer.backward(dy, {}, ctx)
        ctx.output_value = y > 0  # the Binarize mask
        (dx_from_mask,), _ = layer.backward(dy, {}, ctx)
        np.testing.assert_array_equal(dx_from_y, dx_from_mask)

    def test_maxpool_matches_naive(self, rng):
        x = rng.normal(0, 1, (2, 3, 6, 6)).astype(np.float32)
        y, _ = run_layer(MaxPool2D(2, 2), [x])
        naive = x.reshape(2, 3, 3, 2, 3, 2).max(axis=(3, 5))
        np.testing.assert_allclose(y, naive)

    def test_maxpool_argmax_in_nibble_range(self, rng):
        x = rng.normal(0, 1, (2, 2, 9, 9)).astype(np.float32)
        _, ctx = run_layer(MaxPool2D(3, 3), [x])
        argmax = ctx.state["argmax"]
        assert argmax.max() <= 8  # 3x3 window

    def test_avgpool_matches_naive(self, rng):
        x = rng.normal(0, 1, (2, 3, 6, 6)).astype(np.float32)
        y, _ = run_layer(AvgPool2D(2, 2), [x])
        naive = x.reshape(2, 3, 3, 2, 3, 2).mean(axis=(3, 5))
        np.testing.assert_allclose(y, naive, rtol=1e-6)

    @pytest.mark.parametrize("shape,kernel,stride,pad", [
        ((2, 3, 7, 7), 3, 2, 1),  # overlapping, padded
        ((2, 2, 7, 9), 2, 2, 0),  # ragged: last row and column unpooled
        ((1, 3, 8, 8), 3, 1, 0),  # overlapping at stride 1
    ])
    def test_avgpool_backward_is_col2im_reference(self, rng, shape, kernel,
                                                  stride, pad):
        """The backward's bytes are ``col2im_reference``'s on columns that
        each hold ``dy / S`` — -0.0 cotangents included."""
        layer = AvgPool2D(kernel, stride, pad=pad)
        x = rng.normal(0, 1, shape).astype(np.float32)
        y, ctx = run_layer(layer, [x])
        dy = rng.normal(0, 1, y.shape).astype(np.float32)
        dy[0, 0] = -0.0
        dy[:, :, -1] = -0.0
        (dx,), _ = layer.backward(dy, {}, ctx)
        n, c = shape[:2]
        s = kernel * kernel
        cols = np.repeat((dy * (1.0 / s)).reshape(n, c, 1, -1), s, axis=2)
        want = col2im_reference(cols.reshape(n, c * s, -1), shape, kernel,
                                kernel, stride, pad)
        assert bit_identical(dx, want)

    def test_conv_matches_naive(self, rng):
        x = rng.normal(0, 1, (1, 2, 5, 5)).astype(np.float32)
        layer = Conv2D(3, 3)
        params = layer.init_params([x.shape], rng)
        y, _ = run_layer(layer, [x], params)
        w, bias = params["w"], params["b"]
        naive = np.zeros((1, 3, 3, 3), np.float32)
        for f in range(3):
            for i in range(3):
                for j in range(3):
                    patch = x[0, :, i : i + 3, j : j + 3]
                    naive[0, f, i, j] = (patch * w[f]).sum() + bias[f]
        np.testing.assert_allclose(y, naive, rtol=1e-4, atol=1e-5)

    def test_batchnorm_normalises(self, rng):
        layer = BatchNorm2D()
        x = rng.normal(3.0, 2.0, (8, 4, 5, 5)).astype(np.float32)
        params = layer.init_params([x.shape], rng)
        y, _ = run_layer(layer, [x], params)
        np.testing.assert_allclose(y.mean(axis=(0, 2, 3)), 0, atol=1e-5)
        np.testing.assert_allclose(y.std(axis=(0, 2, 3)), 1, atol=1e-3)

    def test_batchnorm_eval_uses_running_stats(self, rng):
        layer = BatchNorm2D(momentum=0.0)  # running stats = last batch
        x = rng.normal(0, 1, (8, 2, 4, 4)).astype(np.float32)
        params = layer.init_params([x.shape], rng)
        run_layer(layer, [x], params, train=True)
        y_eval, _ = run_layer(layer, [x], params, train=False)
        y_train, _ = run_layer(layer, [x], params, train=True)
        np.testing.assert_allclose(y_eval, y_train, rtol=1e-3, atol=1e-4)

    def test_dropout_eval_is_identity(self, rng):
        x = rng.normal(0, 1, (4, 6)).astype(np.float32)
        y, _ = run_layer(Dropout(0.5), [x], train=False)
        np.testing.assert_array_equal(y, x)

    def test_dropout_preserves_expectation(self, rng):
        x = np.ones((200, 200), dtype=np.float32)
        y, _ = run_layer(Dropout(0.3, seed=1), [x])
        assert abs(y.mean() - 1.0) < 0.02

    def test_loss_is_log_classes_at_init(self, rng):
        layer = SoftmaxCrossEntropy()
        logits = np.zeros((16, 10), dtype=np.float32)
        layer.set_labels(rng.integers(0, 10, 16))
        y, _ = run_layer(layer, [logits])
        np.testing.assert_allclose(y[0], np.log(10), rtol=1e-5)

    def test_loss_batch_mismatch(self):
        layer = SoftmaxCrossEntropy()
        layer.set_labels(np.zeros(3, dtype=np.int64))
        with pytest.raises(ValueError):
            run_layer(layer, [np.zeros((4, 2), np.float32)])

    def test_loss_requires_labels(self):
        layer = SoftmaxCrossEntropy()
        with pytest.raises(RuntimeError):
            run_layer(layer, [np.zeros((4, 2), np.float32)])


class TestIm2Col:
    def test_roundtrip_adjoint(self, rng):
        # <im2col(x), c> == <x, col2im(c)> (adjoint property).
        x = rng.normal(0, 1, (2, 3, 6, 6)).astype(np.float64)
        cols = rng.normal(0, 1, (2, 3 * 9, 36)).astype(np.float64)
        plan = get_plan(x.shape, 3, 3, 1, 1)
        lhs = (plan.im2col(x) * cols).sum()
        rhs = (x * col2im_t(plan, cols)).sum()
        assert abs(lhs - rhs) < 1e-9

    def test_output_hw(self):
        assert conv_output_hw(227, 227, 11, 11, 4, 0) == (55, 55)
        assert conv_output_hw(224, 224, 3, 3, 1, 1) == (224, 224)

    def test_output_hw_rejects_nonfit(self):
        with pytest.raises(ValueError):
            conv_output_hw(2, 2, 5, 5, 1, 0)

    def test_flops_counts(self):
        conv = Conv2D(16, 3, pad=1)
        in_shape = (1, 8, 10, 10)
        out_shape = conv.infer_shape([in_shape])
        assert conv.flops([in_shape], out_shape) == 2 * 16 * 100 * 8 * 9
        dense = Dense(100)
        assert dense.flops([(2, 50)], (2, 100)) == 2 * 2 * 50 * 100


class TestWidePoolWindows:
    def test_5x5_window_uses_uint8_argmax(self):
        from repro.dtypes import UINT8

        layer = MaxPool2D((5, 5), 5)
        spec = layer.argmax_map_spec((1, 2, 3, 3))
        assert spec.dtype is UINT8

    def test_5x5_forward_backward(self, rng):
        layer = MaxPool2D(5, 5)
        x = rng.normal(0, 1, (2, 2, 10, 10)).astype(np.float32)
        y, ctx = run_layer(layer, [x])
        naive = x.reshape(2, 2, 2, 5, 2, 5).max(axis=(3, 5))
        np.testing.assert_allclose(y, naive)
        dy = rng.normal(0, 1, y.shape).astype(np.float32)
        (dx,), _ = layer.backward(dy, {}, ctx)
        # Gradient mass is conserved (each window routes dy to one cell).
        np.testing.assert_allclose(dx.sum(), dy.sum(), rtol=1e-5)

    def test_window_over_256_rejected(self):
        with pytest.raises(ValueError):
            MaxPool2D(17)
