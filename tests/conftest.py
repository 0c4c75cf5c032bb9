"""Shared fixtures and the numerical gradient-check harness."""

from __future__ import annotations

from typing import Dict, Sequence

import numpy as np
import pytest

from repro.graph import Graph, GraphBuilder
from repro.kernels.arena import NULL_ARENA
from repro.layers import (
    Conv2D,
    Dense,
    MaxPool2D,
    ReLU,
    SoftmaxCrossEntropy,
)
from repro.layers.base import Layer, OpContext


class DictContext(OpContext):
    """Standalone OpContext for single-layer tests."""

    def __init__(self):
        self.state: Dict[str, np.ndarray] = {}
        self.input_value = None
        self.output_value = None

    def save_state(self, key, value):
        self.state[key] = value

    def get_state(self, key):
        return self.state[key]

    def stashed_input(self, index: int = 0):
        assert self.input_value is not None, "input was not recorded"
        return self.input_value

    def stashed_output(self):
        assert self.output_value is not None, "output was not recorded"
        return self.output_value


def run_layer(layer: Layer, xs: Sequence[np.ndarray], params=None, train=True):
    """Forward a layer through a fresh DictContext; returns (y, ctx)."""
    params = params or {}
    ctx = DictContext()
    ctx.input_value = xs[0]
    y = layer.forward(xs, params, ctx, train=train)
    ctx.output_value = y
    return y, ctx


def col2im_t(plan, cols: np.ndarray, arena=NULL_ARENA) -> np.ndarray:
    """col2im as ``blas-fat``'s copy fill runs it: the (N, K, P) column
    gradient ``cols``, laid out as ``im2col_t``'s (K, N*P) columns and
    folded one sample block at a time by ``KernelPlan.scatter_t`` into
    one (N, Q) buffer rented from ``arena``.  Returns its (N, C, H, W)
    interior, which ``col2im_reference`` must match byte for byte."""
    n = plan.shape[0]
    cols_t = np.ascontiguousarray(cols.transpose(1, 0, 2)).reshape(
        plan.K, n * plan.P)
    out = arena.rent((n, plan.Q), cols.dtype)
    for n0, n1 in plan.blocks:
        plan.scatter_t(cols_t[:, n0 * plan.P:n1 * plan.P], n0, out)
    return plan.unpad(out)


def numerical_gradient(f, x: np.ndarray, eps: float = 1e-3) -> np.ndarray:
    """Central-difference gradient of scalar-valued ``f`` at ``x``."""
    grad = np.zeros_like(x, dtype=np.float64)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = x[idx]
        x[idx] = orig + eps
        fp = f()
        x[idx] = orig - eps
        fm = f()
        x[idx] = orig
        grad[idx] = (fp - fm) / (2 * eps)
        it.iternext()
    return grad


def check_layer_gradients(layer, xs, params=None, rtol=1e-2, atol=1e-4,
                          train=True):
    """Compare analytic layer gradients with central differences.

    Uses a fixed upstream gradient and the scalar objective
    ``sum(dy * forward(x))`` so both input and parameter gradients are
    exercised.
    """
    params = params or {}
    xs = [np.asarray(x, dtype=np.float64).astype(np.float32) for x in xs]
    y0, ctx = run_layer(layer, xs, params, train=train)
    rng = np.random.default_rng(42)
    dy = rng.normal(0, 1, y0.shape).astype(np.float32)

    dxs, dparams = layer.backward(dy, params, ctx)

    def objective():
        y, _ = run_layer(layer, xs, params, train=train)
        return float((y.astype(np.float64) * dy).sum())

    for i, x in enumerate(xs):
        num = numerical_gradient(objective, x)
        np.testing.assert_allclose(
            dxs[i], num, rtol=rtol, atol=atol,
            err_msg=f"input gradient {i} mismatch for {type(layer).__name__}",
        )
    for name, p in params.items():
        num = numerical_gradient(objective, p)
        np.testing.assert_allclose(
            dparams[name], num, rtol=rtol, atol=atol,
            err_msg=f"param gradient {name!r} mismatch for {type(layer).__name__}",
        )


@pytest.fixture
def rng():
    return np.random.default_rng(7)


@pytest.fixture
def tiny_graph() -> Graph:
    """conv-relu-pool-conv-relu-dense-loss graph at trivially small size."""
    b = GraphBuilder("fixture_tiny", (4, 3, 8, 8))
    x = b.add(Conv2D(4, 3, pad=1), b.input, name="conv1")
    x = b.add(ReLU(), x, name="relu1")
    x = b.add(MaxPool2D(2, 2), x, name="pool1")
    x = b.add(Conv2D(8, 3, pad=1), x, name="conv2")
    x = b.add(ReLU(), x, name="relu2")
    x = b.add(Dense(4), x, name="fc")
    x = b.add(SoftmaxCrossEntropy(), x, name="loss")
    b.mark_output(x)
    return b.build()
