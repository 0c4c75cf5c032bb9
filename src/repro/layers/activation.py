"""Activation layers.

ReLU is the heart of Gist's lossless opportunities: its backward pass needs
only the *sign* of its stashed output (paper Figure 4(b)), i.e.
``dX = dY * (Y > 0)``.  The implementation below therefore accepts either
the full output ``Y`` or a pre-computed 1-bit positivity mask from the
Binarize encoding — both produce bit-identical gradients, which is what
makes Binarize lossless.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.kernels.arena import resolve_arena
from repro.layers.base import Layer, OpContext, Shape


class ReLU(Layer):
    """Rectified linear unit, ``y = max(x, 0)``.

    ReLU has a read-once/write-once element mapping, so it supports the
    paper's inplace optimisation: the plan may give its output the
    producer's buffer, typically a convolution output.
    """

    kind = "relu"
    backward_needs_input = False
    backward_needs_output = True
    supports_inplace = True

    def infer_shape(self, input_shapes: Sequence[Shape]) -> Shape:
        (shape,) = input_shapes
        return shape

    def flops(self, input_shapes: Sequence[Shape], output_shape: Shape) -> int:
        return int(np.prod(output_shape))

    def forward(
        self,
        xs: Sequence[np.ndarray],
        params: Dict[str, np.ndarray],
        ctx: Optional[OpContext],
        train: bool = True,
    ) -> np.ndarray:
        (x,) = xs
        return np.maximum(x, 0.0)

    def backward(
        self,
        dy: np.ndarray,
        params: Dict[str, np.ndarray],
        ctx: OpContext,
    ) -> Tuple[List[np.ndarray], Dict[str, np.ndarray]]:
        y = ctx.stashed_output()
        arena = resolve_arena(ctx)
        if y.dtype == np.bool_:
            mask = y  # Binarize handed us the 1-bit positivity mask directly.
        else:
            mask = arena.rent(y.shape, np.bool_)
            np.greater(y, 0, out=mask)
        dx = arena.rent(dy.shape, dy.dtype)
        np.multiply(dy, mask, out=dx)
        return [dx], {}


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable piecewise logistic function."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


class Sigmoid(Layer):
    """Logistic activation; backward uses the stashed output only."""

    kind = "sigmoid"
    backward_needs_output = True

    def infer_shape(self, input_shapes: Sequence[Shape]) -> Shape:
        (shape,) = input_shapes
        return shape

    def flops(self, input_shapes: Sequence[Shape], output_shape: Shape) -> int:
        return 4 * int(np.prod(output_shape))

    def forward(self, xs, params, ctx, train=True):
        (x,) = xs
        return sigmoid(x)

    def backward(self, dy, params, ctx):
        y = ctx.stashed_output()
        return [dy * y * (1.0 - y)], {}


class Tanh(Layer):
    """Hyperbolic tangent; backward uses the stashed output only."""

    kind = "tanh"
    backward_needs_output = True

    def infer_shape(self, input_shapes: Sequence[Shape]) -> Shape:
        (shape,) = input_shapes
        return shape

    def flops(self, input_shapes: Sequence[Shape], output_shape: Shape) -> int:
        return 4 * int(np.prod(output_shape))

    def forward(self, xs, params, ctx, train=True):
        (x,) = xs
        return np.tanh(x)

    def backward(self, dy, params, ctx):
        y = ctx.stashed_output()
        return [dy * (1.0 - y * y)], {}
