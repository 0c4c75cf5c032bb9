"""Pooling layers.

Max-pool is central to the Binarize encoding: the baseline (CNTK) stashes
both its input ``X`` and output ``Y`` and re-derives the winning positions
in the backward pass.  Gist instead records a *Y-to-X argmax map* in the
forward pass — one window-local index per output element, 4 bits each for
windows up to 3x3 — after which the backward pass touches neither ``X`` nor
``Y`` (paper Section IV-A).  The runtime kernels here always compute that
map (it is also the fastest way to write the backward scatter in NumPy).
Which maps a backward op reads is one table,
:func:`repro.graph.liveness.feature_map_uses`: with pools rewritten
(the planners under Binarize) a max-pool reads neither X nor Y; with its
declared flags the *baseline memory model* charges for both, and the
executor, which runs the table, keeps them until the pool's backward.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.dtypes import NIBBLE4, UINT8
from repro.kernels.arena import resolve_arena
from repro.layers.base import Layer, OpContext, Shape, StateSpec
from repro.layers.im2col import conv_output_hw


class _Pool2D(Layer):
    """Shared shape logic for spatial pooling ops."""

    def __init__(self, kernel, stride: int = None, pad: int = 0):
        self.kh, self.kw = (kernel, kernel) if isinstance(kernel, int) else kernel
        self.stride = stride if stride is not None else self.kh
        if self.stride <= 0:
            raise ValueError(f"stride must be positive, got {self.stride}")
        if pad < 0:
            raise ValueError(f"pad must be non-negative, got {pad}")
        self.pad = pad

    def infer_shape(self, input_shapes: Sequence[Shape]) -> Shape:
        (shape,) = input_shapes
        n, c, h, w = shape
        oh, ow = conv_output_hw(h, w, self.kh, self.kw, self.stride, self.pad)
        return (n, c, oh, ow)

    def flops(self, input_shapes: Sequence[Shape], output_shape: Shape) -> int:
        return int(np.prod(output_shape)) * self.kh * self.kw


class MaxPool2D(_Pool2D):
    """Max pooling with an explicit Y-to-X argmax map.

    The argmax map stores, per output element, which of the ``kh*kw`` window
    positions won — exactly the data structure Gist's Binarize optimisation
    adds for pool layers.  One body: the plan-cache
    ``maxpool_forward`` / ``maxpool_backward``, bit-identical to the loop
    ``maxpool_reference`` / ``maxpool_backward_reference``
    (``tests/kernels/test_one_body_ops.py``).
    """

    kind = "maxpool"
    # What the *baseline* framework stashes (paper: CNTK stores X and Y and
    # re-finds max locations in the backward pass).
    backward_needs_input = True
    backward_needs_output = True

    def __init__(self, kernel, stride: int = None, pad: int = 0):
        super().__init__(kernel, stride, pad)
        if self.kh * self.kw > 256:
            raise ValueError(
                f"pool window {self.kh}x{self.kw} exceeds 8-bit argmax range"
            )

    def argmax_map_spec(self, output_shape: Shape) -> StateSpec:
        """The Y-to-X map's spec (one entry per output element).

        4 bits per entry for windows up to 16 positions (the paper's suite
        tops out at 3x3 = 9); 8 bits for larger windows.
        """
        dtype = NIBBLE4 if self.kh * self.kw <= 16 else UINT8
        return StateSpec("argmax", output_shape, dtype)

    def forward(
        self,
        xs: Sequence[np.ndarray],
        params: Dict[str, np.ndarray],
        ctx: Optional[OpContext],
        train: bool = True,
    ) -> np.ndarray:
        from repro.kernels.plan import get_plan

        (x,) = xs
        plan = get_plan(x.shape, self.kh, self.kw, self.stride, self.pad)
        y, argmax = plan.maxpool_forward(x, resolve_arena(ctx))
        if ctx is not None:
            ctx.save_state("argmax", argmax)
            ctx.save_state("in_shape", np.array(x.shape))
        return y.astype(np.float32, copy=False)

    def backward(
        self,
        dy: np.ndarray,
        params: Dict[str, np.ndarray],
        ctx: OpContext,
    ) -> Tuple[List[np.ndarray], Dict[str, np.ndarray]]:
        from repro.kernels.plan import get_plan

        argmax = ctx.get_state("argmax")
        x_shape = tuple(int(v) for v in ctx.get_state("in_shape"))
        plan = get_plan(x_shape, self.kh, self.kw, self.stride, self.pad)
        return [plan.maxpool_backward(argmax, dy, resolve_arena(ctx))], {}


class AvgPool2D(_Pool2D):
    """Average pooling.  Backward needs neither X nor Y — only shapes.

    One body, as max-pool: the forward is the plan-cache ``im2col``, which is
    bit-identical to the loop ``im2col_reference``
    (``tests/kernels/test_plan_properties.py``), and the backward *is*
    ``col2im_reference``'s loop, on the one column every slot holds.
    """

    kind = "avgpool"
    backward_needs_input = False
    backward_needs_output = False

    def forward(
        self,
        xs: Sequence[np.ndarray],
        params: Dict[str, np.ndarray],
        ctx: Optional[OpContext],
        train: bool = True,
    ) -> np.ndarray:
        from repro.kernels.plan import get_plan

        (x,) = xs
        n, c, _, _ = x.shape
        plan = get_plan(x.shape, self.kh, self.kw, self.stride, self.pad)
        cols = plan.im2col(x, resolve_arena(ctx))
        y = cols.reshape(n, c, plan.S, plan.P).mean(axis=2).reshape(
            n, c, plan.oh, plan.ow)
        if ctx is not None:
            ctx.save_state("in_shape", np.array(x.shape))
        return y.astype(np.float32, copy=False)

    def backward(self, dy, params, ctx):
        from repro.kernels.plan import get_plan

        n, c, h, w = (int(v) for v in ctx.get_state("in_shape"))
        plan = get_plan((n, c, h, w), self.kh, self.kw, self.stride, self.pad)
        arena = resolve_arena(ctx)
        # Every window slot's column is dy / S: col2im_reference's own
        # loop, S strided adds of it into one zeroed padded grid.
        oh, ow, s = plan.oh, plan.ow, self.stride
        share = arena.rent((n, c, oh, ow), dy.dtype)
        np.multiply(dy.reshape(share.shape), 1.0 / plan.S, out=share)
        out = arena.rent((n, plan.Q), dy.dtype)
        out.fill(0)
        grid = out.reshape(n, c, plan.hp, plan.wp)
        for ki in range(self.kh):
            for kj in range(self.kw):
                grid[:, :, ki:ki + s * oh:s, kj:kj + s * ow:s] += share
        return [plan.unpad(out)], {}


class GlobalAvgPool2D(Layer):
    """Average over all spatial positions, producing (N, C, 1, 1)."""

    kind = "gavgpool"

    def infer_shape(self, input_shapes: Sequence[Shape]) -> Shape:
        (shape,) = input_shapes
        n, c, _, _ = shape
        return (n, c, 1, 1)

    def flops(self, input_shapes: Sequence[Shape], output_shape: Shape) -> int:
        return int(np.prod(input_shapes[0]))

    def forward(self, xs, params, ctx, train=True):
        (x,) = xs
        if ctx is not None:
            ctx.save_state("in_shape", np.array(x.shape))
        return x.mean(axis=(2, 3), keepdims=True)

    def backward(self, dy, params, ctx):
        n, c, h, w = (int(v) for v in ctx.get_state("in_shape"))
        dx = np.broadcast_to(dy / (h * w), (n, c, h, w)).astype(dy.dtype)
        return [np.ascontiguousarray(dx)], {}
